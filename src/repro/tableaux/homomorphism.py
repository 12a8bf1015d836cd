"""Homomorphisms between tableaux and Chandra–Merlin containment.

A homomorphism from tableau ``T2`` to tableau ``T1`` is a mapping of the
variables of ``T2`` to cells of ``T1`` that (i) maps every summary cell of
``T2`` to the corresponding summary cell of ``T1`` and (ii) maps every row of
``T2`` onto some row of ``T1`` targeting the same operand.  The classical
Chandra–Merlin theorem then gives *query* containment: ``φ1 ⊆ φ2`` (as
mappings over all databases) iff such a homomorphism exists.

Note the direction and the distinction from the paper's Theorems 4-5: the
paper studies containment *with respect to a fixed database*
(``φ1(R) ⊆ φ2(R)`` for a given R), which is a Π₂ᵖ-complete problem; the
homomorphism test here decides containment over *all* databases, an
NP-complete problem.  Both are implemented so the benchmark harness can
contrast them.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from ..expressions.ast import Expression, ExpressionError, Join, Operand, Projection
from .tableau import (
    Constant,
    Tableau,
    TableauCell,
    TableauRow,
    tableau_of_expression,
)

__all__ = [
    "find_homomorphism",
    "query_contained_in",
    "query_equivalent",
    "minimize_tableau",
    "minimize_expression",
]


def _cells_compatible(source: TableauCell, target: TableauCell) -> bool:
    """Whether a source cell may map to a target cell."""
    if isinstance(source, Constant):
        return isinstance(target, Constant) and source.value == target.value
    # Variables can map to anything (constant or variable).
    return True


def find_homomorphism(source: Tableau, target: Tableau) -> Optional[Dict[TableauCell, TableauCell]]:
    """Find a homomorphism from ``source`` into ``target``.

    Returns the cell mapping, or ``None`` when no homomorphism exists.  The
    summary rows must be over the same target scheme; distinguished cells of
    the source are required to map to the target's summary cells of the same
    attribute (the standard "summary is preserved" condition).
    """
    if source.target_scheme != target.target_scheme:
        return None

    mapping: Dict[TableauCell, TableauCell] = {}
    for attribute in source.target_scheme.names:
        source_cell = source.summary[attribute]
        target_cell = target.summary[attribute]
        if isinstance(source_cell, Constant):
            if not _cells_compatible(source_cell, target_cell):
                return None
            continue
        if source_cell in mapping and mapping[source_cell] != target_cell:
            return None
        mapping[source_cell] = target_cell

    return _extend_homomorphism(list(source.rows), 0, mapping, target)


def _row_match(
    source_row: TableauRow,
    target_row: TableauRow,
    mapping: Dict[TableauCell, TableauCell],
) -> Optional[Dict[TableauCell, TableauCell]]:
    """Try to map one source row onto one target row, extending ``mapping``."""
    if source_row.operand != target_row.operand:
        return None
    # Rows built by tableau_of_expression always cover the operand's full
    # scheme in the scheme's fixed attribute order, but Tableau/TableauRow are
    # public, so hand-built rows may disagree: differing attribute *sets* are
    # a graceful no-match (a mere order difference is fine — cells are looked
    # up by name below).
    if source_row.attributes != target_row.attributes and set(
        source_row.attributes
    ) != set(target_row.attributes):
        return None
    target_cells = target_row.cell_map
    extended = dict(mapping)
    for attribute, source_cell in source_row.cell_map.items():
        target_cell = target_cells[attribute]
        if isinstance(source_cell, Constant):
            if not _cells_compatible(source_cell, target_cell):
                return None
            continue
        image = extended.setdefault(source_cell, target_cell)
        if image is not target_cell and image != target_cell:
            return None
    return extended


def _extend_homomorphism(
    rows: List[TableauRow],
    index: int,
    mapping: Dict[TableauCell, TableauCell],
    target: Tableau,
) -> Optional[Dict[TableauCell, TableauCell]]:
    if index == len(rows):
        return mapping
    source_row = rows[index]
    for target_row in target.rows:
        extended = _row_match(source_row, target_row, mapping)
        if extended is None:
            continue
        result = _extend_homomorphism(rows, index + 1, extended, target)
        if result is not None:
            return result
    return None


def query_contained_in(first: Expression, second: Expression) -> bool:
    """Decide ``first ⊆ second`` as query mappings (over *all* databases).

    By Chandra–Merlin, this holds iff there is a homomorphism from the tableau
    of ``second`` into the tableau of ``first``.
    """
    source = tableau_of_expression(second)
    target = tableau_of_expression(first)
    return find_homomorphism(source, target) is not None


def query_equivalent(first: Expression, second: Expression) -> bool:
    """Decide query equivalence over all databases (containment both ways)."""
    first_tableau = tableau_of_expression(first)
    second_tableau = tableau_of_expression(second)
    return (
        find_homomorphism(second_tableau, first_tableau) is not None
        and find_homomorphism(first_tableau, second_tableau) is not None
    )


class _EncodedRow(NamedTuple):
    """A tableau row as :func:`_foldable` reads it.  Equal cells get equal
    ids; the cells a homomorphism into the same tableau fixes — the
    summary's variables and every constant — get negative ones."""

    operand: str
    cells: Dict[str, int]  # attribute -> cell id
    items: FrozenSet[Tuple[str, int]]  # cells.items()
    fixed: FrozenSet[Tuple[str, int]]  # the items with a fixed cell


def _encode(tableau: Tableau) -> List[_EncodedRow]:
    summary = tableau.summary
    pinned = {summary[name] for name in tableau.target_scheme.names}
    ids: Dict[TableauCell, int] = {}
    encoded = []
    for row in tableau.rows:
        cells = {}
        for attribute, cell in row.cell_map.items():
            if cell not in ids:
                sign = -1 if isinstance(cell, Constant) or cell in pinned else 1
                ids[cell] = sign * (len(ids) + 1)
            cells[attribute] = ids[cell]
        items = frozenset(cells.items())
        fixed = frozenset(item for item in items if item[1] < 0)
        encoded.append(_EncodedRow(row.operand, cells, items, fixed))
    return encoded


def _foldable(rows: Sequence[_EncodedRow]) -> Iterator[int]:
    """The indices of the ``rows`` that might fold onto another of them, in
    order, each found as it is asked for.

    A homomorphism from ``rows`` into ``rows`` minus row ``r`` fixes every
    summary variable and constant and sends ``r`` to some other row ``t`` of
    the same operand, so ``t`` must repeat each of ``r``'s fixed cells.  It
    also sends each variable of ``r`` to ``t``'s cell in the same column; when
    that cell occurs in no row but ``r`` and ``t``, every other row holding
    the variable must go to ``t`` as well, and repeat its fixed cells there.
    Both conditions are necessary, so a row that fails them never drops, and
    testing them takes set operations, not a search.
    """
    holders: Dict[int, set] = {}
    for index, row in enumerate(rows):
        for ident in row.cells.values():
            holders.setdefault(ident, set()).add(index)

    def repeats(source: int, target: int) -> bool:
        return (
            rows[source].operand == rows[target].operand
            and rows[source].cells.keys() == rows[target].cells.keys()
            and rows[source].fixed <= rows[target].items
        )

    def folds_onto(source: int, target: int) -> bool:
        if source == target or not repeats(source, target):
            return False
        images = rows[target].cells
        pair = {source, target}
        for attribute, ident in rows[source].cells.items():
            image = images[attribute]
            if ident < 0 or image < 0 or image == ident or not holders[image] <= pair:
                continue
            if not all(repeats(other, target) for other in holders[ident] - pair):
                return False
        return True

    for index in range(len(rows)):
        if any(folds_onto(index, target) for target in range(len(rows))):
            yield index


def minimize_tableau(tableau: Tableau) -> Tableau:
    """Return an equivalent tableau with a minimal set of rows.

    Repeatedly drops the first row that folds onto the others: one for which
    there is a homomorphism from the current tableau into the tableau without
    it.  Only rows that pass :func:`_foldable`'s necessary conditions are
    searched, so a tableau none of whose rows passes costs no search.  This is
    the classical tableau-minimisation procedure; the result is unique up to
    isomorphism for conjunctive queries.
    """
    encoded = _encode(tableau)
    current = list(range(len(tableau.rows)))
    changed = True
    while changed and len(current) > 1:
        changed = False
        full = Tableau(tableau.summary, [tableau.rows[i] for i in current], tableau.target_scheme)
        for index in _foldable([encoded[i] for i in current]):
            candidate = current[:index] + current[index + 1:]
            reduced = Tableau(
                tableau.summary, [tableau.rows[i] for i in candidate], tableau.target_scheme
            )
            if find_homomorphism(full, reduced) is not None:
                current = candidate
                changed = True
                break
    return Tableau(tableau.summary, [tableau.rows[i] for i in current], tableau.target_scheme)


def minimize_expression(expression: Expression) -> Expression:
    """An expression equivalent to ``expression`` over every database, with
    the join operands its minimal tableau does not need taken out.

    Returns ``expression`` itself — no search run — when no operand occurs
    twice or no tableau row passes :func:`_foldable`.  Otherwise the kept
    rows of :func:`minimize_tableau` name the kept leaves (the tableau has one
    row per leaf, in leaf order), the rest are cut from the tree, and the
    cut tree is returned only if :func:`query_equivalent` certifies it and
    its columns come out in the same order; else ``expression`` is.  Rows
    fold only onto rows of the same operand, so every operand name survives.
    """
    names = [node.name for node in expression.walk() if isinstance(node, Operand)]
    if len(set(names)) == len(names):
        return expression
    tableau = tableau_of_expression(expression)
    kept = {id(row) for row in minimize_tableau(tableau).rows}
    if len(kept) == len(tableau.rows):
        return expression
    try:
        smaller = _cut(expression, iter([id(row) in kept for row in tableau.rows]))
    except ExpressionError:  # a projection lost a column it reads
        return expression
    if (
        smaller.target_scheme().names == expression.target_scheme().names
        and query_equivalent(smaller, expression)
    ):
        return smaller
    return expression


def _cut(node: Expression, keep: Iterator[bool]) -> Optional[Expression]:
    """``node`` with the leaves ``keep`` says no to (one flag per leaf, in
    leaf order) taken out; ``None`` if none is left."""
    if isinstance(node, Operand):
        return node if next(keep) else None
    if isinstance(node, Projection):
        child = _cut(node.child, keep)
        return None if child is None else Projection(node.target, child)
    parts = [part for part in (_cut(part, keep) for part in node.parts) if part is not None]
    if not parts:
        return None
    return parts[0] if len(parts) == 1 else Join(parts)
