"""Tableaux for projection-join expressions.

Proposition 2 of the paper observes that tuple membership ``t ∈ φ(R)`` is in
NP, "alternatively, one may consider the tableau (Aho et al., 1979)
corresponding to φ, and guess a valuation showing that t ∈ φ(R)".  This module
implements that tableau view:

* a :class:`Tableau` is a summary row plus a set of rows over a universe of
  attributes, with each cell holding a distinguished variable, a
  nondistinguished variable, or a constant;
* :func:`tableau_of_expression` converts a projection-join expression into its
  tableau (one row per operand occurrence);
* a *valuation* maps tableau variables to domain values; applying a tableau to
  a database means finding valuations whose rows all land in the corresponding
  relations — which is exactly the NP certificate of Proposition 2.

The tableau is also the bridge to conjunctive-query containment
(Chandra–Merlin): ``φ1 ⊆ φ2`` as query mappings iff there is a homomorphism
from the tableau of ``φ2`` into the tableau of ``φ1``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, Hashable, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from ..algebra.relation import Relation
from ..algebra.schema import RelationScheme
from ..algebra.tuples import RelationTuple
from ..expressions.ast import Expression, ExpressionError, Join, Operand, Projection

__all__ = [
    "TableauCell",
    "DistinguishedVariable",
    "NondistinguishedVariable",
    "Constant",
    "TableauRow",
    "Tableau",
    "tableau_of_expression",
]


@dataclass(frozen=True)
class DistinguishedVariable:
    """A variable appearing in the summary row (an output attribute)."""

    attribute: str

    def __str__(self) -> str:
        return f"a_{self.attribute}"


@dataclass(frozen=True)
class NondistinguishedVariable:
    """A variable not visible in the summary (projected away)."""

    index: int
    attribute: str

    def __str__(self) -> str:
        return f"b{self.index}_{self.attribute}"


@dataclass(frozen=True)
class Constant:
    """A constant cell (not produced by the expression translation, but usable)."""

    value: Hashable

    def __str__(self) -> str:
        return repr(self.value)


TableauCell = Union[DistinguishedVariable, NondistinguishedVariable, Constant]


@dataclass(frozen=True)
class TableauRow:
    """One row of a tableau: the operand it targets and its cells.

    ``operand`` names the relation the row must map into; ``cells`` maps each
    attribute of that operand's scheme to a tableau cell.
    """

    operand: str
    cells: Tuple[Tuple[str, TableauCell], ...]

    def cell(self, attribute: str) -> TableauCell:
        """Return the cell for ``attribute``."""
        return self.cell_map[attribute]

    @cached_property
    def cell_map(self) -> Dict[str, TableauCell]:
        """The cells keyed by attribute (the first cell wins on a repeat)."""
        return dict(reversed(self.cells))

    @property
    def attributes(self) -> Tuple[str, ...]:
        """The attributes this row covers, in order."""
        return tuple(name for name, _ in self.cells)

    def variables(self) -> Tuple[TableauCell, ...]:
        """The non-constant cells of the row."""
        return tuple(
            cell for _, cell in self.cells if not isinstance(cell, Constant)
        )


class Tableau:
    """A tableau: summary row + rows, each row targeted at an operand relation."""

    def __init__(
        self,
        summary: Mapping[str, TableauCell],
        rows: Sequence[TableauRow],
        target_scheme: RelationScheme,
    ):
        self._summary: Dict[str, TableauCell] = dict(summary)
        self._rows: Tuple[TableauRow, ...] = tuple(rows)
        self._target_scheme = target_scheme
        missing = set(target_scheme.names) - set(self._summary)
        if missing:
            raise ExpressionError(
                f"summary row misses target attributes {sorted(missing)}"
            )

    # -- accessors -------------------------------------------------------

    @property
    def summary(self) -> Dict[str, TableauCell]:
        """The summary row: one cell per target attribute."""
        return dict(self._summary)

    @property
    def rows(self) -> Tuple[TableauRow, ...]:
        """The tableau rows."""
        return self._rows

    @property
    def target_scheme(self) -> RelationScheme:
        """The scheme of the expression the tableau represents."""
        return self._target_scheme

    def operand_names(self) -> FrozenSet[str]:
        """The operand relation names the rows refer to."""
        return frozenset(row.operand for row in self._rows)

    def all_variables(self) -> FrozenSet[TableauCell]:
        """Every variable cell appearing in the summary or any row."""
        variables: set = set()
        for cell in self._summary.values():
            if not isinstance(cell, Constant):
                variables.add(cell)
        for row in self._rows:
            for _, cell in row.cells:
                if not isinstance(cell, Constant):
                    variables.add(cell)
        return frozenset(variables)

    def __repr__(self) -> str:
        return (
            f"Tableau(target={self._target_scheme}, rows={len(self._rows)}, "
            f"variables={len(self.all_variables())})"
        )

    def to_text(self) -> str:
        """A readable multi-line rendering of the tableau."""
        lines = ["summary: " + ", ".join(
            f"{name}={self._summary[name]}" for name in self._target_scheme.names
        )]
        for index, row in enumerate(self._rows):
            rendered = ", ".join(f"{name}={cell}" for name, cell in row.cells)
            lines.append(f"row {index} -> {row.operand}: {rendered}")
        return "\n".join(lines)

    # -- semantics ---------------------------------------------------------

    def satisfying_valuations(
        self, relations: Mapping[str, Relation]
    ) -> Iterator[Dict[TableauCell, Hashable]]:
        """Yield every valuation of the tableau variables consistent with ``relations``.

        A valuation maps each variable to a value such that every row, once
        its cells are replaced by their values, is a tuple of the relation the
        row targets.  Enumeration proceeds row by row with backtracking —
        worst-case exponential, as the NP-hardness results promise.  The row
        to branch on is chosen dynamically: always the remaining row with the
        most cells already pinned (constants or bound variables), which prunes
        hopeless branches early and makes the search order deterministic
        instead of a set-iteration-order lottery.
        """
        yield from self._extend({}, list(self._rows), relations)

    @staticmethod
    def _most_constrained(
        rows: List[TableauRow], valuation: Dict[TableauCell, Hashable]
    ) -> int:
        """Index of the row with the most constant/already-bound cells."""
        best_index = 0
        best_score = -1
        for index, row in enumerate(rows):
            score = sum(
                1
                for _, cell in row.cells
                if isinstance(cell, Constant) or cell in valuation
            )
            if score > best_score:
                best_score = score
                best_index = index
        return best_index

    def _extend(
        self,
        valuation: Dict[TableauCell, Hashable],
        remaining: List[TableauRow],
        relations: Mapping[str, Relation],
    ) -> Iterator[Dict[TableauCell, Hashable]]:
        if not remaining:
            yield dict(valuation)
            return
        choice = self._most_constrained(remaining, valuation)
        row = remaining[choice]
        rest = remaining[:choice] + remaining[choice + 1:]
        relation = relations[row.operand]
        for tup in relation:
            extended = self._match_row(row, tup, valuation)
            if extended is not None:
                yield from self._extend(extended, rest, relations)

    @staticmethod
    def _match_row(
        row: TableauRow,
        tup: RelationTuple,
        valuation: Dict[TableauCell, Hashable],
    ) -> Optional[Dict[TableauCell, Hashable]]:
        extended = dict(valuation)
        for attribute, cell in row.cells:
            value = tup[attribute]
            if isinstance(cell, Constant):
                if cell.value != value:
                    return None
                continue
            if cell in extended:
                if extended[cell] != value:
                    return None
            else:
                extended[cell] = value
        return extended

    def produces_tuple(
        self, candidate: RelationTuple, relations: Mapping[str, Relation]
    ) -> Optional[Dict[TableauCell, Hashable]]:
        """Return a valuation witnessing ``candidate ∈ φ(relations)`` or ``None``.

        This is the Proposition 2 certificate check: the summary cells are
        pinned to the candidate tuple's values, and a consistent valuation of
        the remaining variables is searched for.
        """
        if candidate.scheme != self._target_scheme:
            return None
        pinned: Dict[TableauCell, Hashable] = {}
        for name in self._target_scheme.names:
            cell = self._summary[name]
            value = candidate[name]
            if isinstance(cell, Constant):
                if cell.value != value:
                    return None
            elif cell in pinned and pinned[cell] != value:
                return None
            else:
                pinned[cell] = value
        for valuation in self._extend(pinned, list(self._rows), relations):
            return valuation
        return None

    def evaluate(self, relations: Mapping[str, Relation]) -> Relation:
        """Compute the relation defined by the tableau on ``relations``.

        Equivalent to evaluating the original expression; used by tests to
        check the expression-to-tableau translation.
        """
        tuples: List[RelationTuple] = []
        for valuation in self.satisfying_valuations(relations):
            values: Dict[str, Hashable] = {}
            for name in self._target_scheme.names:
                cell = self._summary[name]
                values[name] = (
                    cell.value if isinstance(cell, Constant) else valuation[cell]
                )
            tuples.append(RelationTuple(self._target_scheme, values))
        return Relation(self._target_scheme, tuples)


def tableau_of_expression(expression: Expression) -> Tableau:
    """Translate a projection-join expression into an equivalent tableau.

    Each occurrence of an operand becomes one row.  Attributes visible in the
    expression's target scheme become distinguished variables; attributes
    projected away become nondistinguished variables.  Join merges the rows of
    its operands and identifies the variables of shared *visible* attributes —
    achieved here by naming variables after the attribute and the scope in
    which they were introduced.
    """
    counter = itertools.count()
    target = expression.target_scheme()
    summary: Dict[str, TableauCell] = {
        name: DistinguishedVariable(name) for name in target.names
    }
    rows = _rows_of(expression, {name: summary[name] for name in target.names}, counter)
    return Tableau(summary, rows, target)


def _rows_of(
    node: Expression,
    visible: Mapping[str, TableauCell],
    counter: "itertools.count",
) -> List[TableauRow]:
    """Build rows for ``node``; ``visible`` maps attribute -> cell for attributes
    whose identity is shared with the context above ``node``."""
    if isinstance(node, Operand):
        cells: List[Tuple[str, TableauCell]] = []
        for attribute in node.scheme.names:
            if attribute in visible:
                cells.append((attribute, visible[attribute]))
            else:
                cells.append(
                    (attribute, NondistinguishedVariable(next(counter), attribute))
                )
        return [TableauRow(node.name, tuple(cells))]

    if isinstance(node, Projection):
        # Attributes outside the projection target lose their connection to
        # the context; attributes inside keep the context's cells.  Attributes
        # of the child that are not in the context but *are* shared between
        # sub-expressions of the child are handled by the recursive call on
        # the child (a Join) itself.
        child_visible = {
            attribute: cell
            for attribute, cell in visible.items()
            if attribute in node.target.name_set
        }
        return _rows_of(node.child, child_visible, counter)

    if isinstance(node, Join):
        # Attributes shared by two or more join operands must be identified,
        # even if the context does not see them: create a cell for every
        # attribute visible to the join (context cells take precedence).
        appearance: Dict[str, int] = {}
        for part in node.parts:
            for attribute in part.target_scheme().names:
                appearance[attribute] = appearance.get(attribute, 0) + 1
        join_visible: Dict[str, TableauCell] = dict(visible)
        for attribute, count in appearance.items():
            if count > 1 and attribute not in join_visible:
                join_visible[attribute] = NondistinguishedVariable(
                    next(counter), attribute
                )
        rows: List[TableauRow] = []
        for part in node.parts:
            part_attributes = set(part.target_scheme().names)
            part_visible = {
                attribute: cell
                for attribute, cell in join_visible.items()
                if attribute in part_attributes
            }
            rows.extend(_rows_of(part, part_visible, counter))
        return rows

    raise ExpressionError(f"unknown expression node {node!r}")
