"""Compiled-plan caches for the positional algebra kernel.

A *plan* is the scheme-level part of a relational operation, computed once per
scheme pair and reused for every tuple: which positions form the join key,
which positions are copied into the output, and what the output scheme is.
Plans contain only integer pick lists plus a reference to the pre-built output
scheme, so applying one is pure tuple indexing — no per-tuple dict churn, no
attribute-name lookups.

This module is deliberately independent of :mod:`repro.algebra` (the plans
hold schemes as opaque references) so the relation kernel can import it
without creating an import cycle.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from operator import itemgetter
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

__all__ = [
    "JoinPlan",
    "ProjectPlan",
    "LRUPlanCache",
    "make_row_picker",
    "make_key_picker",
    "make_chain_kernel",
    "ChainKernel",
    "GroupedEmission",
    "join_plan_cache",
    "project_plan_cache",
]

RowPicker = Callable[[Tuple[Any, ...]], Tuple[Any, ...]]
KeyPicker = Callable[[Tuple[Any, ...]], Hashable]


#: Picks no column: ``row[0:0]`` is the empty tuple, with no Python frame
#: per row (a join's build side whose every column is a key has no extras).
_empty_picker = itemgetter(slice(0, 0))


def make_row_picker(positions: Tuple[int, ...]) -> RowPicker:
    """Compile positions into a callable returning the picked values *as a tuple*.

    Uses :func:`operator.itemgetter` (a C-level fast path) for two or more
    positions; single positions are wrapped so the result stays a 1-tuple.
    """
    if not positions:
        return _empty_picker
    if len(positions) == 1:
        single = itemgetter(positions[0])

        def pick(row: Tuple[Any, ...]) -> Tuple[Any, ...]:
            return (single(row),)

        pick.single = single  # lets a block's 1-tuples skip the Python frame
        return pick
    return itemgetter(*positions)


def make_key_picker(positions: Tuple[int, ...]) -> KeyPicker:
    """Compile positions into a callable returning a hashable join key.

    Single positions return the bare value (cheaper to hash than a 1-tuple);
    multiple positions return a value tuple.  Keys from the two sides of a
    join agree because both sides use pickers built by this function.
    """
    if not positions:
        return _empty_picker
    return itemgetter(*positions)


class GroupedEmission(NamedTuple):
    """How a lone join with a folded projection emits a block whose output
    repeats: each probe row's emitted columns ``g`` (``group_of``) take the
    union of its matched entries' emitted columns (``part_of``, or the
    entry itself when it is ``None``), and ``emit`` maps those
    ``{g: parts}`` to the rows ``{g} x parts``, once each, in the
    projection's column order.  A side of one column is a bare value.
    """

    group_of: KeyPicker
    part_of: Optional[KeyPicker]
    emit: Callable[[Mapping[Hashable, set]], list]
    source: str


class ChainKernel(NamedTuple):
    """A hash join, or a left-deep run of them, compiled into one comprehension.

    Both callables map ``(block, matches, g2, ..., gN, c2, ..., cN-1)`` — a
    probe block of the bottom join, its table lookups in step with it, the
    ``get`` of every deeper join's table (which maps a key to a tuple of
    entries) and one ``itertools.count(1).__next__`` per join strictly
    between the bottom and the top — to the top join's output rows.
    ``nested`` reads a bottom lookup as a bucket (a tuple of entries, or
    ``None``), ``flat`` as the one entry itself: no inner loop.  Every
    deeper level iterates its bucket.  ``ci`` is called once per row the
    ``i``-th join emits (the bottom's rows are counted off ``matches``, the
    top's off the output).  A lone join is a run of one: ``(block, matches)``.
    ``grouped`` is set on a lone join under a deduplicating projection
    folded into it that keeps only some of the probe key's columns (so
    probe rows of one ``g`` may meet different buckets), else ``None``.
    """

    nested: Callable[..., list]
    flat: Callable[..., list]
    source: str
    depth: int  # how many joins it runs
    grouped: Optional[GroupedEmission] = None


#: A chain kernel's source: two loops over the bottom table, ``{levels}`` above.
_CHAIN_SOURCE = (
    "(lambda block, matches{params}:"
    " [{row} for r0, b1 in zip(block, matches) if b1 for e1 in b1{levels}],\n"
    " lambda block, matches{params}:"
    " [{row} for r0, e1 in zip(block, matches) if e1 is not None{levels}])"
)


#: A whole variable this wide is concatenated, not subscripted, in a display:
#: a ``+`` costs one tuple, a subscript ~1/7 of one (CPython 3.11).
_CONCAT_COLUMNS = 8


Term = Tuple[str, Optional[int]]  # a column as ``(variable, index)``: ``variable[index]``


#: A grouped emission's source: ``g`` and ``p`` are the two sides' columns.
_GROUPED_SOURCE = "lambda acc: [{row} for g, parts in acc.items() for p in parts]"


def _term(term: Term) -> str:
    """A column read as source: ``variable[index]``, or a bare ``variable``."""
    variable, index = term
    return variable if index is None else f"{variable}[{index}]"


def _display(terms: Sequence[Term], places: Mapping[str, List[Term]]) -> str:
    """A tuple expression of ``terms``, in order.

    ``places`` lists each variable's columns as the terms they are read as
    (a built left row's key columns read as the probe row's equal ones).
    Terms that are one variable's columns are that variable, and terms
    that are two variables' columns, in order, their concatenation; a
    variable inside any other list is concatenated only if it is at least
    :data:`_CONCAT_COLUMNS` wide (one memcpy per concatenation).  Every
    other term is a subscript in a literal display.
    """
    terms = list(terms)
    for first, head in places.items():
        for second, tail in places.items():
            if head and tail and terms == head + tail:
                return f"{first} + {second}"
    pieces: List[str] = []
    loose: List[str] = []
    start = 0
    while start < len(terms):
        whole = next(
            (
                name
                for name, columns in places.items()
                if columns
                and (len(columns) == len(terms) or len(columns) >= _CONCAT_COLUMNS)
                and terms[start : start + len(columns)] == columns
            ),
            None,
        )
        if whole is None:
            loose.append(_term(terms[start]))
            start += 1
            continue
        if loose:
            pieces.append(f"({', '.join(loose)},)")
            loose = []
        pieces.append(whole)
        start += len(places[whole])
    if loose:
        pieces.append(f"({', '.join(loose)},)")
    return " + ".join(pieces) or "()"


def _key_display(terms: Sequence[Term], places: Mapping[str, List[Term]]) -> str:
    """The hashable a :func:`make_key_picker` of these columns returns."""
    if len(terms) == 1:
        return _term(terms[0])
    return _display(terms, places)


def make_chain_kernel(
    levels: Sequence[Tuple[bool, "JoinPlan"]],
    emit: Optional[Tuple[int, ...]] = None,
    grouping: bool = False,
) -> ChainKernel:
    """Generate and compile the probe comprehension of a left-deep join run.

    ``levels`` lists ``(build_left, plan)`` per join, bottom first: each
    join's probe rows are the one below's joined rows.  ``emit`` is what
    the top join emits, positions into its ``plan.joined_scheme``; ``None``
    emits all of it.  The bottom probe row is ``r0``, the ``k``-th join's
    table entry ``ek`` (a full left row, or a right row's extras), and every
    joined column is tracked to one ``(variable, index)`` — a join key
    column to the probe side's — so no level builds a row: a deeper key is
    a display of subscripts, and only the top emits (:func:`_display`).
    Only integers reach the source, compiled with ``eval`` as
    :func:`collections.namedtuple` does ``__new__`` — once per distinct
    source, at planning: never per execution.

    ``grouping`` says a deduplicating projection reads what the run emits,
    so a lone join may emit each distinct row of a block once: its kernel
    then carries a :class:`GroupedEmission` (see :func:`_grouped_emission`).
    """
    depth = len(levels)
    places: Dict[str, List[Term]] = {}
    columns: List[Term] = []  # where each column of the running row is read
    loops: List[str] = []
    for level, (build_left, plan) in enumerate(levels, 1):
        entry = f"e{level}"
        left_width = len(plan.joined_scheme) - len(plan.right_extra)
        if level == 1:
            probe_width = (
                len(plan.right_key) + len(plan.right_extra) if build_left else left_width
            )
            columns = places["r0"] = [("r0", index) for index in range(probe_width)]
        probe_key = plan.right_key if build_left else plan.left_key
        key = [columns[index] for index in probe_key]
        if level == 1:
            bottom_key = key
        if level > 1:
            count = f" if c{level}()" if level < depth else ""
            loops.append(
                f" for {entry} in g{level}({_key_display(key, places)}, ()){count}"
            )
        if build_left:
            built = [(entry, index) for index in range(left_width)]
            for index, probe_column in zip(plan.left_key, key):
                built[index] = probe_column
            places[entry] = built
            joined = built + [columns[index] for index in plan.right_extra]
        else:
            places[entry] = [(entry, index) for index in range(len(plan.right_extra))]
            joined = columns + places[entry]
        columns = joined
    terms = columns if emit is None else [columns[p] for p in emit]
    params = "".join(
        [f", g{level}" for level in range(2, depth + 1)]
        + [f", c{level}" for level in range(2, depth)]
    )
    source = _CHAIN_SOURCE.format(
        params=params, row=_display(terms, places), levels="".join(loops)
    )
    grouped = None
    if grouping and depth == 1 and emit is not None:
        grouped = _grouped_emission(terms, bottom_key, len(places["e1"]))
    return ChainKernel(*_compiled(source), source, depth, grouped)


def _compiled(source: str) -> Any:
    """``eval`` of generated ``source``, cached: the same few recur across plans."""
    compiled = _KERNELS.get(source)
    if compiled is None:
        compiled = eval(source, {"__builtins__": {}, "zip": zip})
        _KERNELS.put(source, compiled)
    return compiled


def _grouped_emission(
    terms: Sequence[Term], probe_key: Sequence[Term], entry_width: int
) -> Optional[GroupedEmission]:
    """The grouped emission of a lone join that emits ``terms``, or ``None``
    when they hold every column of the probe key (then one ``g`` meets one
    bucket, and grouping could fold nothing a dedup above would not), or
    when they are the whole entry and nothing of the probe row (then the
    ordinary kernel emits each entry itself and builds no row to save).

    ``g`` lists the emitted probe-row columns and ``p`` the emitted entry
    columns, each in the order they are emitted; either is a bare value
    when it is one column, unless ``p`` is the whole entry (a tuple).
    """
    group = [index for variable, index in terms if variable == "r0"]
    if set(probe_key) <= {("r0", index) for index in group}:
        return None
    part = [index for variable, index in terms if variable != "r0"]
    whole = part == list(range(entry_width))
    if whole and not group:
        return None
    g = [("g", None)] if len(group) == 1 else [("g", i) for i in range(len(group))]
    p = [("p", None)] if len(part) == 1 and not whole else [("p", i) for i in range(len(part))]
    g_read, p_read = iter(g), iter(p)
    renamed = [next(g_read if variable == "r0" else p_read) for variable, _ in terms]
    # A bare value is never a whole variable to concatenate.
    places = {name: side for name, side in (("g", g), ("p", p)) if (name, None) not in side}
    source = _GROUPED_SOURCE.format(row=_display(renamed, places))
    return GroupedEmission(
        make_key_picker(tuple(group)),
        None if whole else make_key_picker(tuple(part)),
        _compiled(source),
        source,
    )


@dataclass(frozen=True)
class JoinPlan:
    """A compiled natural join for one ordered pair of relation schemes.

    Applying the plan to a left value tuple ``l`` and right value tuple ``r``
    that agree on the key produces the output values
    ``l + tuple(r[i] for i in right_extra)`` over ``joined_scheme`` — the
    union scheme in left-then-new-right attribute order, exactly as
    ``RelationScheme.union`` builds it.
    """

    joined_scheme: Any
    common_names: Tuple[str, ...]
    left_key: Tuple[int, ...]
    right_key: Tuple[int, ...]
    right_extra: Tuple[int, ...]
    # Compiled C-level pickers for the positions above, built in __post_init__.
    left_key_of: KeyPicker = field(init=False, compare=False, repr=False)
    right_key_of: KeyPicker = field(init=False, compare=False, repr=False)
    right_extra_of: RowPicker = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "left_key_of", make_key_picker(self.left_key))
        object.__setattr__(self, "right_key_of", make_key_picker(self.right_key))
        object.__setattr__(self, "right_extra_of", make_row_picker(self.right_extra))

    @property
    def is_product(self) -> bool:
        """Whether the schemes are disjoint (the join degenerates to a product)."""
        return not self.common_names


@dataclass(frozen=True)
class ProjectPlan:
    """A compiled projection: positions to pick and the pre-built target scheme."""

    target_scheme: Any
    picks: Tuple[int, ...]
    pick: RowPicker = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "pick", make_row_picker(self.picks))


class LRUPlanCache:
    """A small least-recently-used cache mapping plan keys to compiled plans.

    Keys are hashable scheme fingerprints (attribute names plus their
    domains — names alone would hand one scheme's domain metadata to a
    same-named scheme without it); values are plan objects.  The cache is
    bounded so pathological workloads with unboundedly many distinct schemes
    cannot leak memory.
    """

    __slots__ = ("_maxsize", "_data")

    def __init__(self, maxsize: int = 1024):
        if maxsize <= 0:
            raise ValueError("plan cache maxsize must be positive")
        self._maxsize = maxsize
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()

    def get(self, key: Hashable) -> Optional[Any]:
        """Return the cached plan for ``key``, refreshing its recency, or ``None``."""
        data = self._data
        plan = data.get(key)
        if plan is not None:
            data.move_to_end(key)
        return plan

    def put(self, key: Hashable, plan: Any) -> None:
        """Insert a plan, evicting the least recently used entry when full."""
        data = self._data
        if key in data:
            data.move_to_end(key)
        data[key] = plan
        if len(data) > self._maxsize:
            data.popitem(last=False)

    def clear(self) -> None:
        """Drop every cached plan."""
        self._data.clear()

    def __len__(self) -> int:
        return len(self._data)

    @property
    def maxsize(self) -> int:
        """The configured capacity bound."""
        return self._maxsize


_JOIN_PLANS = LRUPlanCache(maxsize=1024)
_KERNELS = LRUPlanCache(maxsize=1024)  # keyed by kernel source
_PROJECT_PLANS = LRUPlanCache(maxsize=2048)


def join_plan_cache() -> LRUPlanCache:
    """Return the process-global join plan cache."""
    return _JOIN_PLANS


def project_plan_cache() -> LRUPlanCache:
    """Return the process-global projection plan cache."""
    return _PROJECT_PLANS
