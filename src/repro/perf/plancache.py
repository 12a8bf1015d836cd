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
from functools import partial
from operator import itemgetter
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
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
    "make_block_picker",
    "make_row_picker",
    "make_key_picker",
    "make_probe_kernel",
    "make_chain_kernel",
    "ProbeKernel",
    "ChainKernel",
    "join_plan_cache",
    "project_plan_cache",
]

RowPicker = Callable[[Tuple[Any, ...]], Tuple[Any, ...]]
BlockPicker = Callable[[Iterable[Tuple[Any, ...]]], Iterator[Tuple[Any, ...]]]
KeyPicker = Callable[[Tuple[Any, ...]], Hashable]


def _empty_picker(row: Tuple[Any, ...]) -> Tuple[Any, ...]:
    return ()


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

        pick.single = single  # lets make_block_picker skip the Python frame
        return pick
    return itemgetter(*positions)


def make_block_picker(pick: RowPicker) -> BlockPicker:
    """Lift a row picker to whole blocks: ``block -> iterator of picked rows``.

    The iterator is driven from C (``map``), so the interpreter runs once per
    block; a single-column picker from :func:`make_row_picker` becomes
    ``zip(map(getter, block))``, whose 1-tuples need no per-row Python call.
    """
    single = getattr(pick, "single", None)
    if single is not None:
        return lambda block: zip(map(single, block))
    return partial(map, pick)


def make_key_picker(positions: Tuple[int, ...]) -> KeyPicker:
    """Compile positions into a callable returning a hashable join key.

    Single positions return the bare value (cheaper to hash than a 1-tuple);
    multiple positions return a value tuple.  Keys from the two sides of a
    join agree because both sides use pickers built by this function.
    """
    if not positions:
        return _empty_picker
    return itemgetter(*positions)


class ProbeKernel(NamedTuple):
    """A hash join's emission, compiled for one build side and one emit list.

    Both callables map ``(block, matches, extra_of)`` — a probe block, its
    table lookups in step with it, the right side's extras picker — to the
    block's output rows.  ``nested`` reads a lookup as a bucket (a tuple of
    entries, or ``None``), ``flat`` as the one entry itself: no inner loop.
    """

    nested: Callable[..., list]
    flat: Callable[..., list]
    source: str  # what was compiled, for explain output and debugging


#: A probe kernel's source: the nested and the flat loop around one row display.
_PROBE_SOURCE = (
    "(lambda block, matches, extra_of:"
    " [{row} for {probe}, bucket in zip({rows}, matches) if bucket for {entry} in bucket],\n"
    " lambda block, matches, extra_of:"
    " [{row} for {probe}, {entry} in zip({rows}, matches) if {entry} is not None])"
)


def make_probe_kernel(
    build_left: bool,
    plan: Optional["JoinPlan"] = None,
    emit: Optional[Tuple[int, ...]] = None,
) -> ProbeKernel:
    """Generate and compile the probe comprehension of one hash join.

    ``emit`` lists the output columns as positions into ``left ++ extras``
    (``plan.joined_scheme``), in output order; ``None`` emits all of them.
    Table entries are full left rows ``l`` (``build_left``) or right extras
    ``e``; the probe row is the other side's.  The row display is ``l + e``
    when nothing is dropped, the probe row or the entry itself when the list
    is exactly that tuple, else a literal such as ``(l[2], e[0],)`` reading
    every column the probe row carries (on the right: extras *and* join key)
    from it, so no extras tuple is made.  Only integers reach the source,
    compiled with ``eval`` as :func:`collections.namedtuple` does ``__new__``
    — once per distinct source, at planning: never per execution.
    """
    probe, entry = ("r", "l") if build_left else ("l", "e")
    rows, row = "block", "l + e"
    if emit is None and build_left:
        probe, rows = "e", "map(extra_of, block)"  # one extras tuple per probe row
    elif emit is not None:
        left_width = len(plan.joined_scheme) - len(plan.right_extra)
        # Joined position -> index in a left row, a right row, a right row's extras.
        of_left = {p: p for p in range(left_width)}
        of_right = dict(zip(plan.left_key, plan.right_key))
        of_right.update(enumerate(plan.right_extra, left_width))
        of_extras = {left_width + k: k for k in range(len(plan.right_extra))}
        of_probe, of_entry = (of_right, of_left) if build_left else (of_left, of_extras)
        terms = [
            f"{probe}[{of_probe[p]}]" if p in of_probe else f"{entry}[{of_entry[p]}]"
            for p in emit
        ]
        row = f"({', '.join(terms)},)" if terms else "()"
        for name, where in ((entry, of_entry), (probe, of_probe)):
            if [where.get(p) for p in emit] == list(range(len(where))):
                row = name  # the list *is* that tuple: allocate nothing
    source = _PROBE_SOURCE.format(row=row, probe=probe, entry=entry, rows=rows)
    return _compiled(source, lambda nested, flat: ProbeKernel(nested, flat, source))


def _compiled(source: str, make: Callable[[Callable, Callable], Any]) -> Any:
    """``make(nested, flat)`` of a kernel source's two loops, memoised by
    source: the same few displays recur across plans and re-plans."""
    kernel = _PROBE_KERNELS.get(source)
    if kernel is None:
        kernel = make(*eval(source, {"__builtins__": {}, "zip": zip, "map": map}))
        _PROBE_KERNELS.put(source, kernel)
    return kernel


class ChainKernel(NamedTuple):
    """A left-deep run of hash joins, compiled into one comprehension.

    Both callables map ``(block, matches, g2, ..., gN, c2, ..., cN-1)`` — a
    probe block of the bottom join, its table lookups in step with it, the
    ``get`` of every deeper join's table (which maps a key to a tuple of
    entries) and one ``itertools.count(1).__next__`` per join strictly
    between the bottom and the top — to the top join's output rows.
    ``nested`` and ``flat`` read the bottom lookup as :class:`ProbeKernel`
    does; every deeper level iterates its bucket.  ``ci`` is called once per
    row the ``i``-th join emits (the bottom's rows are counted off
    ``matches``, the top's off the output).
    """

    nested: Callable[..., list]
    flat: Callable[..., list]
    source: str
    depth: int  # how many joins it runs


#: A chain kernel's source: two loops over the bottom table, ``{levels}`` above.
_CHAIN_SOURCE = (
    "(lambda block, matches, {params}:"
    " [{row} for r0, b1 in zip(block, matches) if b1 for e1 in b1{levels}],\n"
    " lambda block, matches, {params}:"
    " [{row} for r0, e1 in zip(block, matches) if e1 is not None{levels}])"
)


#: A whole variable this wide is concatenated, not subscripted, in a display:
#: a ``+`` costs one tuple, a subscript ~1/7 of one (CPython 3.11).
_CONCAT_COLUMNS = 8


def _display(terms: Sequence[Tuple[str, int]], widths: Mapping[str, int]) -> str:
    """A tuple expression of ``terms``, ``(variable, index)`` pairs in order.

    Terms that are all of one variable, in order, are that variable; so is
    a run of them inside a longer list if the variable is at least
    :data:`_CONCAT_COLUMNS` wide (one memcpy per concatenation).  Every
    other term is a subscript in a literal display.
    """
    pieces: List[str] = []
    loose: List[str] = []
    start = 0
    while start < len(terms):
        name, first = terms[start]
        width = widths[name]
        whole = width == len(terms) or width >= _CONCAT_COLUMNS
        if whole and first == 0 and list(terms[start : start + width]) == [
            (name, index) for index in range(width)
        ]:
            if loose:
                pieces.append(f"({', '.join(loose)},)")
                loose = []
            pieces.append(name)
            start += width
            continue
        loose.append(f"{name}[{first}]")
        start += 1
    if loose:
        pieces.append(f"({', '.join(loose)},)")
    return " + ".join(pieces) or "()"


def _key_display(terms: Sequence[Tuple[str, int]], widths: Mapping[str, int]) -> str:
    """The hashable a :func:`make_key_picker` of these columns returns."""
    if len(terms) == 1:
        return "{}[{}]".format(*terms[0])
    return _display(terms, widths)


def make_chain_kernel(
    levels: Sequence[Tuple[bool, "JoinPlan"]], emit: Optional[Tuple[int, ...]] = None
) -> ChainKernel:
    """Generate and compile the probe comprehension of a left-deep join run.

    ``levels`` lists ``(build_left, plan)`` per join, bottom first: each
    join's probe rows are the one below's joined rows.  ``emit`` is what
    the top join emits, positions into its ``plan.joined_scheme``; ``None``
    emits all of it.  The bottom probe row is ``r0``, the ``k``-th join's
    table entry ``ek`` (a full left row, or a right row's extras), and every
    joined column is tracked to one ``(variable, index)``, so no level
    builds a row: a deeper key is a display of subscripts, and only the top
    emits (:func:`_display`).  Compiled like :func:`make_probe_kernel`, once
    per distinct source, at planning.
    """
    depth = len(levels)
    widths: Dict[str, int] = {}
    columns: List[Tuple[str, int]] = []  # where each column of the running row lives
    loops: List[str] = []
    for level, (build_left, plan) in enumerate(levels, 1):
        entry = f"e{level}"
        left_width = len(plan.joined_scheme) - len(plan.right_extra)
        if level == 1:
            probe_width = (
                len(plan.right_key) + len(plan.right_extra) if build_left else left_width
            )
            widths["r0"] = probe_width
            columns = [("r0", index) for index in range(probe_width)]
        probe_key = plan.right_key if build_left else plan.left_key
        key = [columns[index] for index in probe_key]
        if build_left:
            widths[entry] = left_width
            joined = [(entry, index) for index in range(left_width)]
            joined += [columns[index] for index in plan.right_extra]
        else:
            widths[entry] = len(plan.right_extra)
            joined = columns + [(entry, index) for index in range(len(plan.right_extra))]
        if level > 1:
            count = f" if c{level}()" if level < depth else ""
            loops.append(
                f" for {entry} in g{level}({_key_display(key, widths)}, ()){count}"
            )
        columns = joined
    row = _display(columns if emit is None else [columns[p] for p in emit], widths)
    params = ", ".join(
        [f"g{level}" for level in range(2, depth + 1)]
        + [f"c{level}" for level in range(2, depth)]
    )
    source = _CHAIN_SOURCE.format(params=params, row=row, levels="".join(loops))
    return _compiled(source, lambda nested, flat: ChainKernel(nested, flat, source, depth))


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
_PROBE_KERNELS = LRUPlanCache(maxsize=1024)  # keyed by kernel source
_PROJECT_PLANS = LRUPlanCache(maxsize=2048)


def join_plan_cache() -> LRUPlanCache:
    """Return the process-global join plan cache."""
    return _JOIN_PLANS


def project_plan_cache() -> LRUPlanCache:
    """Return the process-global projection plan cache."""
    return _PROJECT_PLANS
