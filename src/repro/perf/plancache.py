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
from typing import Any, Callable, Hashable, Iterable, Iterator, Optional, Tuple

__all__ = [
    "JoinPlan",
    "ProjectPlan",
    "LRUPlanCache",
    "make_block_picker",
    "make_row_picker",
    "make_key_picker",
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
_PROJECT_PLANS = LRUPlanCache(maxsize=2048)


def join_plan_cache() -> LRUPlanCache:
    """Return the process-global join plan cache."""
    return _JOIN_PLANS


def project_plan_cache() -> LRUPlanCache:
    """Return the process-global projection plan cache."""
    return _PROJECT_PLANS
