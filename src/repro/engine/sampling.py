"""Sampling-based cardinality estimation.

The exponential-backoff selectivities of
:func:`repro.engine.stats.estimate_join_cardinality` are a guess about value
overlap, and on the paper's correlated R_G constructions — every join key
4-15 columns wide — the guess is ~10^12 too high.  This module replaces the
guess with *measurement*:

* :func:`reservoir_sample` draws a uniform row sample (Algorithm R) from a
  relation in one pass;
* :class:`Sample` carries sampled rows with their column names and a
  cardinality scale, and estimates **join sizes by joining the samples**
  (``|L ⋈ R| ≈ |S_L ⋈ S_R| · (|L|/|S_L|) · (|R|/|S_R|)`` for uniform row
  samples) — no independence assumption across join columns at all.  A
  sample is **lazy**: its rows are drawn, projected or joined the first
  time something reads them, so carrying one costs nothing on a plan that
  never measures;
* :func:`relation_sample` is the catalog's sample — the handle
  :meth:`repro.engine.stats.RelationStats.from_relation` caches with every
  relation's statistics: :data:`SAMPLE_ROWS` rows, drawn at most once per
  relation, consulted for the joins the formula gets wrong (composite keys,
  skewed keys: :func:`repro.engine.stats.estimate_join_cardinality`).

A sample is planning scratch: derived samples live as long as one join
ordering does, and the planner drops every sample before it pins a plan.
Every base-sample draw increments ``sample_builds`` and every joined sample
whose rows are actually built increments ``sample_joins``.

Samples are drawn from the relation's rows in their deterministic sorted
order, seeded by the relation's content (:func:`relation_sample`), and
:meth:`Sample.join` orients its pair by column names, not argument order —
so planning is deterministic under ``PYTHONHASHSEED=random``, indifferent
to the order a join's operands were written in, and two relations' draws
are independent of each other.
"""

from __future__ import annotations

import math
import random
import threading
import zlib
from collections import Counter, defaultdict
from itertools import repeat
from operator import itemgetter
from typing import Callable, Collection, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from ..algebra.relation import sort_rows
from ..perf.counters import kernel_counters

__all__ = [
    "SAMPLE_ROWS",
    "Sample",
    "q_error",
    "relation_sample",
    "reservoir_sample",
]

Row = Tuple[Hashable, ...]

#: Rows in a relation's cached base sample, and the cap on every joined
#: sample derived from it during one join ordering.  Not a knob: 128 / 256 /
#: 512 were measured against beam widths 1-3 on the R_G family
#: (``docs/PERFORMANCE.md``, "Where the two constants come from").
SAMPLE_ROWS = 256

#: Mixing constant decorrelating derived sample seeds (golden-ratio prime).
_SEED_MIX = 0x9E3779B97F4A7C15
_SEED_MASK = (1 << 63) - 1


def _derive_seed(*parts: int) -> int:
    """Fold integer seed parts into one decorrelated 63-bit seed."""
    seed = 0
    for part in parts:
        seed = ((seed ^ (part & _SEED_MASK)) * _SEED_MIX) & _SEED_MASK
    return seed


def q_error(estimate: float, actual: float) -> float:
    """The q-error of an estimate: ``max(est/actual, actual/est)`` (≥ 1).

    Both quantities are clamped to a floor of 1 row first, so an estimate of
    0.3 rows against an actual of 0 is a perfect 1.0 rather than a division
    by zero — the standard convention in the estimation literature.
    """
    estimate = max(float(estimate), 1.0)
    actual = max(float(actual), 1.0)
    return estimate / actual if estimate >= actual else actual / estimate


def reservoir_sample(rows: Iterable[Row], k: int, rng: random.Random) -> List[Row]:
    """Draw a uniform sample of up to ``k`` rows in one pass (Algorithm R).

    Every row of the input has probability ``k / n`` of appearing in the
    result, independent of position; inputs of at most ``k`` rows are
    returned whole.  The caller owns the ``rng``, which is how the planner
    keeps sampling deterministic per (relation, seed).
    """
    if k <= 0:
        return []
    reservoir: List[Row] = []
    for index, row in enumerate(rows):
        if index < k:
            reservoir.append(row)
            continue
        slot = rng.randint(0, index)
        if slot < k:
            reservoir[slot] = row
    return reservoir


def _gee_distinct(values: Iterable[Hashable], scale: float) -> int:
    """GEE scale-up estimate of a column's distinct count from a sample.

    ``d̂ = √scale · f₁ + (d_sample − f₁)`` where ``f₁`` counts values seen
    exactly once in the sample: values seen twice or more are assumed to
    recur in the unseen rows (contributing once each), while singletons are
    scaled up by the square root of the sampling fraction — Charikar et
    al.'s Guaranteed-Error Estimator, whose worst-case ratio error is
    optimal among sampling estimators.  A full sample (``scale == 1``)
    degenerates to the exact distinct count.
    """
    counts = Counter(values)
    if scale <= 1.0:
        return len(counts)
    singletons = sum(1 for count in counts.values() if count == 1)
    return int(round(math.sqrt(scale) * singletons + (len(counts) - singletons)))


def _key_of(names: Tuple[str, ...], key_names: Sequence[str]) -> Callable[[Row], Hashable]:
    """``row -> its value on key_names`` (at least one): a bare value for
    one column, a tuple for several — all a hash lookup needs."""
    return itemgetter(*map(names.index, key_names))


def _pick_of(names: Tuple[str, ...], kept_names: Sequence[str]) -> Callable[[Row], Row]:
    """``row -> the tuple of its kept_names values`` (any number)."""
    if len(kept_names) > 1:
        return _key_of(names, kept_names)
    if not kept_names:
        return lambda row: ()
    position = names.index(kept_names[0])
    return lambda row: (row[position],)


class Sample:
    """A uniform row sample with its column names and cardinality scale.

    ``rows`` are value tuples aligned with ``names``; ``est_cardinality`` is
    the (estimated) cardinality of the population the sample was drawn from,
    so ``scale = est_cardinality / len(rows)`` converts sample counts into
    population estimates.  Base-relation samples carry an exact cardinality;
    joined samples (:meth:`join`) carry the sample-join estimate.

    Rows are **lazy**: a sample is built from ``draw`` (a zero-argument
    callable returning ``(rows, est_cardinality)``), runs it the first time
    ``rows``, ``est_cardinality`` or ``scale`` is read, then forgets it —
    and with it whatever the recipe held: a relation's row set, the parent
    samples.  :meth:`project` and :meth:`join` return such samples, so
    deriving one is free until an estimate measures against it.  The draw
    runs under the sample's lock: a relation's base sample is shared by
    every thread that plans over the relation, and racing readers wait for
    one draw and share it rather than each sorting the relation.
    """

    __slots__ = ("names", "seed", "_rows", "_est", "_draw", "_lock")

    def __init__(
        self,
        names: Sequence[str],
        draw: Callable[[], Tuple[List[Row], float]],
        est_cardinality: Optional[float] = None,
        seed: int = 0,
    ):
        """A sample of the ``names`` columns whose rows ``draw`` makes; an
        ``est_cardinality`` known up front overrides the one it returns."""
        self.names: Tuple[str, ...] = tuple(names)
        self.seed = seed
        self._rows: Optional[List[Row]] = None
        self._est = None if est_cardinality is None else float(est_cardinality)
        self._draw = draw
        self._lock = threading.Lock()

    @property
    def rows(self) -> List[Row]:
        """The sampled rows, drawn now if they have not been."""
        rows = self._rows
        if rows is None:
            with self._lock:
                rows = self._rows
                if rows is None:  # first in: draw for everybody waiting
                    rows, estimate = self._draw()
                    if self._est is None:
                        self._est = float(estimate)
                    self._rows = rows
                    self._draw = None
        return rows

    @property
    def drawn(self) -> bool:
        """Whether the rows exist yet (reading this never draws them)."""
        return self._rows is not None

    @property
    def est_cardinality(self) -> float:
        """The estimated cardinality of the sampled population."""
        if self._est is None:
            self.rows
        return self._est

    @property
    def scale(self) -> float:
        """Population rows represented by each sample row (≥ 1)."""
        return max(self.est_cardinality / max(len(self.rows), 1), 1.0)

    def join_size(self, other: "Sample", common: Sequence[str]) -> float:
        """Estimate ``|L ⋈ R|`` by counting key matches between the samples.

        For uniform row samples the expected sample-join size is the true
        join size times both sampling fractions, so the estimate is the
        match count scaled by both sides' scales.  Disjoint schemes estimate
        as the full cartesian product.  No cross-column independence is
        assumed — the joint key is matched as one value.  A count only: no
        joined row is built, and the answer is the same whichever of the
        two samples is asked.
        """
        if not common:
            return self.est_cardinality * other.est_cardinality
        if not self.rows or not other.rows:
            return 0.0
        counts = Counter(map(_key_of(other.names, common), other.rows))
        matched = sum(
            map(counts.get, map(_key_of(self.names, common), self.rows), repeat(0))
        )
        return matched * (self.scale * other.scale)

    def join(
        self,
        other: "Sample",
        common: Sequence[str],
        est_cardinality: Optional[float] = None,
        kept_names: Optional[Collection[str]] = None,
    ) -> "Sample":
        """The joined sample, capped at :data:`SAMPLE_ROWS` rows.

        Joining the samples *is* the estimator: the result carries the
        scaled cardinality estimate (``est_cardinality`` when the caller has
        already counted it, else :meth:`join_size`) and stays a
        (approximately uniform) row sample of the true join, so chain
        extensions keep estimating against measured data.  Results larger
        than the cap are subsampled back down; disjoint schemes subsample
        both sides to ``√cap`` first so a product of two large samples never
        materialises.  Only the ``kept_names`` columns are built (default:
        all) — rows are *not* deduplicated on them, each still stands for
        one row of the join.

        The pair is oriented by column names before anything is built or
        seeded, so ``a.join(b)`` and ``b.join(a)`` hold the same rows: what
        a plan's estimates are measured on does not depend on the order its
        join was written in.
        """
        left, right = (self, other) if self.names <= other.names else (other, self)
        kept = frozenset(left.names + right.names if kept_names is None else kept_names)
        left_kept = [name for name in left.names if name in kept]
        left_set = frozenset(left.names)
        right_kept = [
            name for name in right.names if name in kept and name not in left_set
        ]
        cap = SAMPLE_ROWS
        # Seeded by what is known without drawing either operand.
        seed = _derive_seed(left.seed, right.seed, len(left_kept), len(right_kept))

        def draw() -> Tuple[List[Row], float]:
            rng = random.Random(seed)
            left_rows, right_rows = left.rows, right.rows
            if common:
                estimate = est_cardinality
                if estimate is None:
                    estimate = left.join_size(right, common)
                buckets: Dict[Hashable, List[Row]] = defaultdict(list)
                for key, extra in zip(
                    map(_key_of(right.names, common), right_rows),
                    map(_pick_of(right.names, right_kept), right_rows),
                ):
                    buckets[key].append(extra)
                joined = [
                    row + extra
                    for key, row in zip(
                        map(_key_of(left.names, common), left_rows),
                        map(_pick_of(left.names, left_kept), left_rows),
                    )
                    if key in buckets
                    for extra in buckets[key]
                ]
                if len(joined) > cap:
                    joined = rng.sample(joined, cap)
            else:
                estimate = left.est_cardinality * right.est_cardinality
                side = max(math.isqrt(max(cap, 1)), 1)
                if len(left_rows) > side:
                    left_rows = rng.sample(left_rows, side)
                if len(right_rows) > side:
                    right_rows = rng.sample(right_rows, side)
                extras = list(map(_pick_of(right.names, right_kept), right_rows))
                joined = [
                    row + extra
                    for row in map(_pick_of(left.names, left_kept), left_rows)
                    for extra in extras
                ]
            kernel_counters().add(sample_joins=1)
            return joined, max(estimate, float(len(joined)))

        return Sample(left_kept + right_kept, seed=seed, draw=draw)

    def project(self, kept_names: Sequence[str]) -> "Sample":
        """The deduplicated projection of the sample onto ``kept_names``.

        The projected sample's cardinality estimate scales the distinct
        projected sample rows GEE-style (duplicates observed in the sample
        recur in the population; singletons scale up), capped by the source
        estimate — the sample analogue of
        :func:`repro.engine.stats.project_stats`.
        """
        kept = tuple(kept_names)

        def draw() -> Tuple[List[Row], float]:
            projected = list(map(_pick_of(self.names, kept), self.rows))
            estimate = min(_gee_distinct(projected, self.scale), self.est_cardinality)
            distinct_rows = list(dict.fromkeys(projected))
            return distinct_rows, max(float(estimate), float(len(distinct_rows)))

        return Sample(kept, seed=_derive_seed(self.seed, len(kept)), draw=draw)

    def __repr__(self) -> str:
        if not self.drawn:
            return f"Sample(not drawn, columns={list(self.names)})"
        return (
            f"Sample({len(self._rows)} rows of ~{self._est:.0f}, "
            f"columns={list(self.names)})"
        )


def relation_sample(names: Sequence[str], rows: Collection[Row]) -> Sample:
    """The catalog's sample of one relation's ``rows``: a handle.

    Nothing is drawn until a measured estimate reads the sample; then
    :data:`SAMPLE_ROWS` rows are taken (Algorithm R) from the rows in their
    deterministic sorted order, once — the handle is cached with the
    relation's statistics, so *construction is invalidation* and an
    unchanged relation never re-samples (``sample_builds`` counts draws).
    It holds the row set, not the relation (no cycle through
    ``Relation._stats``), and lets go of it once drawn.

    The draw is seeded by the relation's content — column names, row count,
    first and last sorted row — and by nothing else: no operand name (a
    relation may be bound under several), and not one shared constant
    either, under which Algorithm R keeps the *same positions* of every
    equal-sized input, so two relations with aligned keys would sample
    matching rows and :meth:`Sample.join_size`, which scales as if the two
    draws were independent, would read a 1:1 key as ``N / 256`` : 1.
    """
    names = tuple(names)
    count = float(len(rows))

    def draw() -> Tuple[List[Row], float]:
        kernel_counters().add(sample_builds=1)
        ordered = sort_rows(rows)
        content = repr((names, len(ordered), ordered[:1], ordered[-1:]))
        rng = random.Random(zlib.crc32(content.encode("utf-8")))
        return reservoir_sample(ordered, SAMPLE_ROWS, rng), count

    return Sample(names, est_cardinality=count, draw=draw)

