"""Sampling-based cardinality estimation and the adaptive-execution knobs.

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
* :func:`relation_sample` is the default catalog's sample — the handle
  :meth:`repro.engine.stats.RelationStats.from_relation` caches with every
  relation's statistics: :data:`SAMPLE_ROWS` rows, drawn at most once per
  relation, consulted for composite join keys only;
* :func:`sampled_stats` builds the ``adaptive=`` catalog entry: drawn now
  and consulted at every key width (column statistics are the relation's
  exact ones; GEE scale-up is for a population that has none);
* :class:`AdaptiveConfig` bundles the ``adaptive=`` sampling knobs with the
  mid-stream re-planning knobs consumed by
  :class:`~repro.engine.evaluator.EngineEvaluator`: the observed/estimated
  factor that triggers a re-plan, the re-plan budget, and the checkpoint
  size cap.

Both catalogs run on the one :class:`Sample` implementation, and in both a
sample is planning scratch: derived samples live as long as one join
ordering does, and the planner drops every sample before it pins a plan.

Estimation error is tracked: every adaptive evaluation feeds per-operator
q-errors (``max(est/actual, actual/est)``) into
:meth:`repro.perf.counters.KernelCounters.record_q_error`; every base-sample
draw increments ``sample_builds`` and every joined sample whose rows are
actually built increments ``sample_joins``.

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
import zlib
from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from itertools import repeat
from operator import itemgetter
from typing import Callable, Collection, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from ..algebra.relation import sort_rows
from ..perf.counters import kernel_counters
from .stats import ColumnStats, SampledRelationStats

__all__ = [
    "SAMPLE_ROWS",
    "AdaptiveConfig",
    "Sample",
    "SampledRelationStats",
    "q_error",
    "relation_sample",
    "reservoir_sample",
    "sampled_stats",
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

    Rows are **lazy**: a sample built with ``draw`` (a zero-argument callable
    returning ``(rows, est_cardinality)``) runs it the first time ``rows``,
    ``est_cardinality`` or ``scale`` is read, then forgets it — and with it
    whatever the recipe held: a relation's row set, the parent samples.
    :meth:`project` and :meth:`join` return such samples, so deriving one
    is free until an estimate measures against it.

    ``composite_only`` marks the default catalog's samples: the estimator
    consults them for join keys of two or more columns and leaves narrower
    keys and projections to the exact per-column formulas (see
    :func:`repro.engine.stats.estimate_join_cardinality`).  Derived samples
    inherit it.
    """

    __slots__ = (
        "names", "seed", "join_cap", "composite_only", "_rows", "_est", "_draw",
    )

    def __init__(
        self,
        names: Sequence[str],
        rows: Optional[Sequence[Row]] = None,
        est_cardinality: Optional[float] = None,
        seed: int = 0,
        join_cap: int = 4096,
        composite_only: bool = False,
        draw: Optional[Callable[[], Tuple[List[Row], float]]] = None,
    ):
        """Wrap ``rows`` (aligned with ``names``) scaled to
        ``est_cardinality``, or defer both to ``draw``.

        ``join_cap`` bounds the row count of samples derived from this one
        by :meth:`join` — it rides along so the stats-propagation functions
        need no separate configuration channel.
        """
        self.names: Tuple[str, ...] = tuple(names)
        self.seed = seed
        self.join_cap = join_cap
        self.composite_only = composite_only
        self._rows: Optional[List[Row]] = None if draw is not None else list(rows)
        self._est = None if est_cardinality is None else float(est_cardinality)
        self._draw = draw

    @property
    def rows(self) -> List[Row]:
        """The sampled rows, drawn now if they have not been."""
        rows = self._rows
        if rows is None:
            draw = self._draw
            if draw is None:  # another thread drew between the two reads
                return self._rows
            rows, estimate = draw()
            if self._est is None:
                self._est = float(estimate)
            # Rows before recipe: a racing reader that finds no recipe must
            # find the rows (a relation's base sample is shared by threads).
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

    def column_stats(self, name: str) -> ColumnStats:
        """A :class:`ColumnStats` for one column, estimated from the sample."""
        if name not in self.names or not self.rows:
            return ColumnStats(distinct_count=0)
        values = list(map(itemgetter(self.names.index(name)), self.rows))
        minimum: Optional[Hashable] = None
        maximum: Optional[Hashable] = None
        try:
            minimum = min(values)
            maximum = max(values)
        except TypeError:
            pass
        scale = self.scale
        return ColumnStats(
            distinct_count=_gee_distinct(values, scale),
            minimum=minimum,
            maximum=maximum,
            estimated=scale > 1.0,
        )

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
        """The joined sample, capped at the operands' smaller ``join_cap``.

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
        cap = min(left.join_cap, right.join_cap)
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

        return Sample(
            left_kept + right_kept,
            seed=seed,
            join_cap=cap,
            composite_only=left.composite_only or right.composite_only,
            draw=draw,
        )

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

        return Sample(
            kept,
            seed=_derive_seed(self.seed, len(kept)),
            join_cap=self.join_cap,
            composite_only=self.composite_only,
            draw=draw,
        )

    def stats(self, output_names: Sequence[str]) -> SampledRelationStats:
        """Wrap this sample as a catalog entry over ``output_names``, every
        number estimated from the sampled rows."""
        cardinality = max(int(round(self.est_cardinality)), 0)
        columns = {name: self.column_stats(name) for name in output_names}
        capped = {
            name: replace(column, distinct_count=min(column.distinct_count, cardinality))
            for name, column in columns.items()
        }
        return SampledRelationStats(
            cardinality=cardinality, columns=capped, sample=self
        )

    def __repr__(self) -> str:
        if not self.drawn:
            return f"Sample(not drawn, columns={list(self.names)})"
        return (
            f"Sample({len(self._rows)} rows of ~{self._est:.0f}, "
            f"columns={list(self.names)})"
        )


def relation_sample(names: Sequence[str], rows: Collection[Row]) -> Sample:
    """The default catalog's sample of one relation's ``rows``: a handle.

    Nothing is drawn until a composite-key estimate reads the sample; then
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

    return Sample(
        names, est_cardinality=count, join_cap=SAMPLE_ROWS, composite_only=True, draw=draw
    )


def sampled_stats(
    relation,
    sample_size: int,
    seed: int = 0,
    name: Optional[str] = None,
    join_cap: int = 4096,
) -> SampledRelationStats:
    """Build the ``adaptive=`` sampled catalog entry for a relation.

    Rows are drawn by :func:`reservoir_sample` from the relation's
    deterministic sorted order, seeded by ``seed`` and (stably) by ``name``
    so distinct operands of one plan sample independently.  A relation of
    at most ``sample_size`` rows is carried whole — its estimates are
    exact.  Each build increments the ``sample_builds`` perf counter, which
    is how the re-sample-on-invalidation contract is asserted.

    The sample is for what no per-column count can say — how joint keys
    overlap.  The column statistics are the relation's own exact ones
    (:meth:`~repro.algebra.relation.Relation.stats`: one pass, cached with
    the relation); only a population without them (a spilled checkpoint,
    whose rows are on disk) has its columns estimated from the sample, and
    those counts say so (:attr:`ColumnStats.estimated`).
    """
    salt = zlib.crc32(name.encode("utf-8")) if name else 0
    rng = random.Random(_derive_seed(seed, salt))
    rows = reservoir_sample(relation.sorted_rows(), sample_size, rng)
    names = relation.scheme.names
    sample = Sample(
        names,
        rows,
        float(len(relation)),
        seed=_derive_seed(seed, salt, 1),
        join_cap=join_cap,
    )
    kernel_counters().add(sample_builds=1)
    exact = getattr(relation, "stats", None)
    columns = exact().columns if exact is not None else sample.stats(names).columns
    # Base-relation cardinality is known exactly — never estimated.
    return SampledRelationStats(
        cardinality=len(relation), columns=columns, sample=sample
    )


@dataclass(frozen=True)
class AdaptiveConfig:
    """Knobs for sampled estimation and mid-stream re-planning.

    ``sample_size``
        Rows per base-relation reservoir sample (relations at most this
        size are carried whole, making their estimates exact).
    ``sample_join_cap``
        Row cap on propagated (joined) samples; larger join samples are
        reservoir-subsampled back down, trading accuracy for bounded
        planning cost.
    ``seed``
        Base seed for every sample drawn under this config (planning is
        deterministic given the seed).
    ``replan_factor``
        A guarded operator whose observed output exceeds
        ``replan_factor × estimate`` triggers a mid-stream re-plan.
    ``replan_min_rows``
        Absolute floor below which a guard never triggers — tiny queries
        re-plan nothing regardless of relative error.
    ``max_replans``
        Re-plans allowed per evaluation; once exhausted the current plan
        runs to completion unguarded.
    ``checkpoint_cap_rows``
        Row cap on the materialised checkpoint; a checkpoint that would
        exceed it abandons the re-plan and the original plan runs to
        completion instead (correct either way).
    """

    sample_size: int = 512
    sample_join_cap: int = 4096
    seed: int = 0
    replan_factor: float = 4.0
    replan_min_rows: int = 256
    max_replans: int = 2
    checkpoint_cap_rows: int = 200_000

    def __post_init__(self) -> None:
        """Validate the knobs (positive sizes, factor > 1)."""
        if self.sample_size < 1:
            raise ValueError(f"sample_size must be >= 1, got {self.sample_size}")
        if self.sample_join_cap < 1:
            raise ValueError(
                f"sample_join_cap must be >= 1, got {self.sample_join_cap}"
            )
        if self.replan_factor <= 1.0:
            raise ValueError(
                f"replan_factor must exceed 1, got {self.replan_factor}"
            )
        if self.max_replans < 0:
            raise ValueError(f"max_replans must be >= 0, got {self.max_replans}")

    @classmethod
    def coerce(
        cls, value: "AdaptiveConfig | bool | None"
    ) -> "Optional[AdaptiveConfig]":
        """Normalise ``True``/``False``/``None`` into a config (or ``None``)."""
        if value is None or value is False:
            return None
        if value is True:
            return cls()
        if isinstance(value, cls):
            return value
        raise TypeError(
            f"adaptive must be an AdaptiveConfig, True, False, or None, "
            f"got {type(value).__name__}"
        )
