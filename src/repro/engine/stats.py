"""Per-relation statistics catalog driving the cost-based planner.

Every :class:`~repro.algebra.relation.Relation` carries (lazily, cached) a
:class:`RelationStats`: its cardinality plus per-column distinct counts,
min/max bounds and top-value counts.  Relations are immutable, so
*construction is invalidation* — a relation's stats are computed at most
once, from its final rows, and every algebra operation returns a fresh
relation whose stats slot starts empty.

The catalog serves two consumers:

* :func:`repro.algebra.operations.estimate_join_size` (and through it
  ``greedy_join`` / the :class:`~repro.expressions.optimizer.OptimizedEvaluator`)
  reads cached distinct counts instead of re-scanning columns on every
  estimate;
* the physical planner (:mod:`repro.engine.planner`) propagates stats through
  plan nodes with the classical System-R independence assumptions, so join
  ordering and build-side selection never require materialising anything.

Stats can also be *assumed* (:meth:`RelationStats.assumed`) for planning
without data — the ``repro engine-explain`` CLI uses this to explain a plan
from schemes and declared cardinalities alone.

Two estimators answer ``|L * R|``.  A join on two or more shared columns is
*measured*: the backed-off selectivities are ~10^12 too high on the paper's
R_G (every key is 4-15 correlated columns wide), so an entry with data behind
it — a :class:`SampledRelationStats` — carries a bounded row
:class:`~repro.engine.sampling.Sample` and the estimate is the scaled size of
the sample join.  A join on one column keeps the exact per-column formula (one
column has no correlation to get wrong) unless the exact counts show a heavy
hitter: where either side's most frequent key value
(:attr:`ColumnStats.top_count`) stands for at least :data:`SKEW` times the
column's mean frequency, and is frequent enough for a row sample to see, the
uniformity the formula assumes (every value as frequent as the mean) is what
is wrong, and that join is measured too.  The
sample is **lazy**: :meth:`RelationStats.from_relation` attaches a handle that
holds the relation's row set (not the relation: no cycle through
``Relation._stats``) and draws :data:`~repro.engine.sampling.SAMPLE_ROWS` rows
the first time a measured estimate asks, once per relation — construction is
invalidation for the sample exactly as for the counts.  Derived entries
(:func:`join_stats` / :func:`project_stats`) carry derived samples that are
just as lazy, so a plan whose joins all share one uniform column draws
nothing.  Data-less entries (:meth:`RelationStats.assumed`) have no sample and
keep the formula at every width.

Samples are planning scratch: the planner drops them from every node before
a plan is pinned (:meth:`RelationStats.bare`).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, Hashable, Iterable, Mapping, Optional, Sequence

from .sampling import SAMPLE_ROWS, relation_sample

__all__ = [
    "MEASURED_KEY_WIDTH",
    "SKEW",
    "ColumnStats",
    "RelationStats",
    "SampledRelationStats",
    "estimate_join_cardinality",
    "estimate_partition_count",
    "join_estimate_provenance",
    "join_stats",
    "project_stats",
]


#: A join on at least this many shared columns is measured on row samples
#: wherever both operands have data behind them; narrower keys keep the
#: per-column formula, which is exact in the one place it cannot be wrong
#: about correlation ...
MEASURED_KEY_WIDTH = 2

#: ... unless the key is skewed: a single-column key is measured too when
#: either side's most frequent value occurs at least this many times as
#: often as the column's mean value does (``cardinality / distinct``).  The
#: formula prices every key value at the mean, so a heavy hitter is where
#: it is wrong by orders of magnitude (a column half of whose 2,000 rows
#: share one value reads 500).  Uniformly drawn columns read 1-3.2 on the
#: ladder's relations and 3.9 on the 2,000-row slice of ``join_100k`` the
#: ordering tests pin, so at 4 none of them draws a sample
#: (``docs/PERFORMANCE.md``, "One planner").  Not a knob: nothing sets it.
#: The hot value must also be one a :data:`~repro.engine.sampling.SAMPLE_ROWS`
#: sample expects to see at least once: on a nearly unique key the largest
#: count outgrows the mean as the relation grows (20,000 rows drawn
#: uniformly over 20,000 values read ~5), yet 256 rows of it would find
#: only one-match steps, which the formula prices better.
SKEW = 4


def _skewed(entry, name: str) -> bool:
    """Whether ``entry``'s column ``name`` has a heavy hitter (see :data:`SKEW`)."""
    column = entry.column(name)
    if column is None or not column.top_count:
        return False
    return (
        column.top_count * column.distinct_count >= SKEW * entry.cardinality
        and column.top_count * SAMPLE_ROWS >= entry.cardinality
    )


def _measuring_samples(left, right, common):
    """The two row samples ``left ⋈ right`` is measured on, or ``None``
    where the formula answers: an operand without data, a product, or a
    single-column key with no heavy hitter on either side."""
    left_sample = getattr(left, "sample", None)
    right_sample = getattr(right, "sample", None)
    if left_sample is None or right_sample is None or not common:
        return None
    if len(common) < MEASURED_KEY_WIDTH and not (
        _skewed(left, common[0]) or _skewed(right, common[0])
    ):
        return None
    return left_sample, right_sample


def join_estimate_provenance(left, right, common) -> str:
    """Where the estimate for ``left ⋈ right`` comes from: ``"sampled"``
    (measured on the two row samples: a composite key, or a skewed one) or
    ``"backoff"`` (the selectivity formula) — the dispatch of
    :func:`estimate_join_cardinality`.  The planner records it on each join
    node at planning time, which is what ``repro engine-explain --paper``
    prints."""
    return "backoff" if _measuring_samples(left, right, common) is None else "sampled"


@dataclass(frozen=True)
class ColumnStats:
    """Statistics of one column: distinct count, (optional) value bounds, and
    how often its most frequent value occurs.

    ``minimum``/``maximum`` are ``None`` when the column is empty or holds
    values of mutually incomparable types.  ``top_count`` is the most
    frequent value's row count — exact on a base relation, carried (capped
    at the derived cardinality) through joins and projections, and ``0``
    where nobody counted (:meth:`RelationStats.assumed`): unknown, which
    keeps the formula.
    """

    distinct_count: int
    minimum: Optional[Hashable] = None
    maximum: Optional[Hashable] = None
    top_count: int = 0

    @classmethod
    def from_values(cls, values: Iterable[Hashable]) -> "ColumnStats":
        """Compute stats from a column's values (duplicates allowed), in one
        C-level ``Counter`` pass."""
        counts = Counter(values)
        minimum: Optional[Hashable] = None
        maximum: Optional[Hashable] = None
        if counts:
            try:
                minimum = min(counts)
                maximum = max(counts)
            except TypeError:
                pass
        return cls(
            distinct_count=len(counts),
            minimum=minimum,
            maximum=maximum,
            top_count=max(counts.values(), default=0),
        )


@dataclass(frozen=True)
class RelationStats:
    """The statistics catalog entry for one relation (or plan node output).

    ``columns`` maps every attribute name of the relation's scheme to its
    :class:`ColumnStats`.  Entries are immutable; derived entries for plan
    nodes are built by :func:`join_stats` / :func:`project_stats`.
    """

    cardinality: int
    columns: Mapping[str, ColumnStats]

    @classmethod
    def from_relation(cls, relation) -> "SampledRelationStats":
        """Compute the catalog entry for a relation, one pass per column.

        The counts are exact; the entry also carries the handle of the
        relation's row sample, which draws nothing until a measured
        estimate asks (see the module docstring).
        """
        names = relation.scheme.names
        rows = relation.rows
        columns = {
            name: ColumnStats.from_values(map(itemgetter(index), rows))
            for index, name in enumerate(names)
        }
        return SampledRelationStats(
            cardinality=len(rows), columns=columns, sample=relation_sample(names, rows)
        )

    @classmethod
    def assumed(
        cls,
        names: Sequence[str],
        cardinality: int,
        distinct: Optional[Mapping[str, int]] = None,
    ) -> "RelationStats":
        """Build a synthetic entry for planning without data.

        Every column defaults to ``cardinality`` distinct values (each row
        distinct in every column — the most pessimistic selectivity), unless
        overridden via ``distinct``.
        """
        overrides = distinct or {}
        columns = {
            name: ColumnStats(distinct_count=max(int(overrides.get(name, cardinality)), 0))
            for name in names
        }
        return cls(cardinality=max(int(cardinality), 0), columns=columns)

    def distinct(self, name: str) -> int:
        """Distinct-value count of a column (0 for unknown columns)."""
        column = self.columns.get(name)
        return column.distinct_count if column is not None else 0

    def column(self, name: str) -> Optional[ColumnStats]:
        """The :class:`ColumnStats` of a column, or ``None`` if unknown."""
        return self.columns.get(name)

    def bare(self) -> "RelationStats":
        """The entry's numbers alone — what a pinned plan node keeps.

        Samples are planning scratch; a plan that outlives planning must not
        hold them.
        """
        if type(self) is RelationStats:
            return self
        return RelationStats(self.cardinality, self.columns)


@dataclass(frozen=True)
class SampledRelationStats(RelationStats):
    """A catalog entry with data behind it: it carries a row sample.

    ``sample`` is a :class:`repro.engine.sampling.Sample` — the lazily
    drawn one of :meth:`RelationStats.from_relation`, or one derived from it
    by :func:`join_stats` / :func:`project_stats`.  Behaves exactly
    like :class:`RelationStats` for every consumer; the propagation
    functions below find the ``sample`` on *both* operands and measure
    where :func:`estimate_join_cardinality` says they do, so a join with a
    data-less entry degrades to the formula.
    """

    sample: Optional[object] = field(default=None, compare=False, repr=False)


def estimate_join_cardinality(
    left: RelationStats, right: RelationStats, common: Sequence[str]
) -> float:
    """Estimate ``|L * R|`` with exponentially backed-off selectivities.

    Per shared attribute ``A`` the classical System-R selectivity is
    ``1 / max(d_L(A), d_R(A))``.  Multiplying all of them (full
    independence) catastrophically *underestimates* joins over correlated
    key columns — exactly the R_G construction's repeated clause/Y columns —
    which misleads the greedy join ordering into merging the constraining
    factor too late.  Following the standard "exponential backoff"
    correction, selectivities are applied in ascending order with exponents
    1, 1/2, 1/4, ...: the most selective attribute counts fully and each
    further one ever less, keeping the estimate usable whether or not the
    key columns are independent.  Disjoint schemes estimate as the full
    cartesian product.

    (:func:`repro.algebra.operations.estimate_join_size` deliberately keeps
    the PR 1 full-independence formula — it scores *materialised* operands
    whose cardinalities are exact, where the compounding is mild; this
    estimator is applied to *propagated* statistics along a whole plan.)

    Where both entries have data behind them and the key is one the formula
    gets wrong (:func:`_measuring_samples`: two or more columns, or one
    column with a heavy hitter) it is bypassed entirely: the estimate is the
    scaled size of the *sample join*
    (:meth:`repro.engine.sampling.Sample.join_size`, a count — no joined
    row is built), which measures the joint-key overlap instead of
    assuming anything about it.  Two samples that share no key measure
    only an upper bound — the rows one match would have stood for — and
    the formula answers beneath it: two 256-row samples of a sparse
    100,000-row key expect less than one match.
    """
    samples = _measuring_samples(left, right, common)
    if samples is None:
        return _backoff_cardinality(left, right, common)
    measured = samples[0].join_size(samples[1], common)
    if measured > 0.0:
        return measured
    # No sampled key met a partner.  Between two whole populations that is
    # the answer; between samples it only says the join is smaller than one
    # match would have stood for, and below that resolution the formula's
    # guess is all there is.
    resolution = samples[0].scale * samples[1].scale
    if resolution <= 1.0:
        return 0.0
    return min(_backoff_cardinality(left, right, common), resolution)


def _backoff_cardinality(
    left: RelationStats, right: RelationStats, common: Sequence[str]
) -> float:
    """The formula of :func:`estimate_join_cardinality`: per-column
    selectivities, exponentially backed off."""
    size = float(left.cardinality * right.cardinality)
    if not common or size == 0.0:
        return size
    selectivities = sorted(
        1.0 / max(left.distinct(name), right.distinct(name), 1) for name in common
    )
    exponent = 1.0
    for selectivity in selectivities:
        size *= selectivity ** exponent
        exponent /= 2.0
    return size


def estimate_partition_count(
    build_rows: float, budget_rows: int, minimum: int = 2, cap: int = 64
) -> int:
    """Estimated Grace-hash spill fan-out for a build side under a row budget.

    Targets partitions of about *half* the budget each — a loaded partition
    shares the meter with whatever other state is still resident, so filling
    the whole budget with one partition would immediately re-spill.  The
    result is rounded up to a power of two (hash-modulo partitioning splits
    most evenly at powers of two) and clamped to ``[minimum, cap]``; a build
    side already fitting the target returns 1 (no spill expected).

    This is a *planning* estimate: :class:`~repro.engine.physical.GraceHashJoin`
    uses it as its fan-out hint and corrects under-estimates at run time by
    recursively re-partitioning oversized partitions.
    """
    if budget_rows <= 0:
        return cap
    target = max(budget_rows // 2, 1)
    if build_rows <= target:
        return 1
    needed = math.ceil(build_rows / target)
    fanout = 2
    while fanout < needed and fanout < cap:
        fanout *= 2
    return max(min(fanout, cap), minimum)


def join_stats(
    left: RelationStats,
    right: RelationStats,
    output_names: Sequence[str],
    common: Sequence[str],
    sample_names: Optional[Sequence[str]] = None,
    cardinality: Optional[float] = None,
) -> RelationStats:
    """Propagate stats through a natural join.

    The output cardinality is :func:`estimate_join_cardinality` (passed in
    as ``cardinality`` by a caller that has already counted it: the planner
    scores a candidate before it joins a survivor); each shared
    column keeps the counts of the operand with fewer distinct values (a
    join can only drop key values; on a tie, the one with the larger
    top-value count), and every column's distinct and top-value counts are capped
    at the estimated output cardinality.

    When both entries carry samples the derived entry carries the **joined
    sample** (lazy: rows are built only if a later estimate measures
    against it, and then only the ``sample_names`` columns — the planner
    passes the ones something still reads), so every later estimate against
    this node can be measured too.
    """
    if cardinality is None:
        cardinality = estimate_join_cardinality(left, right, common)
    cap = max(int(cardinality), 0)
    common_set = frozenset(common)
    columns: Dict[str, ColumnStats] = {}
    for name in output_names:
        left_column = left.column(name)
        right_column = right.column(name)
        if name in common_set and left_column is not None and right_column is not None:
            # The narrower side; on a tie the hotter one, so the counts do
            # not depend on which operand was written first.
            source = min(
                left_column,
                right_column,
                key=lambda column: (column.distinct_count, -column.top_count),
            )
            distinct = source.distinct_count
        else:
            source = left_column if left_column is not None else right_column
            distinct = source.distinct_count if source is not None else cap
        if source is None:
            columns[name] = ColumnStats(distinct_count=distinct)
        elif source.distinct_count == distinct <= cap and source.top_count <= cap:
            columns[name] = source  # immutable, and already says exactly this
        else:
            columns[name] = ColumnStats(
                distinct_count=min(distinct, cap),
                minimum=source.minimum,
                maximum=source.maximum,
                top_count=min(source.top_count, cap),
            )
    left_sample = getattr(left, "sample", None)
    right_sample = getattr(right, "sample", None)
    if left_sample is None or right_sample is None:
        return RelationStats(cardinality=cap, columns=columns)
    return SampledRelationStats(
        cardinality=cap,
        columns=columns,
        sample=left_sample.join(right_sample, common, cardinality, sample_names),
    )


def project_stats(child: RelationStats, kept_names: Sequence[str]) -> RelationStats:
    """Propagate stats through a deduplicating projection.

    The output cardinality is bounded both by the child cardinality and by
    the product of the kept columns' distinct counts (the projection cannot
    produce more rows than distinct value combinations).  A column's
    top-value count is capped by the same argument: deduplicated, a value
    recurs at most once per combination of the other kept columns' values.
    A child entry carrying a sample propagates the projected (deduplicated)
    sample, lazily: the formula above still answers for the projection
    itself.
    """
    bound = 1
    for name in kept_names:
        bound *= max(child.distinct(name), 1)
        if bound >= child.cardinality:
            bound = child.cardinality
            break
    cardinality = min(child.cardinality, bound)
    columns = {}
    for name in kept_names:
        column = child.column(name) or ColumnStats(distinct_count=0)
        top_count = min(column.top_count, cardinality)
        combinations = 1
        for other in kept_names:
            if other != name and combinations < top_count:
                combinations *= max(child.distinct(other), 1)
        columns[name] = ColumnStats(
            distinct_count=min(column.distinct_count, cardinality),
            minimum=column.minimum,
            maximum=column.maximum,
            top_count=min(top_count, combinations),
        )
    sample = getattr(child, "sample", None)
    if sample is None:
        return RelationStats(cardinality=cardinality, columns=columns)
    return SampledRelationStats(
        cardinality=cardinality, columns=columns, sample=sample.project(kept_names)
    )
