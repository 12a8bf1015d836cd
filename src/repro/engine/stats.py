"""Per-relation statistics catalog driving the cost-based planner.

Every :class:`~repro.algebra.relation.Relation` carries (lazily, cached) a
:class:`RelationStats`: its cardinality plus per-column distinct counts and
min/max bounds.  Relations are immutable, so *construction is invalidation* —
a relation's stats are computed at most once, from its final rows, and every
algebra operation returns a fresh relation whose stats slot starts empty.

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

Two estimators answer ``|L * R|``, chosen by **key width**.  A join on at
most one shared column keeps the exact per-column formula (distinct counts
are exact, and one column has no correlation to get wrong).  A join on two
or more is *measured*: the backed-off selectivities are ~10^12 too high on
the paper's R_G (every key is 4-15 correlated columns wide), so an entry
with data behind it — a :class:`SampledRelationStats` — carries a bounded
row :class:`~repro.engine.sampling.Sample` and the estimate is the scaled
size of the sample join.  The default catalog's sample is **lazy**:
:meth:`RelationStats.from_relation` attaches a handle that holds the
relation's row set (not the relation: no cycle through ``Relation._stats``)
and draws :data:`~repro.engine.sampling.SAMPLE_ROWS` rows the first time a
composite-key estimate asks, once per relation — construction is
invalidation for the sample exactly as for the counts.  Derived entries
(:func:`join_stats` / :func:`project_stats`) carry derived samples that are
just as lazy, so a plan whose joins all share one column draws nothing.
Data-less entries (:meth:`RelationStats.assumed`) have no sample and keep
the formula at every width.  ``adaptive=`` entries
(:func:`repro.engine.sampling.sampled_stats`) differ in one bit: their
samples measure single-column keys and projections too.

Samples are planning scratch: the planner drops them from every node before
a plan is pinned (:meth:`RelationStats.bare`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, Mapping, Optional, Sequence, Tuple

__all__ = [
    "MEASURED_KEY_WIDTH",
    "ColumnStats",
    "RelationStats",
    "SampledRelationStats",
    "estimate_join_cardinality",
    "estimate_partition_count",
    "estimate_spill_depth",
    "join_estimate_provenance",
    "join_stats",
    "project_stats",
]


def _ledger_observation(left, right, common) -> Optional[int]:
    """The observed output cardinality for ``left ⋈ right``, if recorded.

    Ledger dispatch is duck-typed like the ``sample`` dispatch below: when
    either entry carries a ``ledger`` (a
    :class:`repro.engine.planstore.CardinalityLedger`, attached by
    :class:`repro.engine.planstore.LedgerBackedStats`) and both carry the
    base-operand ``names`` their subtrees cover, the ledger is asked for
    the exact (operand-set union, joined output columns) pair — an
    executed plan has *measured* that cardinality, so no estimator
    (sampled or backoff) gets a say.  The column half of the key keeps
    subtrees that read the same operands but project differently from
    answering for each other.
    """
    ledger = getattr(left, "ledger", None) or getattr(right, "ledger", None)
    if ledger is None:
        return None
    left_names = getattr(left, "names", None)
    right_names = getattr(right, "names", None)
    if not left_names or not right_names:
        return None
    columns = frozenset(left.columns) | frozenset(right.columns)
    return ledger.lookup(left_names | right_names, columns)


#: A join on at least this many shared columns is measured on row samples
#: wherever both operands have data behind them; narrower keys keep the
#: per-column formula, which is exact in the one place it cannot be wrong
#: about correlation.  Not a knob: ``adaptive=`` is the way to measure
#: single-column keys too.
MEASURED_KEY_WIDTH = 2


def _measuring_samples(left, right, common):
    """The two row samples ``left ⋈ right`` is measured on, or ``None``
    where the formula answers: an operand without data, or a key narrower
    than :data:`MEASURED_KEY_WIDTH` under a default-catalog sample."""
    left_sample = getattr(left, "sample", None)
    right_sample = getattr(right, "sample", None)
    if left_sample is None or right_sample is None:
        return None
    if len(common) < MEASURED_KEY_WIDTH and (
        left_sample.composite_only or right_sample.composite_only
    ):
        return None
    return left_sample, right_sample


def join_estimate_provenance(left, right, common) -> str:
    """Where the estimate for ``left ⋈ right`` comes from.

    Returns ``"observed-ledger"`` when the plan store's ledger holds the
    measured cardinality for this exact operand set, ``"sampled"`` when
    both entries carry ``adaptive=`` samples (the sample-join estimator at
    every key width), ``"sampled-composite"`` when the default catalog
    measured a composite key, and ``"backoff"`` for the selectivity formula
    — the same dispatch order as :func:`estimate_join_cardinality`.  The
    planner records it on each join node at planning time, which is what
    ``repro engine-explain --paper`` prints.
    """
    if _ledger_observation(left, right, common) is not None:
        return "observed-ledger"
    samples = _measuring_samples(left, right, common)
    if samples is None:
        return "backoff"
    if samples[0].composite_only or samples[1].composite_only:
        return "sampled-composite"
    return "sampled"


def _rewrap(derived, *parents):
    """Re-attach duck-typed ledger context from ``parents`` onto ``derived``.

    The propagation functions below derive plain entries; when a parent is
    ledger-backed its ``rewrap`` hook rebuilds the derived entry with the
    union of operand names (and the observed cardinality, when the ledger
    has one) — keeping this module import-free of the plan store.
    """
    for parent in parents:
        hook = getattr(parent, "rewrap", None)
        if hook is not None:
            return hook(derived, *parents)
    return derived


@dataclass(frozen=True)
class ColumnStats:
    """Statistics of one column: distinct count and (optional) value bounds.

    ``minimum``/``maximum`` are ``None`` when the column is empty or holds
    values of mutually incomparable types.  ``estimated`` marks a distinct
    count scaled up from a row sample smaller than the column
    (:meth:`repro.engine.sampling.Sample.column_stats`): a guess that may
    fall short, where a base entry's count is otherwise exact — the
    difference the planner's pushed-projection rule turns on (it reads base
    entries only; a derived entry's counts are capped by estimates anyway).
    """

    distinct_count: int
    minimum: Optional[Hashable] = None
    maximum: Optional[Hashable] = None
    estimated: bool = False

    @classmethod
    def from_values(cls, values: Iterable[Hashable]) -> "ColumnStats":
        """Compute stats from a column's values (duplicates allowed).

        An already-distinct ``set`` is used as-is (never mutated), sparing
        the per-column copy on the ``RelationStats.from_relation`` hot path.
        """
        distinct = values if isinstance(values, (set, frozenset)) else set(values)
        minimum: Optional[Hashable] = None
        maximum: Optional[Hashable] = None
        if distinct:
            try:
                minimum = min(distinct)
                maximum = max(distinct)
            except TypeError:
                pass
        return cls(distinct_count=len(distinct), minimum=minimum, maximum=maximum)


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
        """Compute the catalog entry for a relation in one pass over its rows.

        The counts are exact; the entry also carries the handle of the
        relation's row sample, which draws nothing until a composite-key
        estimate asks (see the module docstring).
        """
        from .sampling import relation_sample  # sampling imports this module

        names: Tuple[str, ...] = relation.scheme.names
        rows = relation.rows
        value_sets: Tuple[set, ...] = tuple(set() for _ in names)
        for row in rows:
            for values, value in zip(value_sets, row):
                values.add(value)
        columns = {
            name: ColumnStats.from_values(values)
            for name, values in zip(names, value_sets)
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

        Samples (and the ledger handle of a plan-store entry) are planning
        scratch; a plan that outlives planning must not hold them.
        """
        if type(self) is RelationStats:
            return self
        return RelationStats(self.cardinality, self.columns)


@dataclass(frozen=True)
class SampledRelationStats(RelationStats):
    """A catalog entry with data behind it: it carries a row sample.

    ``sample`` is a :class:`repro.engine.sampling.Sample` —
    the lazily drawn one of :meth:`RelationStats.from_relation`, the eager
    one of :func:`repro.engine.sampling.sampled_stats`, or one derived from
    those by :func:`join_stats` / :func:`project_stats`.  Behaves exactly
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

    Where both entries have data behind them and the key is wide enough
    (:func:`_measuring_samples`: two or more columns, or any width under
    ``adaptive=``) the formula is bypassed entirely: the estimate is the
    scaled size of the *sample join*
    (:meth:`repro.engine.sampling.Sample.join_size`, a count — no joined
    row is built), which measures the joint-key overlap instead of
    assuming anything about it.  Two samples that share no key measure
    only an upper bound — the rows one match would have stood for — and
    the formula answers beneath it: two 256-row samples of a sparse
    100,000-row key expect less than one match.

    And before either estimator runs, a ledger-backed entry (attached by
    the plan store) is checked for the **observed** cardinality of this
    exact operand set — a previous execution having measured the true size
    beats estimating it (see :func:`join_estimate_provenance`).
    """
    observed = _ledger_observation(left, right, common)
    if observed is not None:
        return float(observed)
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


def estimate_spill_depth(build_rows: float, budget_rows: int, fanout: int) -> int:
    """Expected Grace recursion depth: levels of ``fanout``-way splitting
    until a partition fits half the budget (0 = no spill expected).

    Assumes keys scatter evenly; skew is handled at run time by re-salted
    recursion, so this is a lower bound used for explain output and tests.
    """
    if budget_rows <= 0 or fanout < 2:
        return 0
    target = max(budget_rows // 2, 1)
    depth = 0
    remaining = float(build_rows)
    while remaining > target:
        remaining /= fanout
        depth += 1
    return depth


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
    column keeps the *smaller* operand distinct count (a join can only drop
    key values), and every column's distinct count is capped at the estimated
    output cardinality.

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
            distinct = min(left_column.distinct_count, right_column.distinct_count)
            source = left_column if left_column.distinct_count <= right_column.distinct_count else right_column
        else:
            source = left_column if left_column is not None else right_column
            distinct = source.distinct_count if source is not None else cap
        if source is not None and source.distinct_count == distinct <= cap:
            columns[name] = source  # immutable, and already says exactly this
            continue
        columns[name] = ColumnStats(
            distinct_count=min(distinct, cap) if cap else 0,
            minimum=source.minimum if source is not None else None,
            maximum=source.maximum if source is not None else None,
        )
    left_sample = getattr(left, "sample", None)
    right_sample = getattr(right, "sample", None)
    if left_sample is None or right_sample is None:
        derived = RelationStats(cardinality=cap, columns=columns)
    else:
        derived = SampledRelationStats(
            cardinality=cap,
            columns=columns,
            sample=left_sample.join(right_sample, common, cardinality, sample_names),
        )
    return _rewrap(derived, left, right)


def project_stats(child: RelationStats, kept_names: Sequence[str]) -> RelationStats:
    """Propagate stats through a deduplicating projection.

    The output cardinality is bounded both by the child cardinality and by
    the product of the kept columns' distinct counts (the projection cannot
    produce more rows than distinct value combinations).  A child entry
    carrying a sample propagates the projected (deduplicated) sample —
    lazily, and the formula above still answers, unless the sample is an
    ``adaptive=`` one: that is projected now and the entry's numbers are
    read off it.
    """
    sample = getattr(child, "sample", None)
    if sample is not None:
        sample = sample.project(kept_names)
        if not sample.composite_only:
            return _rewrap(sample.stats(kept_names), child)
    bound = 1
    for name in kept_names:
        bound *= max(child.distinct(name), 1)
        if bound >= child.cardinality:
            bound = child.cardinality
            break
    cardinality = min(child.cardinality, bound)
    columns = {
        name: ColumnStats(
            distinct_count=min(child.distinct(name), cardinality),
            minimum=child.column(name).minimum if child.column(name) else None,
            maximum=child.column(name).maximum if child.column(name) else None,
        )
        for name in kept_names
    }
    if sample is None:
        derived = RelationStats(cardinality=cardinality, columns=columns)
    else:
        derived = SampledRelationStats(
            cardinality=cardinality, columns=columns, sample=sample
        )
    return _rewrap(derived, child)
