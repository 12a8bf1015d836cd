"""Estimate-quality coverage for the statistics catalog (``engine/stats``).

Two kinds of pinning:

* **Spill estimates** — :func:`estimate_partition_count` /
  :func:`estimate_spill_depth` drive the Grace-hash fan-out; their
  arithmetic contract is pinned directly.

* **Join-ordering quality on the R_G family** — the planner orders n-ary
  joins by a two-wide beam over :func:`estimate_join_cardinality`, which
  *measures* composite join keys on row samples (every R_G key is 4-15
  columns wide).  The ground truth to compare against is the *actual-size
  greedy* ordering: at every step pick the operand whose real (streamed,
  capped) join cardinality with the accumulated chain is smallest.

  Measured on the family (2026-10, seed 13, plain ``EngineEvaluator()``):
  the planned chain's peak intermediate over the oracle chain's reads 1.00,
  1.00, 1.00, 1.00, 0.26, 0.25 for m = 4, 6, 8, 10, 12, 14, and its total
  streamed join rows over the oracle's 0.88, 0.90, 0.98, 1.00, 0.46
  (10,514 vs 22,950), 0.31 (42,563 vs 137,075): where greedy's myopia
  costs anything the beam *beats* greedy on exact sizes.  Per-join q-error
  (planned ``est_rows`` vs streamed ``rows_out``) is median 1.08 / max 1.43
  at m = 12 and 1.07 / 1.84 at m = 14.

  History: under the backoff formula the same estimates were ~10^12 too
  high (6.4e14 vs 197 rows at m = 12), the peak ratio read 1.00, 1.00,
  1.21, 3.07, 1.56 through m = 12 and diverged at m = 14, which only
  ``EngineEvaluator(adaptive=True)`` (every estimate measured, on freshly
  drawn samples) held — that configuration is still gated below, on the
  same bound.

* **The scaled regime** — on R_G every sample *is* its relation (85 rows
  at m = 12).  Composite keys over relations larger than
  :data:`~repro.engine.sampling.SAMPLE_ROWS` are measured on a fraction,
  and pinned here on a four-relation join of 750-4,000-row operands with
  correlated two-column keys (estimates, and the chain against the one the
  formula-only planner chose), on two equal-sized relations with an
  aligned 1:1 key (their samples are drawn independently), and on samples
  that share no key at all (the estimate is not zero).
"""

import functools
import random
import statistics

import pytest

from repro.algebra import Relation
from repro.engine import (
    EngineEvaluator,
    HashJoin,
    MemoryMeter,
    RelationStats,
    Sample,
    SampledRelationStats,
    estimate_join_cardinality,
    estimate_partition_count,
    estimate_spill_depth,
    join_stats,
    q_error,
)
from repro.engine.parallel import operators_in_order
from repro.engine.sampling import SAMPLE_ROWS
from repro.expressions import Projection, parse_expression
from repro.reductions import RGConstruction
from repro.workloads import (
    actual_greedy_order,
    chain_peak,
    chain_sizes,
    growing_construction_family,
    join_parts,
    planner_join_order,
)

#: The planned chain's peak intermediate over the actual-size greedy
#: chain's: at most the oracle's own at every m (measured 1.00 through
#: m = 10, 0.26 / 0.25 at m = 12 / 14; it was 3.5 under the backoff formula).
MAX_PEAK_RATIO = 1.0

#: ... and its total streamed join rows over the oracle chain's (measured
#: 0.88-1.00 through m = 10, 0.46 / 0.31 at m = 12 / 14).
MAX_ROWS_RATIO = 1.05

#: Per-join q-error of the m = 12 and m = 14 plans (measured: median 1.08 /
#: 1.07, max 1.43 / 1.84; ~10^12 under the backoff formula).
MAX_MEDIAN_Q = 1.5
MAX_Q = 10.0


class TestSpillEstimates:
    def test_no_partitions_needed_when_build_fits_half_budget(self):
        assert estimate_partition_count(100, 256) == 1
        assert estimate_spill_depth(100, 256, 8) == 0

    def test_power_of_two_fanout_scales_with_build_size(self):
        # Target is half the budget: 1000 rows / (256/2) -> 8 partitions.
        assert estimate_partition_count(1_000, 256) == 8
        assert estimate_partition_count(2_000, 256) == 16
        assert estimate_partition_count(129, 256) == 2

    def test_fanout_is_clamped_to_the_cap(self):
        assert estimate_partition_count(10**9, 16, cap=64) == 64
        assert estimate_partition_count(10**9, 0) == 64

    def test_depth_counts_levels_until_partitions_fit(self):
        # 10_000 rows, budget 256 (target 128), fanout 8: 10_000 -> 1_250
        # -> 156 -> 19.5: three levels.
        assert estimate_spill_depth(10_000, 256, 8) == 3
        assert estimate_spill_depth(10_000, 256, 2) == 7

    def test_planner_records_fanout_on_grace_nodes(self):
        from repro.engine import MemoryBudget, RelationStats, plan_expression
        from repro.expressions.ast import Operand

        stats = {
            "R": RelationStats.assumed(("A", "B"), 10_000),
            "S": RelationStats.assumed(("B", "C"), 10_000),
        }
        query = Operand("R", "A B").join(Operand("S", "B C"))
        plan = plan_expression(query, stats)
        assert "grace" not in plan.explain()
        budgeted = plan_expression(query, stats, budget=MemoryBudget(rows=64))
        text = budgeted.explain()
        assert "grace hash join" in text and "budget=64" in text
        assert "est_partitions=" in text


# -- R_G ordering quality ----------------------------------------------
# The oracle and plan-reading helpers live in repro.workloads.ordering.


@functools.lru_cache(maxsize=None)
def _family_instance(m):
    """The m-clause query, its relation and materialised join operands, and
    the actual-size greedy oracle's chain (the slow part: computed once)."""
    case = [c for c in growing_construction_family(clause_counts=(m,))][0]
    construction = RGConstruction(case.formula)
    query = Projection([construction.s_attribute], construction.expression)
    part_relations = join_parts(query, construction.relation)
    oracle_sizes = chain_sizes(part_relations, actual_greedy_order(part_relations))
    assert max(oracle_sizes) > 0
    return query, construction.relation, part_relations, oracle_sizes


@pytest.mark.parametrize("m", [4, 6, 8, 10, 12, 14])
def test_estimate_ordering_peak_tracks_actual_size_ordering(m):
    """The default planner's chain never peaks above the actual-size greedy
    chain's peak, and streams at most :data:`MAX_ROWS_RATIO` of its rows."""
    query, relation, part_relations, oracle_sizes = _family_instance(m)
    sequence = planner_join_order(query, relation, part_relations)
    assert sorted(sequence) == list(range(len(part_relations)))
    sizes = chain_sizes(part_relations, sequence)
    assert max(sizes) <= MAX_PEAK_RATIO * max(oracle_sizes), (
        f"m={m}: estimate-ordered peak {max(sizes)} vs "
        f"actual-greedy peak {max(oracle_sizes)}"
    )
    assert sum(sizes) <= MAX_ROWS_RATIO * sum(oracle_sizes), (
        f"m={m}: estimate-ordered chain streams {sum(sizes)} rows vs "
        f"the actual-greedy chain's {sum(oracle_sizes)}"
    )


@pytest.mark.parametrize("m", [12, 14])
def test_planned_join_estimates_track_streamed_cardinalities(m):
    """Every join's planned ``est_rows`` against the rows it streamed."""
    query, relation, _, _ = _family_instance(m)
    bound = {"R": relation}
    root = EngineEvaluator().plan_for(query, bound).executor(bound, MemoryMeter())
    for _ in root.blocks():
        pass
    errors = [
        q_error(operator.est_rows, operator.rows_out)
        for operator in operators_in_order(root)
        if isinstance(operator, HashJoin)
    ]
    assert len(errors) == m
    assert statistics.median(errors) <= MAX_MEDIAN_Q, errors
    assert max(errors) <= MAX_Q, errors


@pytest.mark.parametrize("m", [12, 14])
def test_sampled_ordering_peak_tracks_actual_at_m14(m):
    """The same peak bound under ``adaptive=True``: every estimate measured
    (single-column keys and projections too), on samples drawn afresh at
    the configured size — the configuration that first held m = 14, when
    the default planner still guessed composite keys."""
    query, relation, part_relations, oracle_sizes = _family_instance(m)
    sequence = planner_join_order(
        query, relation, part_relations, evaluator=EngineEvaluator(adaptive=True)
    )
    assert sorted(sequence) == list(range(len(part_relations)))
    sampled_peak = chain_peak(part_relations, sequence)
    assert sampled_peak <= MAX_PEAK_RATIO * max(oracle_sizes), (
        f"m={m}: sampled-ordering peak {sampled_peak} vs "
        f"actual-greedy peak {max(oracle_sizes)}"
    )


# -- the scaled regime: composite keys over more rows than a sample holds ----


def _join_q_errors(query, bound):
    """(q-error of every join's planned ``est_rows`` against the rows it
    streamed, total intermediate rows) under the plain evaluator."""
    evaluator = EngineEvaluator()
    root = evaluator.plan_for(query, bound).executor(bound, MemoryMeter())
    for _ in root.blocks():
        pass
    errors = [
        q_error(operator.est_rows, operator.rows_out)
        for operator in operators_in_order(root)
        if isinstance(operator, HashJoin)
    ]
    _, trace = evaluator.evaluate(query, bound)
    return errors, trace.total_intermediate_tuples


def _correlated_chain(seed, rows=4000):
    """``project[A, E](R * S * T * U)``: ``B`` is a function of ``A`` in both
    ``R`` and ``S`` (the formula multiplies two selectivities where there is
    one), ``T`` thins ``(B, C)`` by half, ``U`` joins on ``(X, D)``."""
    rng = random.Random(seed)
    r = {(a, a % 50, rng.randrange(1000)) for a in (rng.randrange(2000) for _ in range(rows))}
    s = {(a, a % 50, rng.randrange(30)) for a in (rng.randrange(2000) for _ in range(rows // 2))}
    t = {(b, c, rng.randrange(5)) for b in range(50) for c in range(30) if rng.random() < 0.5}
    u = {(rng.randrange(1000), rng.randrange(5), rng.randrange(7)) for _ in range(rows // 4)}
    bound = {
        "R": Relation.from_rows("A B X", sorted(r), name="R"),
        "S": Relation.from_rows("A B C", sorted(s), name="S"),
        "T": Relation.from_rows("B C D", sorted(t), name="T"),
        "U": Relation.from_rows("X D E", sorted(u), name="U"),
    }
    assert all(len(relation) > SAMPLE_ROWS for relation in bound.values())
    schemes = {name: relation.scheme for name, relation in bound.items()}
    return parse_expression("project[A, E](R * S * T * U)", schemes), bound


#: ``total_intermediate_tuples`` of the chain the formula-only planner (the
#: parent of the PR that measured composite keys) chose for
#: :func:`_correlated_chain`, by seed: it joined R with S first and read
#: that join 6x too small.
FORMULA_PLAN_ROWS = {0: 16286, 1: 16536, 2: 16286}


@pytest.mark.parametrize("seed", sorted(FORMULA_PLAN_ROWS))
def test_sampled_fractions_still_order_a_correlated_chain(seed):
    """Measured (eight seeds, 4,000 and 12,000 rows): 11.3-11.6k streamed
    rows where the formula's chain streams 16.2-16.5k (55-58k vs 86-89k at
    12,000), join q-error median 1.1-2.3 and at most 7.2 (formula: median
    4.5-4.7, max 6.3)."""
    query, bound = _correlated_chain(seed)
    errors, rows = _join_q_errors(query, bound)
    assert len(errors) == 3
    assert rows <= FORMULA_PLAN_ROWS[seed], (rows, errors)
    assert statistics.median(errors) <= 2.5, errors
    assert max(errors) <= MAX_Q, errors


def test_equal_sized_relations_with_an_aligned_key_sample_independently():
    """``R(K1, K2, X)`` and ``S(K1, K2, Y)``, 5,000 rows each, row ``i`` of
    one holding the key of row ``i`` of the other.  Algorithm R under one
    shared seed keeps the same positions of both, every sampled key meets
    its partner, and the join reads 5000^2 / 256 = 97,656 rows; drawn
    independently, about 256^2 / 5000 = 13 keys meet."""
    count = 5000
    bound = {
        "R": Relation.from_rows(
            "K1 K2 X", [(i // 100, i % 100, i % 7) for i in range(count)], name="R"
        ),
        "S": Relation.from_rows(
            "K1 K2 Y", [(i // 100, i % 100, i % 11) for i in range(count)], name="S"
        ),
        "T": Relation.from_rows(
            "X Y Z", [(x, y, x * y % 3) for x in range(7) for y in range(11)], name="T"
        ),
    }
    estimate = estimate_join_cardinality(
        bound["R"].stats(), bound["S"].stats(), ("K1", "K2")
    )
    assert q_error(estimate, count) <= 2.0, estimate
    schemes = {name: relation.scheme for name, relation in bound.items()}
    query = parse_expression("project[K1, Z](R * S * T)", schemes)
    errors, rows = _join_q_errors(query, bound)
    assert max(errors) <= 2.0, errors
    assert rows <= 22927  # the formula-only planner's chain


def _keyed_entry(names, keys, population, distinct=None):
    """A default-catalog entry over ``population`` rows whose drawn sample
    holds the two-column ``keys``."""
    exact = RelationStats.assumed(names, population, distinct)
    sample = Sample(names, [key + (0,) for key in keys], population, composite_only=True)
    return SampledRelationStats(exact.cardinality, exact.columns, sample=sample)


def test_samples_that_share_no_key_do_not_estimate_an_empty_join():
    """Two 256-row samples of a sparse 100,000-row key expect 0.66 matches:
    zero is what they usually find, and it measures only that the join is
    smaller than one match would have stood for.  Below that resolution the
    formula answers, so what follows in the chain is not costed on zeros;
    two *whole* relations that share no key do join empty."""
    common = ("K1", "K2")
    left_keys = [(i, 0) for i in range(256)]
    right_keys = [(i, 1) for i in range(256)]

    def pair(population, distinct=None):
        return (
            _keyed_entry(common + ("X",), left_keys, population, distinct),
            _keyed_entry(common + ("Y",), right_keys, population, distinct),
        )

    resolution = (100_000 / 256) ** 2  # 152,588 rows per sampled match
    # The formula says 1e10 / (1000 * sqrt(100)) = 1e6: the resolution caps it.
    left, right = pair(100_000, {"K1": 1000, "K2": 100})
    assert estimate_join_cardinality(left.bare(), right.bare(), common) > resolution
    assert estimate_join_cardinality(left, right, common) == pytest.approx(resolution)
    joined = join_stats(left, right, common + ("X", "Y"), common)
    assert joined.cardinality == int(resolution)
    assert all(joined.distinct(name) > 0 for name in joined.columns)
    # All-distinct columns: the formula says 316, and is believed.
    left, right = pair(100_000)
    formula = estimate_join_cardinality(left.bare(), right.bare(), common)
    assert 0.0 < formula < resolution
    assert estimate_join_cardinality(left, right, common) == formula
    # Whole relations: nothing is unseen, the join is empty.
    left, right = pair(256)
    assert estimate_join_cardinality(left, right, common) == 0.0
