"""Estimate-quality coverage for the statistics catalog (``engine/stats``).

Two kinds of pinning:

* **Spill estimates** — :func:`estimate_partition_count` drives the
  Grace-hash fan-out; its arithmetic contract is pinned directly.

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
  high (6.4e14 vs 197 rows at m = 12), and the peak ratio read 1.00, 1.00,
  1.21, 3.07, 1.56 through m = 12 and diverged at m = 14.

  The numbers above are ``project[S](φ_G)``'s, which the planner now
  minimizes to one scan.  The query pinned here is Proposition 1's
  ``π_Y(φ_G)``: the same join operands under a wider top projection, whose
  tableau keeps every row.  At the parent of minimization it read peak
  ratios 1.00, 1.00, 1.00, 1.00, 0.27, 0.25, rows ratios 0.88, 0.90, 0.98,
  1.00 (3,443 vs 3,429), 0.51 (11,717 vs 22,950), 0.31 (41,982 vs
  137,075), and q-error median 1.22 / max 1.94 at m = 12 and 1.11 / 2.02
  at m = 14; the bounds are unchanged.

* **The scaled regime** — on R_G every sample *is* its relation (85 rows
  at m = 12).  Composite keys over relations larger than
  :data:`~repro.engine.sampling.SAMPLE_ROWS` are measured on a fraction,
  and pinned here on a four-relation join of 750-4,000-row operands with
  correlated two-column keys (estimates, and the chain against the one the
  formula-only planner chose), on two equal-sized relations with an
  aligned 1:1 key (their samples are drawn independently), and on samples
  that share no key at all (the estimate is not zero).

* **Skewed single-column keys** — a one-column key is measured too when the
  exact column counts show a heavy hitter (:data:`~repro.engine.stats.SKEW`).
  Pinned as counts on the trial that replaced ``adaptive=``: three queries
  whose chains and streamed rows are exactly what ``adaptive=True`` read
  (the formula alone streamed 1,025,400 and 1,029,400 rows on the first two),
  in every written order, under a budget, and through a
  session rebinding uniform relations to skewed ones; a uniform control of
  the same shape that draws no sample, and data-less entries that keep the
  formula.  Under them: the column counts themselves (``top_count`` against
  a direct count), the rule's threshold on either side of a join, and how
  ``join_stats`` / ``project_stats`` carry ``top_count``.
"""

import functools
import itertools
import os
import random
import statistics
import subprocess
import sys

import pytest

from repro.algebra import Relation
from repro.api import Session
from repro.engine import (
    ColumnStats,
    EngineEvaluator,
    HashJoin,
    MemoryMeter,
    RelationStats,
    Sample,
    SampledRelationStats,
    estimate_join_cardinality,
    estimate_partition_count,
    join_estimate_provenance,
    join_stats,
    project_stats,
    q_error,
)
from repro.engine.physical import operators_in_order
from repro.engine.sampling import SAMPLE_ROWS
from repro.engine.stats import SKEW
from repro.expressions import parse_expression
from repro.reductions import RGConstruction
from repro.perf import kernel_counters
from repro.workloads import (
    actual_greedy_order,
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

    def test_power_of_two_fanout_scales_with_build_size(self):
        # Target is half the budget: 1000 rows / (256/2) -> 8 partitions.
        assert estimate_partition_count(1_000, 256) == 8
        assert estimate_partition_count(2_000, 256) == 16
        assert estimate_partition_count(129, 256) == 2

    def test_fanout_is_clamped_to_the_cap(self):
        assert estimate_partition_count(10**9, 16, cap=64) == 64
        assert estimate_partition_count(10**9, 0) == 64

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
    query = construction.pair_projection_expression()
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
    rows = [key + (0,) for key in keys]
    sample = Sample(names, draw=lambda: (rows, population))
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


# -- skewed single-column keys ----------------------------------------------

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
TESTS = os.path.dirname(os.path.abspath(__file__))


def _trial_relations(skewed=True):
    """``R(A, B)`` and ``S(B, C)``, 2,000 rows each; ``T(C, D)``, 20,000 rows
    meeting ``S`` on 20 ``C`` values (10 rows each); ``U(A, E)``, one ``E``
    per ``A`` (seven values in all).  Skewed: ``B = 0`` on half of ``R`` and
    half of ``S``, and unique elsewhere.  Uniform: each ``B`` value twice."""
    if skewed:
        r = [(a, 0) for a in range(1000)] + [(a, a) for a in range(1000, 2000)]
        s = [(0, c) for c in range(1000)] + [(b, b) for b in range(1000, 2000)]
    else:
        r = [(a, a % 1000) for a in range(2000)]
        s = [(b % 1000, b) for b in range(2000)]
    t = [(1000 + k % 20, k) for k in range(200)]
    t += [(2000 + k % 1000, k) for k in range(200, 20_000)]
    return {
        "R": Relation.from_rows("A B", r, name="R"),
        "S": Relation.from_rows("B C", s, name="S"),
        "T": Relation.from_rows("C D", t, name="T"),
        "U": Relation.from_rows("A E", [(a, a % 7) for a in range(2000)], name="U"),
    }


def _parse(text, relations):
    return parse_expression(text, {name: rel.scheme for name, rel in relations.items()})


#: Query -> (chain, ``total_intermediate_tuples``, result rows).  The parent
#: planner's ``adaptive=True`` read the same; its default (the formula on
#: every single-column key) joined ``R * S`` first on the first two queries:
#: ``R, S, T`` streaming 1,025,400 rows and ``U, R, S, T`` 1,029,400.  The
#: third starts on ``U * R`` either way.
TRIAL = {
    "project[A, D](R * S * T)": (("S", "T", "R"), 24_600, 200),
    "project[E, D](U * R * S * T)": (("S", "T", "R", "U"), 26_800, 200),
    "project[E, C](U * R * S)": (("U", "R", "S"), 1_017_000, 8_000),
}


def _trial_chains():
    """The default planner's chain for every trial query (plans only)."""
    relations = _trial_relations()
    return {
        text: EngineEvaluator().plan_for(_parse(text, relations), relations).root.scan_order()
        for text in TRIAL
    }


def _chain_joins(plan):
    """A left-deep plan's chain joins, first join first."""
    node, joins = plan.root, []
    while node.kind != "scan":
        if node.kind == "hash-join":
            joins.append(node)
        node = node.children[0]
    return joins[::-1]


@pytest.mark.parametrize("text", sorted(TRIAL))
def test_a_heavy_hitter_key_is_measured(text):
    relations = _trial_relations()
    query = _parse(text, relations)
    evaluator = EngineEvaluator()
    result, trace = evaluator.evaluate(query, relations)
    chain, streamed, rows = TRIAL[text]
    assert evaluator.pinned_plan(query).root.scan_order() == chain
    assert trace.total_intermediate_tuples == streamed
    assert len(result) == rows


def test_a_skew_met_on_chain_extension_rides_on_top_count():
    """``S * T`` joins on the uniform ``C``, so the formula answers; ``B``'s
    heavy hitter rides along on the derived entry (capped at its
    cardinality), and extending the chain with ``R`` on ``B`` is measured."""
    relations = _trial_relations()
    r, s, t = (relations[name].stats() for name in "RST")
    assert s.column("B").top_count == 1000 and s.column("C").top_count == 1
    assert join_estimate_provenance(s, t, ("C",)) == "backoff"
    joined = join_stats(s, t, ("B", "C", "D"), ("C",))
    assert joined.column("B").top_count == 1000
    assert join_estimate_provenance(joined, r, ("B",)) == "sampled"
    capped = join_stats(s, t, ("B", "C", "D"), ("C",), cardinality=10)
    assert capped.column("B").top_count == 10
    plan = EngineEvaluator().plan_for(_parse("project[A, D](R * S * T)", relations), relations)
    assert [join.provenance for join in _chain_joins(plan)] == ["backoff", "sampled"]


def test_a_uniform_key_of_the_same_shape_draws_no_sample():
    relations = _trial_relations(skewed=False)
    assert relations["S"].stats().column("B").top_count == 2
    before = kernel_counters().snapshot()
    for text in TRIAL:
        plan = EngineEvaluator().plan_for(_parse(text, relations), relations)
        assert {join.provenance for join in _chain_joins(plan)} == {"backoff"}, text
    delta = kernel_counters().delta_since(before)
    assert (delta["sample_builds"], delta["sample_joins"]) == (0, 0)


def test_a_nearly_unique_uniform_key_draws_no_sample():
    """20,000 rows keyed uniformly over 20,000 values: the busiest key
    outgrows the mean (the ratio reads over :data:`SKEW`), but it is too
    rare for a 256-row sample to see, so the formula answers."""
    rng = random.Random(0)  # busiest key: 8 rows; 12,673 distinct
    keys = [rng.randrange(20_000) for _ in range(20_000)]
    left = Relation.from_rows("A B", list(enumerate(keys)))
    right = Relation.from_rows("B C", [(key, index) for index, key in enumerate(keys)])
    column = left.stats().column("B")
    assert column.top_count * column.distinct_count >= SKEW * len(left)
    before = kernel_counters().snapshot()
    for first, second in ((left, right), (right, left)):
        assert join_estimate_provenance(first.stats(), second.stats(), ("B",)) == "backoff"
        estimate_join_cardinality(first.stats(), second.stats(), ("B",))
    delta = kernel_counters().delta_since(before)
    assert (delta["sample_builds"], delta["sample_joins"]) == (0, 0)


def test_assumed_stats_keep_the_formula():
    """A data-less entry counted nothing (``top_count`` 0): the formula
    answers, whatever the other side's counts say."""
    skewed = _trial_relations()["S"].stats()
    assumed = RelationStats.assumed(("A", "B"), 2000, {"B": 1001})
    assert assumed.column("B").top_count == 0
    formula = 2000 * 2000 / 1001
    for left, right in ((assumed, skewed), (skewed, assumed), (assumed, assumed)):
        assert join_estimate_provenance(left, right, ("B",)) == "backoff"
        assert estimate_join_cardinality(left, right, ("B",)) == pytest.approx(formula)


def test_the_trial_chains_under_random_hash_seeds():
    script = (
        f"import sys; sys.path.insert(0, {TESTS!r})\n"
        "from test_engine_stats_quality import _trial_chains\n"
        "print(sorted(_trial_chains().items()))\n"
    )
    expected = repr(sorted((text, chain) for text, (chain, _, _) in TRIAL.items()))
    for _ in range(2):
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="random")
        printed = subprocess.run(
            [sys.executable, "-c", script],
            env=env, check=True, capture_output=True, text=True,
        ).stdout
        assert printed.strip() == expected


#: Every order the two chain queries of the trial can be written in (the
#: ``U`` query with ``U`` first: it is the last operand joined either way).
WRITTEN_ORDERS = [
    " * ".join(order) for order in itertools.permutations("RST")
] + ["U * " + " * ".join(order) for order in itertools.permutations("RST")]


@pytest.mark.parametrize("operands", WRITTEN_ORDERS)
def test_the_trial_streams_the_same_in_any_written_order(operands):
    """Samples are content-seeded and joined pairs are oriented by column
    names, so the measured chain does not depend on the written order: the
    first pair is ``{S, T}`` (its build side may differ), then ``R``."""
    relations = _trial_relations()
    target = "E, D" if "U" in operands else "A, D"
    canonical = "project[E, D](U * R * S * T)" if "U" in operands else "project[A, D](R * S * T)"
    chain, streamed, rows = TRIAL[canonical]
    query = _parse(f"project[{target}]({operands})", relations)
    evaluator = EngineEvaluator()
    result, trace = evaluator.evaluate(query, relations)
    order = evaluator.pinned_plan(query).root.scan_order()
    assert set(order[:2]) == set(chain[:2]) and order[2:] == chain[2:]
    assert trace.total_intermediate_tuples == streamed
    assert len(result) == rows


@pytest.mark.parametrize("text", ["project[A, D](R * S * T)", "project[E, D](U * R * S * T)"])
def test_the_trial_chain_holds_under_a_budget(text):
    """The estimate is made before execution is configured: a budget
    changes how the chain runs, not which chain it is."""
    relations = _trial_relations()
    query = _parse(text, relations)
    evaluator = EngineEvaluator(budget=1024)
    result, trace = evaluator.evaluate(query, relations)
    chain, streamed, rows = TRIAL[text]
    assert evaluator.pinned_plan(query).root.scan_order() == chain
    assert trace.total_intermediate_tuples == streamed
    assert len(result) == rows


def test_a_served_query_replans_measured_when_its_key_turns_skewed():
    """Construction is invalidation for ``top_count`` as for every count: a
    prepared query over the uniform relations re-plans on the skewed ones
    it is rebound to, and the re-plan measures ``B``."""
    uniform, skewed = _trial_relations(skewed=False), _trial_relations()
    with Session(uniform) as session:
        prepared = session.prepare("project[A, D](R * S * T)")
        before = prepared.execute()
        assert (before.trace.total_intermediate_tuples, len(before)) == (28_800, 400)
        session.set_relation("R", skewed["R"])
        session.set_relation("S", skewed["S"])
        after = prepared.execute()
        assert (after.trace.total_intermediate_tuples, len(after)) == (24_600, 200)
        assert session.stats()["invalidation_replans"] == 1


def _direct_counts(values):
    """(distinct count, minimum, maximum, top count) of ``values``, counted
    one value at a time."""
    counts = {}
    for value in values:
        counts[value] = counts.get(value, 0) + 1
    try:
        minimum, maximum = min(counts), max(counts)
    except (TypeError, ValueError):  # mixed types, or no values
        minimum = maximum = None
    return len(counts), minimum, maximum, max(counts.values(), default=0)


@pytest.mark.parametrize("seed", range(8))
def test_column_counts_match_a_direct_count(seed):
    """The catalog counts each column in one ``Counter`` pass: its distinct
    count, bounds and top count equal a direct count, on a column with a
    hot value, a wide one, and (odd seeds) one of mixed types."""
    rng = random.Random(seed)
    hot_share = rng.uniform(0.0, 0.6)
    rows = [
        (
            0 if rng.random() < hot_share else rng.randint(1, 30),
            rng.randint(0, 10_000),
            rng.choice((rng.randint(0, 5), "x", "y")) if seed % 2 else rng.randint(0, 5),
        )
        for _ in range(rng.randint(1, 500))
    ]
    relation = Relation.from_rows("A B C", rows)
    stats = relation.stats()
    assert stats.cardinality == len(relation)
    for index, name in enumerate(relation.scheme.names):
        column = stats.column(name)
        expected = _direct_counts(row[index] for row in relation.rows)
        assert (
            column.distinct_count, column.minimum, column.maximum, column.top_count
        ) == expected, name


def test_an_empty_relation_counts_nothing():
    stats = Relation.empty("A B").stats()
    assert stats.cardinality == 0
    assert stats.column("A") == ColumnStats(distinct_count=0, top_count=0)


def _threshold_relation(names, top):
    """100 rows whose first column holds ``0`` on ``top`` of them and spreads
    the rest over 19 other values: 20 distinct, a mean of 5 rows each, so
    ``top`` >= 20 is :data:`SKEW` (4) times the mean."""
    rows = [(0, index) for index in range(top)]
    rows += [(1 + index % 19, top + index) for index in range(100 - top)]
    return Relation.from_rows(names, rows)


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("top", [19, 20, 21])
def test_the_skew_rule_measures_from_the_threshold_up(top, side):
    """A top value at 4x the mean is measured (here on whole-relation
    samples: exactly); just under it the formula prices every value at
    the mean — on either side of the join."""
    assert SKEW == 4
    skewed = _threshold_relation("B A", top).stats()
    uniform = Relation.from_rows("B C", [(i % 20, i) for i in range(100)])
    entries = (skewed, uniform.stats()) if side == "left" else (uniform.stats(), skewed)
    estimate = estimate_join_cardinality(*entries, ("B",))
    if top >= 20:
        assert join_estimate_provenance(*entries, ("B",)) == "sampled"
        actual = len(_threshold_relation("B A", top).natural_join(uniform))
        assert estimate == pytest.approx(actual)
    else:
        assert join_estimate_provenance(*entries, ("B",)) == "backoff"
        assert estimate == pytest.approx(100 * 100 / 20)


def test_a_shared_key_keeps_the_narrower_sides_top_count():
    """Through a join a column keeps the counts of the side it came from —
    a shared key the side with fewer distinct values — capped at the
    derived cardinality."""
    left = RelationStats(
        100, {"A": ColumnStats(10, top_count=50), "B": ColumnStats(100, top_count=1)}
    )
    right = RelationStats(
        1000, {"A": ColumnStats(40, top_count=30), "C": ColumnStats(7, top_count=200)}
    )
    joined = join_stats(left, right, ("A", "B", "C"), ("A",), cardinality=150)
    assert joined.column("A") == ColumnStats(10, top_count=50)
    assert joined.column("B").top_count == 1
    assert joined.column("C") == ColumnStats(7, top_count=150)
    # Equally narrow sides: the hotter one, in either operand order.
    tied = RelationStats(1000, {"A": ColumnStats(10, top_count=80)})
    for pair in ((left, tied), (tied, left)):
        assert join_stats(*pair, ("A",), ("A",), cardinality=150).column("A").top_count == 80


@pytest.mark.parametrize(
    "kept, name, top",
    [
        (("B",), "B", 1),
        (("A", "B"), "B", 3),
        (("A", "B"), "A", 50),
        (("B", "C"), "B", 100),
    ],
)
def test_a_projection_bounds_top_count_by_the_other_kept_columns(kept, name, top):
    """Deduplicated, a value recurs at most once per combination of the
    other kept columns' values (and once, kept alone)."""
    child = RelationStats(
        1000,
        {
            "A": ColumnStats(3, top_count=400),
            "B": ColumnStats(50, top_count=600),
            "C": ColumnStats(100, top_count=10),
        },
    )
    assert project_stats(child, kept).column(name).top_count == top
