"""Sampling-estimator accuracy and adaptive re-planning coverage.

Three layers of pinning for ``repro.engine.sampling``:

* **Estimator accuracy** — property tests over seeded random relations
  bound the q-error of sampled distinct counts (GEE scale-up) and
  sample-join size estimates against the exact statistics; full-relation
  samples must be exact.
* **Propagation** — the sample-aware branches of
  :func:`repro.engine.stats.join_stats` / ``project_stats`` carry joined /
  projected samples along derived entries, and degrade to the backoff
  formulas when either side is unsampled.
* **Adaptive execution** — mid-stream re-planning: a pinned plan whose
  estimates collapse (prepared on tiny relations, executed on large ones)
  triggers a checkpoint + re-cost + resume whose result stays set-equal to
  the seed reference implementations, with the re-plan surfaced in the
  trace, the session counters, and ``repro.perf.counters``; the
  differential fuzz grid of ``test_engine_differential`` is re-run with
  ``adaptive=True`` (aggressive trigger thresholds) on every (budget,
  workers) point.
"""

import random

import pytest

from repro.algebra.relation import Relation
from repro.api import Session
from repro.engine import (
    AdaptiveConfig,
    EngineEvaluator,
    MemoryBudget,
    RelationStats,
    SampledRelationStats,
    join_stats,
    project_stats,
    q_error,
    reservoir_sample,
    sampled_stats,
)
from repro.expressions import Projection, evaluate
from repro.expressions.ast import Operand
from repro.perf import kernel_counters

from test_engine_differential import (
    CONFIG_GRID,
    _random_case,
    _reference_evaluate,
    _tiny_budget,
)

#: Calibrated on seeds 0..11 (worst observed 2.10): a regression in the GEE
#: scale-up shows up as a blown distinct-count ratio.
MAX_DISTINCT_Q = 3.0

#: Calibrated on the same seeds (worst observed 1.05): sample joins measure
#: overlap directly, so their error is far tighter than selectivity guesses.
MAX_JOIN_Q = 1.5


def _random_skewed_relation(seed: int, name: str) -> Relation:
    rng = random.Random(seed)
    count = rng.randint(800, 3000)
    rows = [
        (
            rng.randint(0, 50),
            rng.randint(0, rng.choice((5, 200, 2000))),
            rng.choice("abcdef"),
        )
        for _ in range(count)
    ]
    return Relation.from_rows("A B C", rows, name=name)


class TestReservoirSample:
    def test_small_inputs_are_returned_whole(self):
        rows = [(i,) for i in range(5)]
        assert reservoir_sample(rows, 10, random.Random(0)) == rows

    def test_sample_size_and_membership(self):
        rows = [(i,) for i in range(1000)]
        sample = reservoir_sample(rows, 64, random.Random(1))
        assert len(sample) == 64
        assert set(sample) <= set(rows)

    def test_deterministic_for_a_seed(self):
        rows = [(i, i % 7) for i in range(500)]
        first = reservoir_sample(rows, 32, random.Random(42))
        second = reservoir_sample(rows, 32, random.Random(42))
        assert first == second

    def test_every_position_reachable(self):
        """Algorithm R must not bias against late rows: across seeds, rows
        from the back half of the input appear regularly."""
        rows = [(i,) for i in range(100)]
        seen_late = 0
        for seed in range(50):
            sample = reservoir_sample(rows, 10, random.Random(seed))
            seen_late += sum(1 for (value,) in sample if value >= 50)
        # Expectation is 250 of 500 draws; anything above 150 rules out the
        # classic "only the first k rows" failure mode.
        assert seen_late > 150

    def test_zero_and_negative_k(self):
        assert reservoir_sample([(1,)], 0, random.Random(0)) == []


class TestQError:
    def test_symmetry_and_floor(self):
        assert q_error(10, 100) == pytest.approx(10.0)
        assert q_error(100, 10) == pytest.approx(10.0)
        assert q_error(0, 0) == 1.0
        assert q_error(0.2, 0) == 1.0
        assert q_error(7, 7) == 1.0


class TestSampledDistinctCounts:
    @pytest.mark.parametrize("seed", range(8))
    def test_gee_estimate_within_bound(self, seed):
        relation = _random_skewed_relation(seed, "R")
        exact = RelationStats.from_relation(relation)
        sampled = sampled_stats(relation, 256, seed=seed, name="R")
        for column in relation.scheme.names:
            # The entry itself reads the relation's exact counts; the scale-up
            # is what a population without them (a spilled checkpoint) gets.
            assert sampled.column(column) == exact.column(column)
            guess = sampled.sample.column_stats(column)
            assert guess.estimated
            q = q_error(guess.distinct_count, exact.distinct(column))
            assert q <= MAX_DISTINCT_Q, (
                f"seed={seed} column={column}: sampled {guess.distinct_count} "
                f"vs exact {exact.distinct(column)} (q={q:.2f})"
            )

    def test_full_sample_is_exact(self):
        relation = Relation.from_rows(
            "A B", [(i % 5, i % 3) for i in range(40)], name="R"
        )
        sampled = sampled_stats(relation, 512, name="R")
        exact = RelationStats.from_relation(relation)
        assert sampled.cardinality == len(relation)
        for column in ("A", "B"):
            assert sampled.distinct(column) == exact.distinct(column)
            assert sampled.column(column).minimum == exact.column(column).minimum
            assert sampled.column(column).maximum == exact.column(column).maximum

    def test_each_build_counts_once(self):
        relation = Relation.from_rows("A", [(i,) for i in range(10)])
        before = kernel_counters().snapshot()
        sampled_stats(relation, 4, name="R")
        sampled_stats(relation, 4, name="R")
        assert kernel_counters().delta_since(before)["sample_builds"] == 2


class TestSampleJoinEstimates:
    @pytest.mark.parametrize("seed", range(8))
    def test_join_size_within_bound(self, seed):
        rng = random.Random(seed * 7 + 3)
        left = _random_skewed_relation(seed, "L")
        right = Relation.from_rows(
            "A D",
            [
                (rng.randint(0, 50), rng.randint(0, 30))
                for _ in range(rng.randint(800, 3000))
            ],
            name="R",
        )
        actual = len(left.natural_join(right))
        left_sample = sampled_stats(left, 256, seed=seed, name="L").sample
        right_sample = sampled_stats(right, 256, seed=seed, name="R").sample
        estimate = left_sample.join_size(right_sample, ["A"])
        q = q_error(estimate, actual)
        assert q <= MAX_JOIN_Q, (
            f"seed={seed}: estimated {estimate:.0f} vs actual {actual} (q={q:.2f})"
        )

    def test_full_samples_estimate_exactly(self):
        left = Relation.from_rows("A B", [(i % 4, i) for i in range(30)], name="L")
        right = Relation.from_rows("B C", [(i, i % 3) for i in range(30)], name="R")
        left_sample = sampled_stats(left, 512, name="L").sample
        right_sample = sampled_stats(right, 512, name="R").sample
        actual = len(left.natural_join(right))
        assert left_sample.join_size(right_sample, ["B"]) == pytest.approx(actual)

    def test_disjoint_schemes_estimate_the_product(self):
        left = Relation.from_rows("A", [(i,) for i in range(7)], name="L")
        right = Relation.from_rows("B", [(i,) for i in range(11)], name="R")
        left_sample = sampled_stats(left, 512, name="L").sample
        right_sample = sampled_stats(right, 512, name="R").sample
        assert left_sample.join_size(right_sample, []) == pytest.approx(77.0)


class TestSampledPropagation:
    def test_join_stats_carries_the_joined_sample(self):
        left = Relation.from_rows("A B", [(i % 4, i) for i in range(30)], name="L")
        right = Relation.from_rows("B C", [(i, i % 3) for i in range(30)], name="R")
        left_entry = sampled_stats(left, 512, name="L")
        right_entry = sampled_stats(right, 512, name="R")
        joined = join_stats(left_entry, right_entry, ("A", "B", "C"), ("B",))
        assert isinstance(joined, SampledRelationStats)
        assert joined.sample is not None
        assert joined.cardinality == len(left.natural_join(right))

    def test_project_stats_carries_the_projected_sample(self):
        relation = Relation.from_rows(
            "A B", [(i % 4, i % 6) for i in range(40)], name="R"
        )
        entry = sampled_stats(relation, 512, name="R")
        projected = project_stats(entry, ("A",))
        assert isinstance(projected, SampledRelationStats)
        assert projected.cardinality == len(relation.project(("A",)))

    def test_mixed_entries_degrade_to_backoff(self):
        left = Relation.from_rows("A B", [(i % 4, i) for i in range(30)], name="L")
        sampled = sampled_stats(left, 512, name="L")
        plain = RelationStats.assumed(("B", "C"), 100)
        joined = join_stats(sampled, plain, ("A", "B", "C"), ("B",))
        assert not isinstance(joined, SampledRelationStats)
        assert joined.cardinality >= 0

    def test_propagated_sample_respects_the_join_cap(self):
        rng = random.Random(5)
        left = Relation.from_rows(
            "A B", [(rng.randint(0, 2), i) for i in range(300)], name="L"
        )
        right = Relation.from_rows(
            "A C", [(rng.randint(0, 2), i) for i in range(300)], name="R"
        )
        cap = 128
        left_entry = sampled_stats(left, 512, name="L", join_cap=cap)
        right_entry = sampled_stats(right, 512, name="R", join_cap=cap)
        joined = join_stats(left_entry, right_entry, ("A", "B", "C"), ("A",))
        assert len(joined.sample.rows) <= cap
        # The estimate survives the subsample: it is the scaled match count,
        # not the capped row count.
        actual = len(left.natural_join(right))
        assert q_error(joined.cardinality, actual) <= MAX_JOIN_Q


class TestAdaptiveConfig:
    def test_coerce(self):
        assert AdaptiveConfig.coerce(None) is None
        assert AdaptiveConfig.coerce(False) is None
        assert AdaptiveConfig.coerce(True) == AdaptiveConfig()
        config = AdaptiveConfig(sample_size=64)
        assert AdaptiveConfig.coerce(config) is config
        with pytest.raises(TypeError):
            AdaptiveConfig.coerce(3)

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveConfig(sample_size=0)
        with pytest.raises(ValueError):
            AdaptiveConfig(replan_factor=1.0)
        with pytest.raises(ValueError):
            AdaptiveConfig(max_replans=-1)
        with pytest.raises(ValueError):
            AdaptiveConfig(sample_join_cap=0)


def _three_way_case(seed: int):
    """A three-way join whose middle operand constrains the result."""
    rng = random.Random(seed)
    r = Relation.from_rows(
        "A B",
        [(rng.randint(0, 20), rng.randint(0, 8)) for _ in range(300)],
        name="R",
    )
    s = Relation.from_rows(
        "B C",
        [(rng.randint(0, 8), rng.randint(0, 30)) for _ in range(300)],
        name="S",
    )
    t = Relation.from_rows(
        "C D",
        [(rng.randint(0, 30), rng.randint(0, 5)) for _ in range(300)],
        name="T",
    )
    query = Projection(
        ["A", "D"],
        Operand("R", "A B").join(Operand("S", "B C")).join(Operand("T", "C D")),
    )
    return query, {"R": r, "S": s, "T": t}


def _tiny_bindings(bound):
    return {
        name: Relation.from_rows(
            relation.scheme, [tuple(1 for _ in relation.scheme.names)], name=name
        )
        for name, relation in bound.items()
    }


class TestAdaptiveReplan:
    def test_replan_triggers_and_result_stays_correct(self):
        """The checkpoint-resume regression: a plan pinned against tiny
        relations, executed against large ones, must re-plan mid-stream and
        still produce exactly the reference result."""
        query, bound = _three_way_case(11)
        expected = evaluate(query, bound)
        evaluator = EngineEvaluator(
            adaptive=AdaptiveConfig(replan_factor=2.0, replan_min_rows=8)
        )
        # Pin the plan against 1-row relations: every estimate is ~1.
        evaluator.plan_for(query, _tiny_bindings(bound))
        before = kernel_counters().snapshot()
        result, trace = evaluator.evaluate(query, bound)
        delta = kernel_counters().delta_since(before)
        assert result == expected
        assert trace.replans >= 1
        assert delta["adaptive_replans"] == trace.replans
        assert trace.result_cardinality == len(expected)

    def test_no_replan_when_estimates_hold(self):
        query, bound = _three_way_case(12)
        expected = evaluate(query, bound)
        evaluator = EngineEvaluator(adaptive=True)
        result, trace = evaluator.evaluate(query, bound)
        assert result == expected
        assert trace.replans == 0

    def test_checkpoint_cap_gives_up_gracefully(self):
        query, bound = _three_way_case(13)
        expected = evaluate(query, bound)
        evaluator = EngineEvaluator(
            adaptive=AdaptiveConfig(
                replan_factor=2.0, replan_min_rows=8, checkpoint_cap_rows=2
            )
        )
        evaluator.plan_for(query, _tiny_bindings(bound))
        before = kernel_counters().snapshot()
        result, trace = evaluator.evaluate(query, bound)
        delta = kernel_counters().delta_since(before)
        assert result == expected
        assert trace.replans == 0
        assert delta["adaptive_giveups"] >= 1

    def test_max_replans_zero_runs_unguarded(self):
        query, bound = _three_way_case(14)
        expected = evaluate(query, bound)
        evaluator = EngineEvaluator(
            adaptive=AdaptiveConfig(max_replans=0, replan_factor=2.0, replan_min_rows=8)
        )
        evaluator.plan_for(query, _tiny_bindings(bound))
        result, trace = evaluator.evaluate(query, bound)
        assert result == expected
        assert trace.replans == 0

    def test_replan_composes_with_a_budget(self, tmp_path):
        query, bound = _three_way_case(15)
        expected = evaluate(query, bound)
        evaluator = EngineEvaluator(
            budget=_tiny_budget(tmp_path),
            adaptive=AdaptiveConfig(replan_factor=2.0, replan_min_rows=8),
        )
        evaluator.plan_for(query, _tiny_bindings(bound))
        before = kernel_counters().snapshot()
        result, trace = evaluator.evaluate(query, bound)
        delta = kernel_counters().delta_since(before)
        assert result == expected
        assert trace.replans >= 1
        # The checkpoint dwarfs the 4-row budget: it spills to disk instead
        # of overrunning the meter (or giving the re-plan up).
        assert delta["checkpoint_spills"] >= 1
        assert delta["spill_overflows"] == 0
        assert not list(tmp_path.iterdir()), "spill files leaked"

    def test_meter_balances_after_replan(self):
        """Checkpoint state and partial results must be released: a second
        evaluation on the same evaluator starts from a clean meter, so its
        peak cannot inherit phantom rows from the first one's re-plan."""
        query, bound = _three_way_case(16)
        evaluator = EngineEvaluator(
            adaptive=AdaptiveConfig(replan_factor=2.0, replan_min_rows=8)
        )
        evaluator.plan_for(query, _tiny_bindings(bound))
        _, first = evaluator.evaluate(query, bound)
        assert first.replans >= 1
        _, second = evaluator.evaluate(query, bound)
        assert second.peak_live_rows <= first.peak_live_rows * 2


class TestAdaptiveDifferential:
    def test_adaptive_fuzz_matches_reference_on_every_grid_point(
        self, fuzz_seed, tmp_path
    ):
        """The differential harness's grid, re-run with adaptive estimation
        and hair-trigger re-planning: results stay set-equal to the seed
        reference implementations whether or not a re-plan fired."""
        rng = random.Random(fuzz_seed + 2)
        adaptive = AdaptiveConfig(
            sample_size=8, replan_factor=1.5, replan_min_rows=2
        )
        for case_index in range(12):
            expression, bindings = _random_case(rng)
            reference = _reference_evaluate(expression, bindings)
            for budget_rows, workers in CONFIG_GRID:
                budget = _tiny_budget(tmp_path) if budget_rows is not None else None
                evaluator = EngineEvaluator(
                    budget=budget,
                    workers=workers,
                    parallel_backend="thread",
                    adaptive=adaptive,
                )
                result, trace = evaluator.evaluate(expression, bindings)
                detail = (
                    f"seed={fuzz_seed}+2 case={case_index} "
                    f"budget={budget_rows} workers={workers}\n"
                    f"expression: {expression.to_text()}"
                )
                assert result.scheme.name_set == reference.scheme.name_set, detail
                realigned = (
                    result
                    if result.scheme.names == reference.scheme.names
                    else result.project(reference.scheme.names)
                )
                assert realigned == reference, detail
                leftovers = [str(path) for path in tmp_path.iterdir()]
                assert not leftovers, f"spill files leaked: {leftovers}\n{detail}"


class TestAdaptiveSession:
    def test_session_surfaces_replans_and_resamples_on_invalidation(self):
        query, bound = _three_way_case(21)
        tiny = _tiny_bindings(bound)
        expected = evaluate(query, bound)
        with Session(
            tiny,
            backend="engine",
            adaptive=AdaptiveConfig(replan_factor=2.0, replan_min_rows=8),
        ) as session:
            prepared = session.prepare(query)
            prepared.execute()
            assert session.stats()["replans"] == 0
            before = kernel_counters().snapshot()
            # Replace every relation: the prepared query re-binds, the
            # engine forgets its plan, and the replan re-samples the fresh
            # relations (construction is invalidation).
            for name, relation in bound.items():
                session.set_relation(name, relation)
            result = prepared.execute()
            delta = kernel_counters().delta_since(before)
            assert result.set_equal(expected)
            stats = session.stats()
            assert stats["invalidation_replans"] == 1
            # One fresh sample per operand at the invalidation replan (plus
            # any drawn during mid-stream re-planning).
            assert delta["sample_builds"] >= len(bound)
            # The invalidation replan planned against the *real* relations,
            # so the revised pinned plan needs no mid-stream correction.
            assert prepared.last_trace().replans == stats["replans"]

    def test_adaptive_session_serves_identically_to_static(self):
        query, bound = _three_way_case(22)
        expected = evaluate(query, bound)
        with Session(bound, backend="engine", adaptive=True) as session:
            result = session.execute(query)
            assert result.set_equal(expected)
            trace = session.prepare(query).trace()
            assert trace.replans == 0
            assert trace.backend == "engine"
