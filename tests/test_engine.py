"""Tests for the streaming query-execution engine (``repro.engine``).

The engine must be observationally identical to the seed's dict-based
reference implementation (:mod:`repro.algebra.reference`): randomized
property tests pin operator-level and whole-expression results set-equal to
the reference, and the memory meter's accounting is checked against the
invariant that every operator releases what it acquires.

Thread-safety is pinned at two layers.  The meter: the pre-lock meter used
plain ``current += rows`` read-modify-write increments; with several threads
sharing one meter those lose updates on any interpreter that can preempt
inside the sequence (CPython 3.9 checks the eval breaker between bytecodes;
free-threaded builds drop the GIL entirely), leaving ``current`` nonzero
after balanced acquire/release traffic.  The exactness assertions fail for
that implementation wherever preemption is fine enough — and always pass
for the locked one.  The evaluator: one pinned plan evaluated from 8
threads concurrently must produce the serial result every time, and the
engine's locked counters (probes, spills) must account exactly: 24
concurrent evaluations add exactly 24 serial deltas.
"""

import random
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.algebra import (
    Relation,
    RelationScheme,
    naive_natural_join,
    naive_project,
)
from repro.decision import EngineMembershipDecider, tuple_in_result
from repro.engine import (
    EngineEvaluator,
    GraceHashJoin,
    HashJoin,
    MemoryBudget,
    MemoryMeter,
    RelationStats,
    StreamingProject,
    TableScan,
    plan_expression,
)
from repro.engine.physical import BLOCK_ROWS, drain_metered, operators_in_order
from repro.engine.stats import join_stats, project_stats
from repro.expressions import Projection, evaluate
from repro.expressions.ast import Expression, Join, Operand
from repro.perf import kernel_counters
from repro.perf.plancache import make_chain_kernel
from repro.reductions import RGConstruction
from repro.workloads import growing_construction_family, random_instance

NAME_POOL = tuple("ABCDEFGHIJ")
VALUE_POOL = st.one_of(st.integers(min_value=0, max_value=4), st.sampled_from("xyz"))


@st.composite
def schemes(draw, min_width=1, max_width=5):
    width = draw(st.integers(min_value=min_width, max_value=max_width))
    names = draw(st.permutations(NAME_POOL).map(lambda p: tuple(p[:width])))
    return RelationScheme(names)


@st.composite
def relations(draw, scheme=None, max_rows=12):
    if scheme is None:
        scheme = draw(schemes())
    n_rows = draw(st.integers(min_value=0, max_value=max_rows))
    rows = draw(
        st.lists(
            st.tuples(*([VALUE_POOL] * len(scheme))), min_size=n_rows, max_size=n_rows
        )
    )
    return Relation.from_rows(scheme, rows)


@st.composite
def joinable_pairs(draw):
    left_scheme = draw(schemes(max_width=4))
    overlap = draw(st.lists(st.sampled_from(left_scheme.names), unique=True, max_size=2))
    fresh = [n for n in NAME_POOL if n not in left_scheme.name_set]
    extra_width = draw(st.integers(min_value=0, max_value=2))
    right_names = tuple(overlap) + tuple(fresh[:extra_width])
    if not right_names:
        right_names = (fresh[0],)
    right_scheme = RelationScheme(right_names)
    return draw(relations(scheme=left_scheme)), draw(relations(scheme=right_scheme))


def _drain(operator):
    """Collect an operator's streamed output into a relation."""
    rows = set()
    for block in operator.blocks():
        rows.update(block)
    return Relation._from_trusted(operator.scheme, frozenset(rows))


def _join_plan_for(left, right):
    from repro.algebra.relation import _join_plan

    return _join_plan(left.scheme, right.scheme)


def _hash_join(left, right, plan, meter, build_side):
    """A lone hash join, with the whole-row kernel a plan would hand it."""
    join = HashJoin(left, right, plan, meter, build_side=build_side)
    join.fuse(make_chain_kernel([(build_side == "left", plan)]))
    return join


def _reference_evaluate(node: Expression, bound):
    """Evaluate an expression with the retained seed implementations."""
    if isinstance(node, Operand):
        return bound[node.name]
    if isinstance(node, Projection):
        return naive_project(_reference_evaluate(node.child, bound), node.target)
    if isinstance(node, Join):
        parts = [_reference_evaluate(part, bound) for part in node.parts]
        result = parts[0]
        for part in parts[1:]:
            result = naive_natural_join(result, part)
        return result
    raise AssertionError(f"unknown node {node!r}")


class TestStatsCatalog:
    def test_stats_match_column_values(self):
        relation = Relation.from_rows("A B C", [(i % 3, i % 2, "x") for i in range(10)])
        stats = relation.stats()
        assert stats.cardinality == len(relation)
        for name in relation.scheme.names:
            assert stats.distinct(name) == len(relation.column_values(name))

    def test_stats_cached_per_relation(self):
        relation = Relation.from_rows("A B", [(1, 2), (3, 4)])
        assert relation.stats() is relation.stats()
        # A derived relation gets a fresh entry (construction = invalidation).
        assert relation.project("A").stats() is not relation.stats()

    def test_min_max_bounds(self):
        relation = Relation.from_rows("A", [(3,), (1,), (7,)])
        column = relation.stats().column("A")
        assert (column.minimum, column.maximum) == (1, 7)

    def test_min_max_none_for_incomparable_values(self):
        relation = Relation.from_rows("A", [(1,), ("x",)])
        column = relation.stats().column("A")
        assert column.distinct_count == 2
        assert column.minimum is None and column.maximum is None

    def test_empty_relation_stats(self):
        stats = Relation.empty("A B").stats()
        assert stats.cardinality == 0
        assert stats.distinct("A") == 0

    def test_assumed_stats(self):
        stats = RelationStats.assumed(("A", "B"), 50, distinct={"B": 5})
        assert stats.cardinality == 50
        assert stats.distinct("A") == 50
        assert stats.distinct("B") == 5

    def test_join_and_project_propagation(self):
        left = RelationStats.assumed(("A", "B"), 100, distinct={"B": 10})
        right = RelationStats.assumed(("B", "C"), 100, distinct={"B": 20})
        joined = join_stats(left, right, ("A", "B", "C"), ("B",))
        assert joined.cardinality == 100 * 100 // 20
        assert joined.distinct("B") == 10
        projected = project_stats(joined, ("B",))
        assert projected.cardinality == 10

    @settings(max_examples=30, deadline=None)
    @given(relations())
    def test_stats_distinct_counts_property(self, relation):
        stats = relation.stats()
        for name in relation.scheme.names:
            assert stats.distinct(name) == len(relation.column_values(name))


class TestPhysicalOperators:
    @settings(max_examples=50, deadline=None)
    @given(joinable_pairs(), st.sampled_from(["left", "right"]))
    def test_hash_join_matches_reference(self, pair, build_side):
        left, right = pair
        meter = MemoryMeter()
        operator = _hash_join(
            TableScan(left, meter),
            TableScan(right, meter),
            _join_plan_for(left, right),
            meter,
            build_side=build_side,
        )
        result = _drain(operator)
        reference = naive_natural_join(left, right)
        assert result.scheme == reference.scheme
        assert result == reference
        assert meter.current == 0  # everything acquired was released

    @settings(max_examples=50, deadline=None)
    @given(relations(), st.randoms(use_true_random=False))
    def test_streaming_project_matches_reference(self, relation, rng):
        width = rng.randint(1, len(relation.scheme))
        target = RelationScheme(rng.sample(relation.scheme.names, width))
        from repro.algebra.tuples import _project_plan

        plan = _project_plan(relation.scheme, target)
        meter = MemoryMeter()
        operator = StreamingProject(
            TableScan(relation, meter), plan.pick, plan.target_scheme, meter
        )
        result = _drain(operator)
        assert result == naive_project(relation, target)
        assert meter.current == 0

    def test_meter_counts_overlapping_build_state(self):
        # A stateful build-side subtree (dedup projection) holds its seen-set
        # until its drain completes; the consuming hash join must meter its
        # own buckets *while* that state is still resident, so the peak sees
        # both at once rather than only the larger.
        from repro.algebra.tuples import _project_plan

        base = Relation.from_rows("A B", [(i, i) for i in range(100)])
        probe = Relation.from_rows("A C", [(i, "c") for i in range(100)])
        meter = MemoryMeter()
        plan = _project_plan(base.scheme, RelationScheme.of("A"))
        build = StreamingProject(TableScan(base, meter), plan.pick, plan.target_scheme, meter)
        join = _hash_join(
            build,
            TableScan(probe, meter),
            _join_plan_for(base.project("A"), probe),
            meter,
            build_side="left",
        )
        _drain(join)
        # While the build drain runs, the projection's 100-entry seen-set and
        # the join's growing 100-entry table are live together.
        assert meter.peak >= 2 * len(base) - 2
        assert meter.current == 0

    def test_meter_tracks_build_side_residency(self):
        left = Relation.from_rows("A B", [(i, i % 3) for i in range(10)])
        right = Relation.from_rows("B C", [(i % 3, i) for i in range(30)])
        meter = MemoryMeter()
        operator = _hash_join(
            TableScan(left, meter),
            TableScan(right, meter),
            _join_plan_for(left, right),
            meter,
            build_side="left",
        )
        _drain(operator)
        assert meter.peak >= len(left)
        assert meter.current == 0


class TestEngineEvaluator:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_engine_matches_reference_on_random_instances(self, seed):
        relation, query = random_instance(
            num_attributes=5, num_tuples=15, domain_size=3, num_factors=3, seed=seed
        )
        bound = {name: relation for name in query.operand_names()}
        reference = _reference_evaluate(query, bound)
        result, trace = EngineEvaluator().evaluate(query, relation)
        assert result.scheme == reference.scheme
        assert result.tuples == reference.tuples
        assert trace.result_cardinality == len(reference)

    def test_engine_matches_reference_on_construction(self):
        construction = RGConstruction(
            next(iter(growing_construction_family(clause_counts=(4,)))).formula
        )
        # Proposition 1's π_Y(φ_G) keeps its joins (project[S](φ_G) plans
        # as one scan).
        query = construction.pair_projection_expression()
        bound = {name: construction.relation for name in query.operand_names()}
        reference = _reference_evaluate(query, bound)
        result, trace = EngineEvaluator().evaluate(query, construction.relation)
        assert result == reference
        assert trace.peak_live_rows > 0
        assert trace.steps  # per-operator cardinalities were recorded

    def test_peak_live_rows_beats_materialised_peak_on_blowup(self):
        from repro.expressions import InstrumentedEvaluator, OptimizedEvaluator

        case = next(iter(growing_construction_family(clause_counts=(10,))))
        construction = RGConstruction(case.formula)
        query = construction.pair_projection_expression()
        relation = construction.relation
        result, trace = EngineEvaluator().evaluate(query, relation)
        naive_result, naive_trace = InstrumentedEvaluator().evaluate(query, relation)
        _, optimized_trace = OptimizedEvaluator().evaluate(query, relation)
        assert result == naive_result
        assert trace.peak_live_rows < naive_trace.peak_intermediate_cardinality
        assert trace.peak_live_rows < optimized_trace.peak_intermediate_cardinality

    def test_plans_are_pinned_per_expression(self):
        relation = Relation.from_rows("A B", [(i, i % 4) for i in range(12)])
        other = Relation.from_rows("B C", [(i % 4, i) for i in range(12)])
        query = Operand("R", relation.scheme).join(Operand("S", other.scheme)).project("A C")
        evaluator = EngineEvaluator()
        bound = {"R": relation, "S": other}
        first = evaluator.plan_for(query, bound)
        second = evaluator.plan_for(query, bound)
        assert first is second
        evaluator.clear_plans()
        assert evaluator.plan_for(query, bound) is not first

    def test_pinned_plan_skips_global_plan_cache(self):
        from repro.perf import kernel_counters

        relation = Relation.from_rows("A B", [(i, i % 4) for i in range(12)])
        other = Relation.from_rows("B C", [(i % 4, i) for i in range(12)])
        query = Operand("R", relation.scheme).join(Operand("S", other.scheme)).project("A")
        evaluator = EngineEvaluator()
        bound = {"R": relation, "S": other}
        expected, _ = evaluator.evaluate(query, bound)
        counters = kernel_counters()
        before = counters.snapshot()
        result, _ = evaluator.evaluate(query, bound)
        delta = counters.delta_since(before)
        assert result == expected
        assert delta["join_plan_hits"] == 0 and delta["join_plan_misses"] == 0
        assert delta["project_plan_hits"] == 0 and delta["project_plan_misses"] == 0

    def test_rebinding_a_reordered_presentation_realigns(self):
        scheme = RelationScheme.of("A", "B")
        reordered = RelationScheme.of("B", "A")
        query = Projection(["A"], Operand("R", scheme).join(Operand("S", "B C")))
        evaluator = EngineEvaluator()
        first = {
            "R": Relation.from_rows(scheme, [(1, 2), (3, 4)]),
            "S": Relation.from_rows("B C", [(2, "x")]),
        }
        result, _ = evaluator.evaluate(query, first)
        assert result == evaluate(query, first)
        # Same scheme *set*, different presentation order: the pinned plan
        # must realign the rows rather than misread the columns.
        second = {
            "R": Relation.from_rows(reordered, [(2, 1), (9, 8)]),
            "S": Relation.from_rows("B C", [(2, "y")]),
        }
        result, _ = evaluator.evaluate(query, second)
        assert result == evaluate(query, second)

    @pytest.mark.parametrize("budget", [None, 8], ids=["unbudgeted", "budget-8"])
    def test_warm_evaluations_record_identical_traces(self, budget):
        """One process runs one operator tree: a warm plan evaluated again
        reproduces its steps, counters and peaks exactly."""
        case = next(iter(growing_construction_family(clause_counts=(6,))))
        construction = RGConstruction(case.formula)
        query = construction.pair_projection_expression()
        evaluator = EngineEvaluator(budget=budget)
        evaluator.evaluate(query, construction.relation)
        runs = [evaluator.evaluate(query, construction.relation) for _ in range(2)]
        (first, first_trace), (second, second_trace) = runs
        bound = {name: construction.relation for name in query.operand_names()}
        assert first == second == _reference_evaluate(query, bound)
        for field in ("steps", "counters", "peak_live_rows", "peak_build_rows"):
            assert getattr(first_trace, field) == getattr(second_trace, field), field
        assert (first_trace.counters["join_spills"] > 0) == (budget is not None)

    @pytest.mark.parametrize("budget", [None, 2], ids=["unbudgeted", "budget-2"])
    @pytest.mark.parametrize("empty", ["R", "S"])
    def test_an_empty_operand_joins_to_an_empty_result(self, empty, budget):
        """Whichever side the planner builds or probes, an empty input ends
        the join with nothing held and nothing spilled."""
        relations = {
            "R": Relation.from_rows("A B", [(i, i % 3) for i in range(12)], name="R"),
            "S": Relation.from_rows("B C", [(b, -b) for b in range(3)], name="S"),
        }
        relations[empty] = Relation.empty(relations[empty].scheme)
        query = Projection(["A", "C"], Operand("R", "A B").join(Operand("S", "B C")))
        result, trace = EngineEvaluator(budget=budget).evaluate(query, relations)
        assert result == _reference_evaluate(query, relations)
        assert len(result) == 0 and trace.result_cardinality == 0
        assert trace.counters.get("spill_rows", 0) == 0

    def test_close_releases_nothing_and_leaves_the_evaluator_usable(self):
        relation, query = random_instance(seed=9)
        evaluator = EngineEvaluator(budget=4)
        before, _ = evaluator.evaluate(query, relation)
        evaluator.close()
        evaluator.close()
        after, _ = evaluator.evaluate(query, relation)
        assert after == before
        assert evaluator.pinned_plan(query) is not None

    def test_trace_reports_kernel_activity_and_input(self):
        relation, query = random_instance(seed=5)
        _, trace = EngineEvaluator().evaluate(query, relation)
        assert trace.input_cardinality == len(relation) * len(query.operand_names())
        assert isinstance(trace.counters, dict)
        summary = trace.summary()
        assert summary["peak_live_rows"] == float(trace.peak_live_rows)


class TestPlanner:
    def test_explain_names_operators_and_estimates(self):
        stats = {
            "R": RelationStats.assumed(("A", "B"), 1000),
            "S": RelationStats.assumed(("B", "C"), 10),
        }
        query = Projection(["A"], Operand("R", "A B").join(Operand("S", "B C")))
        plan = plan_expression(query, stats)
        text = plan.explain()
        assert "hash join" in text and "scan R" in text and "est_rows=" in text
        # The tiny side is the build side.
        assert "[build=" in text

    def test_product_join_is_planned_as_hash_join(self):
        stats = {
            "R": RelationStats.assumed(("A",), 4),
            "S": RelationStats.assumed(("B",), 5),
        }
        plan = plan_expression(Operand("R", "A").join(Operand("S", "B")), stats)
        assert plan.est_rows == 20.0
        left = Relation.from_rows("A", [(1,), (2,)])
        right = Relation.from_rows("B", [("x",), ("y",)])
        result, _ = EngineEvaluator().evaluate(
            Operand("R", "A").join(Operand("S", "B")), {"R": left, "S": right}
        )
        assert result == left.natural_join(right)

    #: Every way the evaluator is configured to plan: without a budget, with
    #: one, with the tightest one (every build state spills), and with the
    #: narrowest fan-out (the most re-split levels).
    CLOSURE_CONFIGS = [
        {},
        {"budget": 8},
        {"budget": 1},
        {"budget": MemoryBudget(rows=8, spill_fanout=2)},
    ]

    @staticmethod
    def _assert_plan_is_closed(options, query, relation):
        """A plan is scan | project | hash-join, and budgeted state spills."""
        evaluator = EngineEvaluator(**options)
        bound = {name: relation for name in query.operand_names()}
        plan = evaluator.plan_for(query, bound)

        def nodes(node):
            yield node
            for child in node.children:
                yield from nodes(child)

        assert {node.kind for node in nodes(plan.root)} <= {
            "scan",
            "project",
            "hash-join",
        }
        # What runs is closed the same way.
        _, trace = evaluator.evaluate(query, bound)
        assert {step.node_kind for step in trace.steps} <= {
            "operand",
            "projection",
            "join",
        }
        budget = evaluator.budget
        if budget is None:
            return
        for operator in operators_in_order(plan.executor(bound, MemoryMeter())):
            if isinstance(operator, HashJoin):
                assert isinstance(operator, GraceHashJoin), operator.label()
            if isinstance(operator, StreamingProject) and operator._dedup:
                assert operator._budget is budget, operator.label()
        assert all(
            step.description.startswith("grace hash join")
            for step in trace.steps
            if step.node_kind == "join"
        )

    @pytest.mark.parametrize("options", CLOSURE_CONFIGS)
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_plans_are_closed_over_three_node_kinds(self, options, seed):
        relation, query = random_instance(
            num_attributes=5, num_tuples=15, domain_size=3, num_factors=3, seed=seed
        )
        self._assert_plan_is_closed(options, query, relation)

    @pytest.mark.parametrize("options", CLOSURE_CONFIGS)
    def test_plans_over_the_rg_family_are_closed(self, options):
        for case in growing_construction_family(clause_counts=(3, 6)):
            construction = RGConstruction(case.formula)
            query = construction.pair_projection_expression()
            self._assert_plan_is_closed(options, query, construction.relation)

    def test_missing_operand_stats_raise(self):
        from repro.expressions import ExpressionError

        with pytest.raises(ExpressionError):
            plan_expression(Operand("R", "A B").join(Operand("S", "B C")), {})


class TestEngineMembership:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_engine_membership_agrees_with_evaluation(self, seed):
        relation, query = random_instance(
            num_attributes=4, num_tuples=10, domain_size=3, num_factors=2, seed=seed
        )
        result = evaluate(query, relation)
        decider = EngineMembershipDecider()
        rng = random.Random(seed)
        candidates = list(result)[:3]
        for candidate in candidates:
            assert decider.decide(candidate, query, relation)
            assert tuple_in_result(candidate, query, relation)
        # A mutated tuple that is (almost surely) absent.
        if candidates:
            absent = {
                name: f"missing-{rng.random()}" for name in result.scheme.names
            }
            from repro.algebra import RelationTuple

            ghost = RelationTuple(result.scheme, absent)
            assert decider.decide(ghost, query, relation) == tuple_in_result(
                ghost, query, relation
            )

    def test_raw_sequence_candidates_use_the_expression_scheme_order(self):
        # A plain value sequence means "in the expression's result scheme
        # order" (what tuple_in_result uses) — not the physical plan's
        # output order, which follows the greedy join order.
        r = Relation.from_rows("E D", [(1, 1), (2, 5)])
        s = Relation.from_rows("B E A", [(0, 1, 0), (7, 2, 7)])
        t = Relation.from_rows("E", [(1,)])
        query = Operand("R", r.scheme).join(Operand("S", s.scheme), Operand("T", t.scheme))
        bound = {"R": r, "S": s, "T": t}
        decider = EngineMembershipDecider()
        result = evaluate(query, bound)
        assert len(result) > 0
        for member in result:
            raw = tuple(member[name] for name in query.target_scheme().names)
            assert tuple_in_result(raw, query, bound) is True
            assert decider.decide(raw, query, bound) is True


def _contend(meter, threads=4, rounds=25_000, amount=3):
    """Balanced acquire/release traffic from several threads at once."""
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def work():
            for _ in range(rounds):
                meter.acquire(amount)
                meter.release(amount)

        pool = [threading.Thread(target=work) for _ in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
    finally:
        sys.setswitchinterval(switch)


class TestMemoryMeterThreadSafety:
    def test_balanced_traffic_accounts_exactly_under_contention(self):
        meter = MemoryMeter()
        _contend(meter)
        assert meter.current == 0
        # Peak must be a value some interleaving could produce: at least one
        # thread's worth, at most all threads at once.
        assert 3 <= meter.peak <= 4 * 3

    def test_concurrent_acquires_never_lose_rows(self):
        meter = MemoryMeter()
        rounds = 10_000

        def work():
            for _ in range(rounds):
                meter.acquire(1)

        pool = [threading.Thread(target=work) for _ in range(4)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert meter.current == 4 * rounds
        assert meter.peak == 4 * rounds

    def test_result_holds_and_operator_state_never_lose_rows(self):
        """The drain's result rows and the operators' state share one lock:
        interleaved holds, acquires and releases balance exactly."""
        meter = MemoryMeter(budget=50)
        rounds = 5_000

        def hold():
            for _ in range(rounds):
                meter.hold_result(2)
                meter.release_result(1)

        def operate():
            for _ in range(rounds):
                meter.acquire(3)
                meter.release(3)

        pool = [threading.Thread(target=target) for target in (hold, hold, operate, operate)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert (meter.current, meter.result) == (2 * rounds, 2 * rounds)
        assert meter.headroom() == 50

    def test_budget_reads_are_consistent_under_contention(self):
        meter = MemoryMeter(budget=100)
        problems = []
        stop = threading.Event()

        def churn():
            while not stop.is_set():
                meter.acquire(10)
                meter.release(10)

        def watch():
            for _ in range(2_000):
                headroom = meter.headroom()
                if headroom is None or not 0 <= headroom <= 100:
                    problems.append(headroom)

        churner = threading.Thread(target=churn)
        watcher = threading.Thread(target=watch)
        churner.start()
        watcher.start()
        watcher.join()
        stop.set()
        churner.join()
        assert problems == []


class TestMemoryMeterResultRows:
    def test_result_rows_count_in_the_peak_but_not_against_the_budget(self):
        meter = MemoryMeter(budget=10)
        meter.hold_result(100)
        assert meter.try_acquire(10) and meter.headroom() == 0
        assert not meter.try_acquire(1)
        assert (meter.current, meter.peak) == (110, 110)
        meter.release(10)
        meter.release_result(100)
        assert (meter.current, meter.result, meter.headroom()) == (0, 0, 10)

    def test_an_unbudgeted_meter_admits_operator_state_beside_any_result(self):
        meter = MemoryMeter()
        meter.hold_result(1_000)
        assert meter.headroom() is None
        assert meter.try_acquire(1_000)
        assert (meter.current, meter.result, meter.peak) == (2_000, 1_000, 2_000)

    def test_headroom_is_clamped_when_operator_state_overran_the_budget(self):
        """``acquire`` is unconditional (a build block that must stay), so
        operator state can pass the budget; the result rows beside it give
        it no headroom back."""
        meter = MemoryMeter(budget=10)
        meter.acquire(15)
        meter.hold_result(50)
        assert meter.headroom() == 0
        assert not meter.try_acquire(1)
        meter.release(15)
        assert meter.headroom() == 10

    def test_releasing_the_result_keeps_the_peak(self):
        meter = MemoryMeter(budget=4)
        assert meter.try_acquire(4)
        meter.hold_result(6)
        meter.release(4)
        meter.release_result(6)
        assert (meter.current, meter.result, meter.peak) == (0, 0, 10)


class TestDrainMetered:
    """``physical.drain_metered``: the engine's one drain, in one process."""

    @staticmethod
    def _scan(rows):
        relation = Relation.from_rows("A", [(i,) for i in range(rows)], name="R")
        meter = MemoryMeter(budget=8)
        return TableScan(relation, meter), meter

    def test_the_drained_rows_stay_held_as_result_rows(self):
        root, meter = self._scan(100)
        rows = drain_metered(root, meter)
        assert rows == {(i,) for i in range(100)}
        assert (meter.current, meter.result, meter.peak) == (100, 100, 100)
        # Held rows are past the budget, yet operator state keeps all of it.
        assert meter.headroom() == 8

    def test_a_cap_releases_every_held_result_row(self):
        # Three scan blocks: the first is held before the second passes the cap.
        root, meter = self._scan(3 * BLOCK_ROWS)
        assert drain_metered(root, meter, cap=BLOCK_ROWS + 1) is None
        assert (meter.current, meter.result) == (0, 0)
        assert meter.peak == BLOCK_ROWS

    def test_a_drain_without_a_tracer_opens_no_span(self):
        root, meter = self._scan(5)
        assert meter.tracer is None
        assert drain_metered(root, meter, span=True) == {(i,) for i in range(5)}

    def test_operators_in_order_lists_every_child_before_its_parent(self):
        r = Relation.from_rows("A B", [(i, i % 3) for i in range(9)], name="R")
        s = Relation.from_rows("B C", [(b, b * 2) for b in range(3)], name="S")
        t = Relation.from_rows("C D", [(c, -c) for c in range(0, 6, 2)], name="T")
        query = Projection(
            ["A", "D"],
            Operand("R", "A B").join(Operand("S", "B C"), Operand("T", "C D")),
        )
        bound = {"R": r, "S": s, "T": t}
        root = EngineEvaluator().plan_for(query, bound).executor(bound, MemoryMeter())
        ordered = operators_in_order(root)
        assert ordered[-1] is root
        assert len({id(operator) for operator in ordered}) == len(ordered)
        position = {id(operator): index for index, operator in enumerate(ordered)}
        for operator in ordered:
            for child in operator.children():
                assert position[id(child)] < position[id(operator)], operator.label()
        scans = [operator for operator in ordered if isinstance(operator, TableScan)]
        assert len(scans) == 3


#: The engine counters a concurrent evaluation must account exactly.
ENGINE_COUNTERS = (
    "join_probes",
    "join_spills",
    "spill_partitions",
    "spill_rows",
    "spill_recursions",
    "spill_overflows",
)


def _instance(seed=5):
    relation, query = random_instance(
        num_attributes=5, num_tuples=24, domain_size=3, num_factors=3, seed=seed
    )
    bound = {name: relation for name in query.operand_names()}
    return query, bound


class TestPinnedPlanConcurrencyStress:
    def test_one_pinned_plan_from_eight_threads_matches_serial_counters(self):
        """8 threads x 3 evaluations of one pinned, budgeted plan: every
        result equals the serial one and the engine's locked counters add up
        to exactly 24 serial deltas (lost updates would break equality)."""
        query, bound = _instance(seed=17)
        evaluator = EngineEvaluator(budget=6)
        counters = kernel_counters()
        # Pin the plan, then measure one serial evaluation's counter delta.
        serial, _ = evaluator.evaluate(query, bound)
        before = counters.snapshot()
        serial_again, _ = evaluator.evaluate(query, bound)
        per_evaluation = counters.delta_since(before)
        assert serial_again == serial
        assert per_evaluation["join_probes"] > 0
        assert per_evaluation["join_spills"] > 0  # the budget forces spills

        results = []
        errors = []
        rounds = 3

        def work():
            try:
                for _ in range(rounds):
                    result, trace = evaluator.evaluate(query, bound)
                    results.append((result, trace.peak_live_rows))
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        before = counters.snapshot()
        pool = [threading.Thread(target=work) for _ in range(8)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        delta = counters.delta_since(before)
        assert errors == []
        assert len(results) == 8 * rounds
        assert all(result == serial for result, _ in results)
        assert all(peak > 0 for _, peak in results)
        for name in ENGINE_COUNTERS:
            assert delta[name] == 8 * rounds * per_evaluation[name], name

    def test_concurrent_first_use_pins_exactly_one_plan(self):
        query, bound = _instance(seed=23)
        evaluator = EngineEvaluator()
        plans = []
        barrier = threading.Barrier(8)

        def work():
            barrier.wait()
            plans.append(evaluator.plan_for(query, bound))

        pool = [threading.Thread(target=work) for _ in range(8)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert len(plans) == 8
        assert all(plan is plans[0] for plan in plans)
