"""Tests for the streaming query-execution engine (``repro.engine``).

The engine must be observationally identical to the seed's dict-based
reference implementation (:mod:`repro.algebra.reference`): randomized
property tests pin operator-level and whole-expression results set-equal to
the reference, and the memory meter's accounting is checked against the
invariant that every operator releases what it acquires.
"""

import random

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
    MemoryMeter,
    RelationStats,
    StreamingProject,
    TableScan,
    plan_expression,
)
from repro.engine.parallel import operators_in_order
from repro.engine.stats import join_stats, project_stats
from repro.expressions import Projection, evaluate
from repro.expressions.ast import Expression, Join, Operand
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

    #: Every way the evaluator is configured to plan: with and without a
    #: budget, on one worker and on two.
    CLOSURE_CONFIGS = [
        {},
        {"budget": 8},
        {"workers": 2},
        {"budget": 8, "workers": 2},
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
        try:
            _, trace = evaluator.evaluate(query, bound)
        finally:
            evaluator.close()
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
