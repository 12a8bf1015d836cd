"""Live-column pruning in the planner: pushed projections, pinned.

A projection-join query's answer is a set, so ``pi_X(E1 * E2) =
pi_X(pi_{X+J}(E1) * pi_{X+J}(E2))`` and a dedup anywhere below the root is
free of semantics.  The planner uses that wherever the catalog proves the
pruned stream collapses; these tests pin (a) that it never changes an
answer and never drops a column something above still reads, on every
(budget, workers, adaptive) grid point and under operand permutation, (b)
the exact intermediate-row counts of the eight serving queries, (c) the
R_G guard — the paper's own query holds no pushed projection, and spills
under 64 rows exactly as pinned — and the rule that an optional dedup never
buys itself a spill.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.algebra import Relation, RelationScheme, naive_natural_join, naive_project
from repro.engine import AdaptiveConfig, EngineEvaluator, MemoryBudget
from repro.engine.physical import MemoryMeter, SpillingSeenSet
from repro.engine.planner import Planner
from repro.engine.stats import RelationStats
from repro.expressions import evaluate, parse_expression
from repro.expressions.ast import Join, Operand, Projection
from repro.obs import ObserveConfig
from repro.reductions.rg import RGConstruction
from repro.workloads import (
    growing_construction_family,
    serving_queries,
    serving_relations,
)

ATTRIBUTES = tuple("ABCDEF")
MODULI = (1, 2, 3, 5, 7, 11)
MAX_REFERENCE_ROWS = 1500


def _reference(node, bound):
    if isinstance(node, Operand):
        return bound[node.name]
    if isinstance(node, Projection):
        return naive_project(_reference(node.child, bound), node.target)
    result = None
    for part in node.parts:
        relation = _reference(part, bound)
        result = relation if result is None else naive_natural_join(result, relation)
    return result


def _same_rows(result, reference):
    assert result.scheme.name_set == reference.scheme.name_set
    return result.project(reference.scheme.names) == reference


# -- (a) the property -----------------------------------------------------


@st.composite
def projection_join_cases(draw):
    """``project[X](part * ... * part)`` over 2-5 small-modulus relations.

    Attribute ``X`` is ``i % m_X`` wherever it appears (as in
    ``serving_relations()``), so a few columns have far fewer distinct
    combinations than the relation has rows — the shape the placement rule
    prunes.  Parts are operands, written projections of operands and
    (sometimes) a projected join of two operands.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    count = draw(st.integers(2, 5))
    modulus = {name: rng.choice(MODULI) for name in ATTRIBUTES}
    used, parts, bound = [], [], {}
    for index in range(count):
        width = rng.choice((1, 2, 2, 3, 3))
        shared = rng.sample(used, min(len(used), rng.randint(1, 2))) if used else []
        fresh = [name for name in ATTRIBUTES if name not in shared]
        names = (shared + rng.sample(fresh, max(width - len(shared), 0)))[:3]
        rng.shuffle(names)
        used.extend(name for name in names if name not in used)
        rows = [
            tuple(i % modulus[name] for name in names)
            for i in range(rng.randint(0, 30))
        ]
        operand = Operand(f"R{index}", RelationScheme(names))
        bound[operand.name] = Relation.from_rows(operand.scheme, rows, name=operand.name)
        part = operand
        if rng.random() < 0.3:
            part = Projection(rng.sample(names, rng.randint(1, len(names))), operand)
        parts.append(part)
    flat = True
    if count >= 3 and rng.random() < 0.25:
        inner = Join(parts[:2])
        names = list(inner.target_scheme().names)
        parts[:2] = [Projection(rng.sample(names, rng.randint(1, len(names))), inner)]
        flat = False
    join = Join(parts) if len(parts) > 1 else parts[0]
    names = list(join.target_scheme().names)
    target = rng.sample(names, rng.randint(1, len(names)))
    order = list(range(len(parts)))
    rng.shuffle(order)
    permuted = Join([parts[i] for i in order]) if len(parts) > 1 else parts[0]
    return Projection(target, join), Projection(target, permuted), bound, flat


def _written_scheme(expression, operand_name):
    """The columns the join sees of ``operand_name``'s part (flat cases)."""
    for part in expression.child.parts:
        if operand_name in part.operand_names():
            return frozenset(part.target_scheme().names)
    raise AssertionError(operand_name)


def _assert_reads_survive(plan, expression):
    """Every node's scheme holds every column an ancestor reads from it.

    ``origin`` is the scheme a subtree would have with no pushed projection
    in it; a join reads from each child the columns above it reads plus the
    columns the two *origins* share — so a join column pruned from either
    side (or both) fails here, whatever the rows happen to say.
    """

    def origin(node):
        if node.kind == "hash-join":
            return origin(node.children[0]) | origin(node.children[1])
        below = node.children[0] if node.children else node
        if below.kind == "scan":
            return _written_scheme(expression, below.operand_name)
        return origin(below) if node.pushed else frozenset(node.scheme.names)

    def check(node, reads):
        assert reads <= node.scheme.name_set, (plan.explain(), reads, node.describe())
        if node.kind == "project":
            assert node.children[0].kind != "project", plan.explain()
            check(node.children[0], frozenset(node.scheme.names))
        elif node.kind == "hash-join":
            left, right = (origin(child) for child in node.children)
            for child, mine in zip(node.children, (left, right)):
                check(child, (reads | (left & right)) & mine)

    check(plan.root, frozenset(expression.target.names))


FORCED = AdaptiveConfig(sample_size=8, replan_factor=1.5, replan_min_rows=2)


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(projection_join_cases())
def test_pruned_plans_match_the_reference_on_every_grid_point(tmp_path_factory, case):
    expression, permuted, bound, flat = case
    reference = _reference(expression, bound)
    assume(len(_reference(expression.child, bound)) <= MAX_REFERENCE_ROWS)
    spill_dir = tmp_path_factory.mktemp("spill")
    tiny = {name: Relation.from_rows(rel.scheme, [(0,) * len(rel.scheme)])
            for name, rel in bound.items()}
    for budget_rows in (None, 64, 4):
        budget = (
            MemoryBudget(rows=budget_rows, spill_fanout=2, min_partition_rows=2,
                         spill_dir=str(spill_dir))
            if budget_rows is not None
            else None
        )
        for workers in (1, 2):
            for adaptive in (None, FORCED):
                for query in (expression, permuted):
                    evaluator = EngineEvaluator(
                        budget=budget, workers=workers, adaptive=adaptive,
                        parallel_backend="thread",
                    )
                    result, trace = evaluator.evaluate(query, bound)
                    detail = (query.to_text(), budget_rows, workers, adaptive)
                    assert _same_rows(result, reference), detail
                    assert trace.counters.get("spill_overflows", 0) == 0, detail
                    if flat:
                        _assert_reads_survive(evaluator.pinned_plan(query), query)
                if adaptive is not None and workers == 1:
                    # A plan pinned against one-row relations re-plans
                    # mid-stream: the re-planner's entry prunes as well.
                    evaluator = EngineEvaluator(budget=budget, adaptive=adaptive)
                    evaluator.plan_for(expression, tiny)
                    result, _ = evaluator.evaluate(expression, bound)
                    assert _same_rows(result, reference), ("forced", detail)
    assert not list(spill_dir.iterdir())


def test_a_forced_replan_resumes_from_a_pruned_checkpoint():
    """The trigger join's probe child is a pushed projection, so the
    checkpoint is the 920-row ``project[A, C](R * S)``, not its 13,800-row
    child, and the re-planner's chain (which reads the checkpoint's columns
    through ``needed``) still gives the exact answer."""
    relations = serving_relations()
    query = parse_expression(
        "project[A, C, D](R * S * T)",
        {name: rel.scheme for name, rel in relations.items()},
    )
    evaluator = EngineEvaluator(adaptive=True, observe=ObserveConfig(events=True))
    plan = evaluator.plan_for(query, relations)
    assert "project[A, C] (pushed)" in plan.explain()
    wider = dict(relations)
    wider["T"] = Relation.from_rows(
        "C D", [(i % 23, i % 41) for i in range(23 * 41)], name="T"
    )
    result, trace = evaluator.evaluate(query, wider)
    assert trace.replans == 1
    (checkpoint,) = evaluator.observer.events.events("checkpoint")
    assert checkpoint["rows"] == 920
    # (The kernel walk, itself pinned to the reference algebra elsewhere:
    # the naive join of these 550k rows takes half a minute.)
    assert _same_rows(result, evaluate(query, wider))


def test_a_written_projection_stays_a_scope_boundary_for_the_replanner():
    """``project[A, B](R0 * R1)`` drops ``X``, and ``X`` reappears in the
    outer, unpruned ``R2(X, C)``: the outer join is a product.  The pushed
    ``project[A]`` narrows the written projection in place, and the result
    is still a written one — a chain read through it would guard the inner
    join, and that guard's re-plan would re-order ``[R0, R2, R1]`` as one
    flat join on ``X`` (no rows at all here: ``R2``'s ``X`` values are
    disjoint from ``R0``'s)."""

    def relations(k):
        return {
            "R0": Relation.from_rows("A X", [(i % 3, i % k) for i in range(3 * k)]),
            "R1": Relation.from_rows("X B", [(i % k, i % 7) for i in range(7 * k)]),
            "R2": Relation.from_rows("X C", [(100 + i % 5, i) for i in range(5 * k)]),
        }

    small, large = relations(4), relations(20)
    query = parse_expression(
        "project[A, C](project[A, B](R0 * R1) * R2)",
        {name: rel.scheme for name, rel in small.items()},
    )
    evaluator = EngineEvaluator(
        adaptive=AdaptiveConfig(replan_factor=1.5, replan_min_rows=2)
    )
    plan = evaluator.plan_for(query, small)
    lines = [line.strip().split("  [")[0] for line in plan.explain().splitlines()]
    assert lines[2:5] == ["project[A], no dedup", "hash join on (X) [build=left]", "scan R0"]
    assert lines[-1] == "scan R2"  # unpruned: C is as distinct as R2 is long
    _, chain = EngineEvaluator._spine(plan.root)
    assert [node.describe() for node in chain] == [lines[1]]
    # Both joins outgrow 1.5x their estimates on the larger relations; only
    # the outer one is guarded, and its re-plan keeps the product.
    result, trace = evaluator.evaluate(query, large)
    assert trace.replans == 1
    assert len(result) == 3 * 100
    assert _same_rows(result, _reference(query, large))


# -- (b) exact counts on the serving queries -------------------------------

#: ``total_intermediate_tuples`` per serving query (parent: 14,831 / 15,711 /
#: 4,270 / 129,277 / 128,926 / 4,140 / 2,582 / 137,197).
SERVING_INTERMEDIATE_TUPLES = (2022, 15711, 4270, 10630, 2428, 874, 2582, 32478)


def _serving_expressions():
    relations = serving_relations()
    schemes = {name: rel.scheme for name, rel in relations.items()}
    return relations, [parse_expression(text, schemes) for text in serving_queries()]


def test_serving_queries_intermediate_rows_are_pinned():
    relations, expressions = _serving_expressions()
    evaluator = EngineEvaluator()
    totals = []
    for expression in expressions:
        result, trace = evaluator.evaluate(expression, relations)
        assert _same_rows(result, evaluate(expression, relations))
        assert trace.peak_intermediate_cardinality <= 13_800
        totals.append(trace.total_intermediate_tuples)
    assert tuple(totals) == SERVING_INTERMEDIATE_TUPLES


def test_ordering_scores_the_pruned_cardinality():
    """Raw estimates join ``S * T`` first (3,519 < 13,800) and nothing is
    prunable there; scored on what survives the prune, ``R * S`` ->
    ``project[A, C]`` (920 rows) goes first and the 124,200-row
    intermediate never exists."""
    relations, expressions = _serving_expressions()
    stats = {name: rel.stats() for name, rel in relations.items()}
    explain = Planner().plan(expressions[7], stats).explain()
    assert [line.strip().split("  [")[0] for line in explain.splitlines()] == [
        "project[A, C, D]",
        "hash join on (C) [build=right]",
        "project[A, C] (pushed)",
        "hash join on (B) [build=right]",
        "scan R",
        "scan S",
        "scan T",
    ]


def test_adjacent_projections_collapse():
    """``pi_X . pi_Y = pi_X``: a projection over or under another plans as
    one node, and a chain's last join is pruned by the enclosing projection
    alone."""
    relations = serving_relations()
    schemes = {name: rel.scheme for name, rel in relations.items()}
    stats = {name: rel.stats() for name, rel in relations.items()}

    def lines(text):
        plan = Planner().plan(parse_expression(text, schemes), stats)
        return [line.strip().split("  [")[0] for line in plan.explain().splitlines()]

    # Nothing to push over the written project[B](S): it is the prune.
    assert lines("project[A, B](R * project[B](S))")[-2:] == [
        "project[B], no dedup",
        "scan S",
    ]
    assert lines("project[B](project[B, C](S))") == ["project[B]", "scan S"]
    # Pushed over a written one: the written project[B, C](S) narrows in
    # place and stays a written one (a scope boundary), so no mark.
    assert lines("project[A](R * project[B, C](S))")[-2:] == [
        "project[B], no dedup",
        "scan S",
    ]
    # After the last join the enclosing projection is the only prune.
    assert lines("project[A, D](R * S * T)")[:2] == [
        "project[A, D]",
        "hash join on (B) [build=right]",
    ]


# -- (c) the R_G guard ------------------------------------------------------


def _rg_query(m):
    construction = RGConstruction(
        growing_construction_family(clause_counts=(m,), seed=13)[0].formula
    )
    query = Projection([construction.s_attribute], construction.expression)
    return query, construction.relation


@pytest.mark.parametrize("adaptive", [None, True, AdaptiveConfig(sample_size=8)])
@pytest.mark.parametrize("m", [8, 10, 12, 14])
def test_rg_plans_hold_no_pushed_projection(m, adaptive):
    """A chain of R_G's wide intermediates is not a place for seen-sets: a
    join estimate there is a measurement on 256 sampled rows (and was a
    formula ~10^12 too high: 6.4e14 vs 197 rows at m = 12), so "the pruned
    estimate is much smaller" alone may promise nothing; the exact input
    bound refuses every one.  The default catalog's distinct counts are
    exact, and so are ``adaptive=``'s while its sample holds the whole
    relation; under an 8-row sample they are scaled-up guesses, and there
    the bound reads the row count instead — the one exact thing left."""
    query, relation = _rg_query(m)
    plan = EngineEvaluator(adaptive=adaptive).plan_for(query, {"R": relation})
    assert "(pushed)" not in plan.explain()


def test_a_scaled_up_distinct_count_bounds_no_pushed_projection():
    """The placement rule multiplies distinct counts into a seen-set bound,
    so it reads exact ones only: a count scaled up from a sample smaller
    than its column (what a spilled checkpoint's entry holds) stands for
    the row count there, and the push the exact catalog places is refused."""
    relations = serving_relations()
    query = parse_expression(
        "project[A, C, D](R * S * T)",
        {name: rel.scheme for name, rel in relations.items()},
    )
    stats = {name: rel.stats() for name, rel in relations.items()}
    assert "project[A, C] (pushed)" in Planner().plan(query, stats).explain()
    exact = stats["R"]
    stats["R"] = RelationStats(
        exact.cardinality,
        {name: replace(column, estimated=True) for name, column in exact.columns.items()},
    )
    assert "(pushed)" not in Planner().plan(query, stats).explain()


def test_spill_tight_counts_under_the_measured_plan():
    """The ladder's ``spill_tight`` (m = 12 under 64 rows) on the plan the
    measured ordering picks: every spilled build is still small enough for
    the re-read mode — ten joins and the root dedup spill, nothing
    overflows, the meter never passes the budget — and the row and file
    counts are exact (351 / 8 under the position-tie-broken order)."""
    query, relation = _rg_query(12)
    evaluator = EngineEvaluator(budget=64)
    bound = {"R": relation}
    evaluator.evaluate(query, bound)
    _, trace = evaluator.evaluate(query, bound)
    counts = {
        name: trace.counters.get(name, 0)
        for name in (
            "spill_rows", "spill_partitions", "join_spills", "dedup_spills",
            "spill_overflows",
        )
    }
    assert counts == {
        "spill_rows": 343, "spill_partitions": 8, "join_spills": 10, "dedup_spills": 1,
        "spill_overflows": 0,
    }
    assert trace.peak_live_rows == 64


# -- an optional dedup never buys itself a spill ----------------------------


@pytest.mark.parametrize("budget", [64, 4])
def test_pushed_dedups_never_spill_under_a_budget(budget, tmp_path):
    relations, expressions = _serving_expressions()
    evaluator = EngineEvaluator(
        budget=MemoryBudget(rows=budget, spill_dir=str(tmp_path))
    )
    pushed = 0
    for expression in expressions:
        result, trace = evaluator.evaluate(expression, relations)
        assert _same_rows(result, evaluate(expression, relations))
        assert trace.counters.get("dedup_spills", 0) == 0
        assert trace.counters.get("spill_overflows", 0) == 0
        pushed += "(pushed)" in evaluator.pinned_plan(expression).explain()
    assert pushed >= 5
    assert not list(tmp_path.iterdir())


def test_a_seen_set_that_may_not_spill_passes_the_rest_through(tmp_path):
    meter = MemoryMeter(budget=3)
    seen = SpillingSeenSet(
        meter, MemoryBudget(rows=3, spill_dir=str(tmp_path)), spill=False
    )
    try:
        assert seen.filter_block([(1,), (2,), (1,)]) == [(1,), (2,)]
        # Two more rows do not fit: emitted, not remembered, no spill.
        assert seen.filter_block([(3,), (4,), (2,)]) == [(3,), (4,)]
        assert seen.filter_block([(3,), (1,)]) == [(3,)]
        assert meter.current == 3 and not seen.spilled
        assert list(seen.drain()) == []
    finally:
        seen.close()
    assert meter.current == 0 and not list(tmp_path.iterdir())
