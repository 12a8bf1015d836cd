"""Live-column pruning in the planner: pushed projections, pinned.

A projection-join query's answer is a set, so ``pi_X(E1 * E2) =
pi_X(pi_{X+J}(E1) * pi_{X+J}(E2))`` and a dedup anywhere below the root is
free of semantics.  The planner uses that wherever the catalog proves the
pruned stream collapses; these tests pin (a) that it never changes an
answer and never drops a column something above still reads, on every
budget grid point and under operand permutation, (b)
the exact intermediate-row counts of the eight serving queries, (c) the
R_G guard — the paper's own query holds no pushed projection, and spills
under 64 rows exactly as pinned — and the rule that an optional dedup never
buys itself a spill.
"""

import random

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.algebra import Relation, RelationScheme, naive_natural_join, naive_project
from repro.engine import EngineEvaluator, MemoryBudget
from repro.engine.spill import MemoryMeter, SpillingSeenSet
from repro.engine.planner import Planner
from repro.expressions import evaluate, parse_expression
from repro.expressions.ast import Join, Operand, Projection
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


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(projection_join_cases())
def test_pruned_plans_match_the_reference_on_every_grid_point(tmp_path_factory, case):
    expression, permuted, bound, flat = case
    reference = _reference(expression, bound)
    assume(len(_reference(expression.child, bound)) <= MAX_REFERENCE_ROWS)
    spill_dir = tmp_path_factory.mktemp("spill")
    for budget_rows in (None, 64, 4):
        budget = (
            MemoryBudget(rows=budget_rows, spill_fanout=2,
                         spill_dir=str(spill_dir))
            if budget_rows is not None
            else None
        )
        for query in (expression, permuted):
            evaluator = EngineEvaluator(budget=budget)
            result, trace = evaluator.evaluate(query, bound)
            detail = (query.to_text(), budget_rows)
            assert _same_rows(result, reference), detail
            assert trace.counters.get("spill_overflows", 0) == 0, detail
            if flat:
                _assert_reads_survive(evaluator.pinned_plan(query), query)
    assert not list(spill_dir.iterdir())


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
    """Proposition 1's ``π_Y(φ_G)``: its tableau keeps every row, so it plans
    the join chain ``project[S](φ_G)`` planned before minimization made
    that query one scan."""
    construction = RGConstruction(
        growing_construction_family(clause_counts=(m,), seed=13)[0].formula
    )
    return construction.pair_projection_expression(), construction.relation


@pytest.mark.parametrize("budget", [None, 64, 4])
@pytest.mark.parametrize("m", [8, 10, 12, 14])
def test_rg_plans_hold_no_pushed_projection(m, budget):
    """A chain of R_G's wide intermediates is not a place for seen-sets: a
    join estimate there is a measurement on 256 sampled rows (and was a
    formula ~10^12 too high: 6.4e14 vs 197 rows at m = 12), so "the pruned
    estimate is much smaller" alone may promise nothing; the exact input
    bound (the catalog's distinct counts are exact) refuses every one —
    unbudgeted, under ``spill_tight``'s 64 rows, and under 4, where every
    join of the plan is a Grace join."""
    query, relation = _rg_query(m)
    plan = EngineEvaluator(budget=budget).plan_for(query, {"R": relation})
    text = plan.explain()
    assert "(pushed)" not in text
    assert ("grace hash join" in text) == (budget is not None)


def test_spill_tight_counts_under_the_measured_plan():
    """What the ladder's ``spill_tight`` ran before its query minimized to
    one scan (m = 12 under 64 rows), on the plan the measured ordering
    picks: every spilled build is still small enough for
    the re-read mode — ten joins and the root dedup spill, nothing
    overflows, the meter never passes the budget — and the row and file
    counts are exact (351 / 8 under the position-tie-broken order).  The
    query is now ``π_Y(φ_G)``; at the parent of minimization it read the
    same 343 / 8 / 10 / 1 / 0 and peak 64 that ``project[S](φ_G)`` did."""
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
