"""Differential fuzz harness: the engine pinned to the seed reference.

The spill path introduces exactly the kind of machinery — partition
routing, re-salted recursion, chunked fallbacks — whose bugs hide in
degenerate inputs, so correctness is pinned the same way the positional
kernel's is: every randomly generated relation/expression pair is evaluated
by :class:`~repro.engine.evaluator.EngineEvaluator` under **every** budget
in {unbudgeted, tiny} and the result must be set-equal to a recursive evaluation with the retained seed implementations
(:mod:`repro.algebra.reference`).

The generator deliberately over-samples the degenerate corners the issue
calls out: empty relations, single-row relations, single-attribute schemes,
and duplicate-heavy columns (domain {0, 1}) that make every hash bucket and
spill partition collide.  The tiny budget (4 rows, fan-out 2, recursion
allowed down to 2-row partitions) forces constant spilling and re-splitting
on even the smallest instances.

Every grid point additionally pins the complete memory model: zero
``spill_overflows`` (dedup and unsplittable join partitions spill or chunk
within the budget) and zero leaked spill files, and
every seed must reach both of a spilled join's modes: the tiny budget
re-reads builds of up to 8 rows and partitions the larger ones, which is
why relations run to 24 rows — at 14 too few builds were left for Grace
re-splitting and the chunked fallback to be reached on every CI seed.  A *chaos axis* re-runs the cases under random
:class:`~repro.engine.faults.FaultPlan` schedules — injected spill I/O
failures may cost an evaluation its answer (the typed
``EngineFaultError``) but never corrupt it.

Seeding: cases derive from ``--fuzz-seed`` (see ``tests/conftest.py``), so a
CI matrix leg can explore a different instance family per run — including
under ``PYTHONHASHSEED=random``, which perturbs partition routing — while
any failure stays replayable by rerunning with the printed seed.
"""

import random

import pytest

from repro.algebra import (
    Relation,
    RelationScheme,
    naive_natural_join,
    naive_project,
)
from repro.api import Session
from repro.engine import (
    EngineEvaluator,
    EngineFaultError,
    FaultPlan,
    MemoryBudget,
)
from repro.engine.stats import SKEW
from repro.expressions import InstrumentedEvaluator, OptimizedEvaluator, evaluate
from repro.expressions.ast import Expression, Join, Operand, Projection
from repro.obs import ObserveConfig
from repro.perf import kernel_counters

ATTRIBUTE_POOL = tuple("ABCDEFGH")
TINY_BUDGET_ROWS = 4
FUZZ_CASES = 30

#: The budgets (rows) every case must survive.
BUDGET_GRID = (None, TINY_BUDGET_ROWS)


def _reference_evaluate(node: Expression, bound, sizes=None):
    """Evaluate an expression with the retained seed implementations.

    ``sizes`` collects the cardinality of every projection and pairwise
    join the as-written evaluation materialises, in evaluation order.
    """
    if isinstance(node, Operand):
        return bound[node.name]
    if isinstance(node, Projection):
        result = naive_project(_reference_evaluate(node.child, bound, sizes), node.target)
        if sizes is not None:
            sizes.append(len(result))
        return result
    if isinstance(node, Join):
        parts = [_reference_evaluate(part, bound, sizes) for part in node.parts]
        result = parts[0]
        for part in parts[1:]:
            result = naive_natural_join(result, part)
            if sizes is not None:
                sizes.append(len(result))
        return result
    raise AssertionError(f"unknown node {node!r}")


def _assert_walk_matches_reference(expression, bindings, context):
    """Every entry point over the one materialising walk, against the seed
    reference: the untraced walk, the traced walk (whose join/projection
    steps must be exactly the intermediates the as-written order
    materialises), and the greedy order under two estimators."""
    sizes = []
    reference = _reference_evaluate(expression, bindings, sizes)
    detail = f"{context}\nexpression: {expression.to_text()}"
    assert evaluate(expression, bindings) == reference, detail
    instrumented, trace = InstrumentedEvaluator().evaluate(expression, bindings)
    assert instrumented == reference, detail
    materialised = [
        step.cardinality for step in trace.steps if step.node_kind != "operand"
    ]
    assert materialised == sizes, detail
    for estimator in (None, lambda left, right: 1.0):
        optimized, trace = OptimizedEvaluator(estimator=estimator).evaluate(
            expression, bindings
        )
        assert optimized.scheme.name_set == reference.scheme.name_set, detail
        assert optimized.project(reference.scheme.names) == reference, detail
        assert trace.result_cardinality == len(reference), detail


def _random_relation(rng: random.Random, scheme: RelationScheme) -> Relation:
    """A relation over ``scheme`` biased towards the degenerate corners."""
    shape = rng.choices(
        ("empty", "single", "duplicate-heavy", "general"),
        weights=(15, 15, 40, 30),
    )[0]
    if shape == "empty":
        return Relation.empty(scheme)
    if shape == "single":
        row = tuple(rng.randint(0, 2) for _ in scheme.names)
        return Relation.from_rows(scheme, [row])
    if shape == "duplicate-heavy":
        # Domain {0, 1}: every column repeats constantly, every hash join
        # bucket and spill partition collides.
        count = rng.randint(2, 24)
        rows = [tuple(rng.randint(0, 1) for _ in scheme.names) for _ in range(count)]
        return Relation.from_rows(scheme, rows)
    count = rng.randint(1, 24)
    values = lambda: rng.choice((rng.randint(0, 4), rng.choice("xyz")))
    rows = [tuple(values() for _ in scheme.names) for _ in range(count)]
    return Relation.from_rows(scheme, rows)


def _random_case(rng: random.Random):
    """One (expression, bindings) pair with overlapping operand schemes."""
    num_operands = rng.randint(2, 4)
    used = []
    parts = []
    bindings = {}
    for index in range(num_operands):
        width = rng.choice((1, 1, 2, 3, 4))
        overlap = []
        if used and rng.random() < 0.85:
            overlap = rng.sample(used, min(len(used), rng.randint(1, min(width, 2))))
        fresh_pool = [name for name in ATTRIBUTE_POOL if name not in overlap]
        names = overlap + rng.sample(fresh_pool, max(width - len(overlap), 0))
        rng.shuffle(names)
        scheme = RelationScheme(tuple(names))
        for name in names:
            if name not in used:
                used.append(name)
        operand = Operand(f"R{index}", scheme)
        part: Expression = operand
        if rng.random() < 0.3:
            keep = rng.sample(list(scheme.names), rng.randint(1, len(scheme.names)))
            part = Projection(keep, operand)
        parts.append(part)
        bindings[operand.name] = _random_relation(rng, scheme)
    expression: Expression = parts[0] if len(parts) == 1 else Join(tuple(parts))
    if rng.random() < 0.7:
        target_names = expression.target_scheme().names
        keep = rng.sample(list(target_names), rng.randint(1, len(target_names)))
        expression = Projection(keep, expression)
    return expression, bindings


def _tiny_budget(spill_dir) -> MemoryBudget:
    """Four resident rows, 2-way fan-out: constant spilling, and
    re-splitting of every partition larger than four rows, on even the
    smallest instances."""
    return MemoryBudget(rows=TINY_BUDGET_ROWS, spill_fanout=2, spill_dir=str(spill_dir))


def _assert_engine_matches_reference(
    expression, bindings, reference, budget_rows, spill_dir, context
):
    budget = _tiny_budget(spill_dir) if budget_rows is not None else None
    evaluator = EngineEvaluator(budget=budget, observe=ObserveConfig(events=True))
    before = kernel_counters().snapshot()
    result, trace = evaluator.evaluate(expression, bindings)
    detail = (
        f"{context} budget={budget_rows}\n"
        f"expression: {expression.to_text()}\n"
        f"bindings: { {name: len(rel) for name, rel in bindings.items()} }"
    )
    # The complete-memory-model contract: with join builds and dedup
    # seen-sets spilling, and unsplittable join partitions chunking, no grid
    # point may overrun the budget — a nonzero overflow here is a regression.
    overflows = kernel_counters().delta_since(before)["spill_overflows"]
    assert overflows == 0, f"spill_overflows={overflows}\n{detail}"
    assert result.scheme.name_set == reference.scheme.name_set, detail
    realigned = (
        result
        if result.scheme.names == reference.scheme.names
        else result.project(reference.scheme.names)
    )
    assert realigned == reference, detail
    assert trace.result_cardinality == len(reference), detail
    leftovers = [str(path) for path in spill_dir.iterdir()]
    assert not leftovers, f"spill files leaked: {leftovers}\n{detail}"
    # Which way the spilled joins went, and whether the planner pushed a projection into this plan.
    spills = evaluator.observer.events.events("spill")
    reached = {event["mode"] for event in spills if event["operator"] == "grace-join"}
    if "(pushed)" in evaluator.pinned_plan(expression).explain():
        reached.add("pushed")
    return reached


def test_differential_fuzz_against_reference(fuzz_seed, tmp_path):
    """Every random case, on every budget grid point, must be
    set-equal to the seed reference implementation — and the seed's cases
    must between them have spilled joins both ways and held at least one
    planner-pushed projection, so the grid demonstrably reaches that path."""
    rng = random.Random(fuzz_seed)
    reached = set()
    for case_index in range(FUZZ_CASES):
        expression, bindings = _random_case(rng)
        reference = _reference_evaluate(expression, bindings)
        _assert_walk_matches_reference(
            expression, bindings, context=f"seed={fuzz_seed} case={case_index}"
        )
        for budget_rows in BUDGET_GRID:
            reached |= _assert_engine_matches_reference(
                expression,
                bindings,
                reference,
                budget_rows,
                tmp_path,
                context=f"seed={fuzz_seed} case={case_index}",
            )
    assert reached == {"re-read", "partitioned", "pushed"}, f"seed={fuzz_seed}"


def test_degenerate_shapes_survive_every_config(tmp_path):
    """Deterministic corner cases, independent of the fuzz seed."""
    a_empty = Relation.empty("A B")
    single = Relation.from_rows("B C", [(1, "x")])
    heavy = Relation.from_rows("A B", [(i % 2, i % 2) for i in range(12)])
    wide = Relation.from_rows("B D", [(i % 2, i) for i in range(10)])
    one_column = Relation.from_rows("E", [(0,), (1,)])
    cases = [
        # Empty build and probe sides.
        (
            Operand("R", a_empty.scheme).join(Operand("S", single.scheme)),
            {"R": a_empty, "S": single},
        ),
        # Duplicate-heavy self-join through a projection.
        (
            Projection(
                ["A"],
                Operand("R", heavy.scheme).join(Operand("S", wide.scheme)),
            ),
            {"R": heavy, "S": wide},
        ),
        # Disjoint schemes: the keyless product cannot be split by any
        # partitioning and must take the chunked block-nested-loop path
        # under a tiny budget (bounded memory, zero overflows).
        (
            Operand("R", one_column.scheme).join(Operand("S", wide.scheme)),
            {"R": one_column, "S": wide},
        ),
        # Single-attribute scheme joined on its only column.
        (
            Projection(
                ["E"],
                Operand("R", one_column.scheme).join(
                    Operand("S", RelationScheme(("E", "F")))
                ),
            ),
            {
                "R": one_column,
                "S": Relation.from_rows("E F", [(0, 0), (0, 1), (1, 0), (1, 1)]),
            },
        ),
    ]
    for case_index, (expression, bindings) in enumerate(cases):
        reference = _reference_evaluate(expression, bindings)
        for budget_rows in BUDGET_GRID:
            _assert_engine_matches_reference(
                expression,
                bindings,
                reference,
                budget_rows,
                tmp_path,
                context=f"degenerate case={case_index}",
            )


def test_chaos_fuzz_faults_never_corrupt_results(fuzz_seed, tmp_path):
    """The chaos axis: every random case runs under a random
    :class:`~repro.engine.faults.FaultPlan` on every grid point.  Each
    evaluation must either complete set-equal to the reference (the fault
    was absorbed by retries) or
    raise the typed :class:`EngineFaultError` — an injected fault may cost
    the answer, never corrupt it — and must leak no spill files either way."""
    rng = random.Random(fuzz_seed ^ 0xFA017)
    for case_index in range(12):
        expression, bindings = _random_case(rng)
        reference = _reference_evaluate(expression, bindings)
        for budget_rows in BUDGET_GRID:
            plan = FaultPlan.random_plan(rng)
            budget = _tiny_budget(tmp_path) if budget_rows is not None else None
            evaluator = EngineEvaluator(budget=budget, faults=plan)
            detail = (
                f"seed={fuzz_seed} case={case_index} plan={plan!r} "
                f"budget={budget_rows}\n"
                f"expression: {expression.to_text()}"
            )
            try:
                result, _ = evaluator.evaluate(expression, bindings)
            except EngineFaultError:
                result = None  # a typed failure is an allowed outcome
            if result is not None:
                assert result.scheme.name_set == reference.scheme.name_set, detail
                realigned = (
                    result
                    if result.scheme.names == reference.scheme.names
                    else result.project(reference.scheme.names)
                )
                assert realigned == reference, detail
            leftovers = [str(path) for path in tmp_path.iterdir()]
            assert not leftovers, f"spill files leaked: {leftovers}\n{detail}"


#: Cases of the heavy-hitter axis, one test each.
SKEWED_CASES = 12

#: A heavy-hitter case is redrawn if the as-written evaluation materialises
#: more rows than this anywhere (it runs under the 4-row budget too).
MAX_SKEWED_ROWS = 2_000


def _skewed_relation(rng: random.Random, scheme: RelationScheme, hot) -> Relation:
    """30-60 rows over ``scheme``.  A column named in ``hot`` holds one value
    on 30-50 % of them and a fresh one on every other row; other columns
    are drawn from the row count."""
    count = rng.randint(30, 60)
    hot_rows = {
        name: set(rng.sample(range(count), round(rng.uniform(0.3, 0.5) * count)))
        for name in hot
    }
    hot_value = rng.choice((0, "x"))
    rows = [
        tuple(
            (hot_value if row_index in hot_rows[name] else 1 + row_index)
            if name in hot_rows
            else rng.randint(1, count)
            for name in scheme.names
        )
        for row_index in range(count)
    ]
    return Relation.from_rows(scheme, rows)


def _is_skewed(relation: Relation, name: str) -> bool:
    """The catalog's heavy-hitter rule (``stats.SKEW``) on one column."""
    stats = relation.stats()
    column = stats.column(name)
    return column.top_count * column.distinct_count >= SKEW * stats.cardinality


def _skewed_case(rng: random.Random):
    """A three- or four-operand chain ``R0(A, B) * R1(B, C) * ...`` whose
    every key is one column, at least one of them with a heavy hitter on
    both sides (so the catalog measures it), under an optional projection."""
    while True:
        width = rng.randint(3, 4)
        names = ATTRIBUTE_POOL[: width + 1]
        links = names[1:width]
        hot = {name for name in links if rng.random() < 0.5} or {rng.choice(links)}
        parts, bindings = [], {}
        for index in range(width):
            scheme = RelationScheme(names[index : index + 2])
            operand = Operand(f"R{index}", scheme)
            parts.append(operand)
            bindings[operand.name] = _skewed_relation(
                rng, scheme, [name for name in scheme.names if name in hot]
            )
        if not all(
            _is_skewed(relation, name)
            for relation in bindings.values()
            for name in relation.scheme.names
            if name in hot
        ):
            continue
        order = list(parts)
        rng.shuffle(order)
        expression: Expression = Join(tuple(order))
        if rng.random() < 0.7:
            keep = rng.sample(list(names), rng.randint(1, len(names)))
            expression = Projection(keep, expression)
        sizes = []
        _reference_evaluate(expression, bindings, sizes)
        if max(sizes) <= MAX_SKEWED_ROWS:
            return expression, bindings


@pytest.mark.parametrize("case", range(SKEWED_CASES))
def test_heavy_hitter_fuzz_matches_reference_on_every_grid_point(
    fuzz_seed, case, tmp_path
):
    """The heavy-hitter axis: single-column keys the catalog measures on
    samples (``stats.SKEW``) instead of pricing by the formula.  What the
    measured estimates order must stay set-equal to the seed reference on
    every budget grid point, and the plan must hold at least one
    measured join — the axis reaches the path it is for."""
    rng = random.Random(fuzz_seed * 1_009 + case)
    expression, bindings = _skewed_case(rng)
    reference = _reference_evaluate(expression, bindings)
    context = f"seed={fuzz_seed} heavy-hitter case={case}"
    for budget_rows in BUDGET_GRID:
        _assert_engine_matches_reference(
            expression, bindings, reference, budget_rows, tmp_path,
            context=context,
        )
    plan = EngineEvaluator().plan_for(expression, bindings)

    def provenance(node):
        if node.kind == "hash-join":
            yield node.provenance
        for child in node.children:
            yield from provenance(child)

    assert "sampled" in set(provenance(plan.root)), f"{context}\n{plan.explain()}"


def test_session_facade_fuzz_every_backend_matches_reference(fuzz_seed, tmp_path):
    """The serving facade, differentially pinned: every random case prepared
    through a :class:`repro.api.Session` must be set-equal to the seed
    reference under the same budget grid the raw engine is pinned on
    — plus the prepared-statement contract (one plan build per query,
    plan-cache hits on repeated execute).  The three materialising
    evaluators, called directly, answer the same cases."""
    rng = random.Random(fuzz_seed + 2)
    for case_index in range(10):
        expression, bindings = _random_case(rng)
        reference = _reference_evaluate(expression, bindings)
        case = (
            f"seed={fuzz_seed}+2 case={case_index}\n"
            f"expression: {expression.to_text()}"
        )
        assert evaluate(expression, bindings) == reference, f"naive {case}"
        for evaluator in (InstrumentedEvaluator(), OptimizedEvaluator()):
            relation, trace = evaluator.evaluate(expression, bindings)
            assert relation == reference, f"{trace.backend} {case}"
        for budget_rows in BUDGET_GRID:
            budget = _tiny_budget(tmp_path) if budget_rows is not None else None
            with Session(bindings, budget=budget) as session:
                prepared = session.prepare(expression)
                for _ in range(2):  # repeat: the second run is pure cache
                    result = prepared.execute()
                    detail = f"budget={budget_rows} {case}"
                    assert result.set_equal(reference), detail
                stats = session.stats()
                assert stats["plan_builds"] == 1
                assert stats["executes"] == 2
                assert stats["plan_cache_hits"] == 2
            leftovers = [str(path) for path in tmp_path.iterdir()]
            assert not leftovers, f"spill files leaked: {leftovers}"
