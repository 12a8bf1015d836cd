"""Reused operator trees are safe.

A prepared query's executes reuse the operator tree (and its meter) a
finished drain left on the plan's free list.  Every case here is checked
against the reference algebra, and afterwards every tree on a free list is
idle: its meter at zero, no per-execute object attached, no count left
unfolded, and no table, set or row held by any operator.
"""

import gc
import threading
import weakref

import pytest

from repro.api import Session
from repro.engine import EngineFaultError, FaultPlan, MemoryBudget
from repro.engine.physical import PhysicalOperator
from repro.expressions import parse_expression
from repro.perf.counters import counter_values
from repro.workloads import serving_relations

from test_engine_differential import _reference_evaluate

JOIN_TEXT = "project[A, D](R * S * T)"
DISTINCT_TEXT = "project[A, C, D](R * S * T)"
BUDGETS = [None, 64]
BUDGET_IDS = ["unbudgeted", "budget-64"]


def _session(relations, budget, spill_dir, **overrides):
    if budget is not None:
        budget = MemoryBudget(rows=budget, spill_dir=str(spill_dir))
    return Session(relations, budget=budget, **overrides)


def _reference(relations, text):
    schemes = {name: relation.scheme for name, relation in relations.items()}
    return _reference_evaluate(parse_expression(text, schemes), relations)


def _plan(session, prepared):
    return session._engine.pinned_plan(prepared.expression)


def _free_trees(session, prepared):
    return [tree for trees in _plan(session, prepared).trees.values() for tree in trees]


def _steps(trace):
    return [(step.description, step.cardinality) for step in trace.steps]


def _assert_idle(trees):
    assert trees
    for _root, operators, meter, _meta, _live in trees:
        assert (meter.current, meter.result) == (0, 0)
        assert meter.tracer is None and meter.faults is None
        assert not any(counter_values(meter.counts))
        for operator in operators:
            for name, value in vars(operator).items():
                if isinstance(value, (set, frozenset, dict)):
                    assert not value, (operator.label(), name)
                elif isinstance(value, list):
                    assert all(isinstance(item, PhysicalOperator) for item in value), (
                        operator.label(),
                        name,
                    )


@pytest.mark.parametrize("budget", BUDGETS, ids=BUDGET_IDS)
def test_concurrent_executes_each_trace_a_solo_executes_steps(budget, tmp_path):
    relations = serving_relations()
    expected = _reference(relations, JOIN_TEXT)
    with _session(relations, budget, tmp_path) as session:
        prepared = session.prepare(JOIN_TEXT)
        prepared.execute()
        solo = prepared.execute().trace
        outcomes, errors = [], []
        start = threading.Barrier(4)

        def work():
            try:
                start.wait()
                for _ in range(25):
                    result = prepared.execute()
                    outcomes.append(
                        (
                            result.set_equal(expected),
                            _steps(result.trace),
                            result.trace.peak_live_rows,
                        )
                    )
            except BaseException as error:  # surfaced below
                errors.append(error)

        pool = [threading.Thread(target=work) for _ in range(4)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert errors == []
        assert len(outcomes) == 100
        assert all(equal for equal, _, _ in outcomes)
        assert all(steps == _steps(solo) for _, steps, _ in outcomes)
        assert all(peak == solo.peak_live_rows for _, _, peak in outcomes)
        trees = _free_trees(session, prepared)
        assert 1 <= len(trees) <= 4
        _assert_idle(trees)
    assert not any(tmp_path.iterdir())


def test_an_override_between_pinned_executes_reuses_nothing(tmp_path):
    relations = serving_relations()
    small = relations["R"].select(lambda row: row["A"] % 7 == 0)
    smaller = dict(relations, R=small)
    with _session(relations, None, tmp_path) as session:
        prepared = session.prepare(JOIN_TEXT)
        assert prepared.execute().set_equal(_reference(relations, JOIN_TEXT))
        before = [id(tree) for tree in _free_trees(session, prepared)]
        assert prepared.execute(R=small).set_equal(_reference(smaller, JOIN_TEXT))
        trees = _free_trees(session, prepared)
        assert [id(tree) for tree in trees] == before
        scanned = [
            operator._relation
            for _root, operators, _meter, _meta, _live in trees
            for operator in operators
            if hasattr(operator, "_relation")
        ]
        assert scanned and all(relation is not small for relation in scanned)
        assert prepared.execute().set_equal(_reference(relations, JOIN_TEXT))
        _assert_idle(_free_trees(session, prepared))


def test_a_replaced_relation_and_a_forgotten_plan_keep_no_old_tree(tmp_path):
    relations = serving_relations()
    with _session(relations, None, tmp_path) as session:
        prepared = session.prepare(JOIN_TEXT)
        prepared.execute()
        old_root = weakref.ref(_free_trees(session, prepared)[0][0])

        replaced = relations["R"].select(lambda row: row["B"] % 2 == 0)
        session.set_relation("R", replaced)
        current = dict(relations, R=replaced)
        assert prepared.execute().set_equal(_reference(current, JOIN_TEXT))
        gc.collect()
        assert old_root() is None
        _assert_idle(_free_trees(session, prepared))

        forgotten_root = weakref.ref(_free_trees(session, prepared)[0][0])
        session.forget_plan(JOIN_TEXT)
        gc.collect()
        assert forgotten_root() is None
        assert prepared.execute().set_equal(_reference(current, JOIN_TEXT))
        _assert_idle(_free_trees(session, prepared))


def test_a_failed_execute_drops_its_tree_and_the_next_runs_clean(tmp_path):
    relations = serving_relations()
    expected = _reference(relations, JOIN_TEXT)
    with _session(relations, 8, tmp_path) as session:
        prepared = session.prepare(JOIN_TEXT)
        assert prepared.execute().set_equal(expected)
        (warm,) = _free_trees(session, prepared)
        engine = session._engine
        engine.faults = FaultPlan(fail_spill_write_at=1, persistent=True)
        with pytest.raises(EngineFaultError):
            prepared.execute()
        assert _free_trees(session, prepared) == []
        assert warm[2].current == 0  # the failed drain released everything
        engine.faults = None
        assert prepared.execute().set_equal(expected)
        trees = _free_trees(session, prepared)
        assert len(trees) == 1 and trees[0] is not warm
        _assert_idle(trees)
    assert not any(tmp_path.iterdir())


def test_count_interleaved_with_execute_on_a_distinct_root(tmp_path):
    relations = serving_relations()
    expected = _reference(relations, DISTINCT_TEXT)
    with _session(relations, None, tmp_path) as session:
        prepared = session.prepare(DISTINCT_TEXT)
        assert "[distinct: no dedup]" in prepared.explain()
        for _ in range(3):
            assert prepared.count() == len(expected)
            assert prepared.execute().set_equal(expected)
            assert prepared.count() == len(expected)
        plan = _plan(session, prepared)
        # The count's tree runs the empty-row kernels: a list of its own.
        assert sorted(len(trees) for trees in plan.trees.values()) == [1, 1]
        _assert_idle(_free_trees(session, prepared))


@pytest.mark.parametrize("budget", BUDGETS, ids=BUDGET_IDS)
def test_explain_analyze_after_warm_executes_reads_as_a_cold_one(budget, tmp_path):
    relations = serving_relations()

    def report(warm_executes):
        with _session(relations, budget, tmp_path) as session:
            prepared = session.prepare(JOIN_TEXT)
            for _ in range(warm_executes):
                prepared.execute()
            analyzed = prepared.explain_analyze()
            assert prepared.last_trace().counters == prepared.execute().trace.counters
            _assert_idle(_free_trees(session, prepared))
        return analyzed.result_rows, [
            (operator.label, operator.rows, operator.counters)
            for operator in analyzed.operators
        ]

    cold = report(0)
    assert cold[0] == len(_reference(relations, JOIN_TEXT))
    assert any(counters for _, _, counters in cold[1])
    assert report(3) == cold
    assert not any(tmp_path.iterdir())
