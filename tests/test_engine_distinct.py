"""Roots whose rows are distinct by construction: the mark, and counts.

The planner marks an unbudgeted plan whose root needs no dedup
(``PhysicalPlan.distinct``) by the uniqueness inference of Paulley and
Larson (ICDE 1994): a scan's scheme is a key, a deduplicating projection's
kept columns are, a no-dedup projection keeps its child's key only if it
keeps every column of it, and a hash join's key is its probe side's plus
the build side's columns, because every bucket is a set.  Such a root
streams into no set: ``execute()`` freezes its blocks once, and
``PreparedQuery.count()`` counts their lengths, through a run compiled to
emit the empty row when the root streams a join run.

Pinned here:

* the property, over ``tests/test_engine_differential.py``'s random cases:
  a marked plan's stream holds no duplicate row — read straight off the
  operator tree, before any set is built — and is set-equal to the
  reference algebra, and its counting tree streams as many rows;
  ``count()`` is ``len(execute())`` on every case, budgeted or not, with
  the same per-operator rows; no budgeted plan is marked;
* the paper as oracle: φ_G is marked at m = 4, 8 and 12, ``explain()``
  prints the mark, and ``count()`` is ``7m + 1 + #SAT(G)`` with
  :func:`repro.sat.count_models` as the oracle; ``project[S](φ_G)``,
  ``π_Y(φ_G)`` and five of the eight serving queries stay unmarked;
* a count on a distinct root holds no result row: its ``peak_live_rows``
  is the execute's less the result.
"""

import random

from hypothesis import HealthCheck, given, settings, strategies as st
import pytest

from repro.api import Session
from repro.engine import EngineEvaluator, MemoryMeter
from repro.expressions import Projection
from repro.reductions.rg import RGConstruction
from repro.sat import count_models
from repro.workloads import growing_construction_family, serving_queries, serving_relations

from test_engine_differential import (
    FUZZ_CASES,
    _random_case,
    _reference_evaluate,
    _tiny_budget,
)

#: The serving queries whose roots are distinct: ``project[C](S * T)``,
#: ``project[A, B](R * project[B](S))`` and ``project[A, C, D](R * S * T)``.
DISTINCT_SERVING = (5, 6, 7)

MARK = "[distinct: no dedup]"


def _streamed(plan, bindings, count=False):
    """Every row the plan's operator tree streams, duplicates kept: the
    blocks are read off the root itself, with no drain and no set."""
    root = plan.executor(bindings, MemoryMeter(), count=count)
    return [row for block in root.blocks() for row in block]


def _aligned(rows, plan, reference):
    """``rows`` (over the plan root's scheme) in the reference's column order."""
    names = plan.root.scheme.names
    order = [names.index(name) for name in reference.scheme.names]
    return {tuple(row[index] for index in order) for row in rows}


def _check_case(expression, bindings, spill_dir):
    """The distinct-root contract on one case; returns whether it is marked."""
    reference = _reference_evaluate(expression, bindings)
    detail = f"expression: {expression.to_text()}"
    plan = EngineEvaluator().plan_for(expression, bindings)
    if plan.distinct:
        rows = _streamed(plan, bindings)
        assert len(rows) == len(set(rows)), f"duplicate rows streamed\n{detail}\n{plan.explain()}"
        assert _aligned(rows, plan, reference) == set(reference.rows), detail
        counted = _streamed(plan, bindings, count=True)
        assert len(counted) == len(reference), detail
        assert MARK in plan.explain(), detail
    else:
        assert MARK not in plan.explain(), detail
    for budget in (None, _tiny_budget(spill_dir)):
        with Session(bindings, budget=budget) as session:
            prepared = session.prepare(expression)
            if budget is not None:
                assert not session._engine.pinned_plan(expression).distinct, detail
            executed = prepared.execute()
            assert prepared.count() == len(executed) == len(reference), detail
            counted = prepared.last_trace()
            assert [step.cardinality for step in counted.steps] == [
                step.cardinality for step in executed.trace.steps
            ], detail
            assert counted.counters.get("spill_overflows", 0) == 0, detail
    return plan.distinct


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_a_marked_root_streams_no_duplicate_and_counts_agree(seed, tmp_path_factory):
    rng = random.Random(seed)
    expression, bindings = _random_case(rng)
    _check_case(expression, bindings, tmp_path_factory.mktemp("spill"))


def test_the_fuzz_cases_reach_both_marks(fuzz_seed, tmp_path):
    """The seed's differential cases hold marked and unmarked plans alike,
    so the property above reaches both branches."""
    rng = random.Random(fuzz_seed)
    marks = {
        _check_case(*_random_case(rng), tmp_path) for _ in range(FUZZ_CASES)
    }
    assert marks == {True, False}, f"seed={fuzz_seed}"


# -- the paper as oracle ------------------------------------------------------


def _construction(m):
    return RGConstruction(growing_construction_family(clause_counts=(m,), seed=13)[0].formula)


@pytest.mark.parametrize("m", [4, 8, 12])
def test_phi_g_is_marked_and_counts_the_theorem(m):
    """``|φ_G(R_G)| = 7m + 1 + #SAT(G)`` (Lemma 1), counted without one
    result row built: φ_G has no outer projection, its probe leaf is a
    deduplicating projection and its build sides feed set buckets."""
    construction = _construction(m)
    expected = 7 * m + 1 + count_models(construction.formula)
    with Session({"R": construction.relation}) as session:
        prepared = session.prepare(construction.expression)
        plan = session._engine.pinned_plan(construction.expression)
        assert plan.distinct
        assert plan.root.count_chain is not None
        assert "[() for r0, " in plan.root.count_chain.source
        assert MARK in prepared.explain().splitlines()[3]
        assert prepared.count() == expected
        assert len(prepared.execute()) == expected
    with Session({"R": construction.relation}, budget=64) as session:
        prepared = session.prepare(construction.expression)
        assert not session._engine.pinned_plan(construction.expression).distinct
        assert MARK not in prepared.explain()
        assert prepared.count() == expected


@pytest.mark.parametrize("m", [4, 12])
def test_the_papers_projections_stay_unmarked(m):
    construction = _construction(m)
    queries = (
        Projection([construction.s_attribute], construction.expression),
        construction.pair_projection_expression(),
    )
    with Session({"R": construction.relation}) as session:
        for query in queries:
            prepared = session.prepare(query)
            assert not session._engine.pinned_plan(query).distinct
            assert MARK not in prepared.explain()
            assert prepared.count() == len(prepared.execute())


def test_which_serving_queries_are_marked():
    with Session(serving_relations()) as session:
        marked = []
        for index, text in enumerate(serving_queries()):
            prepared = session.prepare(text)
            if session._engine.pinned_plan(prepared.expression).distinct:
                marked.append(index)
            assert prepared.count() == len(prepared.execute()), text
    assert tuple(marked) == DISTINCT_SERVING


def test_a_count_on_a_distinct_root_holds_no_result_row():
    """The execute holds its result on the meter; the count holds none, so
    its peak is the execute's less the result (the builds stay resident
    while the top join's rows stream)."""
    construction = _construction(12)
    cases = [
        (serving_relations(), serving_queries()[7]),
        ({"R": construction.relation}, construction.expression),
    ]
    for relations, query in cases:
        with Session(relations) as session:
            prepared = session.prepare(query)
            executed = prepared.execute().trace
            assert prepared.count() == executed.result_cardinality
            counted = prepared.last_trace()
        assert counted.peak_live_rows == executed.peak_live_rows - executed.result_cardinality
