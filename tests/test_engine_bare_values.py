"""One-column results deduplicated as bare values.

A root deduplicating projection that picks one column over anything but a
folded join is marked ``bare`` at planning: its drain's set holds the
column's values, not 1-tuples, and the result wraps the distinct values
once.  On the differential fuzz's relations, budgeted or not, through
execute and count, it must answer what the reference does and trace what
the 1-tuple path traces — the same peak and the same rows per step.
"""

import random
from tempfile import TemporaryDirectory

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import Relation, RelationScheme, naive_project
from repro.api import Session
from repro.engine import EngineEvaluator
from repro.expressions import Projection
from repro.expressions.ast import Operand
from repro.reductions.rg import RGConstruction
from repro.workloads import growing_construction_family

from test_engine_differential import ATTRIBUTE_POOL, _random_relation, _tiny_budget


def _runs(expression, bound, budget, bare):
    """``(result, trace)`` of an execute and ``(count, trace)`` of a count,
    with the root's bare mark as planned (``bare``) or taken off."""
    evaluator = EngineEvaluator(budget=budget)
    plan = evaluator.plan_for(expression, bound)
    if not bare:
        plan.root.bare = False  # every tree below is built fresh: evaluate binds anew
    executed = evaluator.evaluate(expression, bound)
    counted = evaluator.run(expression, evaluator.bind(expression, bound), count=True)
    return plan, executed, counted


def _shape(trace):
    return trace.peak_live_rows, [(step.description, step.cardinality) for step in trace.steps]


def _check(relation, kept, budgeted):
    expression = Projection([kept], Operand("R", relation.scheme))
    bound = {"R": relation}
    reference = naive_project(relation, [kept])
    with TemporaryDirectory() as spill_dir:
        budget = _tiny_budget(spill_dir) if budgeted else None
        plan, (result, trace), (count, count_trace) = _runs(expression, bound, budget, True)
        # One column of a one-column scheme is the scan's key: unbudgeted,
        # a distinct root, which keeps no set at all.
        assert plan.root.bare == (len(relation.scheme) > 1 or budgeted)
        _, (rows, rows_trace), (rows_count, rows_count_trace) = _runs(
            expression, bound, budget, False
        )
    assert result == reference == rows
    assert count == rows_count == len(reference)
    assert _shape(trace) == _shape(rows_trace)
    assert _shape(count_trace) == _shape(rows_count_trace)
    assert trace.result_cardinality == count_trace.result_cardinality == len(reference)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    width=st.integers(1, 4),
    budgeted=st.booleans(),
)
def test_one_column_projections_over_scans_match_the_tuple_path(seed, width, budgeted):
    rng = random.Random(seed)
    relation = _random_relation(rng, RelationScheme(ATTRIBUTE_POOL[:width]))
    _check(relation, rng.choice(relation.scheme.names), budgeted)


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(
        st.one_of(
            st.integers(0, 3),
            st.tuples(st.integers(0, 3)),
            st.tuples(st.tuples(st.integers(0, 1))),
        ),
        min_size=1,
        max_size=30,
    ),
    budgeted=st.booleans(),
)
def test_a_column_of_one_tuples_round_trips(values, budgeted):
    """Values that are themselves 1-tuples stay apart from the rows that
    wrap them: ``(1,)`` and ``1`` are two results."""
    relation = Relation.from_rows("A B", [(value, index) for index, value in enumerate(values)])
    _check(relation, "A", budgeted)


@pytest.mark.parametrize("budget", [None, 64], ids=["unbudgeted", "budget-64"])
def test_the_claim_query_traces_what_it_traced_before(budget):
    """``project[S](phi_G)`` at m = 12 minimizes to one scan of the 85-row
    ``R_G`` keeping 2 values: the counts the 1-tuple path traced."""
    construction = RGConstruction(
        growing_construction_family(clause_counts=(12,), seed=13)[0].formula
    )
    text = Projection([construction.s_attribute], construction.expression).to_text()
    relation = construction.relation
    with Session({"R": relation}, budget=budget) as session:
        prepared = session.prepare(text)
        executed = prepared.execute()
        counted = prepared.count()
        count_trace = prepared.last_trace()
        again = prepared.execute()
    reference = naive_project(relation, [construction.s_attribute])
    assert len(reference) == 2
    assert executed.relation == again.relation == reference
    assert counted == 2
    for trace in (executed.trace, count_trace, again.trace):
        assert trace.result_cardinality == 2
        assert trace.input_cardinality == 85
        assert (trace.peak_live_rows, trace.peak_build_rows) == (2, 0)
        assert [
            (step.description, step.node_kind, step.cardinality, step.scheme_width)
            for step in trace.steps
        ] == [
            ("scan R", "operand", 85, 88),
            (f"project[{construction.s_attribute}](scan R)", "projection", 2, 1),
        ]
        assert not any(trace.counters.values())
