"""Answers and counted work do not depend on the order a scan visits rows.

A :class:`~repro.engine.physical.TableScan` streams a relation in its
cached address order (``Relation._scan_order``).  These tests run every
plan with that order replaced by the row set's hash order, by address
order and by reversed address order, over int-valued relations (whose hash
order is the same in every process), and hold the three runs to one
another:

* without a budget, everything the trace counts is pinned: the answer, every
  operator's ``rows_out``, every kernel counter (``join_probes``,
  ``trusted_tuples_built``, ...), ``total_intermediate_tuples``,
  ``peak_build_rows`` and ``peak_live_rows``;
* under a budget the answer and every kernel counter are pinned except the
  ones named in :data:`BUDGETED_ORDER_DEPENDENT` (with the reason there), and
  on the ``join_100k`` instance — whose streams carry no duplicate rows —
  every operator's ``rows_out`` and label as well.
"""

import random
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings

from repro.algebra import Relation
from repro.engine import EngineEvaluator, MemoryBudget
from repro.expressions import parse_expression
from test_engine_ordering import JOIN_100K_QUERIES
from test_engine_pruning import MAX_REFERENCE_ROWS, _reference, projection_join_cases

ORDERS = {
    "hash": lambda self: tuple(self._rows),
    "address": lambda self: tuple(sorted(self._rows, key=id)),
    "reversed address": lambda self: tuple(sorted(self._rows, key=id, reverse=True)),
}

#: What may differ between scan orders under a budget, and why.  A chunk of
#: a spilled build is as large as the meter's headroom when it loads, and
#: the headroom counts the result rows already emitted — which depend on
#: what the earlier chunks and probe slices held: ``join_chunk_passes``,
#: ``peak_build_rows`` and ``peak_live_rows``.  A stream that carries
#: duplicates (below a ``no dedup`` projection, or past a full pushed
#: dedup, which passes rows it cannot remember) puts a duplicate in one
#: chunk or two, and in a spill file once or twice, depending on arrival
#: order: ``spill_rows``, ``join_probes`` above it, and ``rows_out`` of the
#: operators from there up (the trace's steps).
BUDGETED_ORDER_DEPENDENT = (
    "join_chunk_passes",
    "peak_build_rows",
    "peak_live_rows",
    "spill_rows",
    "join_probes",
)


def _join_100k_instance(rows=5_000, seed=11):
    """The ladder's ``join_100k`` shape, ``R`` cut to ``rows`` rows.

    ``R``'s rows are built in value order, as the ladder builds them, so
    address order differs from both hash order and its reverse.
    """
    rng = random.Random(seed)
    picked = set()
    while len(picked) < rows:
        picked.add((rng.randrange(20_000), rng.randrange(5_250), rng.randrange(2_100)))
    return {
        "R": Relation.from_rows("O C P", sorted(picked), name="R"),
        "S": Relation.from_rows("C G", [(c, rng.randrange(50)) for c in range(5_000)], name="S"),
        "T": Relation.from_rows("P K", [(p, rng.randrange(40)) for p in range(2_000)], name="T"),
    }


def _budget(rows, spill_dir):
    if rows is None:
        return None
    return MemoryBudget(
        rows=rows, spill_fanout=2, spill_dir=str(spill_dir)
    )


def _runs(expression, bound, budget=None):
    """``{order: (result, trace)}``, each on a fresh evaluator."""
    runs = {}
    for name, order in ORDERS.items():
        with mock.patch.object(Relation, "_scan_order", order):
            runs[name] = EngineEvaluator(budget=budget).evaluate(expression, bound)
    return runs


def _work(trace, budgeted, steps=True):
    """What a trace counted, less what ``budgeted`` lets the order move."""
    dropped = BUDGETED_ORDER_DEPENDENT if budgeted else ()
    work = {
        name: value for name, value in trace.counters.items() if name not in dropped
    }
    for name in ("peak_build_rows", "peak_live_rows"):
        if name not in dropped:
            work[name] = getattr(trace, name)
    if steps:
        work["steps"] = [(step.description, step.cardinality) for step in trace.steps]
        work["total_intermediate_tuples"] = trace.total_intermediate_tuples
    return work


def _assert_order_free(runs, budgeted, steps=True):
    (first, first_trace), *others = runs.values()
    for result, trace in others:
        assert result == first
        assert _work(trace, budgeted, steps) == _work(first_trace, budgeted, steps)
    for _, trace in runs.values():
        assert trace.counters.get("spill_overflows", 0) == 0


@pytest.fixture(scope="module")
def join_100k():
    relations = _join_100k_instance()
    schemes = {name: relation.scheme for name, relation in relations.items()}
    expressions = [parse_expression(text, schemes) for text in JOIN_100K_QUERIES]
    # Warm what planning caches (statistics, plan caches), so the three
    # orders' counters compare like with like.
    evaluator = EngineEvaluator()
    for expression in expressions:
        evaluator.evaluate(expression, relations)
    return relations, expressions


def test_the_orders_differ(join_100k):
    relations, _ = join_100k
    orders = [order(relations["R"]) for order in ORDERS.values()]
    assert all(sorted(order) == sorted(relations["R"].rows) for order in orders)
    assert len({tuple(map(id, order)) for order in orders}) == 3


@pytest.mark.parametrize("query", range(len(JOIN_100K_QUERIES)))
def test_join_100k_counts_do_not_depend_on_scan_order(join_100k, query):
    relations, expressions = join_100k
    runs = _runs(expressions[query], relations)
    _assert_order_free(runs, budgeted=False)


@pytest.mark.parametrize("query", range(len(JOIN_100K_QUERIES)))
def test_join_100k_spills_do_not_depend_on_scan_order(join_100k, query, tmp_path):
    relations, expressions = join_100k
    budget = MemoryBudget(rows=256, spill_dir=str(tmp_path))
    runs = _runs(expressions[query], relations, budget=budget)
    assert all(trace.counters["join_spills"] for _, trace in runs.values())
    _assert_order_free(runs, budgeted=True)
    assert not list(tmp_path.iterdir())


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(projection_join_cases())
def test_grid_counts_do_not_depend_on_scan_order(tmp_path_factory, case):
    """The pruning grid's cases and budgets: pushed projections, ``no
    dedup`` build children and every spill mode."""
    expression, _, bound, _ = case
    assume(len(_reference(expression.child, bound)) <= MAX_REFERENCE_ROWS)
    reference = _reference(expression, bound)
    spill_dir = tmp_path_factory.mktemp("spill")
    EngineEvaluator().evaluate(expression, bound)  # warm the caches
    for budget_rows in (None, 64, 4):
        budgeted = budget_rows is not None
        runs = _runs(expression, bound, budget=_budget(budget_rows, spill_dir))
        result = runs["hash"][0]
        assert result.project(reference.scheme.names) == reference
        _assert_order_free(runs, budgeted, steps=not budgeted)
    assert not list(spill_dir.iterdir())
