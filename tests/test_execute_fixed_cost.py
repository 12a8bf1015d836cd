"""The fixed part of a warm execute, pinned by deterministic counts.

A warm :meth:`PreparedQuery.execute` of the paper's ``project[S](φ_G)`` at
m = 12 minimizes to one scan of the 85-row ``R_G``, so nearly everything it
costs is the engine's per-execute bookkeeping.  Wall-clock shares of that
part move with the host; these counts do not:

* Python-level calls, counted as ``sys.setprofile`` ``call`` events
  (generator resumes included): at most :data:`CLAIM_CALLS` (100 before the
  binding, plan lookup, instantiation, drain, trace and metrics were
  compiled down; 36 after, on CPython 3.9, 3.11 and 3.12 alike, and 37
  since a membership decision shares the session's accounting call);
* lock acquisitions, counted by stand-ins for every module and instance lock
  on the path: at most :data:`CLAIM_LOCKS` (15 before; the collector pause's
  two, the meter's one, the session counters' one and the metrics' one);
* one serving query's calls, at most :data:`SERVING_CALLS` (the measured
  count plus 10 %; 558 before, when a join's empty extras picker was a
  Python call per build row), and a join's whose build side has one extra
  column, at most :data:`ONE_EXTRA_CALLS` (457 when that column was picked
  by a Python call per build row).

Beside the counts: ``EngineEvaluator.evaluate`` and ``PreparedQuery.execute``
are one run path, so they return equal traces on the ladder's queries, and a
binding pinned at one session epoch stays correct while another thread
replaces relations.
"""

import sys
import threading
from types import SimpleNamespace

import pytest

from repro.algebra.reference import naive_natural_join, naive_project
from repro.algebra.relation import Relation
from repro.api import Session
from repro.engine import EngineEvaluator, physical
from repro.expressions import Projection, parse_expression
from repro.obs import metrics as metrics_module
from repro.perf import counters as counters_module
from repro.reductions.rg import RGConstruction
from repro.workloads import growing_construction_family, serving_queries, serving_relations

from test_engine_ordering import JOIN_100K_QUERIES, _join_100k_slice

CLAIM_CALLS = 40
CLAIM_LOCKS = 5
#: ``project[A](R * S)`` over the serving relations reads 75 (70 on 3.12;
#: one less before a membership decision shared the session's accounting call).
SERVING_CALLS = 81
#: ``project[A, C](R * S)``, whose build side ``S`` keeps one column, reads
#: 69 (64 on 3.12).
ONE_EXTRA_CALLS = 76


def _claim_construction():
    return RGConstruction(
        growing_construction_family(clause_counts=(12,), seed=13)[0].formula
    )


def _claim_text(construction):
    """``project[S](φ_G)`` as the benchmark writes it: parsed text."""
    return Projection([construction.s_attribute], construction.expression).to_text()


def _warm(session, text):
    prepared = session.prepare(text)
    for _ in range(3):
        prepared.execute()
    return prepared


def _calls_of_one_execute(prepared):
    calls = []

    def profile(_frame, event, _arg):
        if event == "call":
            calls.append(_frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        prepared.execute()
    finally:
        sys.setprofile(None)
    return len(calls)


class _CountingLock:
    """A lock that records every acquisition in a shared list."""

    def __init__(self, name, acquired):
        self._name = name
        self._acquired = acquired
        self._lock = threading.Lock()

    def __enter__(self):
        self.acquire()
        return True

    def __exit__(self, *_exc_info):
        self._lock.release()

    def acquire(self, *args, **kwargs):
        self._acquired.append(self._name)
        return self._lock.acquire(*args, **kwargs)

    def release(self):
        self._lock.release()


def _locks_of_one_execute(prepared, session, monkeypatch):
    acquired = []

    def counting(name):
        return _CountingLock(name, acquired)

    engine = session._engine
    monkeypatch.setattr(counters_module, "_MUTATION_LOCK", counting("counters"))
    monkeypatch.setattr(metrics_module, "_MUTATION_LOCK", counting("metrics"))
    monkeypatch.setattr(physical._COLLECTOR_PAUSE, "_lock", counting("collector"))
    monkeypatch.setattr(session, "_state_lock", counting("session"))
    monkeypatch.setattr(prepared, "_lock", counting("prepared"))
    monkeypatch.setattr(engine, "_plans_lock", counting("plans"))
    # The meter is built by the execute: its lock comes from this factory.
    monkeypatch.setattr(
        physical, "threading", SimpleNamespace(Lock=lambda: counting("meter"))
    )
    prepared.execute()
    monkeypatch.undo()
    return acquired


@pytest.mark.parametrize("budget", [None, 64], ids=["unbudgeted", "budget-64"])
class TestTheClaimQuery:
    def test_a_warm_execute_makes_at_most_forty_calls(self, budget):
        construction = _claim_construction()
        with Session({"R": construction.relation}, budget=budget) as session:
            prepared = _warm(session, _claim_text(construction))
            assert _calls_of_one_execute(prepared) <= CLAIM_CALLS

    def test_a_warm_execute_takes_at_most_five_locks(self, budget, monkeypatch):
        construction = _claim_construction()
        with Session({"R": construction.relation}, budget=budget) as session:
            prepared = _warm(session, _claim_text(construction))
            acquired = _locks_of_one_execute(prepared, session, monkeypatch)
        assert len(acquired) <= CLAIM_LOCKS, acquired
        # What the five are: the binding re-check and the plan lookup take none.
        assert sorted(acquired) == ["collector", "collector", "meter", "metrics", "session"]


def test_a_serving_query_stays_within_its_measured_calls():
    with Session(serving_relations()) as session:
        prepared = _warm(session, "project[A](R * S)")
        assert _calls_of_one_execute(prepared) <= SERVING_CALLS


def test_a_one_column_build_side_picks_its_extras_without_a_call_per_row():
    with Session(serving_relations()) as session:
        prepared = _warm(session, "project[A, C](R * S)")
        assert _calls_of_one_execute(prepared) <= ONE_EXTRA_CALLS


def _ladder_cases():
    """The ladder's 13 queries (``join_100k``'s over a 2,000-row slice):
    ``project[S](φ_G)`` unbudgeted and at 64 rows, three joins, eight
    serving queries — as ``(relations, text, budget)``."""
    construction = _claim_construction()
    claim = ({"R": construction.relation}, _claim_text(construction))
    joins = _join_100k_slice()
    serving = serving_relations()
    return (
        [claim + (None,), claim + (64,)]
        + [(joins, text, None) for text in JOIN_100K_QUERIES]
        + [(serving, text, None) for text in serving_queries()]
    )


def test_evaluate_and_execute_return_equal_traces_on_the_ladder_queries():
    cases = _ladder_cases()
    assert len(cases) == 13
    for relations, text, budget in cases:
        with Session(relations, budget=budget) as session:
            prepared = _warm(session, text)
            executed = prepared.execute()
        schemes = {name: relation.scheme for name, relation in relations.items()}
        expression = parse_expression(text, schemes)
        evaluator = EngineEvaluator(budget=budget)
        evaluator.evaluate(expression, relations)  # plans, as the prepare did
        relation, trace = evaluator.evaluate(expression, relations)
        assert relation == executed.relation, text
        # Dataclass equality: steps, counters, peaks, cardinalities, every field.
        assert trace == executed.trace, text


def test_a_binding_pinned_at_an_epoch_survives_concurrent_replacements():
    """One thread alternates ``R`` between two generations while another
    executes: every answer is one generation's, and the counters add up."""
    s = Relation.from_rows("B C", [(b, b % 5) for b in range(40)], name="S")
    generations = [
        Relation.from_rows("A B", [(a, a % 40) for a in range(300)], name="R"),
        Relation.from_rows("A B", [(a, (3 * a) % 40) for a in range(0, 300, 2)], name="R"),
    ]
    text = "project[A, C](R * S)"
    oracles = [
        frozenset(naive_project(naive_natural_join(r, s), ["A", "C"]).rows)
        for r in generations
    ]
    assert oracles[0] != oracles[1]
    rounds = 200
    with Session({"R": generations[0], "S": s}) as session:
        prepared = session.prepare(text)
        done = threading.Event()

        def mutate():
            turn = 0
            while not done.is_set():
                turn += 1
                session.set_relation("R", generations[turn % 2])

        mutator = threading.Thread(target=mutate)
        mutator.start()
        try:
            answers = []
            for _ in range(rounds):
                result = prepared.execute()
                aligned = result.relation.project(["A", "C"])
                answers.append(frozenset(aligned.rows))
        finally:
            done.set()
            mutator.join()
        stats = session.stats()
    assert all(answer in oracles for answer in answers)
    assert stats["executes"] == rounds
    assert stats["executes"] == stats["plan_cache_hits"] + stats["invalidation_replans"]
    assert stats["plan_builds"] == 1 + stats["invalidation_replans"]
    assert stats["invalidation_replans"] > 0
