"""Counters under threads: a trace reports its own execute's counts.

An execute's operators, spill files and fault injector count on its meter,
and the execute folds those counts into the process-global
:class:`~repro.perf.KernelCounters` once, when its drain ends.  So
``trace.counters`` is that execute's work alone even while other threads
execute on the same session, and the session's ``repro_spill_rows_total``,
summed from traces, agrees with the process-global counters.  When
``trace.counters`` was a difference of the process-global counters taken
around the execute, traces under threads read other executes' probes and
spilled rows.
"""

import threading

import pytest

from repro.algebra.reference import naive_natural_join, naive_project
from repro.api import Session
from repro.perf import kernel_counters
from repro.workloads import serving_relations

TEXT = "project[A, D](R * S * T)"
THREADS = 4
ROUNDS = 100


def _reference(relations):
    joined = naive_natural_join(
        naive_natural_join(relations["R"], relations["S"]), relations["T"]
    )
    return frozenset(naive_project(joined, ["A", "D"]).rows)


def _spilled_total(session):
    return session.metrics().counter("repro_spill_rows_total", help="rows spilled").value


@pytest.mark.parametrize("budget", [None, 64], ids=["unbudgeted", "budget-64"])
def test_every_trace_counts_its_own_execute_under_threads(budget):
    relations = serving_relations()
    expected = _reference(relations)
    with Session(relations, budget=budget) as session:
        prepared = session.prepare(TEXT)
        prepared.execute()
        solo = prepared.execute().trace.counters
        assert solo["join_probes"] > 0
        assert (solo["spill_rows"] > 0) == (budget is not None)

        traces = [[] for _ in range(THREADS)]
        answers = [[] for _ in range(THREADS)]
        errors = []
        start = threading.Barrier(THREADS)

        def work(index):
            try:
                start.wait()
                for _ in range(ROUNDS):
                    result = prepared.execute()
                    aligned = result.relation.project(["A", "D"])
                    answers[index].append(frozenset(aligned.rows) == expected)
                    traces[index].append(result.trace.counters)
            except BaseException as error:  # surfaced below
                errors.append(error)

        counters_before = kernel_counters().snapshot()
        metric_before = _spilled_total(session)
        pool = [threading.Thread(target=work, args=(index,)) for index in range(THREADS)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        counters_delta = kernel_counters().delta_since(counters_before)
        metric_delta = _spilled_total(session) - metric_before

    assert errors == []
    every = [counters for per_thread in traces for counters in per_thread]
    assert len(every) == THREADS * ROUNDS
    assert all(all(per_thread) for per_thread in answers)
    for name in ("join_probes", "spill_rows"):
        wrong = [counters[name] for counters in every if counters[name] != solo[name]]
        assert not wrong, (name, solo[name], wrong[:5], len(wrong))
    spilled = sum(counters["spill_rows"] for counters in every)
    assert spilled == THREADS * ROUNDS * solo["spill_rows"]
    assert counters_delta["spill_rows"] == spilled
    assert counters_delta["join_probes"] == THREADS * ROUNDS * solo["join_probes"]
    assert metric_delta == spilled
