"""The collector contract of the engine's one drain (``docs/ENGINE.md``, rule 7).

``drain_metered`` pauses automatic cyclic collection for its own length and
runs one generation-0 sweep per ``SWEEP_ROWS`` result rows, so the collector
is paced by the rows that survive an execute — the result — and never by
its intermediates.  The switch is the interpreter's, which is what these
tests are about: whatever way a drain ends, from however many threads, the
process is handed back exactly as it was found.

Passes are *counted* with a ``gc.callbacks`` recorder between the moment a
drain holds the pause and the moment it lets go; nothing here assumes when
an automatic pass would have fired (3.12 moved that to the eval breaker).
"""

import gc
import inspect
import multiprocessing
import os
import sys
import threading
import warnings
from collections import Counter
from contextlib import contextmanager
from unittest import mock

import pytest

from repro.algebra.relation import Relation
from repro.api import Session
from repro.decision.membership import EngineMembershipDecider
from repro.engine import (
    EngineEvaluator,
    EngineFaultError,
    FaultPlan,
    MemoryBudget,
    MemoryMeter,
    TableScan,
)
from repro.engine import parallel as parallel_module
from repro.engine.parallel import SWEEP_ROWS, drain_metered
from repro.expressions.ast import Operand, Projection
from repro.reductions.rg import RGConstruction
from repro.workloads import growing_construction_family


class _WatchedPause:
    """The drain's pause, counting the collector passes that begin while a
    drain of the same process holds it (by generation) and the drains that
    took it.  The counts live in shared memory, so a probe worker forked
    while the recorder is installed counts its own drains and passes in."""

    def __init__(self, real):
        self.real = real
        self.lock = threading.Lock()
        self.held = 0  # this process's drains in progress
        self._drains = multiprocessing.Value("i", 0)
        self._passes = multiprocessing.Array("i", 3)  # one per generation

    @property
    def drains(self):
        return self._drains.value

    @property
    def passes(self):
        return Counter({gen: count for gen, count in enumerate(self._passes) if count})

    def reset(self):
        self._drains.value = 0
        self._passes[:] = [0] * len(self._passes)

    def __enter__(self):
        sweeping = self.real.__enter__()
        with self.lock:
            self.held += 1
        with self._drains.get_lock():
            self._drains.value += 1
        return sweeping

    def __exit__(self, *exc_info):
        with self.lock:
            self.held -= 1
        return self.real.__exit__(*exc_info)

    def __call__(self, phase, info):
        if phase == "start" and self.held:
            with self._passes.get_lock():
                self._passes[info["generation"]] += 1


@contextmanager
def _recording():
    recorder = _WatchedPause(parallel_module._COLLECTOR_PAUSE)
    gc.callbacks.append(recorder)
    try:
        with mock.patch.object(parallel_module, "_COLLECTOR_PAUSE", recorder):
            yield recorder
    finally:
        gc.callbacks.remove(recorder)


def _handed_back():
    """The process-wide state every ending must restore."""
    return gc.isenabled() and parallel_module._COLLECTOR_PAUSE._depth == 0


def _rg_session(clauses, **config):
    """Proposition 1's ``π_Y(φ_G)`` over ``R_G``: its tableau keeps every
    row, so it streams the joins ``project[S](φ_G)`` did before the planner
    minimized that to one scan, and its result has ``clauses + 2`` rows."""
    construction = RGConstruction(
        growing_construction_family(clause_counts=(clauses,), seed=13)[0].formula
    )
    query = construction.pair_projection_expression()
    return Session({"R": construction.relation}, **config).prepare(query.to_text())


def _wide_join(rows=10_000):
    """``project[A, C](R * S)`` whose result has exactly ``rows`` rows."""
    r = Relation.from_rows("A B", [(i, i % 97) for i in range(rows)], name="R")
    s = Relation.from_rows("B C", [(b, -b) for b in range(97)], name="S")
    query = Projection(["A", "C"], Operand("R", "A B").join(Operand("S", "B C")))
    return query, {"R": r, "S": s}


class TestPassesFollowTheResult:
    @pytest.mark.parametrize(
        "config",
        [{}, {"budget": 64}, {"workers": 2}],
        ids=["serial", "budget-64", "workers-2"],
    )
    def test_the_papers_query_runs_no_pass_of_any_generation(self, config):
        # Recording from before the warm-up execute forks the probe pool, so
        # its workers drain through the recorder; the counts start after it.
        with _recording() as recorder:
            prepared = _rg_session(12, **config)
            try:
                prepared.execute()
                recorder.reset()
                result = prepared.execute()
            finally:
                prepared._session.close()
        assert len(result) == 14
        assert recorder.drains >= 1, "the execute never reached the drain"
        assert not recorder.passes, dict(recorder.passes)
        assert _handed_back()

    def test_a_large_result_is_swept_once_per_stride_of_its_rows(self):
        query, bound = _wide_join(10_000)
        evaluator = EngineEvaluator()
        evaluator.evaluate(query, bound)
        with _recording() as recorder:
            result, _ = evaluator.evaluate(query, bound)
        assert len(result) == 10_000
        # Sweeps fire at block boundaries, so the count may fall short of
        # the quotient but never pass it — and nothing older is collected.
        assert 1 <= recorder.passes[0] <= 10_000 // SWEEP_ROWS
        assert set(recorder.passes) == {0}, dict(recorder.passes)
        assert _handed_back()

    def test_a_result_handed_over_in_one_block_is_swept_after_its_tree_is_gone(self):
        """A root that dedups into the sink over an unblocked input hands the
        drain its whole result at once; swept with the tree still suspended,
        a serving-sized result cost more than no pause at all (the pass
        walked the tree's tables too).  The sweep follows the *next* pull."""
        ended, seen = [], []

        class OneBlockRoot:
            def blocks(self, sink=None):
                try:
                    sink.update((i,) for i in range(SWEEP_ROWS))
                    yield []
                finally:
                    ended.append(True)

        def watch(phase, info):
            if phase == "start" and parallel_module._COLLECTOR_PAUSE._depth:
                seen.append((info["generation"], bool(ended)))

        meter = MemoryMeter()
        gc.callbacks.append(watch)
        try:
            rows = drain_metered(OneBlockRoot(), meter)
        finally:
            gc.callbacks.remove(watch)
        assert len(rows) == SWEEP_ROWS and meter.current == SWEEP_ROWS
        assert seen == [(0, True)], seen
        assert _handed_back()

    def test_a_host_that_disabled_the_collector_is_left_alone(self):
        query, bound = _wide_join(10_000)
        evaluator = EngineEvaluator()
        gc.disable()
        try:
            with _recording() as recorder:
                result, _ = evaluator.evaluate(query, bound)
            assert not gc.isenabled(), "the drain re-enabled a host's collector"
        finally:
            gc.enable()
        assert len(result) == 10_000
        assert recorder.drains >= 1
        assert not recorder.passes, "a sweep ran under a host's gc.disable()"

    def test_thresholds_are_untouched(self):
        before = gc.get_threshold()
        _rg_session(6).execute()
        assert gc.get_threshold() == before


class TestEveryEndingHandsTheCollectorBack:
    def test_cap_abandonment(self):
        relation = Relation.from_rows("A", [(i,) for i in range(5_000)], name="R")
        meter = MemoryMeter()
        assert drain_metered(TableScan(relation, meter), meter, cap=100) is None
        assert meter.current == 0
        assert _handed_back()

    def test_injected_fault(self, tmp_path):
        query, bound = _wide_join(400)
        evaluator = EngineEvaluator(
            budget=MemoryBudget(rows=8, spill_dir=str(tmp_path)),
            faults=FaultPlan(fail_spill_write_at=1, persistent=True),
        )
        with pytest.raises(EngineFaultError):
            evaluator.evaluate(query, bound)
        assert _handed_back()

    def test_consumer_closing_the_stream_early(self):
        """The engine's early-exit consumer pulls ``root.blocks()`` itself
        and closes it at the first hit: it never takes the pause, and no
        consumer can be suspended holding it - the one holder is a plain
        function, so the pause is never kept across a ``yield``."""
        assert not inspect.isgeneratorfunction(drain_metered)
        query, bound = _wide_join(5_000)
        decider = EngineMembershipDecider()
        with _recording() as recorder:
            assert decider.decide((7, -7), query, bound)
        assert recorder.drains == 0
        assert _handed_back()

    def test_nested_drain(self):
        """A drain started while another holds the pause (a root that drains
        a tree of its own) pauses nothing twice and resumes nothing early:
        the inner exit leaves the collector off for the outer drain."""
        relation = Relation.from_rows("A", [(i,) for i in range(5_000)], name="R")
        inside = []

        class DrainingRoot:
            def blocks(self, sink=None):
                inner_meter = MemoryMeter()
                rows = drain_metered(TableScan(relation, inner_meter), inner_meter)
                inside.append((len(rows), gc.isenabled()))
                yield sorted(rows)

        meter = MemoryMeter()
        with _recording() as recorder:
            rows = drain_metered(DrainingRoot(), meter)
        assert len(rows) == 5_000
        assert inside == [(5_000, False)]
        assert recorder.drains == 2 and recorder.held == 0
        assert _handed_back()

    def test_parallel_execute(self):
        query, bound = _wide_join(2_000)
        evaluator = EngineEvaluator(workers=2)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)  # no serial fallback
                result, _ = evaluator.evaluate(query, bound)
        finally:
            evaluator.close()
        assert len(result) == 2_000
        assert _handed_back()

    def test_drains_racing_on_threads(self):
        """More drains than cores, switching often: a lost depth update
        would re-enable the collector under a running drain or leave it off
        after the last one."""
        relation = Relation.from_rows("A", [(i,) for i in range(64)], name="R")
        seen_enabled, completed = [], []

        class CheckingMeter(MemoryMeter):
            def acquire(self, rows=1):
                if gc.isenabled():
                    seen_enabled.append(threading.current_thread().name)
                super().acquire(rows)

        start = threading.Barrier(6, timeout=60)

        def work():
            start.wait()
            for _ in range(1_000):
                meter = CheckingMeter()
                completed.append(len(drain_metered(TableScan(relation, meter), meter)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert completed == [64] * 6_000
        assert not seen_enabled, f"collector on inside a drain: {seen_enabled[:3]}"
        assert _handed_back()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_child_forked_inside_a_pause_starts_unpaused():
    pause = parallel_module._COLLECTOR_PAUSE
    read_end, write_end = os.pipe()
    with warnings.catch_warnings():
        # 3.12 warns when a process that ever started a thread forks.
        warnings.simplefilter("ignore", DeprecationWarning)
        with pause:
            assert not gc.isenabled() and pause._depth == 1
            pid = os.fork()
            if pid == 0:
                inside = (gc.isenabled(), pause._depth)
    if pid == 0:  # the child left the block it was forked in
        try:
            report = inside + (gc.isenabled(), pause._depth)
            os.write(write_end, repr(report).encode())
        finally:
            os._exit(0)
    os.close(write_end)
    with os.fdopen(read_end) as pipe:
        report = pipe.read()
    os.waitpid(pid, 0)
    assert report == repr((True, 0, True, 0))
    assert _handed_back()
