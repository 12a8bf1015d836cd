"""Fault-injection tests: the engine's failure paths, reached on purpose.

`repro.engine.faults` makes the paths ordinary tests never execute — spill
I/O failures and fork-pool worker death — reachable deterministically, and
this module pins their contract:

* a *transient* spill failure (fewer consecutive failures than the retry
  budget) is absorbed by retry-with-backoff and the evaluation completes
  with the correct result, the retries and injections visible in counters;
* a *persistent* failure ends in a typed
  :class:`~repro.engine.faults.EngineFaultError` with the cleanup
  guarantees: no leaked spill files or temp dirs, the shared meter drained
  back to zero;
* a killed parallel probe worker is recovered by rebuilding the fork pool
  (``pool_recoveries``) or degrades *loudly* to serial execution
  (``serial_fallbacks`` + ``RuntimeWarning`` + trace degradation events) —
  never a silent wrong answer;
* spill temp directories are removed at interpreter shutdown even when an
  execution was abandoned mid-stream (the ``atexit`` registry).
"""

import gc
import glob
import os
import subprocess
import sys
import warnings
from unittest import mock

import pytest

from repro.algebra.relation import Relation, _join_plan
from repro.algebra.tuples import _project_plan
from repro.api import BackendConfig, Session, SessionError
from repro.engine import (
    SPILL_BLOCK_ROWS,
    SPILL_IO_RETRIES,
    EngineEvaluator,
    EngineFaultError,
    FaultInjector,
    FaultPlan,
    GraceHashJoin,
    InjectedFaultError,
    MemoryBudget,
    MemoryMeter,
    SpillFile,
    StreamingProject,
    TableScan,
)
from repro.engine import evaluator as evaluator_module
from repro.engine import spill as spill_module
from repro.engine.parallel import drain_metered, fork_available
from repro.expressions.ast import Operand, Projection
from repro.expressions.evaluator import evaluate
from repro.obs import ObserveConfig
from repro.perf import kernel_counters, reset_kernel_counters
from repro.perf.plancache import make_chain_kernel
from repro.reductions.rg import RGConstruction
from repro.workloads import growing_construction_family

import random


def _join_case(seed=11, rows=400):
    """A two-join projection whose spill keys split cleanly under a budget."""
    rng = random.Random(seed)
    r = Relation.from_rows(
        "A B", [(rng.randrange(30), i) for i in range(rows)], name="R"
    )
    s = Relation.from_rows(
        "B C", [(i, rng.randrange(30)) for i in range(rows)], name="S"
    )
    query = Projection(["A", "C"], Operand("R", "A B").join(Operand("S", "B C")))
    return query, {"R": r, "S": s}


class _Unpicklable:
    """A row value a forked probe worker cannot send back."""

    def __init__(self, value):
        self.value = value

    def __eq__(self, other):
        return isinstance(other, _Unpicklable) and other.value == self.value

    def __lt__(self, other):
        return self.value < other.value

    def __hash__(self):
        return hash(self.value)

    def __reduce__(self):
        raise TypeError("this value does not pickle")


def _unpicklable_case():
    """``_join_case`` with every ``A`` value wrapped so that no result row
    pickles: every pool fails to report, its one rebuild too, and only the
    serial fallback can answer."""
    query, bound = _join_case()
    rows = [(_Unpicklable(a), b) for a, b in bound["R"].rows]
    return query, {**bound, "R": Relation.from_rows("A B", rows, name="R")}


def _budget(tmp_path, rows=8):
    return MemoryBudget(rows=rows, spill_dir=str(tmp_path))


def _delta(before):
    return kernel_counters().delta_since(before)


class TestFaultPlan:
    def test_validates_one_based_positions(self):
        with pytest.raises(ValueError):
            FaultPlan(fail_spill_write_at=0)
        with pytest.raises(ValueError):
            FaultPlan(fail_spill_read_at=-1)
        with pytest.raises(ValueError):
            FaultPlan(spill_failures=0)

    def test_injects_anything(self):
        assert not FaultPlan().injects_anything
        assert FaultPlan(fail_spill_write_at=1).injects_anything
        assert FaultPlan(fail_spill_read_at=2).injects_anything
        assert FaultPlan(kill_worker=0).injects_anything

    def test_random_plan_is_replayable(self):
        plans = [FaultPlan.random_plan(random.Random(7)) for _ in range(10)]
        again = [FaultPlan.random_plan(random.Random(7)) for _ in range(10)]
        assert plans == again
        assert all(plan.injects_anything for plan in plans)

    def test_evaluator_rejects_non_plan(self):
        with pytest.raises(TypeError):
            EngineEvaluator(faults="chaos")

    def test_config_rejects_non_plan(self):
        with pytest.raises(SessionError):
            BackendConfig(faults=3)


class TestSpillFileRetry:
    def _spill(self, tmp_path, plan):
        return SpillFile(
            str(tmp_path / "fault.spill"), faults=FaultInjector(plan)
        )

    def test_transient_write_fault_is_retried(self, tmp_path):
        reset_kernel_counters()
        spill = self._spill(
            tmp_path, FaultPlan(fail_spill_write_at=1, spill_failures=1)
        )
        rows = [(i,) for i in range(SPILL_BLOCK_ROWS + 5)]
        for row in rows:
            spill.append(row)
        spill.finish()
        assert [row for block in spill.blocks() for row in block] == rows
        snapshot = kernel_counters().snapshot()
        assert snapshot["fault_injected"] >= 1
        assert snapshot["spill_retries"] >= 1
        spill.delete()

    def test_persistent_write_fault_raises_typed_error(self, tmp_path):
        spill = self._spill(
            tmp_path, FaultPlan(fail_spill_write_at=1, persistent=True)
        )
        for i in range(SPILL_BLOCK_ROWS - 1):
            spill.append((i,))
        with pytest.raises(EngineFaultError) as info:
            spill.finish()  # the first flush happens here and fails forever
        assert isinstance(info.value.__cause__, InjectedFaultError)
        spill.delete()
        assert not list(tmp_path.iterdir())

    def test_transient_read_fault_is_retried(self, tmp_path):
        spill = self._spill(
            tmp_path, FaultPlan(fail_spill_read_at=2, spill_failures=1)
        )
        rows = [(i,) for i in range(SPILL_BLOCK_ROWS * 2)]
        for row in rows:
            spill.append(row)
        spill.finish()
        assert [row for block in spill.blocks() for row in block] == rows
        spill.delete()

    def test_persistent_read_fault_raises_typed_error(self, tmp_path):
        spill = self._spill(
            tmp_path, FaultPlan(fail_spill_read_at=1, persistent=True)
        )
        spill.append((1,))
        spill.finish()
        with pytest.raises(EngineFaultError):
            list(spill.blocks())
        spill.delete()

    def test_retry_budget_bounds_the_attempts(self, tmp_path):
        # Exactly SPILL_IO_RETRIES - 1 failures: the last attempt succeeds.
        reset_kernel_counters()
        spill = self._spill(
            tmp_path,
            FaultPlan(fail_spill_write_at=1, spill_failures=SPILL_IO_RETRIES - 1),
        )
        for i in range(SPILL_BLOCK_ROWS):
            spill.append((i,))
        spill.finish()
        assert spill.rows == SPILL_BLOCK_ROWS
        assert kernel_counters().snapshot()["spill_retries"] == SPILL_IO_RETRIES - 1
        spill.delete()


class TestEvaluatorSpillFaults:
    def test_transient_fault_recovers_with_correct_result(self, tmp_path):
        query, bound = _join_case()
        expected = evaluate(query, bound)
        reset_kernel_counters()
        before = kernel_counters().snapshot()
        evaluator = EngineEvaluator(
            budget=_budget(tmp_path),
            faults=FaultPlan(fail_spill_write_at=2, spill_failures=1),
        )
        result, _ = evaluator.evaluate(query, bound)
        delta = _delta(before)
        assert result == expected
        assert delta["fault_injected"] >= 1
        assert delta["spill_retries"] >= 1
        assert delta["spill_overflows"] == 0
        assert not list(tmp_path.iterdir()), "spill files leaked"

    def test_persistent_fault_raises_typed_error_and_leaks_nothing(self, tmp_path):
        query, bound = _join_case()
        evaluator = EngineEvaluator(
            budget=_budget(tmp_path),
            faults=FaultPlan(fail_spill_write_at=1, persistent=True),
        )
        with pytest.raises(EngineFaultError):
            evaluator.evaluate(query, bound)
        assert not list(tmp_path.iterdir()), "spill files leaked"
        # The evaluator stays usable: a fresh, unfaulted evaluation of the
        # same query completes (no inherited state from the failure).
        clean = EngineEvaluator(budget=_budget(tmp_path))
        result, _ = clean.evaluate(query, bound)
        assert result == evaluate(query, bound)
        assert not list(tmp_path.iterdir())

    def test_read_fault_on_merge_raises_typed_error(self, tmp_path):
        query, bound = _join_case()
        evaluator = EngineEvaluator(
            budget=_budget(tmp_path),
            faults=FaultPlan(fail_spill_read_at=1, persistent=True),
        )
        with pytest.raises(EngineFaultError):
            evaluator.evaluate(query, bound)
        assert not list(tmp_path.iterdir()), "spill files leaked"

    @pytest.mark.parametrize("client", ["dedup", "grace"])
    def test_operator_meter_drains_to_zero_on_fault(self, tmp_path, client):
        # Direct operator check: the evaluator hides its meter, a bare
        # spilling operator does not — a mid-replay fault must balance it.
        rows = [(i % 7, i) for i in range(200)]
        relation = Relation.from_rows("A B", rows, name="R")
        budget = _budget(tmp_path, rows=16)
        injector = FaultInjector(FaultPlan(fail_spill_read_at=1, persistent=True))
        meter = MemoryMeter(budget.rows, faults=injector)
        scan = TableScan(relation, meter)
        if client == "dedup":
            plan = _project_plan(relation.scheme, relation.scheme)
            operator = StreamingProject(
                scan, plan.pick, plan.target_scheme, meter, budget=budget
            )
        else:
            other = Relation.from_rows("B C", [(i, -i) for i in range(200)], name="S")
            plan = _join_plan(relation.scheme, other.scheme)
            operator = GraceHashJoin(scan, TableScan(other, meter), plan, meter, budget)
            operator.fuse(make_chain_kernel([(False, plan)]))
        with pytest.raises(EngineFaultError):
            for _ in operator.blocks():
                pass
        assert meter.current == 0
        assert not list(tmp_path.iterdir()), "spill files leaked"


class TestWorkerKill:
    def test_a_pool_failing_twice_degrades_loudly_to_serial(self):
        if not fork_available():
            pytest.skip("fork start method unavailable on this platform")
        query, bound = _unpicklable_case()
        expected = evaluate(query, bound)
        reset_kernel_counters()
        before = kernel_counters().snapshot()
        evaluator = EngineEvaluator(workers=4)
        try:
            with pytest.warns(RuntimeWarning, match="degraded to serial"):
                result, trace = evaluator.evaluate(query, bound)
        finally:
            evaluator.close()
        delta = _delta(before)
        assert result == expected
        assert delta["serial_fallbacks"] == 1
        assert delta["pool_recoveries"] == 0
        assert trace.serial_fallbacks == 1
        assert trace.degradations and "serial-fallback" in trace.degradations[0]
        assert "does not pickle" in trace.degradations[0]

    def test_fork_worker_kill_recovers_via_pool_rebuild(self):
        if not fork_available():
            pytest.skip("fork start method unavailable on this platform")
        query, bound = _join_case()
        expected = evaluate(query, bound)
        reset_kernel_counters()
        before = kernel_counters().snapshot()
        evaluator = EngineEvaluator(workers=4, faults=FaultPlan(kill_worker=2))
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                result, trace = evaluator.evaluate(query, bound)
        finally:
            evaluator.close()
        delta = _delta(before)
        assert result == expected
        assert delta["pool_recoveries"] == 1
        assert delta["serial_fallbacks"] == 0
        assert trace.serial_fallbacks == 0

    def test_unfaulted_parallel_run_does_not_degrade(self):
        query, bound = _join_case()
        evaluator = EngineEvaluator(workers=4)
        reset_kernel_counters()
        before = kernel_counters().snapshot()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                result, trace = evaluator.evaluate(query, bound)
        finally:
            evaluator.close()
        assert result == evaluate(query, bound)
        assert _delta(before)["serial_fallbacks"] == 0
        assert trace.serial_fallbacks == 0
        assert trace.degradations == []


def _three_way_case(seed, rows=300, inner_dedup=False):
    """A three-way join whose joins all Grace-spill under a small budget
    when its plan was pinned against 1-row relations; with ``inner_dedup``
    the query projects ``R * S`` onto ``A, C`` under the join with ``T``,
    a deduplicating projection whose seen-set spills too."""
    rng = random.Random(seed)
    r = Relation.from_rows(
        "A B", [(rng.randint(0, 20), rng.randint(0, 8)) for _ in range(rows)], name="R"
    )
    s = Relation.from_rows(
        "B C", [(rng.randint(0, 8), rng.randint(0, 30)) for _ in range(rows)], name="S"
    )
    t = Relation.from_rows(
        "C D", [(rng.randint(0, 30), rng.randint(0, 5)) for _ in range(rows)], name="T"
    )
    inner = Operand("R", "A B").join(Operand("S", "B C"))
    if inner_dedup:
        inner = Projection(["A", "C"], inner)
    query = Projection(["A", "D"], inner.join(Operand("T", "C D")))
    return query, {"R": r, "S": s, "T": t}


def _tiny_bindings(bound):
    return {
        name: Relation.from_rows(
            relation.scheme, [tuple(1 for _ in relation.scheme.names)], name=name
        )
        for name, relation in bound.items()
    }


class TestPersistentFaultSweep:
    """A persistent spill fault at *every* position the evaluation has.

    The plan is pinned against one-row relations (every estimate ~1), so
    the evaluation Grace-spills nested joins and the swept positions land in
    every spilling client — including inside a child join suspended under a
    parent's routing loop (or under its re-reads of a small build, in the
    third case), and in the fourth a dedup's seen-set between the joins.
    Whatever the position, the outcome is the exact answer or the typed
    error, and nothing is left:
    checked while the error (and so its traceback) is still held and
    *without* a cyclic GC pass, because a cleanup that waits for either is
    a leak for as long as the handler or the collector takes.
    """

    #: Tier-1 sweeps this many positions at either end of a read sweep and
    #: about this many, evenly strided, in between.
    SWEEP_ENDS, SWEEP_STRIDED = 8, 40

    def _sweep(
        self,
        tmp_path,
        fault_field,
        modes,
        rows,
        budget_rows=64,
        every_position=True,
        inner_dedup=False,
        resplit=(),
    ):
        query, bound = _three_way_case(11, rows, inner_dedup)
        expected = evaluate(query, bound)
        meters = []

        class RecordedMeter(MemoryMeter):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                meters.append(self)

        def run(position):
            """One evaluation under a persistent fault from ``position`` on:
            ``(evaluator, result or None, the error still held or None)``."""
            evaluator = EngineEvaluator(
                budget=_budget(tmp_path, rows=budget_rows),
                faults=FaultPlan(persistent=True, **{fault_field: position}),
                observe=ObserveConfig(events=True),
            )
            evaluator.plan_for(query, _tiny_bindings(bound))
            del meters[:]
            try:
                result, _ = evaluator.evaluate(query, bound)
            except EngineFaultError as error:
                return evaluator, None, error
            return evaluator, result, None

        failed = 0
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            # The sweep is about where a fault lands, not how long the
            # retries wait before giving up.
            with mock.patch.object(
                evaluator_module, "MemoryMeter", RecordedMeter
            ), mock.patch.object(spill_module, "_SPILL_RETRY_BACKOFF", 0.0):
                # A fault that never comes due counts the evaluation's spill
                # operations: the sweep's ceiling is what this plan does, so
                # a plan that reads more is swept further, not failed.
                evaluator, result, _ = run(sys.maxsize)
                assert result == expected
                spills = evaluator.observer.events.events("spill")
                joins = [event for event in spills if event["operator"] == "grace-join"]
                assert {event["mode"] for event in joins} >= modes
                # The spilling clients the sweep must find re-splitting.
                assert {event["operator"] for event in spills if event["resplits"]} >= set(
                    resplit
                )
                counted = "_reads" if fault_field == "fail_spill_read_at" else "_writes"
                last = max(getattr(meter.faults, counted) for meter in meters if meter.faults)
                positions = range(1, last + 1)
                if not every_position:
                    ends = self.SWEEP_ENDS
                    stride = max(1, last // self.SWEEP_STRIDED)
                    positions = sorted(
                        {*positions[:ends], *positions[ends::stride], *positions[-ends:]}
                    )
                for position in positions:
                    _, result, held = run(position)  # held: a handler still looking
                    where = f"{fault_field}={position}"
                    assert not list(tmp_path.iterdir()), f"{where}: spill dir leaked"
                    assert not spill_module._ACTIVE_SPILL_DIRS, f"{where}: registry leaked"
                    if held is not None:
                        failed += 1
                        assert [meter.current for meter in meters] == [0] * len(meters), where
                    else:
                        assert result == expected, where
        finally:
            if gc_was_enabled:
                gc.enable()
        assert failed >= 10, "the case must spill enough to be worth sweeping"

    def test_write_fault_at_every_position(self, tmp_path):
        self._sweep(tmp_path, "fail_spill_write_at", {"partitioned"}, rows=300)

    def test_read_fault_at_every_position(self, tmp_path, full_fault_sweep):
        # A third of the rows under half the budget: the same clients, every
        # join still partitioning both sides, with fewer reads to land on —
        # still ~440 whole evaluations, so tier-1 sweeps both ends and a
        # stride between them and CI (--full-fault-sweep) every position.
        self._sweep(
            tmp_path,
            "fail_spill_read_at",
            {"partitioned"},
            rows=100,
            budget_rows=32,
            every_position=full_fault_sweep,
        )

    @pytest.mark.parametrize("fault_field", ["fail_spill_write_at", "fail_spill_read_at"])
    def test_fault_at_every_position_of_a_reread_join(
        self, tmp_path, fault_field, full_fault_sweep
    ):
        # 200 rows: one join partitions, another keeps its probe side
        # streaming and re-reads its small build per probe slice — ~600
        # reads, so tier-1 sweeps their ends and a stride, CI every one.
        self._sweep(
            tmp_path,
            fault_field,
            {"partitioned", "re-read"},
            rows=200,
            every_position=full_fault_sweep or fault_field == "fail_spill_write_at",
        )

    @pytest.mark.parametrize("fault_field", ["fail_spill_write_at", "fail_spill_read_at"])
    def test_fault_at_every_position_of_a_spilling_dedup(
        self, tmp_path, fault_field, full_fault_sweep
    ):
        # project[A, C] under the join with T: its seen-set spills and
        # re-splits, both joins re-split and fall back — every position of
        # the spill driver, from both clients.  Tier-1 sweeps the ends and
        # a stride, CI every position.
        self._sweep(
            tmp_path,
            fault_field,
            {"partitioned"},
            rows=100,
            budget_rows=16,
            every_position=full_fault_sweep,
            inner_dedup=True,
            resplit=("dedup", "grace-join"),
        )


class TestDrainFailure:
    """The drain's *own* statements can fail with the tree suspended under
    them (``MemoryError`` growing the result set, an interrupt, the sweep):
    the tree is closed there and then, not when the traceback is dropped —
    with the collector paused, nothing else would come for it."""

    # 64 is the ladder's budget (every join re-reads a small build: only
    # reservations are in flight); at 16 and 8 Grace directories are open
    # under the drain when it fails, at 8 the result arrives over many blocks.
    @pytest.mark.parametrize("budget_rows", [64, 16, 8])
    def test_a_failing_result_acquire_closes_the_suspended_tree(
        self, tmp_path, budget_rows
    ):
        construction = RGConstruction(
            growing_construction_family(clause_counts=(6,), seed=3)[0].formula
        )
        bound = {"R": construction.relation}
        meters = []
        due = [0]

        class FailingMeter(MemoryMeter):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                meters.append(self)

            def acquire(self, rows=1):
                if sys._getframe(1).f_code.co_name == "drain_metered":
                    due[0] -= 1
                    if due[0] == 0:
                        raise MemoryError("injected: growing the result set")
                super().acquire(rows)

        failed = 0
        with mock.patch.object(evaluator_module, "MemoryMeter", FailingMeter):
            for nth in (1, 2, 5):
                evaluator = EngineEvaluator(
                    budget=MemoryBudget(rows=budget_rows, spill_dir=str(tmp_path))
                )
                due[0] = nth
                try:
                    result, _ = evaluator.evaluate(construction.expression, bound)
                except MemoryError:  # checked while the traceback is held
                    failed += 1
                    assert meters[-1].current == 0, (nth, meters[-1].current)
                    assert not spill_module._ACTIVE_SPILL_DIRS, nth
                    assert not glob.glob(str(tmp_path / "repro-grace-*")), nth
                    assert gc.isenabled()
                else:
                    assert result == construction.expected_result()
        assert failed >= 1

    def test_a_cleanup_that_fails_too_does_not_replace_the_failure(self):
        """Closing the suspended tree can raise itself (a cleanup fault, a
        generator that answers ``close()`` with another block): the caller
        still sees what went wrong first, with the meter balanced."""

        class StubbornRoot:
            def blocks(self, sink=None):
                try:
                    yield [(1,)]
                    yield [(2,)]
                except GeneratorExit:
                    yield []  # close() turns this into a RuntimeError

        class FailingMeter(MemoryMeter):
            def acquire(self, rows=1):
                if self.current:
                    raise MemoryError("injected: growing the result set")
                super().acquire(rows)

        meter = FailingMeter()
        with pytest.raises(MemoryError, match="injected"):
            drain_metered(StubbornRoot(), meter)
        assert meter.current == 0
        assert gc.isenabled()


class TestSessionSurfacing:
    def test_serial_fallback_reaches_stats_and_unified_trace(self):
        if not fork_available():
            pytest.skip("fork start method unavailable on this platform")
        query, bound = _unpicklable_case()
        expected = evaluate(query, bound)
        with Session(bound, workers=4) as session:
            prepared = session.prepare(query)
            with pytest.warns(RuntimeWarning, match="degraded to serial"):
                result = prepared.execute()
            assert result.set_equal(expected)
            trace = prepared.last_trace()
            assert trace.serial_fallbacks == 1
            assert trace.degradations and "serial-fallback" in trace.degradations[0]
            assert trace.summary()["serial_fallbacks"] == 1.0
            assert session.stats()["serial_fallbacks"] == 1

    def test_clean_sessions_report_zero_fallbacks(self):
        query, bound = _join_case()
        with Session(bound, workers=2) as session:
            prepared = session.prepare(query)
            prepared.execute()
            assert session.stats()["serial_fallbacks"] == 0
            assert prepared.last_trace().serial_fallbacks == 0


class TestFaultEventCrossCheck:
    """Every in-process injected fault must produce a matching ``fault`` event.

    The chaos layer's no-silent-degradation contract extends to the
    observability layer: the ``fault_injected`` kernel-counter delta and
    the event log's ``fault`` count must agree for every in-process
    injection site (serial spill I/O).  Fork-pool children are excluded by
    construction — their counters merge back but their event logs die
    with the child process, so a killed probe worker shows in this
    process as the ``pool-rebuild`` event it caused.
    """

    def _events(self, observer):
        return observer.events

    def test_serial_spill_faults_match_fault_events(self, tmp_path):
        from repro.obs import ObserveConfig

        query, bound = _join_case()
        reset_kernel_counters()
        before = kernel_counters().snapshot()
        evaluator = EngineEvaluator(
            budget=_budget(tmp_path),
            faults=FaultPlan(fail_spill_write_at=2, spill_failures=2),
            observe=ObserveConfig(events=True),
        )
        result, _ = evaluator.evaluate(query, bound)
        assert result == evaluate(query, bound)
        delta = _delta(before)
        events = evaluator.observer.events
        assert delta["fault_injected"] >= 1
        assert len(events.events("fault")) == delta["fault_injected"]
        assert all(
            event["site"].startswith("spill-") for event in events.events("fault")
        )
        # Retries are events too: each spill_retries increment logged one.
        assert len(events.events("spill-retry")) == delta["spill_retries"]

    def test_persistent_fault_logs_every_injection_before_raising(self, tmp_path):
        from repro.obs import ObserveConfig

        query, bound = _join_case()
        reset_kernel_counters()
        before = kernel_counters().snapshot()
        evaluator = EngineEvaluator(
            budget=_budget(tmp_path),
            faults=FaultPlan(fail_spill_write_at=1, persistent=True),
            observe=ObserveConfig(events=True),
        )
        with pytest.raises(EngineFaultError):
            evaluator.evaluate(query, bound)
        delta = _delta(before)
        events = evaluator.observer.events
        assert delta["fault_injected"] >= 1
        assert len(events.events("fault")) == delta["fault_injected"]

    def test_fork_worker_kill_logs_a_pool_rebuild_event(self):
        if not fork_available():
            pytest.skip("fork start method unavailable on this platform")
        query, bound = _join_case()
        reset_kernel_counters()
        before = kernel_counters().snapshot()
        config = BackendConfig(
            workers=4, faults=FaultPlan(kill_worker=1), observe=True
        )
        with Session(bound, config=config) as session:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                session.prepare(query).execute()
            events = session.events()
            delta = _delta(before)
            assert delta["pool_recoveries"] == 1
            assert len(events.events("pool-rebuild")) == delta["pool_recoveries"]
            assert all(
                event["backend"] == "fork" for event in events.events("pool-rebuild")
            )
            assert len(events.events("fault")) == delta["fault_injected"]
            assert len(events.events("serial-fallback")) == delta["serial_fallbacks"] == 0

    def test_unfaulted_run_logs_no_fault_events(self, tmp_path):
        from repro.obs import ObserveConfig

        query, bound = _join_case()
        evaluator = EngineEvaluator(
            budget=_budget(tmp_path),
            observe=ObserveConfig(events=True),
        )
        evaluator.evaluate(query, bound)
        assert evaluator.observer.events.events("fault") == []


_SHUTDOWN_SCRIPT = """
import glob, os, sys
from repro.engine import MemoryBudget, MemoryMeter, SpillingSeenSet

spill_dir = sys.argv[1]
budget = MemoryBudget(rows=4, spill_fanout=2, spill_dir=spill_dir)
meter = MemoryMeter(budget.rows)

# An abandoned spilled seen-set: it switched to partition files, and close()
# is never called — only the atexit registry can remove its directory.
seen = SpillingSeenSet(meter, budget)
seen.filter_block([(i,) for i in range(50)])
assert seen.spilled, "the 50-row block must overflow the 4-row budget"
left = sorted(glob.glob(os.path.join(spill_dir, "*")))
assert left, "the spilled set must own a live temp directory"
print("LEFT-BEHIND:" + ";".join(left))
"""


class TestShutdownCleanup:
    def test_spill_dirs_are_removed_at_interpreter_shutdown(self, tmp_path):
        """Abandoned and faulted executions leave no temp dirs after exit:
        the ``atexit`` registry sweeps whatever a ``finally`` never reached."""
        env = dict(os.environ, PYTHONPATH="src")
        process = subprocess.run(
            [sys.executable, "-c", _SHUTDOWN_SCRIPT, str(tmp_path)],
            capture_output=True,
            text=True,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            timeout=120,
        )
        assert process.returncode == 0, process.stderr
        assert not list(tmp_path.iterdir()), (
            f"spill dirs survived interpreter shutdown: {list(tmp_path.iterdir())}\n"
            f"stdout: {process.stdout}"
        )

    def test_fault_cleanup_needs_no_shutdown(self, tmp_path):
        """The typed-error path cleans up immediately — shutdown is only the
        backstop for abandoned iterators."""
        query, bound = _join_case()
        evaluator = EngineEvaluator(
            budget=_budget(tmp_path),
            faults=FaultPlan(fail_spill_write_at=1, persistent=True),
        )
        with pytest.raises(EngineFaultError):
            evaluator.evaluate(query, bound)
        assert not glob.glob(str(tmp_path / "*"))
