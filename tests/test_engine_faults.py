"""Fault-injection tests: the engine's failure paths, reached on purpose.

`repro.engine.faults` makes the path ordinary tests never execute — spill
I/O failures — reachable deterministically, and this module pins its
contract:

* a *transient* spill failure (fewer consecutive failures than the retry
  budget) is absorbed by retry-with-backoff and the evaluation completes
  with the correct result, the retries and injections visible in counters;
* a *persistent* failure ends in a typed
  :class:`~repro.engine.faults.EngineFaultError` with the cleanup
  guarantees: no leaked spill files or temp dirs, the shared meter drained
  back to zero;
* spill temp directories are removed at interpreter shutdown even when an
  execution was abandoned mid-stream (the ``atexit`` registry).
"""

import gc
import glob
import os
import subprocess
import sys
from unittest import mock

import pytest

from repro.algebra.relation import Relation, _join_plan
from repro.algebra.tuples import _project_plan
from repro.api import BackendConfig, SessionError
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
from repro.engine.physical import drain_metered
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

    def test_random_plan_is_replayable(self):
        plans = [FaultPlan.random_plan(random.Random(7)) for _ in range(10)]
        again = [FaultPlan.random_plan(random.Random(7)) for _ in range(10)]
        assert plans == again
        assert all(plan.injects_anything for plan in plans)

    def test_random_plans_draw_every_spill_fault_shape_and_nothing_else(self):
        """The chaos axis is spill I/O only: each draw schedules exactly one
        write or read fault, transient or persistent, at positions 1-6."""
        rng = random.Random(20260730)
        plans = [FaultPlan.random_plan(rng) for _ in range(400)]
        shapes = set()
        for plan in plans:
            positions = (plan.fail_spill_write_at, plan.fail_spill_read_at)
            (position,) = [at for at in positions if at is not None]
            assert 1 <= position <= 6 and plan.spill_failures in (1, 2)
            shapes.add((plan.fail_spill_write_at is not None, plan.persistent))
        assert shapes == {(True, False), (True, True), (False, False), (False, True)}
        writes = sum(plan.fail_spill_write_at is not None for plan in plans)
        assert 0.5 < writes / len(plans) < 0.7  # three of the five shapes write

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


def _three_way_case(seed, rows=300, inner_dedup=False, keys=9):
    """A three-way join whose joins all Grace-spill under a small budget
    when its plan was pinned against 1-row relations; with ``inner_dedup``
    the query projects ``R * S`` onto ``A, C`` under the join with ``T``,
    a deduplicating projection whose seen-set spills too.  ``B`` takes
    ``keys`` values: at 2 a partition of ``R * S`` holds one heavy key."""
    rng = random.Random(seed)
    r = Relation.from_rows(
        "A B", [(rng.randint(0, 20), rng.randint(0, keys - 1)) for _ in range(rows)], name="R"
    )
    s = Relation.from_rows(
        "B C", [(rng.randint(0, keys - 1), rng.randint(0, 30)) for _ in range(rows)], name="S"
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


class TestResultIsNotBudgeted:
    """The budget bounds operator state, never the result accumulator: a
    result that grew past the budget used to refuse every spilled
    partition its load, so each fell back to chunks of one entry (135
    chunk passes on this case, ~2x its time)."""

    def test_a_large_result_leaves_the_spilled_joins_their_budget(self, tmp_path):
        query, bound = _three_way_case(11, 300)
        budget = 64
        evaluator = EngineEvaluator(budget=_budget(tmp_path, rows=budget))
        evaluator.plan_for(query, _tiny_bindings(bound))
        result, trace = evaluator.evaluate(query, bound)
        assert result == evaluate(query, bound)
        assert len(result) > budget  # the result alone outgrows the budget
        counters = trace.counters
        assert counters["join_spills"] > 0 and counters["spill_overflows"] == 0
        assert counters["join_chunk_passes"] == 0
        assert trace.peak_live_rows <= len(result) + budget


class TestPersistentFaultSweep:
    """A persistent spill fault at *every* position the evaluation has.

    The plan is pinned against one-row relations (every estimate ~1), so
    the evaluation Grace-spills nested joins and the swept positions land in
    every spilling client — including inside a child join suspended under a
    parent's routing loop (or under its re-reads of a small build, in the
    third case), in the fourth a dedup's seen-set between the joins, and
    in the fifth a join's chunked fallback.
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
        keys=9,
    ):
        query, bound = _three_way_case(11, rows, inner_dedup, keys)
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
                if keys == 2:  # the heavy key's partition cannot split
                    assert any(event["fallbacks"] for event in joins)
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
        # join still partitioning both sides, with fewer reads to land on
        # (55; 258 while the result was charged to the budget and every
        # partition fell back to chunks).  Tier-1 sweeps both ends and a
        # stride between them, CI (--full-fault-sweep) every position.
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
        # streaming and re-reads its small build per probe slice — 43
        # reads (529 with the chunked partitions); tier-1 sweeps their ends
        # and a stride, CI every one.
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
        # re-splits, both joins re-split — the spill driver's load and
        # re-split from both clients (the join's fallback: the next case).
        # Tier-1 sweeps the ends and a stride, CI every position.
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

    @pytest.mark.parametrize("fault_field", ["fail_spill_write_at", "fail_spill_read_at"])
    def test_fault_at_every_position_of_a_chunked_join(self, tmp_path, fault_field):
        # B takes two values, so a partition of R * S holds one key that no
        # salt splits: that join falls back to chunks (36 writes, 83 reads).
        # Since the result stopped counting against the budget, a spilled
        # partition that splits is loaded whole, so no other case here
        # reaches the fallback.
        self._sweep(
            tmp_path,
            fault_field,
            {"partitioned"},
            rows=60,
            budget_rows=16,
            resplit=("grace-join",),
            keys=2,
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

            def hold_result(self, rows):
                due[0] -= 1
                if due[0] == 0:
                    raise MemoryError("injected: growing the result set")
                super().hold_result(rows)

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
            def hold_result(self, rows):
                if self.current:
                    raise MemoryError("injected: growing the result set")
                super().hold_result(rows)

        meter = FailingMeter()
        with pytest.raises(MemoryError, match="injected"):
            drain_metered(StubbornRoot(), meter)
        assert meter.current == 0
        assert gc.isenabled()


class TestFaultEventCrossCheck:
    """Every in-process injected fault must produce a matching ``fault`` event.

    The chaos layer's no-silent-degradation contract extends to the
    observability layer: the ``fault_injected`` kernel-counter delta and
    the event log's ``fault`` count must agree for every in-process
    injection site (spill I/O).
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
