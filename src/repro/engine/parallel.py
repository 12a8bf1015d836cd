"""The parallel probe stage: one pinned plan, a partitioned probe scan, a pool.

PR 2's pinned plans were designed so a multi-worker evaluator can execute one
plan concurrently; this module is that evaluator's engine room.  ``count``
workers each instantiate the *same* :class:`~repro.engine.planner.PhysicalPlan`
with ``probe_slice=(index, count)``: every build table and seen-set is
built per worker from the full inputs, but the driving row source (the
leaf-most projection on the probe path, or the bare probe scan — see
:meth:`PlanNode.instantiate`) streams only the rows whose salted hash lands
on the worker's slice.  Probe rows flow through the operator cascade
independently, so the union of the workers' outputs is **set-equal** to the
serial execution.  Per-operator streamed cardinalities are aggregated
spine-aware by the evaluator: summed along the sliced probe spine (the
slices partition that stream), reported once for build-side subtrees that
every worker re-streams identically.

Workers are forked processes, pinned in a persistent
:class:`ForkProbePool`: the plan, bindings, and relations are inherited
copy-on-write (nothing is pickled on the way in — compiled plan artifacts
are closures and could not be), each worker runs its slice on its own core,
and only the result rows, counter deltas, and per-operator cardinalities
come back through a pipe (so result *values* must be picklable; a worker
that cannot pickle its rows reports the failure and the evaluator falls
back to serial).  Counter deltas are merged into this process's totals, and
each worker meters against its own budget — a memory budget is per
process.  Where :func:`fork_available` is false the evaluator runs every
plan serially instead.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Set, Tuple

from ..perf.counters import kernel_counters
from .faults import FaultPlan
from .physical import MemoryMeter, PhysicalOperator

__all__ = [
    "ForkProbePool",
    "ParallelExecutionError",
    "ParallelResult",
    "drain_metered",
    "fork_available",
    "operators_in_order",
]

_COUNTERS = kernel_counters()

#: Seconds between liveness checks while waiting for fork-worker results.
_POLL_SECONDS = 0.25

#: Result rows a drain accumulates between two young-generation sweeps: on
#: ``join_100k``'s 76k-91k-row results a sweep costs ~100 ns per row at 1,024
#: (a pass's fixed part shows), ~60 at 4,096, ~90 at 16,384 (rows gone cold).
SWEEP_ROWS = 4096


class ParallelExecutionError(RuntimeError):
    """A parallel execution could not complete (the caller should run serial)."""


@dataclass
class ParallelResult:
    """The merged outcome of one parallel plan execution."""

    rows: Set[tuple]
    #: Pool-wide peak of metered rows: the sum of the per-process peaks (the
    #: processes are concurrent, so their residencies add).
    peak_live_rows: int
    #: Largest hash-join build table resident in any single worker.
    build_peak_rows: int
    #: Per-operator streamed cardinalities summed across workers, in the
    #: same children-first order as :func:`operators_in_order`.  A faithful
    #: per-operator number only for the sliced probe spine; build-side
    #: subtrees stream identical data per worker — the evaluator's trace
    #: aggregation uses ``worker_step_rows`` plus the operator tree to
    #: report those once.
    step_rows: List[int]
    #: The raw per-worker step lists behind ``step_rows``.
    worker_step_rows: List[List[int]]
    workers: int


def operators_in_order(root: PhysicalOperator) -> List[PhysicalOperator]:
    """The operator tree children-first — the order traces record steps in."""
    ordered: List[PhysicalOperator] = []

    def visit(operator: PhysicalOperator) -> None:
        for child in operator.children():
            visit(child)
        ordered.append(operator)

    visit(root)
    return ordered


def fork_available() -> bool:
    """Whether this platform can fork: the one probe both worker pools ask."""
    return "fork" in multiprocessing.get_all_start_methods()


class _CollectorPause:
    """A re-entrant, process-wide pause of automatic cyclic collection.

    Concurrent drains (user threads sharing one evaluator or session) and
    nested ones share a depth count: the first entry disables, the last exit
    re-enables.  Entering returns whether it was on — a host's own
    ``gc.disable()`` is left so, and gets no sweeps.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._depth = 0
        self._resume = False

    def __enter__(self) -> bool:
        with self._lock:
            if self._depth == 0:
                self._resume = gc.isenabled()
                gc.disable()
            self._depth += 1
            return self._resume

    def __exit__(self, *exc_info) -> None:
        with self._lock:
            if self._depth:  # 0 only in a child forked from inside the block
                self._depth -= 1
                if self._depth == 0 and self._resume:
                    gc.enable()

    def after_fork_in_child(self) -> None:
        """The child has one thread and no drain: depth 0, pre-pause state."""
        if self._depth and self._resume:
            gc.enable()
        self.__init__()  # the lock too: a parent thread may have held it


_COLLECTOR_PAUSE = _CollectorPause()
if hasattr(os, "register_at_fork"):  # pragma: no branch - CPython >= 3.7
    os.register_at_fork(after_in_child=_COLLECTOR_PAUSE.after_fork_in_child)


def drain_metered(
    root: PhysicalOperator,
    meter: MemoryMeter,
    cap: Optional[int] = None,
    span: bool = False,
) -> Optional[Set[tuple]]:
    """Drain an operator tree into a set, metering the accumulated rows.

    The one drain of the engine — serial and parallel-worker executions
    both end here — so the growing result set is metered alongside
    operator state the same way everywhere and ``meter.peak`` stays
    comparable between them.  The set is offered to
    the root as its ``sink``: a root projection dedups straight into it
    (and yields empty blocks), so result rows are hashed once and resident
    once.

    Past ``cap`` rows the drain stops and returns ``None``; then, or when
    the tree or the drain itself raises (a fault, ``MemoryError``),
    the tree is closed and the partial rows' residency released.  ``span``
    wraps the drain in the trace's ``materialize`` span when the meter carries
    a tracer (an untraced drain opens no span at all).  Automatic collection
    is paused meanwhile (rule 7 of
    ``docs/ENGINE.md``): rows are freed by reference count, so one generation-0
    sweep per :data:`SWEEP_ROWS` result rows untracks the only survivors young.
    """
    if span and meter.tracer is not None and meter.tracer.enabled:
        with meter.tracer.span("materialize", "drain") as handle:
            rows = drain_metered(root, meter, cap)
            if rows is not None:
                handle.rows = len(rows)
        return rows
    rows: Set[tuple] = set()
    update = rows.update
    size = swept = 0
    blocks = root.blocks(rows)
    with _COLLECTOR_PAUSE as sweeping:
        try:
            block = next(blocks, None)
            while block is not None:
                update(block)
                grown = len(rows)
                if cap is not None and grown > cap:
                    blocks.close()
                    meter.release(size)
                    return None
                if grown != size:
                    meter.acquire(grown - size)
                    size = grown
                block = next(blocks, None)
                # After the pull: a stream that just ended is swept with its tree gone.
                if sweeping and size - swept >= SWEEP_ROWS:
                    gc.collect(0)
                    swept = size
        except BaseException as failure:
            # Now, not whenever the traceback is dropped: the suspended tree
            # holds spill files and reservations, and nothing collects here.
            try:
                blocks.close()
            finally:
                meter.release(size)
                raise failure  # never a cleanup's own error in its place
    return rows


def _merge(
    per_worker: List[Tuple[Set[tuple], List[int], int]],
) -> Tuple[Set[tuple], List[int], List[List[int]], int]:
    worker_steps = [list(steps) for _rows, steps, _peak in per_worker]
    return (
        set().union(*(rows for rows, _steps, _peak in per_worker)),
        [sum(column) for column in zip(*worker_steps)],
        worker_steps,
        max((peak for _rows, _steps, peak in per_worker), default=0),
    )


def _pool_worker(
    plan, bindings, budget_rows, index, count, connection, faults=None
) -> None:
    """One pinned worker: serve ``run`` requests over a pipe until closed.

    Forked from the parent, so the plan and bindings are inherited
    copy-on-write; each request re-executes the worker's slice with a fresh
    meter and sends back only the outcome (rows, peaks, per-operator
    cardinalities, counter deltas).  Pickling the rows is the one thing
    that can fail for exotic values — the error is reported so the parent
    can fall back to serial.

    ``faults`` (a :class:`~repro.engine.faults.FaultPlan`) can schedule this
    worker's death: it hard-exits mid-probe without reporting — the real
    shape of an OOM kill — so the parent's liveness polling, pool rebuild,
    and serial fallback are exercised end to end.
    """
    try:
        while True:
            try:
                command = connection.recv()
            except EOFError:
                break
            if command != "run":
                break
            if faults is not None and faults.kill_worker == index:
                os._exit(1)  # no report, no cleanup: a genuine worker death
            try:
                counters = kernel_counters()
                before = counters.snapshot()
                meter = MemoryMeter(budget_rows)
                operators: List[PhysicalOperator] = []
                root = plan.executor(bindings, meter, (index, count), operators)
                rows = drain_metered(root, meter)
                payload = (
                    "ok",
                    list(rows),
                    meter.peak,
                    max(operator.build_peak_rows for operator in operators),
                    [operator.rows_out for operator in operators],
                    counters.delta_since(before),
                )
                try:
                    connection.send(payload)
                except Exception as exc:  # e.g. unpicklable row values
                    connection.send(("error", f"{type(exc).__name__}: {exc}"))
            except BaseException as exc:
                connection.send(("error", f"{type(exc).__name__}: {exc}"))
    except BaseException:  # pragma: no cover - pipe torn down mid-send
        pass
    finally:
        connection.close()


class ForkProbePool:
    """A persistent pool of forked workers pinned to one (plan, bindings).

    Forking is the expensive part of the pool — the workers inherit
    the whole interpreter — so the pool forks **once** and re-executes its
    pinned plan on every :meth:`run`, which is what steady-state serving
    looks like (the evaluator caches one pool per bound plan).  Workers are
    daemons: an abandoned pool dies with the parent process; `close` is the
    polite path.
    """

    #: Seconds a worker may spend on one slice before the pool gives up.
    RUN_TIMEOUT = 300.0

    def __init__(
        self,
        plan,
        bindings: Mapping,
        workers: int,
        budget_rows: Optional[int],
        faults: Optional[FaultPlan] = None,
    ):
        context = multiprocessing.get_context("fork")
        self.workers = workers
        self._connections = []
        self._processes = []
        try:
            for index in range(workers):
                parent_end, child_end = context.Pipe()
                process = context.Process(
                    target=_pool_worker,
                    args=(plan, bindings, budget_rows, index, workers, child_end, faults),
                    daemon=True,
                )
                process.start()
                child_end.close()
                self._connections.append(parent_end)
                self._processes.append(process)
        except BaseException:
            self.close()
            raise

    def run(self) -> ParallelResult:
        """Execute the pinned plan once across the pool and merge results."""
        for connection in self._connections:
            try:
                connection.send("run")
            except (OSError, ValueError) as exc:
                raise ParallelExecutionError(f"parallel probe worker gone: {exc}")
        per_worker: List[Tuple[Set[tuple], List[int], int]] = []
        peak_sum = 0
        counter_totals: Dict[str, int] = {}
        for index, connection in enumerate(self._connections):
            deadline = time.monotonic() + self.RUN_TIMEOUT
            while not connection.poll(_POLL_SECONDS):
                if not self._processes[index].is_alive() and not connection.poll(0):
                    raise ParallelExecutionError(
                        "a parallel probe worker exited without reporting"
                    )
                if time.monotonic() > deadline:
                    raise ParallelExecutionError("parallel probe worker timed out")
            try:
                payload = connection.recv()
            except (EOFError, OSError) as exc:
                raise ParallelExecutionError(f"parallel probe worker died: {exc}")
            if payload[0] != "ok":
                raise ParallelExecutionError(
                    f"parallel probe worker failed: {payload[1]}"
                )
            _, rows, peak, build_peak, steps, counter_delta = payload
            per_worker.append((set(rows), steps, build_peak))
            peak_sum += peak
            for name, amount in counter_delta.items():
                counter_totals[name] = counter_totals.get(name, 0) + amount
        # Fold the workers' counter activity into this process's totals so
        # traces and benchmarks see spills/probes wherever they happened.
        _COUNTERS.add(
            **{name: amount for name, amount in counter_totals.items() if amount}
        )
        rows, step_totals, worker_steps, build_peak = _merge(per_worker)
        return ParallelResult(
            rows=rows,
            peak_live_rows=peak_sum,
            build_peak_rows=build_peak,
            step_rows=step_totals,
            worker_step_rows=worker_steps,
            workers=self.workers,
        )

    def close(self) -> None:
        """Shut the workers down (idempotent; also safe mid-construction)."""
        for connection in self._connections:
            try:
                connection.send("stop")
            except (OSError, ValueError):
                pass
            connection.close()
        for process in self._processes:
            process.join(timeout=2.0)
            if process.is_alive():  # pragma: no cover - defensive
                process.terminate()
        self._connections = []
        self._processes = []
