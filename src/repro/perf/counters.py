"""Lightweight counters instrumenting the positional algebra kernel.

The kernel (see :mod:`repro.algebra.relation` and ``docs/PERFORMANCE.md``)
compiles per-scheme-pair join plans and per-projection pick lists, then runs a
pure tuple-indexing inner loop.  These counters record how often plans are
compiled versus reused and how many tuples the trusted constructor produces,
so benchmarks and the instrumented evaluator can report kernel activity
alongside cardinalities.

Since the memory-budget PR the counters also cover the streaming engine's
spill machinery: how many hash joins switched to Grace (partitioned) mode,
how many partition files were created, how many rows were spilled, and how
often oversized partitions were re-partitioned or processed beyond the
budget.

Threading: the *materialising kernel*'s increments are deliberately plain
``+=`` — they sit on the hot path and must not pay for locking, so under
concurrent kernel use they are a measurement aid only.  The *engine* updates
its counters through :meth:`KernelCounters.add`, which takes a module lock:
engine increments happen at block/spill granularity (rare relative to row
work), and user threads may share one evaluator or session, so losslessness
there is part of the tested contract.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Dict, Tuple

__all__ = [
    "KernelCounters", "counter_delta", "counter_values", "kernel_counters",
    "reset_kernel_counters",
]

#: Guards :meth:`KernelCounters.add` (the engine's thread-safe update path).
_MUTATION_LOCK = threading.Lock()


def _reinitialize_lock_after_fork() -> None:
    """Replace the mutation lock in a freshly forked child.

    The engine's probe workers are forked from a process that may
    have other threads running; if one of them holds the lock at fork time
    the child inherits it locked with no owner, and the worker's first
    counter update would deadlock.  A brand-new lock in the child is always
    correct — the child starts with exactly one thread.
    """
    global _MUTATION_LOCK
    _MUTATION_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):  # pragma: no branch - CPython >= 3.7
    os.register_at_fork(after_in_child=_reinitialize_lock_after_fork)


@dataclass
class KernelCounters:
    """Running totals of kernel activity since the last reset."""

    join_plan_hits: int = 0
    join_plan_misses: int = 0
    project_plan_hits: int = 0
    project_plan_misses: int = 0
    trusted_tuples_built: int = 0
    join_probes: int = 0
    #: Hash joins that exceeded the memory budget and switched to Grace
    #: (partitioned, spill-to-disk) mode.
    join_spills: int = 0
    #: Spill partition files created (build and probe files both count).
    spill_partitions: int = 0
    #: Rows written to spill files (build entries plus probe rows).
    spill_rows: int = 0
    #: Oversized partitions that were re-partitioned with a fresh hash salt.
    spill_recursions: int = 0
    #: Spilled state whose distinct rows exceeded the budget even after
    #: re-salted splitting stopped making progress — the one overrun
    #: spilling cannot bound, surfaced instead of masked.  Zero on every
    #: differential-fuzz grid point (the bench robustness gate pins it).
    spill_overflows: int = 0
    #: Probe-partition passes made by the block-nested-loop fallback for
    #: unsplittable join partitions (one heavy key, keyless products): the
    #: build side is loaded in meter-sized chunks and the probe partition
    #: re-scanned once per chunk, trading disk reads for bounded memory.
    join_chunk_passes: int = 0
    #: Dedup seen-sets (projections, union/difference) that switched to
    #: partitioned spill mode.
    dedup_spills: int = 0
    #: Spill-file I/O operations retried after a (possibly injected)
    #: transient failure — each retry backs off before reattempting.
    spill_retries: int = 0
    #: Spill I/O faults injected by an active
    #: :class:`repro.engine.faults.FaultPlan` (a scheduled worker kill ends
    #: its forked worker uncounted and shows as ``pool_recoveries``).
    fault_injected: int = 0
    #: Fork-probe pools rebuilt successfully after a worker death — the
    #: recovery path that avoids degrading to serial execution.
    pool_recoveries: int = 0
    #: Parallel executions that degraded to serial after the pool and its
    #: one rebuild failed.  Always paired with a
    #: ``warnings.warn`` and a trace degradation event — never silent.
    serial_fallbacks: int = 0
    #: Base samples drawn for the sampling-based estimator: one per relation
    #: whose cached sample a measured (composite- or skewed-key) estimate
    #: first reads (``repro.engine.sampling.relation_sample``) — re-sampling
    #: after a relation invalidation shows up here.
    sample_builds: int = 0
    #: Joined samples whose rows were actually built during join ordering
    #: (candidates are scored by a count; only a surviving chain that gets
    #: extended builds rows) — the planner's cost, as a count.
    sample_joins: int = 0

    def snapshot(self) -> Dict[str, int]:
        """Return the counters as a plain dict (for traces and JSON output)."""
        return dict(zip(_NAMES, _VALUES(self)))

    def delta_since(self, earlier: Dict[str, int]) -> Dict[str, int]:
        """Return the per-counter increase since an earlier :meth:`snapshot`.

        Tolerates snapshots from other counter generations: names present in
        ``earlier`` but unknown to this dataclass (e.g. a counter that was
        since renamed or removed, or a snapshot persisted by a newer build)
        are **dropped**, and names missing from ``earlier`` are treated as 0.
        The result's keys are therefore always exactly this dataclass's
        fields — callers can rely on the shape regardless of where the
        snapshot came from.
        """
        get = earlier.get
        return {name: value - get(name, 0) for name, value in zip(_NAMES, _VALUES(self))}

    def add(self, **amounts: int) -> None:
        """Atomically add ``amounts`` to the named counters (engine path).

        Unlike the kernel's raw ``+=``, this holds a lock so concurrent
        engine workers (the parallel probe stage, multi-threaded evaluators)
        never lose updates.  Call it at block/spill granularity, not per row.
        """
        with _MUTATION_LOCK:
            for name, amount in amounts.items():
                setattr(self, name, getattr(self, name) + amount)

    def reset(self) -> None:
        """Zero every counter."""
        with _MUTATION_LOCK:
            for f in fields(self):
                setattr(self, f.name, 0)


#: The counter names, and one C-level read of all of them (every span reads
#: them twice).
_NAMES = tuple(f.name for f in fields(KernelCounters))
_VALUES = attrgetter(*_NAMES)
#: ``counter_values(counters)``: the counters as a tuple, the cheap snapshot
#: an execution takes (see :func:`counter_delta`).
counter_values = _VALUES

_COUNTERS = KernelCounters()


def counter_delta(before: Tuple[int, ...]) -> Dict[str, int]:
    """The process-global counters' increase since ``before`` (their
    :data:`counter_values`), as :meth:`KernelCounters.delta_since` reports
    it; a run that moved none of them gets zeros without a subtraction."""
    after = _VALUES(_COUNTERS)
    if after == before:
        return dict.fromkeys(_NAMES, 0)
    return {name: now - then for name, now, then in zip(_NAMES, after, before)}


def kernel_counters() -> KernelCounters:
    """Return the process-global kernel counters."""
    return _COUNTERS


def reset_kernel_counters() -> None:
    """Zero the process-global kernel counters."""
    _COUNTERS.reset()
