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
concurrent kernel use they are a measurement aid only.  The *engine* counts
per execute: its operators, spill files and fault injector add with plain
``+=`` to their meter's ``counts``, a :class:`KernelCounters` of the
execute's own, and the execute folds the nonzero ones into the
process-global counters under one lock (:func:`fold_counts`).  User threads
may share one evaluator or session, so losslessness there, and a trace that
reports its own execute's counts only, are part of the tested contract.  A
meter built bare (tests, tools driving operators by hand) counts onto the
process-global counters directly, as the kernel does.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, fields
from operator import add, attrgetter
from typing import Dict, Optional, Tuple

__all__ = [
    "COUNTER_NAMES", "KernelCounters", "combined_values", "counter_values", "fold_counts",
    "kernel_counters", "reset_kernel_counters",
]

#: Guards :meth:`KernelCounters.add` (the engine's thread-safe update path).
_MUTATION_LOCK = threading.Lock()


def _reinitialize_lock_after_fork() -> None:
    """Replace the mutation lock in a freshly forked child.

    Server workers are forked from a process that may
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
    #: :class:`repro.engine.faults.FaultPlan`.
    fault_injected: int = 0
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
        threads (multi-threaded evaluators and sessions) never lose updates.  Call it at block/spill granularity, not per row.
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
_NAMES = COUNTER_NAMES = tuple(f.name for f in fields(KernelCounters))
_VALUES = attrgetter(*_NAMES)
#: ``counter_values(counters)``: the counters as a tuple, in
#: :data:`COUNTER_NAMES` order (see :func:`fold_counts`).
counter_values = _VALUES

_COUNTERS = KernelCounters()

#: What an execute that counted nothing reports (copied, never handed out).
_ZEROS = (0,) * len(_NAMES)
_ZERO_COUNTS = dict.fromkeys(_NAMES, 0)


def fold_counts(own: KernelCounters) -> Dict[str, int]:
    """Move an execute's own counts into the process-global counters.

    The nonzero ones are added under one acquisition of the mutation lock
    and ``own`` is left zeroed for the next execute; the return value is
    what was moved, every counter named.  An execute that counted nothing
    takes no lock.
    """
    values = _VALUES(own)
    if values == _ZEROS:
        return _ZERO_COUNTS.copy()
    moved = [(name, value) for name, value in zip(_NAMES, values) if value]
    with _MUTATION_LOCK:
        for name, value in moved:
            setattr(_COUNTERS, name, getattr(_COUNTERS, name) + value)
    for name, _ in moved:
        setattr(own, name, 0)
    return dict(zip(_NAMES, values))


def combined_values(own: Optional[KernelCounters]) -> Tuple[int, ...]:
    """The process-global counters plus ``own`` (an execute's counts not
    yet folded), as :data:`counter_values` reads them: what a span's
    counter delta is taken over, so it is unchanged by the fold."""
    now = _VALUES(_COUNTERS)
    if own is None or own is _COUNTERS:
        return now
    return tuple(map(add, now, _VALUES(own)))


def kernel_counters() -> KernelCounters:
    """Return the process-global kernel counters."""
    return _COUNTERS


def reset_kernel_counters() -> None:
    """Zero the process-global kernel counters."""
    _COUNTERS.reset()
