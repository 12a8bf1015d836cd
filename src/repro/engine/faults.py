"""Deterministic fault injection for the streaming engine.

The engine's failure path — spill-file I/O — is exactly the path ordinary
tests never reach, because it only fires under disk misbehaviour.  This
module makes it reachable on purpose:

* :class:`FaultPlan` is a frozen, seedable description of *which* faults to
  inject (fail the Nth spill write/read).
  It is threaded through :class:`~repro.api.config.BackendConfig` and
  :class:`~repro.engine.evaluator.EngineEvaluator` like any other knob, so
  a whole serving stack can run under a chaos schedule.
* :class:`FaultInjector` is the per-evaluation stateful counterpart: it
  counts spill I/O operations and raises :class:`InjectedFaultError` (an
  ``OSError``, so the engine's retry machinery treats it exactly like a
  real disk error) at the scheduled points.  One injector per evaluation
  keeps the schedule deterministic — "the 3rd spill write fails" means the
  same write every run.
* :class:`EngineFaultError` is the typed failure every recovery path is
  allowed to end in.  Its contract (pinned by ``tests/test_engine_faults.py``)
  is that raising it leaks nothing: spill temp dirs are removed, the shared
  meter is drained back to zero, and the fault shows up in the counters
  (``fault_injected``, ``spill_retries``).

The injection surface is intentionally the *real* code path: the injector
raises from inside :class:`~repro.engine.spill.SpillFile`'s retried write/read
attempts, so a test that passes under injection is evidence about the
production retry/cleanup logic, not about a parallel test-only
implementation.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from typing import Optional

__all__ = [
    "EngineFaultError",
    "FaultPlan",
    "FaultInjector",
    "InjectedFaultError",
]


class EngineFaultError(RuntimeError):
    """A fault (injected or real) exhausted the engine's recovery budget.

    Raised instead of silently degrading when bounded retries cannot mask a
    spill I/O failure.  The raising path guarantees cleanup: every spill
    temp directory is removed, the shared :class:`~repro.engine.physical.
    MemoryMeter` is drained to zero, and the failure is recorded in the
    kernel counters — callers can therefore retry the whole evaluation
    without inheriting leaked state.
    """


class InjectedFaultError(OSError):
    """The error an injector raises at a scheduled fault point.

    Subclasses ``OSError`` so the engine's spill retry/backoff loop handles
    an injected fault exactly like a real disk error — the injection tests
    exercise the production recovery code, not a test-only branch.
    """


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic, seedable schedule of faults to inject.

    ``fail_spill_write_at`` / ``fail_spill_read_at``
        1-based index of the spill-file write (pickle-frame flush or file
        open) or read (frame load or open-for-read) that starts failing,
        counted per evaluation.  ``None`` injects nothing on that path.
    ``spill_failures``
        How many consecutive operations fail from that point on.  Fewer
        failures than the engine's retry budget (see
        ``spill.SPILL_IO_RETRIES``) model a *transient* fault the retry
        loop recovers from; more model a persistent one that ends in a
        typed :class:`EngineFaultError`.
    ``persistent``
        ``True`` makes every scheduled spill I/O fail forever (retries can
        never succeed), regardless of ``spill_failures``.
    ``seed``
        Identifies the plan (e.g. the chaos-fuzz case it was drawn for);
        carried for reproducibility reporting, not consumed at runtime.
    """

    seed: int = 0
    fail_spill_write_at: Optional[int] = None
    fail_spill_read_at: Optional[int] = None
    spill_failures: int = 1
    persistent: bool = False

    def __post_init__(self) -> None:
        """Validate the schedule's knobs."""
        for name in ("fail_spill_write_at", "fail_spill_read_at"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} is 1-based, got {value}")
        if self.spill_failures < 1:
            raise ValueError(
                f"spill_failures must be >= 1, got {self.spill_failures}"
            )

    @property
    def injects_anything(self) -> bool:
        """Whether this plan schedules at least one fault."""
        return self.fail_spill_write_at is not None or self.fail_spill_read_at is not None

    @classmethod
    def random_plan(cls, rng: random.Random) -> "FaultPlan":
        """Draw a random plan for the chaos-fuzz axis (seedable via ``rng``).

        Two in five draws are transient spill-write faults, the rest a
        transient spill read, a persistent write or a persistent read —
        every draw is replayable from the rng seed recorded in the plan.
        """
        seed = rng.randrange(1 << 30)
        shape = rng.choice(("write", "write", "read", "write-hard", "read-hard"))
        kwargs = {
            "seed": seed,
            "spill_failures": rng.randint(1, 2),
            "persistent": shape.endswith("-hard"),
        }
        position = rng.randint(1, 6)
        if shape.startswith("write"):
            kwargs["fail_spill_write_at"] = position
        else:
            kwargs["fail_spill_read_at"] = position
        return cls(**kwargs)


class FaultInjector:
    """Per-evaluation fault state: counts I/O operations, raises on schedule.

    Thread-safe, so operators metering one evaluation from several threads
    would still count every I/O once.  Each scheduled injection increments the
    ``fault_injected`` kernel counter before raising
    :class:`InjectedFaultError`, so traces show exactly how many faults an
    evaluation absorbed.  When an :class:`repro.obs.events.EventLog` is
    attached (``events``), every injection additionally emits a ``fault``
    event — the chaos harness cross-checks that the in-process
    ``fault_injected`` delta and the ``fault`` event count agree.
    """

    def __init__(self, plan: FaultPlan, events: Optional[object] = None):
        self.plan = plan
        self.events = events
        self._writes = 0
        self._reads = 0
        self._write_failures_left = plan.spill_failures
        self._read_failures_left = plan.spill_failures
        self._lock = threading.Lock()

    def _fire(self, kind: str) -> None:
        from ..perf.counters import kernel_counters

        kernel_counters().add(fault_injected=1)
        if self.events is not None:
            self.events.emit("fault", site=f"spill-{kind}")
        raise InjectedFaultError(f"injected spill {kind} fault ({self.plan!r})")

    def on_spill_write(self) -> None:
        """Called before each spill write; raises at the scheduled points."""
        at = self.plan.fail_spill_write_at
        if at is None:
            return
        with self._lock:
            self._writes += 1
            due = self._writes >= at and (
                self.plan.persistent or self._write_failures_left > 0
            )
            if due and not self.plan.persistent:
                self._write_failures_left -= 1
        if due:
            self._fire("write")

    def on_spill_read(self) -> None:
        """Called before each spill read; raises at the scheduled points."""
        at = self.plan.fail_spill_read_at
        if at is None:
            return
        with self._lock:
            self._reads += 1
            due = self._reads >= at and (
                self.plan.persistent or self._read_failures_left > 0
            )
            if due and not self.plan.persistent:
                self._read_failures_left -= 1
        if due:
            self._fire("read")
