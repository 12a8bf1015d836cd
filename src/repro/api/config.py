"""Backend configuration for :class:`~repro.api.session.Session`.

One frozen dataclass holds every knob of the streaming engine a session
serves from: its memory budget, fault injection and observability.  A
session holds exactly one config.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Union

from ..engine.faults import FaultPlan
from ..engine.physical import MemoryBudget
from ..obs.config import Observer, ObserveConfig
from .errors import SessionError

__all__ = ["BackendConfig"]


@dataclass(frozen=True)
class BackendConfig:
    """Every knob of the engine a session serves from, in one place.

    ``budget``
        Row budget for the engine's state (int or
        :class:`~repro.engine.physical.MemoryBudget`); hash joins spill to
        Grace partitions when their build side would overflow it.
    ``faults``
        A :class:`~repro.engine.faults.FaultPlan` chaos schedule for the
        engine's spill I/O.  The engine either recovers (retries) or
        raises a typed
        :class:`~repro.engine.faults.EngineFaultError` — never a silent
        wrong answer.  ``None`` (the default) injects nothing.
    ``observe``
        An :class:`~repro.obs.ObserveConfig` (or ``True`` for everything
        on) attaching the observability layer: per-execution span
        tracing (``EvaluationTrace.spans``, ``explain_analyze()``), a
        structured event log of spills and faults, and a
        metrics registry (``Session.metrics()``).  With
        ``None`` (the default) the session still keeps a metrics
        registry, but no tracer or event log ever touches the engine's
        hot path.  A pre-built runtime :class:`~repro.obs.Observer` is
        accepted as-is, which is how the serving tier shares one event
        log and metrics registry across a worker's session cache.
    """

    budget: Union[MemoryBudget, int, None] = None
    faults: Optional[FaultPlan] = None
    observe: Union[Observer, ObserveConfig, bool, None] = None

    def __post_init__(self):
        """Validate the knob types; coerce the budget."""
        coerced = MemoryBudget.coerce(self.budget)
        if coerced is not self.budget:
            object.__setattr__(self, "budget", coerced)
        if self.faults is not None and not isinstance(self.faults, FaultPlan):
            raise SessionError(
                f"faults must be a FaultPlan or None, got {type(self.faults).__name__}"
            )
        if not isinstance(self.observe, Observer):
            try:
                observe = ObserveConfig.coerce(self.observe)
            except TypeError as error:
                raise SessionError(str(error)) from error
            if observe is not self.observe:
                object.__setattr__(self, "observe", observe)

    def override(self, **changes) -> "BackendConfig":
        """A copy with ``changes`` applied (validated like the constructor)."""
        return replace(self, **changes)

