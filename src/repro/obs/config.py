"""Observation wiring: the ``ObserveConfig`` knob and runtime ``Observer``.

``BackendConfig(observe=...)`` accepts an :class:`ObserveConfig` (or
``True`` as shorthand for "everything on"); the :class:`Observer` is the
resolved runtime object a :class:`~repro.api.Session` or
``EngineEvaluator`` actually holds — it owns the event log and metrics
registry for its scope and mints per-execution tracers.
"""

from dataclasses import dataclass
from typing import Optional, Union

from .events import EventLog
from .metrics import MetricsRegistry, process_metrics
from .tracer import Tracer

__all__ = ["Observer", "ObserveConfig"]


@dataclass(frozen=True)
class ObserveConfig:
    """Declarative observability switches for a backend or session.

    ``trace``
        Mint a :class:`~repro.obs.tracer.Tracer` per execution and
        surface the span tree on ``EvaluationTrace.spans``.  Off by
        default: tracing is the one knob with measurable per-block cost
        (gated <= 1.25x; disabled cost gated <= 1.05x).
    ``events``
        Record spills and faults in an
        :class:`~repro.obs.events.EventLog`.
    ``events_path``
        Mirror events to this JSON-Lines file (implies ``events``).

    A :class:`~repro.obs.metrics.MetricsRegistry` (parented to the
    process-wide registry) is not a switch: every scope has one.
    """

    trace: bool = False
    events: bool = False
    events_path: Optional[str] = None

    @classmethod
    def coerce(
        cls, value: Union["ObserveConfig", bool, None]
    ) -> Optional["ObserveConfig"]:
        """Normalise ``observe=`` inputs: ``True`` means everything on."""
        if value is None or value is False:
            return None
        if value is True:
            return cls(trace=True, events=True)
        if isinstance(value, cls):
            return value
        raise TypeError(
            "observe must be an ObserveConfig, True, False, or None; got %r" % (value,)
        )


class Observer:
    """The runtime side of an :class:`ObserveConfig`.

    One observer belongs to one scope (a session, or one evaluator used
    directly); it is shared across executions in that scope so events
    and metrics accumulate, while :meth:`tracer` mints a fresh tracer
    per execution so span trees never interleave.
    """

    def __init__(self, config: ObserveConfig):
        self.config = config
        wants_events = config.events or config.events_path is not None
        #: Scope-wide event log, or ``None`` when events are off.
        self.events: Optional[EventLog] = (
            EventLog(path=config.events_path) if wants_events else None
        )
        #: Scope-wide registry (parented process-wide).
        self.metrics = MetricsRegistry(parent=process_metrics())

    @classmethod
    def coerce(
        cls, value: Union["Observer", ObserveConfig, bool, None]
    ) -> Optional["Observer"]:
        """Accept an existing observer, a config, ``True``, or nothing."""
        if isinstance(value, cls):
            return value
        config = ObserveConfig.coerce(value)
        return cls(config) if config is not None else None

    def tracer(self) -> Optional[Tracer]:
        """Return a fresh tracer when tracing is on, else ``None``."""
        return Tracer() if self.config.trace else None
