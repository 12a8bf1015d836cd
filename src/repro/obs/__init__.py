"""Observability for the serving path: spans, metrics, events, exporters.

``repro.obs`` is the instrumentation tier that the engine, the
:class:`repro.api.Session` facade, and the networked serving tier report
into.  It is organised as four small layers:

``repro.obs.tracer``
    Span-based execution tracing.  A :class:`Tracer` wraps physical
    operators, the planner, spill I/O, and fault retries in start/stop
    spans and assembles them into a per-execution span tree (surfaced as
    ``EvaluationTrace.spans`` and rendered by
    ``PreparedQuery.explain_analyze()``).

``repro.obs.metrics``
    A registry of named counters, gauges, and fixed-bucket histograms,
    aggregated per :class:`~repro.api.Session` and process-wide,
    thread-safe under the same lock/fork-reset discipline as
    ``repro.perf.counters``.

``repro.obs.events``
    A structured event log: every spill, fault and spill retry
    becomes a timestamped dict, optionally appended to a
    JSON-Lines file as it happens.

``repro.obs.export``
    Renderers: Prometheus-style text exposition for a registry and
    JSON-Lines serialisation for event streams.

Tracing is pay-for-what-you-use: when disabled the hot path sees either
``None`` or the :data:`NULL_TRACER` no-op object, and the gated
``observability`` benchmark section holds the disabled overhead under
1.05x of an uninstrumented evaluator.
"""

from .config import Observer, ObserveConfig
from .events import EventLog
from .export import events_to_jsonl, merge_collected, render_prometheus
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    process_metrics,
)
from .tracer import NULL_TRACER, NullTracer, Span, Tracer, span_tree
from .analyze import ExplainAnalyzeReport, OperatorTiming, explain_report

__all__ = [
    "Counter",
    "EventLog",
    "ExplainAnalyzeReport",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "Observer",
    "ObserveConfig",
    "OperatorTiming",
    "Span",
    "Tracer",
    "events_to_jsonl",
    "explain_report",
    "merge_collected",
    "process_metrics",
    "render_prometheus",
    "span_tree",
]
