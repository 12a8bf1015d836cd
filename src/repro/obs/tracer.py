"""Span-based execution tracing for the engine's physical plans.

A :class:`Tracer` records *spans*: named, timed slices of one execution
(``plan``, ``operator``, ``build``, ``spill-write``, ``spill-read``,
``fault-retry``, ``materialize`` …), each
carrying wall-clock seconds, a row count, and the kernel-counter deltas
that accrued while it was open: the process-global counters plus the
execute's own, which its operators count on until the execute folds them
in (``Tracer.counts``).  Spans form a tree: each records the
span that was innermost on the same thread when it started, and
:func:`span_tree` reassembles the parent/child structure afterwards.

Operator spans are produced by :meth:`Tracer.operator_stream`, a thin
generator wrapper installed by ``PhysicalOperator.blocks()`` that times
every ``next()`` call on the underlying block stream.  The measured time
is *inclusive* — a join's span covers the scans it pulls from — exactly
like the ``EXPLAIN ANALYZE`` output of a conventional engine; the
analyze layer (:mod:`repro.obs.analyze`) derives self-time by
subtracting child spans.

Tracing is pay-for-what-you-use.  A disabled tracer is either ``None``
on ``MemoryMeter.tracer`` or the shared :data:`NULL_TRACER` no-op
object; both cost one attribute check per operator and nothing per
block.  The ``observability`` benchmark section gates the disabled
overhead at <= 1.05x an uninstrumented run.
"""

import itertools
import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from ..perf.counters import COUNTER_NAMES, combined_values

__all__ = [
    "MAX_SPANS",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "span_tree",
]

#: Hard cap on retained spans per tracer; pathological spill storms at
#: tiny budgets can emit one span per spill frame, and an unbounded list
#: would turn the observability layer into its own memory hazard.
MAX_SPANS = 50_000


@dataclass
class Span:
    """One timed slice of an execution.

    ``start`` is seconds since the owning tracer's epoch (its creation
    time), so spans within one trace are directly comparable.
    ``counters`` holds only the kernel counters that changed while the
    span was open (inclusive of nested spans, like ``seconds``): the
    process-global ones plus the execute's own, so on one thread a span
    sees exactly its execute's work, and under threads other executes'
    folded counts may show in it too.
    """

    span_id: int
    parent_id: Optional[int]
    kind: str
    label: str
    start: float
    seconds: float
    rows: int = 0
    counters: Dict[str, int] = field(default_factory=dict)

    def summary(self) -> Dict[str, Any]:
        """Return the span as a plain JSON-serialisable dict."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "kind": self.kind,
            "label": self.label,
            "start": self.start,
            "seconds": self.seconds,
            "rows": self.rows,
            "counters": dict(self.counters),
        }


class _SpanHandle:
    """Mutable in-flight span state; becomes a :class:`Span` on close."""

    __slots__ = ("tracer", "span_id", "parent_id", "kind", "label", "start",
                 "rows", "_before", "_t0")

    def __init__(self, tracer, span_id, parent_id, kind, label, start, before, t0):
        self.tracer = tracer
        self.span_id = span_id
        self.parent_id = parent_id
        self.kind = kind
        self.label = label
        self.start = start
        self.rows = 0
        self._before = before
        self._t0 = t0

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.tracer._close(self, perf_counter() - self._t0)
        return False


class Tracer:
    """Collects spans for one execution into a per-thread nested tree.

    One tracer instance belongs to one ``evaluate()`` call; it travels to
    every operator and spill file through ``MemoryMeter.tracer`` exactly
    as fault injectors travel through ``MemoryMeter.faults``.  All
    methods are thread-safe; spans opened on other threads simply root
    their own subtrees.
    """

    #: Checked by hot call sites before paying for any wrapping.
    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._epoch = perf_counter()
        #: Spans discarded after :data:`MAX_SPANS` was reached.
        self.dropped = 0
        #: The execute's own counts (its meter's), set by the evaluator
        #: before the drain: read beside the process-global counters.
        self.counts = None

    # -- span lifecycle -------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, kind: str, label: str) -> _SpanHandle:
        t0 = perf_counter()
        stack = self._stack()
        parent = stack[-1] if stack else None
        handle = _SpanHandle(
            tracer=self,
            span_id=next(self._ids),
            parent_id=parent,
            kind=kind,
            label=label,
            start=t0 - self._epoch,
            before=combined_values(self.counts),
            t0=t0,
        )
        stack.append(handle.span_id)
        return handle

    def _close(self, handle: _SpanHandle, seconds: float) -> None:
        stack = self._stack()
        if handle.span_id in stack:  # tolerate out-of-order unwinding
            stack.remove(handle.span_id)
        after = combined_values(self.counts)
        span = Span(
            span_id=handle.span_id,
            parent_id=handle.parent_id,
            kind=handle.kind,
            label=handle.label,
            start=handle.start,
            seconds=seconds,
            rows=handle.rows,
            counters={
                name: now - then
                for name, now, then in zip(COUNTER_NAMES, after, handle._before)
                if now != then
            },
        )
        with self._lock:
            if len(self._spans) < MAX_SPANS:
                self._spans.append(span)
            else:
                self.dropped += 1

    def span(self, kind: str, label: str = "") -> _SpanHandle:
        """Open a span as a context manager: ``with tracer.span(...) as s``.

        The handle's ``rows`` attribute may be assigned inside the block
        and is copied onto the finished :class:`Span`.
        """
        return self._open(kind, label)

    def stream(
        self,
        kind: str,
        label: str,
        blocks: Iterator[List[tuple]],
        rows: Optional[Any] = None,
        final_label: Optional[Any] = None,
    ) -> Iterator[List[tuple]]:
        """Wrap a block stream in one timed span of ``kind``.

        The span opens lazily on the first ``next()`` (so its parent is
        whichever span is actually pulling) and accumulates only time
        spent *inside* the underlying generator — time the consumer
        holds the block does not count.  ``rows`` is an optional
        zero-argument callable evaluated at close for the span's row
        count, ``final_label`` one for a label that reports how the run
        went (a join that spilled says which way).
        """
        handle = None
        inclusive = 0.0
        try:
            while True:
                t0 = perf_counter()
                if handle is None:
                    handle = self._open(kind, label)
                try:
                    block = next(blocks)
                except StopIteration:
                    inclusive += perf_counter() - t0
                    return
                inclusive += perf_counter() - t0
                yield block
        finally:
            close = getattr(blocks, "close", None)
            if close is not None:
                close()  # children unwind first, so their spans nest correctly
            if handle is not None:
                if rows is not None:
                    handle.rows = rows()
                if final_label is not None:
                    handle.label = final_label()
                self._close(handle, inclusive)

    def operator_stream(
        self, operator: Any, blocks: Iterator[List[tuple]]
    ) -> Iterator[List[tuple]]:
        """Wrap an operator's block stream in a timed ``operator`` span."""
        return self.stream(
            "operator",
            operator.label(),
            blocks,
            rows=lambda: getattr(operator, "rows_out", 0),
            final_label=operator.label,
        )

    # -- results --------------------------------------------------------

    def finish(self) -> List[Span]:
        """Return all closed spans, ordered by start time."""
        with self._lock:
            spans = sorted(self._spans, key=lambda span: (span.start, span.span_id))
        return spans


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    Call sites that want an always-present object (rather than an
    ``is None`` check) use the shared :data:`NULL_TRACER` instance; its
    class-level ``enabled = False`` is the single branch hot paths pay.
    """

    enabled = False
    dropped = 0

    def span(self, kind: str, label: str = "") -> "NullTracer":
        """Return ``self`` as a no-op context manager."""
        return self

    def stream(self, kind: str, label: str, blocks: Iterator, rows=None) -> Iterator:
        """Return the block stream untouched."""
        return blocks

    def operator_stream(self, operator: Any, blocks: Iterator) -> Iterator:
        """Return the block stream untouched."""
        return blocks

    def finish(self) -> List[Span]:
        """Return an empty span list."""
        return []

    def __enter__(self) -> "NullTracer":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    @property
    def rows(self) -> int:
        """Row count stub so ``with tracer.span(...) as s: s.rows = n`` works."""
        return 0

    @rows.setter
    def rows(self, value: int) -> None:
        pass


#: Shared no-op tracer for call sites that prefer an object over ``None``.
NULL_TRACER = NullTracer()


def span_tree(
    spans: Iterable[Span],
) -> Tuple[List[Span], Dict[Optional[int], List[Span]]]:
    """Assemble ``(roots, children)`` from a flat span list.

    ``children`` maps a span id to its child spans (ordered by start);
    spans whose parent was never closed (e.g. dropped past
    :data:`MAX_SPANS`) are promoted to roots rather than lost.
    """
    spans = sorted(spans, key=lambda span: (span.start, span.span_id))
    by_id = {span.span_id: span for span in spans}
    roots: List[Span] = []
    children: Dict[Optional[int], List[Span]] = {}
    for span in spans:
        if span.parent_id is not None and span.parent_id in by_id:
            children.setdefault(span.parent_id, []).append(span)
        else:
            roots.append(span)
    return roots, children
