"""Named counters, gauges, and fixed-bucket histograms.

The registry mirrors the shape of a Prometheus client but stays inside
the baked-in toolchain: a :class:`MetricsRegistry` hands out named
instruments, a per-:class:`~repro.api.Session` registry propagates every
observation to the process-wide registry (:func:`process_metrics`), and
:func:`repro.obs.export.render_prometheus` serialises either one.

Histograms use *fixed buckets* so latency and q-error get per-window
p50/p95 estimates instead of the reset-only high-water mark that
``qerror_max_milli`` offers: callers snapshot a histogram, let traffic
flow, and summarise the delta.  ``count``/``sum``/``max`` are exact;
percentiles are bucket-upper-bound estimates (the standard Prometheus
trade-off).

Thread-safety follows the ``repro.perf.counters`` discipline: one module
lock guards every mutation, and ``os.register_at_fork`` reinstalls a
fresh lock in forked children so a fork taken while the lock is held
cannot deadlock the child.  One acquisition updates an instrument and its
ancestors — or, through :func:`record`, several instruments.
"""

import math
import os
import threading
from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_QERROR_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "process_metrics",
    "record",
]

#: Latency buckets in seconds, Prometheus-style powers-of-ten ladder.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: q-error buckets (dimensionless ratios >= 1.0).
DEFAULT_QERROR_BUCKETS: Tuple[float, ...] = (
    1.0, 1.25, 1.5, 2.0, 3.0, 5.0, 10.0, 25.0, 100.0, 1000.0,
)

_MUTATION_LOCK = threading.Lock()


def _reinitialize_lock_after_fork() -> None:
    """Replace the module lock in fork children (may be held mid-fork)."""
    global _MUTATION_LOCK
    _MUTATION_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):  # pragma: no branch
    os.register_at_fork(after_in_child=_reinitialize_lock_after_fork)


class Counter:
    """A monotonically increasing named value."""

    __slots__ = ("name", "help", "value", "_chain")

    def __init__(self, name: str, help: str = "", parent: Optional["Counter"] = None):
        self.name = name
        self.help = help
        self.value = 0
        self._chain = (self,) + (parent._chain if parent is not None else ())

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        record(increments=((self, amount),))

    def collect(self) -> Dict[str, Any]:
        """Return ``{"type", "help", "value"}`` for exporters."""
        return {"type": "counter", "help": self.help, "value": self.value}


class Gauge:
    """A named value that can go up and down (last write wins)."""

    __slots__ = ("name", "help", "value", "_chain")

    def __init__(self, name: str, help: str = "", parent: Optional["Gauge"] = None):
        self.name = name
        self.help = help
        self.value = 0.0
        self._chain = (self,) + (parent._chain if parent is not None else ())

    def set(self, value: float) -> None:
        """Set the gauge to ``value``."""
        record(assignments=((self, value),))

    def collect(self) -> Dict[str, Any]:
        """Return ``{"type", "help", "value"}`` for exporters."""
        return {"type": "gauge", "help": self.help, "value": self.value}


class Histogram:
    """A fixed-bucket histogram with exact count/sum/max.

    ``buckets`` are inclusive upper bounds; an implicit ``+Inf`` bucket
    catches the tail.  ``observe`` is thread-safe and O(log buckets).
    Percentiles come from bucket upper bounds; per-window views come
    from :meth:`snapshot` + :meth:`summary_since`.
    """

    __slots__ = ("name", "help", "buckets", "bucket_counts", "count", "sum",
                 "max", "_chain")

    def __init__(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        help: str = "",
        parent: Optional["Histogram"] = None,
    ):
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("histogram buckets must be a sorted non-empty sequence")
        self.name = name
        self.help = help
        self.buckets = tuple(float(bound) for bound in buckets)
        self.bucket_counts = [0] * (len(self.buckets) + 1)  # +Inf tail
        self.count = 0
        self.sum = 0.0
        self.max = 0.0
        # Its ancestors have its buckets (the registry checks): one index serves.
        self._chain = (self,) + (parent._chain if parent is not None else ())

    def observe(self, value: float) -> None:
        """Record one observation."""
        record(observations=((self, value),))

    def snapshot(self) -> Dict[str, Any]:
        """Freeze the current state for later :meth:`summary_since`."""
        with _MUTATION_LOCK:
            return {
                "bucket_counts": tuple(self.bucket_counts),
                "count": self.count,
                "sum": self.sum,
                "max": self.max,
            }

    @staticmethod
    def _percentile_from(buckets, counts, count, quantile):
        if count <= 0:
            return 0.0
        rank = math.ceil(quantile * count)
        running = 0
        for index, bucket_count in enumerate(counts):
            running += bucket_count
            if running >= rank:
                if index < len(buckets):
                    return buckets[index]
                return float("inf")
        return float("inf")

    def percentile(self, quantile: float) -> float:
        """Estimate a quantile (0..1) as a bucket upper bound."""
        snap = self.snapshot()
        return self._percentile_from(
            self.buckets, snap["bucket_counts"], snap["count"], quantile
        )

    def summary(self) -> Dict[str, float]:
        """Return ``{count, sum, max, p50, p95}`` over all observations."""
        snap = self.snapshot()
        return {
            "count": snap["count"],
            "sum": snap["sum"],
            "max": snap["max"],
            "p50": self._percentile_from(
                self.buckets, snap["bucket_counts"], snap["count"], 0.50
            ),
            "p95": self._percentile_from(
                self.buckets, snap["bucket_counts"], snap["count"], 0.95
            ),
        }

    def summary_since(self, earlier: Dict[str, Any]) -> Dict[str, float]:
        """Per-window ``{count, sum, max, p50, p95}`` since an earlier snapshot.

        ``count``/``sum`` are exact deltas.  ``max`` and the percentiles
        are bucket-resolution: the window max is the upper bound of the
        highest bucket that gained an observation (bucket counts alone
        cannot recover the exact value).
        """
        snap = self.snapshot()
        delta = [
            now - before
            for now, before in zip(snap["bucket_counts"], earlier["bucket_counts"])
        ]
        count = snap["count"] - earlier["count"]
        window_max = 0.0
        for index in range(len(delta) - 1, -1, -1):
            if delta[index] > 0:
                window_max = (
                    self.buckets[index] if index < len(self.buckets) else snap["max"]
                )
                break
        return {
            "count": count,
            "sum": snap["sum"] - earlier["sum"],
            "max": window_max,
            "p50": self._percentile_from(self.buckets, delta, count, 0.50),
            "p95": self._percentile_from(self.buckets, delta, count, 0.95),
        }

    def collect(self) -> Dict[str, Any]:
        """Return buckets/count/sum for exporters."""
        snap = self.snapshot()
        return {
            "type": "histogram",
            "help": self.help,
            "buckets": self.buckets,
            "bucket_counts": snap["bucket_counts"],
            "count": snap["count"],
            "sum": snap["sum"],
            "max": snap["max"],
        }


class MetricsRegistry:
    """A namespace of instruments; observations propagate to ``parent``.

    A :class:`~repro.api.Session` owns one registry whose parent is the
    process-wide registry, so per-session numbers and fleet numbers stay
    consistent without double bookkeeping at call sites.  Instrument
    creation is idempotent: asking for an existing name returns the same
    object (and raises if the kind or buckets disagree) without touching
    the parent — the parent chain is resolved only when a name is first
    created, so a lookup on the serving path costs one dict read.
    """

    def __init__(self, parent: Optional["MetricsRegistry"] = None):
        self._parent = parent
        self._instruments: Dict[str, Any] = {}

    def _get_or_create(self, kind, name, factory):
        with _MUTATION_LOCK:
            existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, kind):
                raise ValueError(
                    "metric %r already registered as %s"
                    % (name, type(existing).__name__)
                )
            return existing
        created = factory()
        with _MUTATION_LOCK:
            # Another thread may have won the race; keep the first one.
            existing = self._instruments.setdefault(name, created)
        if existing is not created and not isinstance(existing, kind):
            raise ValueError(
                "metric %r already registered as %s" % (name, type(existing).__name__)
            )
        return existing

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create the named :class:`Counter`."""

        def create() -> Counter:
            parent = self._parent.counter(name, help) if self._parent else None
            return Counter(name, help, parent=parent)

        return self._get_or_create(Counter, name, create)

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get or create the named :class:`Gauge`."""

        def create() -> Gauge:
            parent = self._parent.gauge(name, help) if self._parent else None
            return Gauge(name, help, parent=parent)

        return self._get_or_create(Gauge, name, create)

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        help: str = "",
    ) -> Histogram:
        """Get or create the named :class:`Histogram`."""

        def create() -> Histogram:
            parent = self._parent.histogram(name, buckets, help) if self._parent else None
            return Histogram(name, buckets, help, parent=parent)

        instrument = self._get_or_create(Histogram, name, create)
        if instrument.buckets != tuple(float(bound) for bound in buckets):
            raise ValueError("histogram %r already registered with other buckets" % name)
        return instrument

    def names(self) -> List[str]:
        """Return registered instrument names, sorted."""
        with _MUTATION_LOCK:
            return sorted(self._instruments)

    def collect(self) -> Dict[str, Dict[str, Any]]:
        """Snapshot every instrument: ``{name: instrument.collect()}``."""
        with _MUTATION_LOCK:
            instruments = list(self._instruments.items())
        return {name: instrument.collect() for name, instrument in sorted(instruments)}


def record(
    observations: Iterable[Tuple[Histogram, float]] = (),
    increments: Iterable[Tuple[Counter, int]] = (),
    assignments: Iterable[Tuple[Gauge, float]] = (),
) -> None:
    """Observe values on histograms, add amounts (>= 0) to counters and set
    gauges — each with its ancestors — under one acquisition of the lock."""
    for counter, amount in increments:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge for %r" % counter.name)
    with _MUTATION_LOCK:
        for histogram, value in observations:
            index = bisect_left(histogram.buckets, value)
            for target in histogram._chain:
                target.bucket_counts[index] += 1
                target.count += 1
                target.sum += value
                if value > target.max:
                    target.max = value
        for counter, amount in increments:
            for target in counter._chain:
                target.value += amount
        for gauge, value in assignments:
            for target in gauge._chain:
                target.value = value


_PROCESS_REGISTRY = MetricsRegistry()


def process_metrics() -> MetricsRegistry:
    """Return the process-wide registry every session aggregates into."""
    return _PROCESS_REGISTRY
