"""The front's invalidating result cache for read-only queries.

Queries in this tier are pure functions of ``(query text, backend,
budget, workers)`` **until a relation changes** — so the front keeps a
small LRU of finished responses and answers repeats without leasing a
budget or touching a worker.  The contract that makes that safe is
*per-relation-name invalidation*: every cached entry records which
relation names its expression read (the worker reports them from the
parsed expression's operands), and a mutation of name *X* evicts exactly
the entries that read *X*.

Correctness under concurrency is generational.  The cache keeps one
monotonic ``generation`` counter and a per-name ``invalidated_at`` mark:

* :meth:`lookup` returns the entry **and** the generation it observed;
* a miss that goes on to execute calls :meth:`fill` with that snapshot,
  and the fill is **dropped** if any of the response's names was
  invalidated after the snapshot — this closes the stale-refill race
  where a mutation lands between a miss's execute and its fill;
* :meth:`lookup` also re-validates at serve time: an entry whose names
  were invalidated after it was cached is never returned.  That path is
  a *tripwire* — :meth:`invalidate` already evicted those entries under
  the same lock, so the ``stale_served`` counter (exported as
  ``repro_server_cache_stale_served_total``) must stay zero; CI asserts
  it, like the engine's ``spill_overflows``.

Invalidation order matters at the call site: the server applies a
mutation to the worker pool *first* and invalidates *second*, so any
miss that raced the mutation and executed against old data carries a
pre-invalidation snapshot and its fill is dropped.

Each event is counted once, in a ``repro_server_cache_*_total``
instrument of the front's registry: ``/metrics`` renders the instruments
and ``/stats`` (:meth:`ResultCache.stats`) reads the same values under the
``cache_hits`` / ``cache_misses`` / ... keys.  ``cache_hit`` /
``cache_invalidate`` events go to the front's event log.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Iterable, Optional, Tuple

from ..obs.events import EventLog
from ..obs.metrics import MetricsRegistry

__all__ = ["CacheKey", "ResultCache"]

#: ``(query, backend, budget, workers, count_only)`` — the full set of
#: request fields that select a distinct execution, and nothing else.
CacheKey = Tuple[str, Optional[str], Optional[int], Optional[int], bool]


#: ``/stats`` key and help text of each counter; its ``/metrics`` name is
#: ``repro_server_<key>_total`` (``repro_server_cache_hits_total``, ...).
_COUNTERS = (
    ("cache_hits", "result-cache lookups answered without a worker dispatch"),
    ("cache_misses", "result-cache lookups that paid the lease+dispatch path"),
    ("cache_invalidations", "per-relation-name invalidation sweeps"),
    ("cache_evictions", "entries dropped by the LRU capacity bound"),
    ("cache_stale_fill_drops", "fills dropped because a mutation raced their miss"),
    ("cache_stale_served", "entries caught stale at serve time (tripwire: must stay 0)"),
)


class _Entry:
    """One cached response: payload, the names it read, its snapshot."""

    __slots__ = ("response", "names", "cached_at")

    def __init__(self, response: Dict[str, Any], names: Tuple[str, ...], cached_at: int):
        self.response = response
        self.names = names
        self.cached_at = cached_at


class ResultCache:
    """A bounded LRU of query responses with per-name invalidation.

    ``capacity`` bounds the entry count (LRU eviction past it).  The
    ``metrics`` registry and optional ``events`` log belong to the front
    (a cache constructed bare counts into a private registry) — the
    cache registers its instruments eagerly so a scrape renders them at
    zero before any traffic.  Thread-safe throughout: lookups, fills,
    and invalidations may race from executor threads.
    """

    def __init__(
        self,
        capacity: int,
        metrics: Optional[MetricsRegistry] = None,
        events: Optional[EventLog] = None,
    ):
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[CacheKey, _Entry]" = OrderedDict()
        self._generation = 0
        self._invalidated_at: Dict[str, int] = {}
        self._events = events
        if metrics is None:
            metrics = MetricsRegistry()
        self._counters = {
            key: metrics.counter(f"repro_server_{key}_total", help=help)
            for key, help in _COUNTERS
        }
        self._entries_gauge = metrics.gauge(
            "repro_server_cache_entries", help="result-cache entries currently resident"
        )

    # -- the read path --------------------------------------------------

    def lookup(self, key: CacheKey) -> Tuple[Optional[Dict[str, Any]], int]:
        """Return ``(response copy or None, generation snapshot)``.

        The snapshot is taken under the cache lock *before* any
        execution a miss goes on to do, which is exactly what makes the
        later :meth:`fill` safe to accept or drop.
        """
        with self._lock:
            snapshot = self._generation
            entry = self._entries.get(key)
            if entry is not None and self._stale(entry):
                # Unreachable unless invalidate() failed to evict — the
                # tripwire half of the no-stale-results contract.
                self._entries.pop(key, None)
                self._counters["cache_stale_served"].inc()
                entry = None
            if entry is None:
                self._counters["cache_misses"].inc()
                return None, snapshot
            self._entries.move_to_end(key)
            self._counters["cache_hits"].inc()
            response = dict(entry.response)
        if self._events is not None:
            self._events.emit("cache_hit", query=key[0], names=list(entry.names))
        return response, snapshot

    def _stale(self, entry: _Entry) -> bool:
        # Caller holds the lock.  Strictly *after*: a fill whose miss
        # looked up at the invalidation's own generation executed after
        # the mutation reached the pool, so its data is the new data.
        return any(
            self._invalidated_at.get(name, -1) > entry.cached_at
            for name in entry.names
        )

    # -- the write path -------------------------------------------------

    def fill(
        self,
        key: CacheKey,
        names: Iterable[str],
        response: Dict[str, Any],
        snapshot: int,
    ) -> bool:
        """Cache ``response`` unless its data changed since ``snapshot``.

        ``names`` are the relation names the execution read; ``snapshot``
        is the generation :meth:`lookup` returned for the miss.  Returns
        whether the fill was accepted.
        """
        names = tuple(sorted(set(names)))
        stored = dict(response)
        with self._lock:
            if any(
                self._invalidated_at.get(name, -1) > snapshot for name in names
            ):
                self._counters["cache_stale_fill_drops"].inc()
                return False
            self._entries[key] = _Entry(stored, names, self._generation)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._counters["cache_evictions"].inc()
            self._entries_gauge.set(len(self._entries))
        return True

    def invalidate(self, name: str) -> int:
        """Evict every entry that read ``name``; return the eviction count.

        Bumps the generation first so concurrent misses' pending fills
        (snapshotted earlier) are dropped on arrival.
        """
        with self._lock:
            self._generation += 1
            self._invalidated_at[name] = self._generation
            victims = [
                key
                for key, entry in self._entries.items()
                if name in entry.names
            ]
            for key in victims:
                del self._entries[key]
            self._counters["cache_invalidations"].inc()
            self._entries_gauge.set(len(self._entries))
        if self._events is not None:
            self._events.emit("cache_invalidate", name=name, evicted=len(victims))
        return len(victims)

    # -- introspection --------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> Dict[str, int]:
        """Counters plus current shape, for the ``/stats`` cache section."""
        with self._lock:
            snapshot = {key: counter.value for key, counter in self._counters.items()}
            snapshot["entries"] = len(self._entries)
            snapshot["capacity"] = self.capacity
            snapshot["generation"] = self._generation
        return snapshot
