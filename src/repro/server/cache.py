"""The front's result cache for read-only queries, keyed on content.

Cosmadakis makes evaluation a function of the *(query, database)* pair,
so a finished response is a pure function of the request fields that
select an execution **and of the contents of the relations it read** —
and the cache keys on exactly that:

* a relation's *content version* (:func:`content_version`) is a 128-bit
  digest of its scheme and canonically sorted rows.  The front computes
  it once per relation object — for the initial bindings at start and for
  the new relation on ``POST /mutate`` — and ships it to the workers in
  the mutate frame; workers never hash rows;
* a worker's query response reports, under ``versions``, the version of
  every relation its execute read (a worker serves its frames in order,
  so it always knows), and :meth:`ResultCache.fill` files the response
  under exactly those versions, so a fill that raced a mutate is keyed to
  the data it was computed from, never to the data current when it
  arrived;
* :meth:`ResultCache.lookup` serves the entry filed under the *current*
  version of each relation the request reads — the hit's HTTP body,
  encoded once, by the entry's first hit — and a mutate switches
  which version of a name is current (:meth:`ResultCache.switch`).  The
  entries of the content it replaced stay resident, so a mutate that
  restores the previous content is served from the cache, and an
  identical re-post changes nothing for readers.  Entries of a content
  two or more mutations old are dropped by the switch, and a fill that
  read one is not filed; the capacity bound evicts non-current entries
  before current ones.  So a stream of never-repeating contents keeps at
  most one old content per name, in capacity no live entry needs.

Nothing is evicted for correctness, so there is no snapshot to take on a
miss.  What is left to count is in a ``repro_server_cache_*_total``
instrument of the front's registry: ``/metrics`` renders the instruments
and ``/stats`` (:meth:`ResultCache.stats`) reads the same values under
the ``cache_hits`` / ``cache_misses`` / ... keys.  A hit emits no event
(``cache_hits`` counts it); ``cache_switch`` events go to the front's
event log.

``cache_stale_served`` guards this module's own bookkeeping only — that
the slot a hit is read from agrees with the versions its response
reports — so it cannot see a worker that reports the wrong versions.
That responses are never stale is checked on rows: against an in-process
oracle in ``tests/test_server_differential.py``, and by the benchmark's
and CI's reads after a mutate.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..algebra.relation import Relation
from ..obs.events import EventLog
from ..obs.metrics import MetricsRegistry
from .http import json_body

__all__ = ["CacheKey", "ResultCache", "content_version"]

#: ``(query, budget, count_only)`` — the full set of request fields that
#: select a distinct execution, and nothing else.
CacheKey = Tuple[str, Optional[int], bool]

#: The versions of the relations a key reads, in name order.
_Versions = Tuple[str, ...]

#: A filed response: its hit body and the ``{name: version}`` it reports.
#: The body is the response dict with ``"cached": True`` until the entry's
#: first hit encodes it; from then on it is those bytes.
_Entry = List[Any]


#: ``/stats`` key and help text of each counter; its ``/metrics`` name is
#: ``repro_server_<key>_total`` (``repro_server_cache_hits_total``, ...).
_COUNTERS = (
    ("cache_hits", "result-cache lookups answered without a worker dispatch"),
    ("cache_misses", "result-cache lookups that paid the lease+dispatch path"),
    ("cache_invalidations", "mutations that switched a relation to another content"),
    ("cache_evictions", "entries dropped by the LRU bound or for a content two mutations old"),
    ("cache_stale_fill_drops", "responses not filed: they read a content mutations outdated"),
    ("cache_stale_served", "hits filed under versions their response does not report"),
)


def content_version(relation: Relation) -> str:
    """A relation's content version: 32 hex digits of its scheme and rows.

    The rows are digested in :meth:`Relation.sorted_rows` order, so the
    version is a function of the content alone (not of set iteration order
    or the process's hash seed); ``repr`` determines the value for every
    type a ``POST /mutate`` body can carry.
    """
    # Imported here: ``hashlib`` loads OpenSSL (~0.7 MB resident), which
    # a process that imports the server but never serves should not pay.
    import hashlib

    text = repr((relation.scheme.names, relation.sorted_rows()))
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


class ResultCache:
    """A bounded LRU of query responses keyed on request and content versions.

    ``capacity`` bounds the entry count (past it, the least recently used
    non-current entry is evicted, or the least recently used entry when
    every entry is current).
    ``versions`` is the ``{name: content version}`` map current at start.
    The ``metrics`` registry and optional ``events`` log belong to the
    front (a cache constructed bare counts into a private registry) — the
    cache registers its instruments eagerly so a scrape renders them at
    zero before any traffic.  It takes no lock: the front looks up, fills
    and switches on its one event loop.
    """

    def __init__(
        self,
        capacity: int,
        versions: Optional[Mapping[str, str]] = None,
        metrics: Optional[MetricsRegistry] = None,
        events: Optional[EventLog] = None,
    ):
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._current: Dict[str, str] = dict(versions or {})
        #: The version each mutated name held before its current one: the
        #: only non-current content whose entries stay resident.
        self._previous: Dict[str, str] = {}
        self._entries: "OrderedDict[Tuple[CacheKey, _Versions], _Entry]" = (
            OrderedDict()
        )
        #: The resident slots a lookup cannot serve now, in LRU order: the
        #: capacity bound evicts these before any current entry.
        self._noncurrent: "OrderedDict[Tuple[CacheKey, _Versions], None]" = OrderedDict()
        #: Per request key: the relation names it reads (in name order) and
        #: how many resident entries it has, so a lookup knows which
        #: versions to ask for and the map shrinks with the entries.
        self._reads: Dict[CacheKey, Tuple[Tuple[str, ...], int]] = {}
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

    def _current_versions(self, names: Tuple[str, ...]) -> _Versions:
        return tuple(self._current.get(name, "") for name in names)

    def _retained(self, name: str, version: str) -> bool:
        # Whether entries of ``version`` may stay.
        return version == self._current.get(name, "") or version == self._previous.get(name)

    def _drop(self, slot: Tuple[CacheKey, _Versions]) -> None:
        del self._entries[slot]
        self._noncurrent.pop(slot, None)
        key = slot[0]
        names, resident = self._reads[key]
        if resident > 1:
            self._reads[key] = (names, resident - 1)
        else:
            del self._reads[key]
        self._counters["cache_evictions"].inc()

    # -- the read path --------------------------------------------------

    def lookup(self, key: CacheKey) -> Optional[bytes]:
        """The hit body filed under ``key`` and the current versions, if any.

        The bytes are the response's JSON body with ``"cached": true``.
        The entry's first hit encodes them and keeps them: every later hit
        copies and encodes nothing.
        """
        reads = self._reads.get(key)
        slot = entry = None
        if reads is not None:
            slot = (key, self._current_versions(reads[0]))
            entry = self._entries.get(slot)
        if entry is not None and any(
            self._current.get(name) != version for name, version in entry[1].items()
        ):
            # Unreachable unless a response sits in a slot other than the
            # versions it reports: a check of this class's own bookkeeping,
            # not of what the worker reported.
            self._counters["cache_stale_served"].inc()
            entry = None
        if entry is None:
            self._counters["cache_misses"].inc()
            return None
        self._entries.move_to_end(slot)
        self._counters["cache_hits"].inc()
        if not isinstance(entry[0], bytes):
            entry[0] = json_body(entry[0])
        return entry[0]

    # -- the write path -------------------------------------------------

    def fill(self, key: CacheKey, response: Dict[str, Any]) -> bool:
        """File ``response`` under ``key`` and the versions it reports.

        ``response["versions"]`` is the ``{name: content version}`` map the
        worker reported for the relations its execute read.  Nothing is
        filed when a version read is neither the current nor the previous
        content of its name (no switch would make it current again before
        it is dropped).  A shallow copy of ``response`` is filed: its hit
        body is encoded by the first hit, not here, so a miss encodes only
        its own response.  Returns whether the response was filed.
        """
        versions = response["versions"]
        names = tuple(sorted(versions))
        if not all(self._retained(name, versions[name]) for name in names):
            self._counters["cache_stale_fill_drops"].inc()
            return False
        slot = (key, tuple(versions[name] for name in names))
        if slot not in self._entries:
            _names, resident = self._reads.get(key, (names, 0))
            self._reads[key] = (names, resident + 1)
        self._entries[slot] = [{**response, "cached": True}, versions]
        self._entries.move_to_end(slot)
        if slot[1] != self._current_versions(names):
            self._noncurrent[slot] = None  # it read the previous content
        while len(self._entries) > self.capacity:
            self._drop(next(iter(self._noncurrent or self._entries)))
        self._entries_gauge.set(len(self._entries))
        return True

    def switch(self, name: str, version: str) -> int:
        """Make ``version`` the current content of ``name``.

        Returns how many resident entries this made non-current.  They
        stay resident, and are served again if the next switch of ``name``
        restores the content they read; entries of the content before that
        are dropped now.  Until then they only fill spare capacity: the
        LRU bound evicts non-current entries before any current one.
        Switching to the version already current changes nothing.
        """
        replaced = self._current.get(name, "")
        if replaced == version:
            return 0
        noncurrent = 0
        outdated = []
        for slot in self._entries:
            key, versions = slot
            names = self._reads[key][0]
            if name not in names:
                continue
            if versions == self._current_versions(names):
                noncurrent += 1
            if versions[names.index(name)] not in (version, replaced):
                outdated.append(slot)
        for slot in outdated:
            self._drop(slot)
        self._previous[name] = replaced
        self._current[name] = version
        self._noncurrent = OrderedDict(
            (slot, None)
            for slot in self._entries
            if slot[1] != self._current_versions(self._reads[slot[0]][0])
        )
        self._counters["cache_invalidations"].inc()
        self._entries_gauge.set(len(self._entries))
        if self._events is not None:
            self._events.emit(
                "cache_switch", name=name, version=version, noncurrent=noncurrent
            )
        return noncurrent

    # -- introspection --------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> Dict[str, int]:
        """Counters plus current shape, for the ``/stats`` cache section."""
        snapshot = {key: counter.value for key, counter in self._counters.items()}
        snapshot["entries"] = len(self._entries)
        snapshot["capacity"] = self.capacity
        return snapshot
