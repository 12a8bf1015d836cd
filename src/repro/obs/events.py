"""Structured event log: spills, faults, and cache switches.

Every noteworthy runtime decision becomes one timestamped dict —
``{"ts": ..., "seq": ..., "kind": ..., **fields}`` — appended to an
in-memory list and, when a path is configured, to a JSON-Lines file as
it happens (one ``json.dumps`` line per event, append-mode open per
emit, so the log survives crashes and fork children never share a file
handle).

Event kinds emitted by the engine today:

``spill``
    An operator went to disk; logged once its execution ends, in one shape
    for both spilling clients: ``operator`` (``"grace-join"`` or
    ``"dedup"``), ``label``, ``mode`` (``"re-read"``: the join's probe side
    kept streaming; ``"partitioned"``: Grace), ``rows`` (a join's spilled
    build rows, a dedup's rows sent to its partitions), ``fanout``,
    ``resplits`` and ``fallbacks`` (what the spill driver did),
    ``build_rereads``.
``spill-retry``
    A spill read/write failed and is being retried with backoff.
``fault``
    An injected fault fired (chaos testing); every in-process
    ``fault_injected`` counter increment has a matching ``fault`` event.
``cache_switch``
    A mutation switched a relation name to another content version in the
    serving tier's result cache (see :mod:`repro.server.cache`); emitted on
    the front's event log.  A cache hit is a per-request event: it is
    counted (``cache_hits``), never logged.

The locking/fork discipline matches ``repro.perf.counters``: one module
lock, reinstalled in fork children via ``os.register_at_fork``.
"""

import json
import os
import threading
import time
from typing import Any, Dict, List, Optional

__all__ = ["EventLog"]

_MUTATION_LOCK = threading.Lock()


def _reinitialize_lock_after_fork() -> None:
    """Replace the module lock in fork children (may be held mid-fork)."""
    global _MUTATION_LOCK
    _MUTATION_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):  # pragma: no branch
    os.register_at_fork(after_in_child=_reinitialize_lock_after_fork)


class EventLog:
    """Collects structured events; optionally mirrors them to JSONL.

    ``emit`` is cheap enough for rare call sites
    (spills, faults) but is *not* meant for per-row or
    per-block paths — those belong to counters and spans.
    """

    def __init__(self, path: Optional[str] = None, clock=time.time):
        self._events: List[Dict[str, Any]] = []
        self._seq = 0
        self._clock = clock
        #: Destination JSON-Lines file, or ``None`` for in-memory only.
        self.path = path

    def emit(self, kind: str, **fields: Any) -> Dict[str, Any]:
        """Record one event and return the stored dict.

        The JSONL mirror is written under the same lock that assigns
        ``seq``: releasing it between the append and the write let two
        concurrent emitters reach ``open()`` in either order, producing
        out-of-``seq`` (and, with enough contention, interleaved partial)
        lines in the file.  Holding the lock across the append-mode write
        keeps the file a faithful, line-atomic replica of the in-memory
        order.
        """
        with _MUTATION_LOCK:
            self._seq += 1
            event = {"ts": self._clock(), "seq": self._seq, "kind": kind}
            event.update(fields)
            self._events.append(event)
            if self.path is not None:
                line = json.dumps(event, sort_keys=True, default=str)
                with open(self.path, "a", encoding="utf-8") as handle:
                    handle.write(line + "\n")
        return event

    def events(self, kind: Optional[str] = None) -> List[Dict[str, Any]]:
        """Return recorded events, optionally filtered by ``kind``."""
        with _MUTATION_LOCK:
            events = list(self._events)
        if kind is None:
            return events
        return [event for event in events if event["kind"] == kind]

    def counts(self) -> Dict[str, int]:
        """Return ``{kind: occurrences}`` over all recorded events."""
        counts: Dict[str, int] = {}
        for event in self.events():
            counts[event["kind"]] = counts.get(event["kind"], 0) + 1
        return counts

    def clear(self) -> None:
        """Drop the in-memory events (the JSONL file is left alone)."""
        with _MUTATION_LOCK:
            del self._events[:]

    def __len__(self) -> int:
        with _MUTATION_LOCK:
            return len(self._events)
