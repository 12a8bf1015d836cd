"""Worker processes: warm :class:`~repro.api.Session` pools behind a pipe.

Each worker is one OS process (forked where available, a thread
otherwise) holding warm sessions over the server's relations.  The front
talks to it over a duplex :func:`multiprocessing.Pipe` carrying **tagged
frames**: every request dict travels with a monotonic ``id`` and every
response echoes it, so one worker serves *many* requests concurrently —
a slow budget-64 spilling execute no longer head-of-line-blocks the fast
cached-session queries sharing its pipe.  The moving parts:

* **In the worker** a dispatcher loop receives frames and hands ``query``
  frames to a small thread pool (``concurrency`` threads); control
  frames (``ping`` / ``metrics`` / ``stats`` / ``mutate`` / ``shutdown``)
  are answered inline on the loop so telemetry and mutation stay prompt
  under query load.  Responses are sent back under one lock, so frames
  never interleave on the pipe.
* **In the front** each :class:`Worker` runs a receiver thread that
  resolves a pending-futures map keyed by request id.
  :meth:`Worker.request` registers a future, sends the tagged frame, and
  blocks on its own future only — callers on other threads proceed
  independently.  When the pipe dies, **every** in-flight id fails with
  the typed :class:`WorkerCrashedError` (or :class:`ServerClosedError`
  after :meth:`Worker.stop`), which is what lets the pool respawn and
  retry each read-only request safely.
* A request that outlives ``timeout`` raises the typed
  :class:`RequestTimeoutError` and *abandons* its id: the late response
  is dropped on arrival, the pipe keeps serving.

Warmth is the point.  A worker parses each distinct query text once
(expression cache), prepares it once per session (the session's
registry pins the plan and its forked probe pools), and keeps a small
LRU of *sessions* keyed by the per-request ``(budget, workers)``
override pair — so "the same query at the default budget" and "the same
query squeezed to 64 rows" each hit a pinned plan in the steady state.
That session cache is what closes PR 4's fixed-at-construction budget
follow-up at the serving tier: the ``BackendConfig`` stays immutable,
and per-request budgets choose *which* warm config serves.

Mutation rides the same frames: a ``mutate`` frame installs a fresh
relation under a name via every cached session's
:meth:`~repro.api.Session.set_relation` (and in the worker's binding map
for sessions warmed later), together with the relation's content version
(:func:`repro.server.cache.content_version`, computed by the front, and
only when it keeps a result cache).  A worker keeps ``{name: version}``
beside its bindings under a sequence counter that a mutate bumps before
and after it applies, and a query response reports the versions its
execute bound — or ``None`` when the counter moved under it — which is
what the front's result cache files the response under.

Observability: every session of worker *i* shares one
:class:`~repro.obs.events.EventLog` mirrored to ``worker-i.jsonl`` when
the server configured an events directory (fork children never share a
file handle — each ``emit`` opens append-mode, and the PR 8 lock fix
keeps lines whole and in ``seq`` order), and one worker-scope
:class:`~repro.obs.metrics.MetricsRegistry` whose collected snapshot the
front merges into ``/metrics`` scrapes.
"""

from __future__ import annotations

import itertools
import os
import threading
import traceback
from collections import OrderedDict
from concurrent.futures import Future, InvalidStateError, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from time import perf_counter
from typing import Any, Dict, Mapping, Optional, Tuple

from ..algebra.relation import Relation
from ..api.config import BackendConfig
from ..api.errors import SessionClosedError
from ..api.session import Session
from ..obs.config import Observer, ObserveConfig
from .errors import (
    RequestTimeoutError,
    ServerClosedError,
    ServerError,
    WorkerCrashedError,
)

__all__ = ["Worker", "WorkerPool", "worker_main"]

#: How many distinct (budget, workers) session configs one worker keeps
#: warm; beyond this the least-recently-used session is closed (its pools
#: and pinned plans with it) exactly like the engine's pool LRU.
MAX_SESSIONS_PER_WORKER = 4

#: Concurrent query frames one worker serves at a time (its multiplexing
#: width).  ``1`` restores the pre-multiplex serialised behaviour — the
#: head-of-line benchmark leg uses exactly that as its baseline.
DEFAULT_WORKER_CONCURRENCY = 4


class _WorkerRuntime:
    """The in-child request state: session cache + expression cache.

    Query frames are served from several dispatcher threads at once, so
    the two caches are guarded by one runtime lock; the sessions
    themselves are thread-safe (the facade's concurrent-serving
    contract) and executes run outside the lock.
    """

    def __init__(
        self,
        relations: Mapping[str, Relation],
        versions: Mapping[str, Optional[str]],
        base_config: BackendConfig,
        index: int,
        events_path: Optional[str],
        max_sessions: int = MAX_SESSIONS_PER_WORKER,
    ):
        self._relations = dict(relations)
        # The content version of each binding, replaced (never updated in
        # place) by a mutate, and the mutate sequence counter: odd while a
        # mutate is being applied, so a query that reads the same even
        # value before and after its execute bound exactly ``_versions``.
        self._versions = dict(versions)
        self._sequence = 0
        self._base_config = base_config
        self.index = index
        self._max_sessions = max(1, max_sessions)
        self._lock = threading.Lock()
        # One observer for every session this worker opens: the event log
        # (JSONL-mirrored per worker) and metrics registry aggregate the
        # worker's whole traffic, while tracers are minted per execution.
        self._observer = Observer(
            ObserveConfig(
                trace=_observe_trace(base_config),
                events=events_path is not None,
                events_path=events_path,
            )
        )
        self._sessions: "OrderedDict[Tuple[Optional[int], int], Session]" = (
            OrderedDict()
        )
        self._expressions: Dict[str, Any] = {}

    def _session_key(
        self, budget: Optional[int], workers: Optional[int]
    ) -> Tuple[Optional[int], int]:
        base_budget = self._base_config.budget
        base_rows = base_budget.rows if base_budget is not None else None
        rows = budget if budget is not None else base_rows
        return (rows, workers if workers is not None else self._base_config.workers)

    def _session_for(self, budget: Optional[int], workers: Optional[int]) -> Session:
        key = self._session_key(budget, workers)
        with self._lock:
            session = self._sessions.get(key)
            if session is not None:
                self._sessions.move_to_end(key)
                return session
            config = self._base_config.override(
                budget=key[0], workers=key[1], observe=self._observer
            )
            session = Session(self._relations, config)
            self._sessions[key] = session
            stale_sessions = []
            while len(self._sessions) > self._max_sessions:
                _stale_key, stale = self._sessions.popitem(last=False)
                stale_sessions.append(stale)
        for stale in stale_sessions:
            stale.close()
        return session

    def _expression_for(self, session: Session, text: str):
        with self._lock:
            expression = self._expressions.get(text)
        if expression is None:
            expression = session._parse(text)
            with self._lock:
                self._expressions[text] = expression
        return expression

    def handle(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Serve one request dict and return the response dict."""
        op = message.get("op")
        try:
            if op == "query":
                return self._handle_query(message)
            if op == "mutate":
                return self._handle_mutate(message)
            if op == "metrics":
                return {"ok": True, "collected": self._collect_metrics()}
            if op == "stats":
                return {"ok": True, "stats": self._stats()}
            if op == "ping":
                return {"ok": True, "pid": os.getpid(), "worker": self.index}
            raise ServerError(f"unknown worker op {op!r}")
        except Exception as error:  # every failure crosses the pipe typed
            return {
                "ok": False,
                "error": type(error).__name__,
                "message": str(error),
                "worker": self.index,
                "detail": traceback.format_exc(limit=3),
            }

    def _handle_query(self, message: Dict[str, Any]) -> Dict[str, Any]:
        start = perf_counter()
        with self._lock:
            sequence, versions = self._sequence, self._versions
        session = self._session_for(message.get("budget"), message.get("workers"))
        expression = self._expression_for(session, message["query"])
        prepared = session.prepare(expression, backend=message.get("backend"))
        result = prepared.execute()
        with self._lock:
            if sequence % 2 or self._sequence != sequence:
                versions = None  # a mutate overlapped: which binding ran is unknown
        elapsed = perf_counter() - start
        names = sorted(expression.operand_schemes())
        trace = result.trace
        counters = trace.counters
        # The never-fires tripwire, surfaced per worker so a /metrics
        # scrape can assert it stayed zero across the whole fleet.
        self._observer.metrics.counter(
            "repro_spill_overflows_total",
            help="budget overflows the spill machinery failed to absorb",
        ).inc(counters.get("spill_overflows", 0))
        response: Dict[str, Any] = {
            "ok": True,
            "worker": self.index,
            "backend": result.backend,
            "columns": list(result.scheme.names),
            "versions": (
                None
                if versions is None
                else {name: versions.get(name) for name in names}
            ),
            "rowcount": len(result),
            "elapsed_ms": elapsed * 1000.0,
            "budget": self._session_key(
                message.get("budget"), message.get("workers")
            )[0],
            "serial_fallbacks": trace.serial_fallbacks,
            "spilled_rows": counters.get("spill_rows", 0),
            "spill_overflows": counters.get("spill_overflows", 0),
            "peak_memory_rows": trace.peak_memory_rows,
            "spans": len(trace.spans or ()),
        }
        if not message.get("count_only"):
            response["rows"] = [list(row) for row in result.relation.sorted_rows()]
        return response

    def _handle_mutate(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Install a fresh relation and its version under a name, in every warm session.

        The new binding applies to executes that start after this frame
        is answered; executes already in flight bound the previous
        relation atomically (the session snapshots bindings under its
        lock), so concurrent traffic sees *either* content, never a mix.
        The sequence counter is bumped before and after, so a query that
        overlapped any part of this reports no versions.
        """
        name = message["name"]
        relation = message["relation"]
        if not isinstance(relation, Relation):  # pragma: no cover - front checks
            raise ServerError("mutate frames must carry a Relation")
        with self._lock:
            self._sequence += 1
            self._relations[name] = relation
            self._versions = {**self._versions, name: message["version"]}
            sessions = list(self._sessions.values())
        for session in sessions:
            try:
                session.set_relation(name, relation)
            except SessionClosedError:
                pass  # evicted from the session LRU meanwhile: it serves nothing more
        # Not in a ``finally``: after any other failure the counter stays
        # odd, and every later response reports no versions (never cached).
        with self._lock:
            self._sequence += 1
        return {
            "ok": True,
            "worker": self.index,
            "name": name,
            "rowcount": len(relation),
            "sessions_invalidated": len(sessions),
        }

    def _collect_metrics(self) -> Dict[str, Dict[str, Any]]:
        return self._observer.metrics.collect()

    def _stats(self) -> Dict[str, Any]:
        with self._lock:
            items = list(self._sessions.items())
            expressions_cached = len(self._expressions)
        sessions = {}
        for key, session in items:
            sessions[f"budget={key[0]} workers={key[1]}"] = session.stats()
        events = self._observer.events
        return {
            "pid": os.getpid(),
            "worker": self.index,
            "sessions": sessions,
            "expressions_cached": expressions_cached,
            "event_counts": events.counts() if events is not None else {},
        }

    def close(self) -> None:
        """Close every warm session (pools, temp dirs) before exit."""
        while True:
            with self._lock:
                if not self._sessions:
                    break
                _key, session = self._sessions.popitem(last=False)
            session.close()


def _observe_trace(config: BackendConfig) -> bool:
    observe = config.observe
    return bool(observe is not None and getattr(observe, "trace", False))


def worker_main(
    conn,
    relations: Mapping[str, Relation],
    versions: Mapping[str, Optional[str]],
    base_config: BackendConfig,
    index: int,
    events_path: Optional[str] = None,
    max_sessions: int = MAX_SESSIONS_PER_WORKER,
    concurrency: int = DEFAULT_WORKER_CONCURRENCY,
) -> None:
    """The worker loop: recv tagged request frames, send tagged responses.

    ``query`` frames fan out onto ``concurrency`` dispatcher threads so a
    slow execute never blocks the pipe; everything else (telemetry,
    mutation, shutdown) is handled inline in frame order.  Runs until a
    ``shutdown`` message or the parent's end of the pipe closes; either
    way every warm session is closed on the way out so no probe pools or
    spill directories outlive the worker.
    """
    runtime = _WorkerRuntime(
        relations, versions, base_config, index, events_path, max_sessions
    )
    send_lock = threading.Lock()
    executor = ThreadPoolExecutor(
        max_workers=max(1, concurrency),
        thread_name_prefix=f"repro-worker-{index}",
    )

    def respond(response: Dict[str, Any], request_id: Optional[int]) -> None:
        if request_id is not None:
            response["id"] = request_id
        with send_lock:
            try:
                conn.send(response)
            except (BrokenPipeError, OSError, ValueError):
                pass  # the front went away; nothing to answer

    def serve(message: Dict[str, Any], request_id: Optional[int]) -> None:
        respond(runtime.handle(message), request_id)

    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            if not isinstance(message, dict) or message.get("op") == "shutdown":
                break
            request_id = message.get("id")
            if message.get("op") == "query" and request_id is not None:
                executor.submit(serve, message, request_id)
            else:
                serve(message, request_id)
    finally:
        # Don't wait for stuck executes: close the sessions (in-flight
        # threads get the typed SessionClosedError and their responses
        # are dropped with the pipe) so pools and spill dirs never
        # outlive the worker.
        executor.shutdown(wait=False)
        runtime.close()
        try:
            conn.close()
        except OSError:
            pass


class Worker:
    """The parent-side handle of one worker: pipe + process (or thread).

    :meth:`request` is safe to call from many threads at once — each
    call sends one tagged frame and blocks on its own pending future
    while the shared receiver thread demultiplexes responses by id.  A
    dead worker fails **all** of its in-flight ids with
    :class:`WorkerCrashedError` so the pool can respawn and retry each.
    """

    def __init__(
        self,
        index: int,
        relations: Mapping[str, Relation],
        versions: Mapping[str, Optional[str]],
        base_config: BackendConfig,
        backend: str,
        events_path: Optional[str] = None,
        max_sessions: int = MAX_SESSIONS_PER_WORKER,
        concurrency: int = DEFAULT_WORKER_CONCURRENCY,
    ):
        self.index = index
        self.backend = backend
        self.concurrency = max(1, concurrency)
        self._send_lock = threading.Lock()
        self._pending_lock = threading.Lock()
        self._pending: Dict[int, Future] = {}
        self._ids = itertools.count(1)
        self._closed = False
        #: Set (under the pending lock) when the receiver loop exits: the
        #: typed error every subsequent request fails with immediately.
        #: Checking it under the same lock that registers futures closes
        #: the race where ``process.is_alive()`` lags the pipe's death —
        #: a request registered after the receiver exits would otherwise
        #: wait on a future nothing will ever resolve.
        self._dead_error: Optional[ServerError] = None
        import multiprocessing

        parent_conn, child_conn = multiprocessing.Pipe(duplex=True)
        self._conn = parent_conn
        args = (
            child_conn,
            relations,
            versions,
            base_config,
            index,
            events_path,
            max_sessions,
            self.concurrency,
        )
        if backend == "fork":
            context = multiprocessing.get_context("fork")
            self._process = context.Process(
                target=worker_main, args=args, daemon=True
            )
            self._process.start()
            child_conn.close()  # the child's end lives in the child now
            self._thread = None
        else:
            self._process = None
            self._thread = threading.Thread(target=worker_main, args=args, daemon=True)
            self._thread.start()
        self._receiver = threading.Thread(
            target=self._receive_loop,
            name=f"repro-worker-{index}-recv",
            daemon=True,
        )
        self._receiver.start()

    # -- the demultiplexer ---------------------------------------------

    def _receive_loop(self) -> None:
        while True:
            try:
                response = self._conn.recv()
            except (EOFError, OSError, ValueError):
                break
            request_id = (
                response.pop("id", None) if isinstance(response, dict) else None
            )
            with self._pending_lock:
                future = self._pending.pop(request_id, None)
            if future is not None:
                try:
                    future.set_result(response)
                except InvalidStateError:
                    pass  # its caller timed out and cancelled it meanwhile
        if self._closed:
            self._fail_pending(
                ServerClosedError(f"worker {self.index} is closed")
            )
        else:
            self._fail_pending(
                WorkerCrashedError(
                    f"worker {self.index} died with requests in flight"
                )
            )

    def _fail_pending(self, error: ServerError) -> None:
        """Fail every in-flight id with one typed error (crash contract)."""
        with self._pending_lock:
            self._dead_error = error
            pending = list(self._pending.values())
            self._pending.clear()
        for future in pending:
            try:
                future.set_exception(error)
            except InvalidStateError:
                pass  # its caller timed out and cancelled it meanwhile

    @property
    def inflight(self) -> int:
        """How many requests this worker currently has in flight."""
        with self._pending_lock:
            return len(self._pending)

    def alive(self) -> bool:
        """Whether the worker can still take requests.

        The dead-flag check comes first: the pipe's death (receiver EOF)
        is the authoritative signal, and ``process.is_alive()`` can lag
        it by the length of a SIGTERM delivery.
        """
        if self._closed or self._dead_error is not None:
            return False
        if self._process is not None:
            return self._process.is_alive()
        return self._thread is not None and self._thread.is_alive()

    def request(
        self, message: Dict[str, Any], timeout: Optional[float] = None
    ) -> Dict[str, Any]:
        """Send one tagged frame and block for *its* response.

        Concurrent callers multiplex over the one pipe.  ``timeout``
        bounds the wait: expiry abandons the id (the late response is
        discarded by the receiver) and raises the typed
        :class:`RequestTimeoutError`.
        """
        return self.wait(*self.submit(message), timeout=timeout)

    def submit(self, message: Dict[str, Any]) -> Tuple[int, Future]:
        """Send one tagged frame; return its id and the future :meth:`wait` reads.

        A frame that cannot be sent leaves nothing pending: a dead pipe
        raises :class:`WorkerCrashedError`, and any other failure (a frame
        that does not pickle) is re-raised as it is — nothing reached the
        worker, which keeps serving.
        """
        if self._closed:
            raise ServerClosedError(f"worker {self.index} is closed")
        request_id = next(self._ids)
        future: Future = Future()
        with self._pending_lock:
            if self._dead_error is not None:
                raise self._dead_error
            self._pending[request_id] = future
        frame = dict(message)
        frame["id"] = request_id
        try:
            with self._send_lock:
                self._conn.send(frame)
        except (BrokenPipeError, OSError, ValueError) as error:
            self._forget(request_id)
            raise WorkerCrashedError(
                f"worker {self.index} died mid-request ({type(error).__name__})"
            ) from error
        except BaseException:
            self._forget(request_id)
            raise
        return request_id, future

    def wait(
        self, request_id: int, future: Future, timeout: Optional[float] = None
    ) -> Dict[str, Any]:
        """Block for the response to a frame :meth:`submit` sent."""
        try:
            return future.result(timeout=timeout)
        except FutureTimeoutError:
            self._forget(request_id)
            future.cancel()
            raise RequestTimeoutError(
                f"worker {self.index} did not answer request {request_id} "
                f"within {timeout}s"
            ) from None

    def _forget(self, request_id: int) -> None:
        with self._pending_lock:
            self._pending.pop(request_id, None)

    def stop(self, timeout: float = 5.0) -> None:
        """Shut the worker down: shutdown message, join, then terminate."""
        with self._send_lock:
            if self._closed:
                return
            self._closed = True
            try:
                self._conn.send({"op": "shutdown"})
            except (BrokenPipeError, OSError, ValueError):
                pass
        if self._process is not None:
            self._process.join(timeout)
            if self._process.is_alive():  # pragma: no cover - stuck worker
                self._process.terminate()
                self._process.join(timeout)
        elif self._thread is not None:
            self._thread.join(timeout)
        try:
            self._conn.close()
        except OSError:
            pass
        # Closing the pipe wakes the receiver, which fails any still
        # in-flight ids with the typed closed error.
        self._receiver.join(timeout)
        self._fail_pending(ServerClosedError(f"worker {self.index} is closed"))

    def kill(self) -> None:
        """Hard-kill the worker process (crash-recovery tests only)."""
        if self._process is not None and self._process.is_alive():
            self._process.terminate()
            self._process.join(2.0)


class WorkerPool:
    """A fixed-size pool of multiplexing workers with respawn-and-retry.

    Dispatch picks the worker with the fewest requests in flight
    (round-robin among ties), so a worker chewing on a slow spilling
    execute keeps receiving *only* its fair share while idle workers
    absorb the rest — and thanks to per-worker multiplexing, even the
    busy worker's other sessions stay reachable.  A request that finds
    its worker dead respawns it once and retries — queries are pure
    reads, so the retry is safe — counting the rebuild in
    ``worker_restarts`` (the serving-tier analogue of the probe pool's
    rebuild-or-loud-serial contract).  When a crash fails many in-flight
    ids at once, each dispatch retries independently against the one
    respawned worker.  ``versions`` maps each relation name to its content
    version, for a front that keeps a result cache; without it a query
    response reports ``None`` for every name it read.
    """

    def __init__(
        self,
        relations: Mapping[str, Relation],
        base_config: BackendConfig,
        size: int = 2,
        worker_backend: Optional[str] = None,
        events_dir: Optional[str] = None,
        max_sessions: int = MAX_SESSIONS_PER_WORKER,
        concurrency: int = DEFAULT_WORKER_CONCURRENCY,
        versions: Optional[Mapping[str, str]] = None,
    ):
        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        if concurrency < 1:
            raise ValueError(f"worker concurrency must be >= 1, got {concurrency}")
        if worker_backend is None:
            worker_backend = "fork" if hasattr(os, "fork") else "thread"
        if worker_backend not in ("fork", "thread"):
            raise ValueError(
                f"worker_backend must be 'fork' or 'thread', got {worker_backend!r}"
            )
        self._relations = dict(relations)
        self._versions: Dict[str, Optional[str]] = dict(versions or {})
        self._base_config = base_config
        self._events_dir = events_dir
        self._max_sessions = max_sessions
        self.backend = worker_backend
        self.size = size
        self.concurrency = concurrency
        self._lock = threading.Lock()
        self._closed = False
        self._next = 0
        self.worker_restarts = 0
        self._workers = [self._spawn(index) for index in range(size)]

    def _events_path(self, index: int) -> Optional[str]:
        if self._events_dir is None:
            return None
        os.makedirs(self._events_dir, exist_ok=True)
        return os.path.join(self._events_dir, f"worker-{index}.jsonl")

    def _spawn(self, index: int) -> Worker:
        # Copies taken under the pool lock: a thread-backend worker reads
        # its maps on its own thread, after a mutate may have rebound them.
        return Worker(
            index,
            dict(self._relations),
            dict(self._versions),
            self._base_config,
            self.backend,
            events_path=self._events_path(index),
            max_sessions=self._max_sessions,
            concurrency=self.concurrency,
        )

    def relation(self, name: str) -> Optional[Relation]:
        """The pool's current binding for ``name`` (what a respawn serves)."""
        with self._lock:
            return self._relations.get(name)

    def versions(self) -> Dict[str, Optional[str]]:
        """The content version of every current binding the pool was given."""
        with self._lock:
            return dict(self._versions)

    def _pick(self) -> int:
        with self._lock:
            if self._closed:
                raise ServerClosedError("the worker pool is closed")
            best = self._next
            best_load = None
            for offset in range(self.size):
                index = (self._next + offset) % self.size
                load = self._workers[index].inflight
                if best_load is None or load < best_load:
                    best, best_load = index, load
                    if load == 0:
                        break
            self._next = (best + 1) % self.size
            return best

    def _ensure_alive(self, index: int) -> Worker:
        with self._lock:
            worker = self._workers[index]
            if worker.alive():
                return worker
            if self._closed:
                raise ServerClosedError("the worker pool is closed")
            self.worker_restarts += 1
            worker = self._spawn(index)
            self._workers[index] = worker
            return worker

    def dispatch(
        self, message: Dict[str, Any], timeout: Optional[float] = None
    ) -> Dict[str, Any]:
        """Send ``message`` to one worker; respawn and retry once on a crash.

        A :class:`RequestTimeoutError` is *not* retried — the caller's
        deadline already expired and the worker is healthy, just slow.
        """
        index = self._pick()
        worker = self._ensure_alive(index)
        try:
            return worker.request(message, timeout=timeout)
        except WorkerCrashedError:
            worker = self._ensure_alive(index)
            return worker.request(message, timeout=timeout)

    def mutate(self, name: str, relation: Relation, version: Optional[str]) -> list:
        """Install ``relation`` (content ``version``) under ``name`` pool-wide.

        Broadcasts a ``mutate`` frame to every live worker and, once they
        have answered, rebinds the pool's own map, which is what a worker
        respawned later warms its sessions over.  A frame that cannot be
        sent (it does not pickle) raises before anything is rebound.  A
        worker respawned while the broadcast was in flight started from
        the old map, so it is sent the frame after the rebind.  Returns
        the workers' responses.  Callers serialise mutations.
        """
        message = {"op": "mutate", "name": name, "relation": relation, "version": version}
        with self._lock:
            if self._closed:
                raise ServerClosedError("the worker pool is closed")
            workers = list(self._workers)
        responses = self._broadcast(workers, message)
        with self._lock:
            self._relations[name] = relation
            self._versions[name] = version
            respawned = [worker for worker in self._workers if worker not in workers]
        return responses + self._broadcast(respawned, message)

    def broadcast(self, message: Dict[str, Any]) -> list:
        """Send ``message`` to every live worker and collect the responses."""
        with self._lock:
            workers = list(self._workers)
        return self._broadcast(workers, message)

    @staticmethod
    def _broadcast(workers, message: Dict[str, Any]) -> list:
        # Every frame is sent before any response is awaited, so the
        # workers apply it concurrently; a dead or dying worker is skipped.
        sent = []
        for worker in workers:
            if not worker.alive():
                continue
            try:
                sent.append((worker, *worker.submit(message)))
            except (WorkerCrashedError, ServerClosedError):
                continue
        responses = []
        for worker, request_id, future in sent:
            try:
                responses.append(worker.wait(request_id, future))
            except (WorkerCrashedError, ServerClosedError):
                continue
        return responses

    def collect_metrics(self) -> list:
        """Every worker's ``registry.collect()`` snapshot (for ``/metrics``)."""
        return [
            response["collected"]
            for response in self.broadcast({"op": "metrics"})
            if response.get("ok")
        ]

    def stats(self) -> Dict[str, Any]:
        """Pool shape plus each worker's session/expression/event stats."""
        with self._lock:
            inflight = [worker.inflight for worker in self._workers]
        return {
            "size": self.size,
            "backend": self.backend,
            "concurrency": self.concurrency,
            "worker_restarts": self.worker_restarts,
            "inflight": inflight,
            "workers": [
                response["stats"]
                for response in self.broadcast({"op": "stats"})
                if response.get("ok")
            ],
        }

    def close(self) -> None:
        """Stop every worker (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            workers = list(self._workers)
        for worker in workers:
            worker.stop()
