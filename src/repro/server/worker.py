"""Worker processes: warm :class:`~repro.api.Session` pools behind a pipe.

Each worker is one forked OS process holding warm sessions over a
snapshot of the server's relations taken at the fork.  The front
talks to it over a socket pair carrying **tagged frames**: every request
dict travels with an ``id`` and every response echoes it.  The moving
parts:

* **In the worker** one loop reads a frame, serves it and writes its
  response before it reads the next, on one thread: frames are answered
  in the order they were written.  A query reads the bindings of every
  mutate written before it and of none written after, so its response
  always knows which database it was computed from.
* **In the front** there is no thread: the front's event loop reads and
  writes each :class:`Worker`'s end of the pipe, and resolves the
  worker's pending futures, keyed by request id, as responses arrive.
  When the pipe dies, **every** in-flight id fails with the typed
  :class:`WorkerCrashedError` (or :class:`ServerClosedError` after
  :meth:`Worker.stop`), which is what lets the pool respawn and retry
  each read-only request safely.  A request that outlives ``timeout``
  raises the typed :class:`RequestTimeoutError`; its id stays pending
  until the late response lands and is dropped, so the pool sees the
  worker busy until then.

What a worker in order gives up: a slow execute holds every frame written
behind it on that worker, pings, telemetry and mutates included.  The
pool routes each query to a worker with the fewest frames in flight, so
traffic goes around a worker busy with a slow spilling execute.

Warmth is the point.  A worker prepares each distinct query text once
per session (the session's registry answers a text it parsed at the
current epoch, and pins the plan), and keeps a small
LRU of *sessions* keyed by the per-request ``budget`` override — so
"the same query at the default budget" and "the same query squeezed to
64 rows" each hit a pinned plan in the steady state.  The
``BackendConfig`` stays immutable, and per-request budgets choose
*which* warm config serves.

Mutation rides the same frames: a ``mutate`` frame installs a fresh
relation under a name via every cached session's
:meth:`~repro.api.Session.set_relation` (and in the worker's binding map
for sessions warmed later), together with the relation's content version
(:func:`repro.server.cache.content_version`, computed by the front, and
only when it keeps a result cache).  A worker keeps ``{name: version}``
beside its bindings, and a query response reports the versions of the
relations it read, which is what the front's result cache files the
response under.  A worker whose mutate fails answers ``ok: false`` and
exits, so no query ever runs on a half-applied mutate.

Observability: every session of worker *i* shares one
:class:`~repro.obs.events.EventLog` mirrored to ``worker-i.jsonl`` when
the server configured an events directory (fork children never share a
file handle — each ``emit`` opens append-mode, and the PR 8 lock fix
keeps lines whole and in ``seq`` order), and one worker-scope
:class:`~repro.obs.metrics.MetricsRegistry` whose collected snapshot the
front merges into ``/metrics`` scrapes.
"""

from __future__ import annotations

import asyncio
import itertools
import multiprocessing
import os
import pickle
import signal
import socket
import struct
import threading
import traceback
from collections import OrderedDict
from concurrent.futures import CancelledError
from time import perf_counter
from typing import Any, Awaitable, Dict, Mapping, Optional, Tuple, TypeVar

from ..algebra.relation import Relation
from ..api.config import BackendConfig
from ..api.session import Session
from ..obs.config import Observer, ObserveConfig
from .errors import (
    RequestTimeoutError,
    ServerClosedError,
    ServerError,
    WorkerCrashedError,
)

__all__ = ["Worker", "WorkerPool", "worker_main"]

#: How many distinct budget session configs one worker keeps
#: warm; beyond this the least-recently-used session is closed (its pinned
#: plans with it).
MAX_SESSIONS_PER_WORKER = 4

#: How long a closing pool waits, in all, for its workers to exit before it
#: terminates the ones still running.
_STOP_SECONDS = 5.0


def fork_available() -> bool:
    """Whether this platform can fork: a worker pool's one platform probe."""
    return "fork" in multiprocessing.get_all_start_methods()


class _WorkerRuntime:
    """The in-child request state: a cache of warm sessions.

    :func:`worker_main` serves one frame at a time, so nothing here is
    shared between threads.
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
        #: The content version of each binding.
        self._versions = dict(versions)
        self._base_config = base_config
        self.index = index
        self._max_sessions = max(1, max_sessions)
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
        self._sessions: "OrderedDict[Optional[int], Session]" = OrderedDict()
        # The never-fires tripwire, surfaced per worker so a /metrics
        # scrape can assert it stayed zero across the whole fleet.
        self._overflows = self._observer.metrics.counter(
            "repro_spill_overflows_total",
            help="budget overflows the spill machinery failed to absorb",
        )

    def _session_key(self, budget: Optional[int]) -> Optional[int]:
        """The budget rows a frame's session runs under (the base's if absent)."""
        if budget is not None:
            return budget
        base_budget = self._base_config.budget
        return base_budget.rows if base_budget is not None else None

    def _session_for(self, budget: Optional[int]) -> Session:
        key = self._session_key(budget)
        session = self._sessions.get(key)
        if session is not None:
            self._sessions.move_to_end(key)
            return session
        config = self._base_config.override(budget=key, observe=self._observer)
        session = Session(self._relations, config)
        self._sessions[key] = session
        while len(self._sessions) > self._max_sessions:
            _stale_key, stale = self._sessions.popitem(last=False)
            stale.close()
        return session

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
        # A frame's ``workers`` key, if a caller still sends one, is ignored:
        # a served query runs in one process.
        session = self._session_for(message.get("budget"))
        prepared = session.prepare(message["query"])
        # A count reads no rows: it builds no result relation.
        count_only = message.get("count_only")
        if count_only:
            rowcount = prepared.count()
            trace = prepared.last_trace()
            columns = prepared.columns
        else:
            result = prepared.execute()
            rowcount, trace, columns = len(result), result.trace, result.scheme.names
        elapsed = perf_counter() - start
        counters = trace.counters
        self._overflows.inc(counters.get("spill_overflows", 0))
        response: Dict[str, Any] = {
            "ok": True,
            "worker": self.index,
            "columns": list(columns),
            "versions": {name: self._versions.get(name) for name in prepared.operand_names},
            "rowcount": rowcount,
            "elapsed_ms": elapsed * 1000.0,
            "budget": self._session_key(message.get("budget")),
            "spilled_rows": counters.get("spill_rows", 0),
            "spill_overflows": counters.get("spill_overflows", 0),
            "peak_memory_rows": trace.peak_memory_rows,
            "spans": len(trace.spans or ()),
        }
        if not count_only:
            response["rows"] = [list(row) for row in result.relation.sorted_rows()]
        return response

    def _handle_mutate(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Install a fresh relation and its version under a name, in every warm session.

        The new binding applies to every frame after this one.  A failure
        part way leaves the worker half-applied: :func:`worker_main` then
        answers the failure and exits.
        """
        name = message["name"]
        relation = message["relation"]
        if not isinstance(relation, Relation):  # pragma: no cover - front checks
            raise ServerError("mutate frames must carry a Relation")
        self._relations[name] = relation
        self._versions[name] = message["version"]
        for session in self._sessions.values():
            session.set_relation(name, relation)
        return {
            "ok": True,
            "worker": self.index,
            "name": name,
            "rowcount": len(relation),
            "sessions_invalidated": len(self._sessions),
        }

    def _collect_metrics(self) -> Dict[str, Dict[str, Any]]:
        return self._observer.metrics.collect()

    def _stats(self) -> Dict[str, Any]:
        sessions = {
            f"budget={key}": session.stats()
            for key, session in self._sessions.items()
        }
        events = self._observer.events
        return {
            "pid": os.getpid(),
            "worker": self.index,
            "sessions": sessions,
            "event_counts": events.counts() if events is not None else {},
        }

    def close(self) -> None:
        """Close every warm session (pools, temp dirs) before exit."""
        while self._sessions:
            self._sessions.popitem(last=False)[1].close()


#: A frame on a worker pipe, either way: an 8-byte big-endian length,
#: then the pickled dict.
_HEADER = struct.Struct("!Q")


def _frame(message: Dict[str, Any]) -> bytes:
    payload = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
    return _HEADER.pack(len(payload)) + payload


def _read_frame(reader) -> Dict[str, Any]:
    """The next frame off a blocking binary stream; ``EOFError`` at its end."""
    header = reader.read(_HEADER.size)
    if len(header) < _HEADER.size:
        raise EOFError("the pipe closed")
    size = _HEADER.unpack(header)[0]
    payload = reader.read(size)
    if len(payload) < size:
        raise EOFError("the pipe closed mid-frame")
    return pickle.loads(payload)


def _observe_trace(config: BackendConfig) -> bool:
    observe = config.observe
    return bool(observe is not None and getattr(observe, "trace", False))


def worker_main(
    sock: socket.socket,
    relations: Mapping[str, Relation],
    versions: Mapping[str, Optional[str]],
    base_config: BackendConfig,
    index: int,
    events_path: Optional[str] = None,
    max_sessions: int = MAX_SESSIONS_PER_WORKER,
) -> None:
    """The worker loop: read a frame, serve it, write its response; repeat.

    One frame at a time, on the calling thread, so responses leave in the
    order their requests arrived.  Runs until a ``shutdown`` frame, the
    parent's end of the pipe closing, or a mutate that failed: that one is
    answered ``ok: false`` first, and no frame after it is served on the
    half-applied bindings.  Every way out closes the warm sessions.
    """
    runtime = _WorkerRuntime(
        relations, versions, base_config, index, events_path, max_sessions
    )
    reader = sock.makefile("rb")
    try:
        while True:
            try:
                message = _read_frame(reader)
            except (EOFError, OSError):
                break
            if not isinstance(message, dict) or message.get("op") == "shutdown":
                break
            response = runtime.handle(message)
            response["id"] = message.get("id")
            try:
                sock.sendall(_frame(response))
            except OSError:
                break  # the front went away; nothing to answer
            if message.get("op") == "mutate" and not response["ok"]:
                break
    finally:
        runtime.close()
        reader.close()
        sock.close()


def _exit_on_sigterm(signum, _frame) -> None:
    raise SystemExit(128 + signum)


def _forked_main(front_sock: socket.socket, *args) -> None:
    # The child inherits the front's end of its own pipe: holding it open,
    # it would never see end-of-file if the front died without a word.
    front_sock.close()
    # A forked child ends in ``os._exit``, which runs no atexit hook: a
    # worker terminated mid-spill (``Worker.stop``'s last resort) unwinds
    # instead, so every spill directory's owner removes it in a ``finally``.
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    worker_main(*args)


_T = TypeVar("_T")


class _Pipe(asyncio.Protocol):
    """The front's end of one worker pipe: cuts the byte stream into responses."""

    def __init__(self, worker: "Worker"):
        self._worker = worker
        self._buffer = bytearray()

    def connection_made(self, transport) -> None:
        self._worker._transport = transport

    def data_received(self, data: bytes) -> None:
        buffer = self._buffer
        buffer += data
        while len(buffer) >= _HEADER.size:
            end = _HEADER.size + _HEADER.unpack_from(buffer)[0]
            if len(buffer) < end:
                return
            response = pickle.loads(buffer[_HEADER.size:end])
            del buffer[:end]
            self._worker._resolve(response)

    def connection_lost(self, exc) -> None:
        self._worker._fail(
            WorkerCrashedError(
                f"worker {self._worker.index} died with requests in flight"
            )
        )


class Worker:
    """The front's handle of one worker: its pipe and its forked process.

    It belongs to the event loop that first writes to it, which resolves
    responses by id as they arrive; the worker answers the frames in the
    order they were written.  A dead worker fails **all** of its in-flight
    ids with :class:`WorkerCrashedError` so the pool can respawn and retry
    each.
    """

    def __init__(
        self,
        index: int,
        relations: Mapping[str, Relation],
        versions: Mapping[str, Optional[str]],
        base_config: BackendConfig,
        events_path: Optional[str] = None,
        max_sessions: int = MAX_SESSIONS_PER_WORKER,
    ):
        self.index = index
        self._pending: Dict[int, asyncio.Future] = {}
        self._ids = itertools.count(1)
        self._closed = False
        #: The typed error every later request fails with at once, set when
        #: the pipe dies or the worker is stopped.  :meth:`alive` reads it
        #: first: ``process.is_alive()`` can lag the pipe's death.
        self._dead_error: Optional[ServerError] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._connecting: Optional[asyncio.Task] = None
        self._transport: Optional[asyncio.Transport] = None
        self._sock, child_sock = socket.socketpair()
        args = (child_sock, relations, versions, base_config, index,
                events_path, max_sessions)
        self._process = multiprocessing.get_context("fork").Process(
            target=_forked_main, args=(self._sock, *args), daemon=True
        )
        self._process.start()
        child_sock.close()  # the child's end lives in the child now

    # -- the demultiplexer ---------------------------------------------

    def _resolve(self, response: Dict[str, Any]) -> None:
        future = self._pending.pop(response.pop("id", None), None)
        if future is not None and not future.done():
            future.set_result(response)

    def _fail(self, error: ServerError) -> None:
        """Fail every in-flight id, and every later request, with one typed error."""
        if self._dead_error is None:
            self._dead_error = error
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(self._dead_error)

    @property
    def inflight(self) -> int:
        """How many frames written to this worker it has not answered yet."""
        return len(self._pending)

    def alive(self) -> bool:
        """Whether the worker can still take requests."""
        if self._dead_error is not None:
            return False
        return self._process.is_alive()

    async def request(
        self, message: Dict[str, Any], timeout: Optional[float] = None
    ) -> Dict[str, Any]:
        """Write one tagged frame and await *its* response.

        ``timeout`` bounds the wait: expiry raises the typed
        :class:`RequestTimeoutError`, and the late response is dropped on
        arrival.
        """
        return await self.wait(*await self.submit(message), timeout=timeout)

    async def submit(self, message: Dict[str, Any]) -> Tuple[int, asyncio.Future]:
        """Write one tagged frame; return its id and the future :meth:`wait` awaits.

        A frame that does not pickle raises as it is, before anything is
        pending or written: nothing reached the worker, which keeps
        serving.  A dead or stopped worker raises its typed error.
        """
        request_id = next(self._ids)
        data = _frame({**message, "id": request_id})
        if self._transport is None and self._dead_error is None:
            if self._connecting is None:
                self._loop = asyncio.get_running_loop()
                self._connecting = self._loop.create_task(
                    self._loop.connect_accepted_socket(lambda: _Pipe(self), self._sock)
                )
            try:
                await self._connecting
            except OSError as error:  # the pipe was closed under the connect
                self._fail(WorkerCrashedError(
                    f"worker {self.index}'s pipe failed ({type(error).__name__})"
                ))
        if self._dead_error is not None:
            raise self._dead_error
        future = self._loop.create_future()
        self._pending[request_id] = future
        self._transport.write(data)
        return request_id, future

    async def wait(
        self, request_id: int, future: asyncio.Future, timeout: Optional[float] = None
    ) -> Dict[str, Any]:
        """Await the response to a frame :meth:`submit` wrote.

        A caller that gives up — a timeout, a cancelled task — leaves the
        id pending until the worker answers it, and :attr:`inflight` counts
        it until then.
        """
        try:
            if timeout is None:
                return await future
            return await asyncio.wait_for(future, timeout)
        except asyncio.TimeoutError:
            raise RequestTimeoutError(
                f"worker {self.index} did not answer request {request_id} "
                f"within {timeout}s"
            ) from None

    def stop(self, wait: bool = True, timeout: float = _STOP_SECONDS) -> None:
        """Shut the worker down: shutdown frame, then the pipe closed.

        Every in-flight id fails with :class:`ServerClosedError`.  Unless
        ``wait`` is false, the worker is then joined (a stuck process
        terminated).  Call it on the loop the pipe belongs to, or with no
        loop running it.
        """
        if not self._closed:
            self._closed = True
            self._fail(ServerClosedError(f"worker {self.index} is closed"))
            shutdown = _frame({"op": "shutdown"})
            transport = self._transport
            try:
                if transport is None or transport.is_closing() or self._loop.is_closed():
                    self._sock.sendall(shutdown)
                else:
                    transport.write(shutdown)
                    transport.abort()
            except OSError:
                pass  # the worker is gone already
            self._sock.close()
        if wait and not self.join(timeout):  # pragma: no cover - stuck worker
            self._process.terminate()
            self._process.join(timeout)

    def join(self, timeout: float) -> bool:
        """Wait up to ``timeout`` seconds for the worker to exit; whether it did."""
        self._process.join(timeout)
        return not self._process.is_alive()

    def kill(self) -> None:
        """Hard-kill the worker process (a stuck one at close; crash tests)."""
        if self._process.is_alive():
            self._process.terminate()
            self._process.join(2.0)


class WorkerPool:
    """A fixed-size pool of in-order workers with respawn-and-retry.

    Dispatch picks the worker with the fewest frames in flight (the first
    idle one, round-robin), so a worker busy with a slow spilling execute
    — or one whose caller gave up on it — is routed around while any
    other is idle.  A request that finds its worker dead respawns it once
    and retries — queries are pure reads, so the retry is safe — counting
    the rebuild in ``worker_restarts``.  When a crash fails many in-flight
    ids at once, each dispatch retries independently against the one
    respawned worker.  ``versions`` maps each relation name to its content
    version, for a front that keeps a result cache; without it a query
    response reports ``None`` for every name it read.  Workers are forked,
    so a platform without :func:`os.fork` gets a :class:`ServerError`.

    The pool's coroutines all run on one event loop and take no locks: a
    server's loop, or — for a caller off any loop (:meth:`dispatch`,
    :meth:`run`) — a loop thread the pool starts on the first such call.
    """

    def __init__(
        self,
        relations: Mapping[str, Relation],
        base_config: BackendConfig,
        size: int = 2,
        events_dir: Optional[str] = None,
        max_sessions: int = MAX_SESSIONS_PER_WORKER,
        versions: Optional[Mapping[str, str]] = None,
    ):
        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        if not fork_available():
            raise ServerError(
                "a worker pool forks its workers, and this platform has no os.fork"
            )
        self._relations = dict(relations)
        self._versions: Dict[str, Optional[str]] = dict(versions or {})
        self._base_config = base_config
        self._events_dir = events_dir
        self._max_sessions = max_sessions
        self.size = size
        self._closed = False
        self._next = 0
        self.worker_restarts = 0
        #: The pool's own loop and its thread, started by the first :meth:`run`.
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._start_lock = threading.Lock()
        self._workers = [self._spawn(index) for index in range(size)]

    def _events_path(self, index: int) -> Optional[str]:
        if self._events_dir is None:
            return None
        os.makedirs(self._events_dir, exist_ok=True)
        return os.path.join(self._events_dir, f"worker-{index}.jsonl")

    def _spawn(self, index: int) -> Worker:
        return Worker(
            index,
            self._relations,
            self._versions,
            self._base_config,
            events_path=self._events_path(index),
            max_sessions=self._max_sessions,
        )

    def relation(self, name: str) -> Optional[Relation]:
        """The pool's current binding for ``name`` (what a respawn serves)."""
        return self._relations.get(name)

    def versions(self) -> Dict[str, Optional[str]]:
        """The content version of every current binding the pool was given."""
        return dict(self._versions)

    def _pick(self) -> int:
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
        worker = self._workers[index]
        if worker.alive():
            return worker
        if self._closed:
            raise ServerClosedError("the worker pool is closed")
        self.worker_restarts += 1
        worker = self._spawn(index)
        self._workers[index] = worker
        return worker

    async def dispatch_async(
        self, message: Dict[str, Any], timeout: Optional[float] = None
    ) -> Dict[str, Any]:
        """Send ``message`` to one worker; respawn and retry once on a crash.

        A worker the pool stopped to replace it (see :meth:`mutate_async`)
        fails its in-flight ids as closed; they are retried on the
        replacement.  A :class:`RequestTimeoutError` is *not* retried — the
        caller's deadline already expired and the worker is healthy, just
        slow.
        """
        index = self._pick()
        worker = self._ensure_alive(index)
        try:
            return await worker.request(message, timeout=timeout)
        except (WorkerCrashedError, ServerClosedError):
            worker = self._ensure_alive(index)
            return await worker.request(message, timeout=timeout)

    def dispatch(
        self, message: Dict[str, Any], timeout: Optional[float] = None
    ) -> Dict[str, Any]:
        """:meth:`dispatch_async` for a caller off any event loop; blocks."""
        return self.run(self.dispatch_async(message, timeout=timeout))

    def run(self, coroutine: Awaitable[_T]) -> _T:
        """Run one of the pool's coroutines from a thread off its loop; block.

        The first call starts the pool's own loop thread (a pool a server
        drives never gets one: its coroutines run on the server's loop).
        A call :meth:`close` cuts short raises :class:`ServerClosedError`.
        """
        with self._start_lock:
            if self._closed:
                coroutine.close()
                raise ServerClosedError("the worker pool is closed")
            if self._loop is None:
                self._loop = asyncio.new_event_loop()
                self._thread = threading.Thread(
                    target=self._run_loop, name="repro-pool", daemon=True
                )
                self._thread.start()
        try:
            return asyncio.run_coroutine_threadsafe(coroutine, self._loop).result()
        except CancelledError:
            raise ServerClosedError("the worker pool is closed") from None

    def _run_loop(self) -> None:
        loop = self._loop
        asyncio.set_event_loop(loop)
        try:
            loop.run_forever()
        finally:
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            loop.run_until_complete(asyncio.gather(*pending, return_exceptions=True))
            loop.close()

    async def mutate_async(
        self, name: str, relation: Relation, version: Optional[str]
    ) -> list:
        """Install ``relation`` (content ``version``) under ``name`` pool-wide.

        Writes a ``mutate`` frame to every live worker, then rebinds the
        pool's own map — what a worker respawned from then on warms its
        sessions over — and awaits the answers.  A frame that does not
        pickle raises before anything is rebound.  A worker respawned
        while the frames were being written is sent the frame too.  A
        worker that answered ``ok: false`` has exited: its slot is
        respawned from the new map, counted in ``worker_restarts``, and
        the frames queued behind the failed mutate fail as a crash and are
        retried there, on the new rows.  One skipped as dead is respawned
        by the next dispatch to it.  Returns the workers' responses.
        Callers serialise mutations.
        """
        message = {"op": "mutate", "name": name, "relation": relation, "version": version}
        if self._closed:
            raise ServerClosedError("the worker pool is closed")
        workers = list(self._workers)
        sent = await self._submit(workers, message)
        self._relations[name] = relation
        self._versions[name] = version
        respawned = [worker for worker in self._workers if worker not in workers]
        sent += await self._submit(respawned, message)
        answers = await self._answers(sent)
        for worker, ack in answers:
            if not ack.get("ok"):
                self._replace(worker)
        return [ack for _worker, ack in answers]

    def _replace(self, worker: Worker) -> None:
        """Respawn ``worker``'s slot from the current map, then stop it."""
        if self._closed or self._workers[worker.index] is not worker:
            return  # closing, or already respawned by a dispatch
        self.worker_restarts += 1
        self._workers[worker.index] = self._spawn(worker.index)
        worker.stop(wait=False)  # it exits by itself; the loop does not wait

    @classmethod
    async def _broadcast(cls, workers, message: Dict[str, Any]) -> list:
        # Every frame is written before any response is awaited, so the
        # workers serve it concurrently.
        answers = await cls._answers(await cls._submit(workers, message))
        return [response for _worker, response in answers]

    @staticmethod
    async def _submit(workers, message: Dict[str, Any]) -> list:
        """Write ``message`` to each worker; a dead or dying one is skipped."""
        sent = []
        for worker in workers:
            if not worker.alive():
                continue
            try:
                sent.append((worker, *await worker.submit(message)))
            except (WorkerCrashedError, ServerClosedError):
                continue
        return sent

    @staticmethod
    async def _answers(sent: list) -> list:
        """``(worker, response)`` for every frame :meth:`_submit` wrote that was answered."""

        async def answer(worker: Worker, request_id: int, future: asyncio.Future):
            try:
                return worker, await worker.wait(request_id, future)
            except (WorkerCrashedError, ServerClosedError):
                return None

        answers = await asyncio.gather(*(answer(*entry) for entry in sent))
        return [pair for pair in answers if pair is not None]

    async def collect_metrics_async(self) -> list:
        """Every worker's ``registry.collect()`` snapshot (for ``/metrics``)."""
        responses = await self._broadcast(list(self._workers), {"op": "metrics"})
        return [response["collected"] for response in responses if response.get("ok")]

    async def stats_async(self) -> Dict[str, Any]:
        """Pool shape plus each worker's session/expression/event stats."""
        inflight = [worker.inflight for worker in self._workers]
        responses = await self._broadcast(list(self._workers), {"op": "stats"})
        return {
            "size": self.size,
            "backend": "fork",
            "worker_restarts": self.worker_restarts,
            "inflight": inflight,
            "workers": [response["stats"] for response in responses if response.get("ok")],
        }

    def close(self) -> None:
        """Stop every worker (idempotent).

        Call it on the loop that drives the pool (or with that loop
        stopped); a pool running its own loop takes it from any thread,
        and stops that loop too.
        """
        if self._closed:
            return
        if self._thread is None:
            self._stop_workers()
            return

        async def stop_workers() -> None:
            self._stop_workers()

        self.run(stop_workers())
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join()

    def _stop_workers(self) -> None:
        # Every worker is told first and all are joined against one
        # deadline, so busy workers finish their executes side by side.
        self._closed = True
        for worker in self._workers:
            worker.stop(wait=False)
        deadline = perf_counter() + _STOP_SECONDS
        for worker in self._workers:
            if not worker.join(max(deadline - perf_counter(), 0.0)):
                worker.kill()
