"""The serving front: admission, budget leasing, dispatch, observability.

:class:`ReproServer` is the networked tier over the facade: an
:mod:`asyncio` front accepts JSON query requests, *admits* them against
a bounded in-flight limit (excess load is shed with a typed 503, never
queued unboundedly), *leases* each admitted request an engine budget
from the cross-session :class:`~repro.server.budget.BudgetScheduler`,
and *dispatches* it to a :class:`~repro.server.worker.WorkerPool` of
processes holding warm sessions with pinned plans and forked probe
pools.  Per-request ``budget``/``workers`` overrides travel with the
request and select (or warm) a matching session in the worker — the
serving-tier close of PR 4's fixed-at-construction budget follow-up.

Observability is wired end-to-end: the front keeps its own
:class:`~repro.obs.metrics.MetricsRegistry` (request counts, latency
histogram, shed/error counters, in-flight gauge), ``GET /metrics``
merges it with every worker's snapshot via
:func:`~repro.obs.export.merge_collected` and renders the Prometheus
exposition, workers mirror their event logs to per-worker JSONL files,
and a request carrying ``"trace": true`` gets the front's span
summaries (admit → lease → dispatch) in its response body.

Two serving-tier scale-out mechanisms sit on that pipeline.  Each
worker's pipe is *multiplexed* (tagged request ids, see
:mod:`repro.server.worker`), so one worker serves several requests
concurrently and a slow spilling execute no longer head-of-line-blocks
fast queries; dispatch picks the least-loaded worker.  And the front
keeps a *result cache keyed on content* (:mod:`repro.server.cache`):
pure read-only queries repeat without leasing budget or touching a
worker, each response filed under the content versions of the relations
its execute bound.  ``POST /mutate`` replaces a relation's rows across
every worker, then switches which version of that name is current —
mutations run one at a time, under one front lock, so every worker
applies them in the same order.

Routes::

    POST /query    {"query": "project[A](R * S)", "budget": 64, ...}
    POST /mutate   {"name": "R", "rows": [[1, 2], [3, 4], ...]}
    GET  /metrics  Prometheus text exposition (front + all workers)
    GET  /stats    JSON: front counters, budget scheduler, cache, pool
    GET  /healthz  liveness probe

Use :meth:`ReproServer.start` for a daemon-thread server (tests, the
load generator) or :meth:`ReproServer.serve_forever` under
``asyncio.run`` for the ``repro serve`` CLI.
"""

from __future__ import annotations

import asyncio
import json
import threading
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from ..algebra.errors import AlgebraError
from ..algebra.relation import Relation
from ..api.config import BACKENDS, BackendConfig
from ..engine.physical import MemoryBudget
from ..obs.config import Observer, ObserveConfig
from ..obs.export import merge_collected, render_prometheus
from ..obs.tracer import Tracer
from .budget import BudgetScheduler
from .errors import (
    BadRequestError,
    ServerClosedError,
    ServerError,
    ServerOverloadedError,
)
from .http import HttpError, HttpRequest, read_request, split_target, write_response
from .cache import CacheKey, ResultCache, content_version
from .worker import WorkerPool

__all__ = ["ReproServer", "ServerConfig"]

#: Lower-layer exception class names that are the *client's* fault: they
#: cross the worker pipe by name and map to HTTP 400 rather than 500.
#: ``/stats`` ``front`` key -> the one registry counter that event bumps.
_FRONT_COUNTERS = {
    "requests": ("repro_http_requests_total", "HTTP requests accepted"),
    "queries": ("repro_http_queries_total", "queries served"),
    "mutations": ("repro_http_mutations_total", "relation mutations applied"),
    "shed_overload": ("repro_http_shed_total", "requests shed by admission control"),
    "shed_budget": (
        "repro_budget_rejections_total",
        "requests shed by the budget scheduler",
    ),
    "client_errors": ("repro_http_client_errors_total", "requests refused as malformed"),
    "server_errors": ("repro_http_errors_total", "requests failed server-side"),
    "timeouts": (
        "repro_http_timeouts_total",
        "requests that outlived their worker deadline",
    ),
}

_CLIENT_FAULT_ERRORS = frozenset(
    {
        "BadRequestError",
        "ExpressionError",
        "SchemeError",
        "SessionError",
        "UnknownBackendError",
    }
)


@dataclass(frozen=True)
class ServerConfig:
    """Every knob of the serving tier, mirroring ``BackendConfig``'s shape.

    ``host`` / ``port``
        Bind address; port 0 picks a free port (read it back from
        ``server.port`` after start — how the tests and load generator
        run without port coordination).
    ``pool_size``
        Worker processes, each holding warm sessions (the serving
        analogue of ``BackendConfig.workers``, which stays the *engine*
        probe parallelism inside one execution).
    ``worker_backend``
        Force ``"fork"`` or ``"thread"`` workers (default: fork where
        available, matching the engine's probe pools).
    ``max_inflight``
        Admission bound: requests beyond this many concurrently being
        served are shed with a typed 503, never queued unboundedly.
    ``total_budget_rows`` / ``default_request_rows``
        The shared :class:`~repro.server.budget.BudgetScheduler` pool —
        ``None`` total means unlimited (leases are only accounted).
    ``backend`` / ``session_budget`` / ``engine_workers``
        The base :class:`~repro.api.BackendConfig` every worker session
        is derived from; per-request overrides replace the budget/worker
        fields per session-cache entry.
    ``events_dir``
        Mirror each worker's event log to ``<events_dir>/worker-i.jsonl``.
    ``trace``
        Span-trace every execution in the workers (requests can also opt
        in per call with ``"trace": true`` for front spans).
    ``worker_concurrency``
        How many query frames one worker serves at a time over its
        multiplexed pipe; ``1`` restores the pre-multiplex serialised
        worker (the head-of-line benchmark baseline).
    ``result_cache_size``
        Entry cap of the front's content-keyed result cache
        (:class:`~repro.server.cache.ResultCache`); ``0`` disables
        caching entirely.
    ``request_timeout_seconds``
        Per-dispatch deadline: a worker that does not answer a request
        id in time fails that request with the typed 504
        :class:`~repro.server.errors.RequestTimeoutError` (lease
        released, pipe untouched).  ``None`` waits forever.
    """

    host: str = "127.0.0.1"
    port: int = 0
    pool_size: int = 2
    worker_backend: Optional[str] = None
    max_inflight: int = 16
    total_budget_rows: Optional[int] = None
    default_request_rows: Optional[int] = None
    backend: str = "engine"
    session_budget: Union[MemoryBudget, int, None] = None
    engine_workers: int = 1
    events_dir: Optional[str] = None
    trace: bool = False
    worker_concurrency: int = 4
    result_cache_size: int = 256
    request_timeout_seconds: Optional[float] = None

    def __post_init__(self):
        """Validate the serving-side knobs (backend is checked downstream)."""
        if self.pool_size < 1:
            raise ValueError(f"pool_size must be >= 1, got {self.pool_size}")
        if self.max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {self.max_inflight}")
        if self.worker_concurrency < 1:
            raise ValueError(
                f"worker_concurrency must be >= 1, got {self.worker_concurrency}"
            )
        if self.result_cache_size < 0:
            raise ValueError(
                f"result_cache_size must be >= 0, got {self.result_cache_size}"
            )
        if (
            self.request_timeout_seconds is not None
            and self.request_timeout_seconds <= 0
        ):
            raise ValueError(
                "request_timeout_seconds must be positive or None, got "
                f"{self.request_timeout_seconds}"
            )

    def override(self, **changes) -> "ServerConfig":
        """A copy with ``changes`` applied (validated like the constructor)."""
        from dataclasses import replace

        return replace(self, **changes)


class ReproServer:
    """Serve prepared queries over HTTP from a pool of warm worker processes.

    ``relations`` is the ``{name: relation}`` database every worker
    session binds (forked workers inherit it copy-on-write).  ``config``
    carries the serving knobs; keyword overrides are applied on top, so
    ``ReproServer(db, pool_size=4, total_budget_rows=20_000)`` needs no
    explicit config object.
    """

    def __init__(
        self,
        relations: Mapping[str, Relation],
        config: Optional[ServerConfig] = None,
        **overrides,
    ):
        base = config or ServerConfig()
        if overrides:
            base = base.override(**overrides)
        self.config = base
        self._backend_config = BackendConfig(
            backend=base.backend,
            budget=base.session_budget,
            workers=base.engine_workers,
            observe=ObserveConfig(trace=base.trace),
        )
        # Content versions key the result cache and nothing else: a server
        # without one never digests a relation.
        versions = (
            {name: content_version(relation) for name, relation in relations.items()}
            if base.result_cache_size > 0
            else {}
        )
        self._pool = WorkerPool(
            relations,
            self._backend_config,
            size=base.pool_size,
            worker_backend=base.worker_backend,
            events_dir=base.events_dir,
            concurrency=base.worker_concurrency,
            versions=versions,
        )
        self._scheduler = BudgetScheduler(
            total_rows=base.total_budget_rows,
            default_request_rows=base.default_request_rows,
        )
        self._observer = Observer(ObserveConfig(events=True))
        self._metrics = self._observer.metrics
        self._front = {
            key: self._metrics.counter(name, help=help)
            for key, (name, help) in _FRONT_COUNTERS.items()
        }
        self._cache: Optional[ResultCache] = (
            ResultCache(
                base.result_cache_size,
                versions=versions,
                metrics=self._metrics,
                events=self._observer.events,
            )
            if base.result_cache_size > 0
            else None
        )
        self._state_lock = threading.Lock()
        # Held for the whole of a POST /mutate: one mutation at a time, so
        # every worker applies them in one order and the cache's current
        # versions switch in that order too.
        self._mutate_lock = threading.Lock()
        self._inflight = 0
        self._closed = False
        self.port: Optional[int] = None
        self._asyncio_server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ------------------------------------------------------

    async def start_async(self) -> None:
        """Bind the listening socket on the running loop."""
        self._loop = asyncio.get_running_loop()
        self._asyncio_server = await asyncio.start_server(
            self._handle_client, host=self.config.host, port=self.config.port
        )
        self.port = self._asyncio_server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """Bind and serve until cancelled (the ``repro serve`` path)."""
        await self.start_async()
        try:
            await self._asyncio_server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await self._stop_async()
            self._pool.close()

    def start(self) -> "ReproServer":
        """Run the server on a daemon thread; returns once the port is bound.

        The thread-backed form the tests and the load generator use::

            server = ReproServer(relations).start()
            ... http.client against ("127.0.0.1", server.port) ...
            server.close()
        """
        ready = threading.Event()
        failure: list = []

        def run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            try:
                loop.run_until_complete(self.start_async())
            except Exception as error:  # bind failures surface in start()
                failure.append(error)
                ready.set()
                loop.close()
                return
            ready.set()
            try:
                loop.run_forever()
            finally:
                loop.run_until_complete(self._stop_async())
                pending = asyncio.all_tasks(loop)
                for task in pending:
                    task.cancel()
                if pending:
                    loop.run_until_complete(
                        asyncio.gather(*pending, return_exceptions=True)
                    )
                loop.close()

        self._thread = threading.Thread(
            target=run, name="repro-server", daemon=True
        )
        self._thread.start()
        if not ready.wait(timeout=10.0):
            raise ServerError("server failed to bind within 10s")
        if failure:
            raise failure[0]
        return self

    async def _stop_async(self) -> None:
        server = self._asyncio_server
        if server is not None:
            self._asyncio_server = None
            server.close()
            await server.wait_closed()

    def close(self) -> None:
        """Stop accepting, stop the loop thread, shut the workers. Idempotent."""
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
        loop, thread = self._loop, self._thread
        if loop is not None and thread is not None and thread.is_alive():
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=10.0)
        self._pool.close()

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    @property
    def url(self) -> str:
        """The server's base URL (valid once started)."""
        if self.port is None:
            raise ServerError("the server has not been started")
        return f"http://{self.config.host}:{self.port}"

    def __enter__(self) -> "ReproServer":
        return self.start()

    def __exit__(self, *_exc_info) -> None:
        self.close()

    # -- connection handling -------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HttpError as error:
                    body = _error_body(type(error).__name__, str(error))
                    await write_response(
                        writer, error.status, body, keep_alive=False
                    )
                    break
                if request is None:
                    break
                status, content_type, body = await self._route(request)
                keep_alive = request.keep_alive and not self._closed
                await write_response(
                    writer, status, body, content_type, keep_alive
                )
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # Shutdown cancels in-flight handlers; finish quietly so the
            # loop's exception handler stays silent.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
                pass

    async def _route(self, request: HttpRequest) -> Tuple[int, str, bytes]:
        path, _query = split_target(request.path)
        self._front["requests"].inc()
        if path == "/query":
            if request.method != "POST":
                return 405, "application/json", _error_body(
                    "BadRequestError", "use POST /query"
                )
            return await self._route_query(request)
        if path == "/mutate":
            if request.method != "POST":
                return 405, "application/json", _error_body(
                    "BadRequestError", "use POST /mutate"
                )
            return await self._route_mutate(request)
        if request.method != "GET":
            return 405, "application/json", _error_body(
                "BadRequestError", f"use GET {path}"
            )
        if path == "/metrics":
            text = await asyncio.get_running_loop().run_in_executor(
                None, self.render_metrics
            )
            return 200, "text/plain; version=0.0.4", text.encode("utf-8")
        if path == "/stats":
            stats = await asyncio.get_running_loop().run_in_executor(
                None, self.stats
            )
            return 200, "application/json", _json_body(stats)
        if path == "/healthz":
            return 200, "application/json", _json_body(
                {"ok": True, "workers": self._pool.size, "closed": self._closed}
            )
        return 404, "application/json", _error_body(
            "BadRequestError", f"no route {path!r}"
        )

    async def _route_query(self, request: HttpRequest) -> Tuple[int, str, bytes]:
        try:
            payload = request.json()
        except HttpError as error:
            self._front["client_errors"].inc()
            return error.status, "application/json", _error_body(
                type(error).__name__, str(error)
            )
        start = perf_counter()
        try:
            self._admit()
        except ServerOverloadedError as error:
            self._front["shed_overload"].inc()
            return error.status, "application/json", _error_body(
                type(error).__name__, str(error)
            )
        try:
            response = await asyncio.get_running_loop().run_in_executor(
                None, self._serve_query, payload
            )
        finally:
            self._leave()
            self._metrics.histogram(
                "repro_http_request_seconds", help="front request latency"
            ).observe(perf_counter() - start)
        return self._encode_query_response(response)

    async def _route_mutate(self, request: HttpRequest) -> Tuple[int, str, bytes]:
        try:
            payload = request.json()
        except HttpError as error:
            self._front["client_errors"].inc()
            return error.status, "application/json", _error_body(
                type(error).__name__, str(error)
            )
        response = await asyncio.get_running_loop().run_in_executor(
            None, self._serve_mutate, payload
        )
        return self._encode_query_response(response)

    # -- the query pipeline (runs on an executor thread) ----------------

    def _admit(self) -> None:
        with self._state_lock:
            if self._closed:
                raise ServerClosedError("the server is closed")
            if self._inflight >= self.config.max_inflight:
                raise ServerOverloadedError(
                    f"{self._inflight} requests in flight >= max_inflight="
                    f"{self.config.max_inflight}; shedding load"
                )
            self._inflight += 1
            self._metrics.gauge(
                "repro_http_inflight", help="requests currently being served"
            ).set(self._inflight)

    def _leave(self) -> None:
        with self._state_lock:
            self._inflight -= 1
            self._metrics.gauge(
                "repro_http_inflight", help="requests currently being served"
            ).set(self._inflight)

    def _serve_query(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Validate, consult the result cache, lease, dispatch; always typed.

        Cache lookups happen *after* admission (a cache hit still counts
        against ``max_inflight`` — shedding stays load-based, not
        hit-rate-based) but *before* budget leasing: a hit consumes no
        engine budget at all.  Traced requests bypass the cache entirely
        — their span trees describe a real execution.
        """
        tracer = Tracer() if payload.get("trace") else None
        cache = self._cache if tracer is None else None
        key: Optional[CacheKey] = None
        try:
            message = self._validate_query(payload)
            if cache is not None:
                key = (
                    message["query"],
                    message["backend"],
                    (
                        message["budget_request"]
                        if message["budget_request"] is not None
                        else self._scheduler.default_request_rows
                    ),
                    message["workers"],
                    message["count_only"],
                )
                cached = cache.lookup(key)
                if cached is not None:
                    cached["cached"] = True
                    self._front["queries"].inc()
                    return cached
            span = tracer.span("serve", "lease") if tracer else _NULL_SPAN
            with span:
                lease = self._scheduler.acquire(rows=message.pop("budget_request"))
            with lease:
                if lease.rows is not None:
                    message["budget"] = lease.rows
                span = tracer.span("serve", "dispatch") if tracer else _NULL_SPAN
                with span:
                    response = self._pool.dispatch(
                        message, timeout=self.config.request_timeout_seconds
                    )
            if response.get("ok") and cache is not None and key is not None:
                cache.fill(key, response)
                response["cached"] = False
        except ServerError as error:
            if isinstance(error, ServerOverloadedError):
                self._front["shed_budget"].inc()
            response = {
                "ok": False,
                "error": type(error).__name__,
                "message": str(error),
            }
        if response.get("ok"):
            self._front["queries"].inc()
        if tracer is not None:
            response["front_spans"] = [s.summary() for s in tracer.finish()]
        return response

    def _serve_mutate(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Replace one relation's rows across the pool, then switch versions.

        The relation's content version is computed here, once (and only
        when there is a cache), and rides the mutate frame.  The cache's
        current version of the name
        switches only after every worker acknowledged the new rows, so a
        read that misses after the switch is answered from them; a read
        that overlapped the mutation is answered from either content and
        filed under the one its execute bound.
        """
        try:
            name = payload.get("name")
            if not isinstance(name, str) or not name:
                raise BadRequestError('the "name" field must be a non-empty string')
            rows = payload.get("rows")
            if not isinstance(rows, list):
                raise BadRequestError('the "rows" field must be a list of rows')
            current = self._pool.relation(name)
            if current is None:
                raise BadRequestError(f"no relation named {name!r} is being served")
            try:
                relation = Relation.from_rows(
                    current.scheme, [tuple(row) for row in rows], name=name
                )
            except (TypeError, ValueError, AlgebraError) as error:
                raise BadRequestError(f"rows do not fit {name!r}'s scheme: {error}")
            # ``is None``, not truthiness: an empty cache has ``len() == 0``
            # and must still switch.
            cache = self._cache
            version = None if cache is None else content_version(relation)
            with self._mutate_lock:
                acks = self._pool.mutate(name, relation, version)
                noncurrent = 0 if cache is None else cache.switch(name, version)
            self._front["mutations"].inc()
            return {
                "ok": True,
                "name": name,
                "rowcount": len(relation),
                "workers_updated": sum(1 for ack in acks if ack.get("ok")),
                "cache_evicted": noncurrent,
            }
        except ServerError as error:
            return {
                "ok": False,
                "error": type(error).__name__,
                "message": str(error),
            }

    def _validate_query(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        query = payload.get("query")
        if not isinstance(query, str) or not query.strip():
            raise BadRequestError('the "query" field must be a non-empty string')
        backend = payload.get("backend")
        if backend is not None and backend not in BACKENDS:
            raise BadRequestError(
                f"unknown backend {backend!r}; expected one of {', '.join(BACKENDS)}"
            )
        budget = payload.get("budget")
        if budget is not None and (not isinstance(budget, int) or budget <= 0):
            raise BadRequestError('"budget" must be a positive integer')
        workers = payload.get("workers")
        if workers is not None and (not isinstance(workers, int) or workers < 1):
            raise BadRequestError('"workers" must be an integer >= 1')
        return {
            "op": "query",
            "query": query,
            "backend": backend,
            "workers": workers,
            "count_only": bool(payload.get("count_only")),
            "budget_request": budget,
        }

    def _encode_query_response(
        self, response: Dict[str, Any]
    ) -> Tuple[int, str, bytes]:
        if response.get("ok"):
            return 200, "application/json", _json_body(response)
        name = response.get("error", "ServerError")
        if name in _CLIENT_FAULT_ERRORS:
            self._front["client_errors"].inc()
            status = 400
        elif name in ("ServerOverloadedError", "BudgetExhaustedError",
                      "ServerClosedError"):
            status = 503
        elif name == "RequestTimeoutError":
            self._front["timeouts"].inc()
            status = 504
        else:
            self._front["server_errors"].inc()
            status = 500
        body = {
            "ok": False,
            "error": name,
            "message": response.get("message", ""),
        }
        if "front_spans" in response:
            body["front_spans"] = response["front_spans"]
        return status, "application/json", _json_body(body)

    # -- observability --------------------------------------------------

    def render_metrics(self) -> str:
        """The Prometheus exposition of the front merged with every worker."""
        collections = [self._metrics.collect()]
        collections.extend(self._pool.collect_metrics())
        return render_prometheus(merge_collected(collections))

    def stats(self) -> Dict[str, Any]:
        """Front counters + budget scheduler + worker pool, one JSON dict.

        The ``front`` numbers are views of the registry counters
        ``/metrics`` renders; a 504 is a server error here and its own
        ``repro_http_timeouts_total`` there.
        """
        front = {key: counter.value for key, counter in self._front.items()}
        front["server_errors"] += front.pop("timeouts")
        with self._state_lock:
            front["inflight"] = self._inflight
            front["closed"] = self._closed
        return {
            "front": front,
            "budget": self._scheduler.stats(),
            "cache": (
                self._cache.stats()
                if self._cache is not None
                else {"enabled": False}
            ),
            "pool": self._pool.stats(),
        }

class _NullSpanHandle:
    """Stand-in span when a request did not ask for front tracing."""

    def __enter__(self):
        return self

    def __exit__(self, *_exc_info):
        return False


_NULL_SPAN = _NullSpanHandle()


def _json_body(value: Dict[str, Any]) -> bytes:
    return json.dumps(value, sort_keys=True, default=str).encode("utf-8")


def _error_body(error: str, message: str) -> bytes:
    return _json_body({"ok": False, "error": error, "message": message})
