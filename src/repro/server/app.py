"""The serving front: admission, budget leasing, dispatch, observability.

:class:`ReproServer` is the networked tier over the facade: an
:mod:`asyncio` front accepts JSON query requests, *admits* them against
a bounded in-flight limit (excess load is shed with a typed 503, never
queued unboundedly), *leases* each admitted request an engine budget
from the cross-session :class:`~repro.server.budget.BudgetScheduler`,
and *dispatches* it to a :class:`~repro.server.worker.WorkerPool` of
processes holding warm sessions with pinned plans and forked probe
pools.  A per-request ``budget`` override travels with the request and
selects (or warms) a matching session in the worker.

Everything the front does runs on one :mod:`asyncio` event loop: the
HTTP parse, admission, the cache, the lease (an awaitable), the
dispatch (the pool writes the frame and awaits the worker's answer on
the same loop) and the encode.  No request crosses a thread.

Observability is wired end-to-end: the front keeps its own
:class:`~repro.obs.metrics.MetricsRegistry` (request counts, latency
histogram, shed/error counters, in-flight gauge), ``GET /metrics``
merges it with every worker's snapshot via
:func:`~repro.obs.export.merge_collected` and renders the Prometheus
exposition, workers mirror their event logs to per-worker JSONL files,
and a request carrying ``"trace": true`` gets the front's span
summaries (admit → lease → dispatch) in its response body.

Two serving-tier mechanisms sit on that pipeline.  Each worker answers
its frames one at a time, in the order they were written (tagged request
ids, see :mod:`repro.server.worker`), and dispatch picks the worker with
the fewest frames in flight, so fast queries go around a worker busy with
a slow spilling execute.  And the front keeps a *result cache keyed on
content* (:mod:`repro.server.cache`): pure read-only queries repeat
without leasing budget or touching a worker, each response filed under
the content versions of the relations its execute read.  ``POST /mutate`` replaces a relation's rows across
every worker, then switches which version of that name is current —
mutations run one at a time, under one front lock, so every worker
applies them in the same order.

Routes::

    POST /query    {"query": "project[A](R * S)", "budget": 64, ...}
    POST /mutate   {"name": "R", "rows": [[1, 2], [3, 4], ...]}
    GET  /metrics  Prometheus text exposition (front + all workers)
    GET  /stats    JSON: front counters, budget scheduler, cache, pool
    GET  /healthz  liveness probe

:meth:`ReproServer.start` serves on the worker pool's loop thread (the
tests, the load generator, the ``repro serve`` CLI) and
:meth:`ReproServer.close` stops it.
"""

from __future__ import annotations

import asyncio
from contextlib import nullcontext
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from ..algebra.errors import AlgebraError
from ..algebra.relation import Relation
from ..api.config import BackendConfig
from ..engine.spill import MemoryBudget
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
from .http import (
    HttpError,
    HttpRequest,
    json_body,
    read_request,
    split_target,
    write_response,
)
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
        Worker processes, each holding warm sessions.
    ``max_inflight``
        Admission bound: requests beyond this many concurrently being
        served are shed with a typed 503, never queued unboundedly.
    ``total_budget_rows`` / ``default_request_rows``
        The shared :class:`~repro.server.budget.BudgetScheduler` pool —
        ``None`` total means unlimited (leases are only accounted).
    ``session_budget``
        The budget of the base :class:`~repro.api.BackendConfig` every
        worker session is derived from; a per-request ``budget``
        replaces it per session-cache entry.  A served query runs in one
        process, as every execute does.
    ``events_dir``
        Mirror each worker's event log to ``<events_dir>/worker-i.jsonl``.
    ``trace``
        Span-trace every execution in the workers (requests can also opt
        in per call with ``"trace": true`` for front spans).
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
    max_inflight: int = 16
    total_budget_rows: Optional[int] = None
    default_request_rows: Optional[int] = None
    session_budget: Union[MemoryBudget, int, None] = None
    events_dir: Optional[str] = None
    trace: bool = False
    result_cache_size: int = 256
    request_timeout_seconds: Optional[float] = None

    def __post_init__(self):
        """Validate the serving-side knobs (the session ones are checked
        by :class:`~repro.api.BackendConfig`)."""
        # ``type(...) is int``: a bool or a float count is refused, not run.
        for name, least in (
            ("pool_size", 1),
            ("max_inflight", 1),
            ("result_cache_size", 0),
        ):
            value = getattr(self, name)
            if type(value) is not int or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
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
    explicit config object.  The workers are forked: on a platform
    without :func:`os.fork` construction raises :class:`ServerError`.
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
            budget=base.session_budget,
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
            events_dir=base.events_dir,
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
        self._inflight_gauge = self._metrics.gauge(
            "repro_http_inflight", help="requests currently being served"
        )
        self._request_seconds = self._metrics.histogram(
            "repro_http_request_seconds", help="front request latency"
        )
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
        # Held for the whole of a POST /mutate: one mutation at a time, so
        # every worker applies them in one order and the cache's current
        # versions switch in that order too.  Made on the loop it guards.
        self._mutate_lock: Optional[asyncio.Lock] = None
        self._inflight = 0
        self._closed = False
        self.port: Optional[int] = None
        self._asyncio_server: Optional[asyncio.AbstractServer] = None

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "ReproServer":
        """Serve on the worker pool's loop thread; returns once the port is bound::

            server = ReproServer(relations).start()
            ... http.client against ("127.0.0.1", server.port) ...
            server.close()
        """
        self._pool.run(self._start_async())
        return self

    async def _start_async(self) -> None:
        self._mutate_lock = asyncio.Lock()
        self._asyncio_server = await asyncio.start_server(
            self._handle_client, host=self.config.host, port=self.config.port
        )
        self.port = self._asyncio_server.sockets[0].getsockname()[1]

    async def _stop_async(self) -> None:
        """Stop accepting, then end every connection still open."""
        server, self._asyncio_server = self._asyncio_server, None
        if server is not None:
            server.close()
        current = asyncio.current_task()
        handlers = [task for task in asyncio.all_tasks() if task is not current]
        for task in handlers:
            task.cancel()
        await asyncio.gather(*handlers, return_exceptions=True)
        if server is not None:
            await server.wait_closed()

    def close(self) -> None:
        """Stop accepting, end the connections, shut the workers. Idempotent."""
        if self._closed:
            return
        self._closed = True
        if self._asyncio_server is not None:
            self._pool.run(self._stop_async())
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
                    self._front["client_errors"].inc()
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
            text = await self.render_metrics_async()
            return 200, "text/plain; version=0.0.4", text.encode("utf-8")
        if path == "/stats":
            return 200, "application/json", json_body(await self.stats_async())
        if path == "/healthz":
            return 200, "application/json", json_body(
                {"ok": True, "workers": self._pool.size, "closed": self._closed}
            )
        return 404, "application/json", _error_body(
            "BadRequestError", f"no route {path!r}"
        )

    async def _route_query(self, request: HttpRequest) -> Tuple[int, str, bytes]:
        """Admit, validate, look the result cache up, else lease and dispatch.

        A hit is answered from its stored bytes.  A miss (or a traced
        request) awaits its lease — which can wait on the budget
        scheduler — and its worker's answer, then fills the cache.  A hit
        still counts against ``max_inflight`` (shedding stays load-based,
        not hit-rate-based) but leases no budget.  Traced requests bypass
        the cache entirely — their span trees describe a real execution.
        """
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
            tracer = Tracer() if payload.get("trace") else None
            try:
                message = self._validate_query(payload)
            except ServerError as error:
                response = self._finish(_failure(error), tracer)
            else:
                key = self._cache_key(message) if tracer is None else None
                hit = None if key is None else self._cache.lookup(key)
                if hit is not None:
                    self._front["queries"].inc()
                    return 200, "application/json", hit
                response = await self._serve_query(message, key, tracer)
        finally:
            self._leave()
            self._request_seconds.observe(perf_counter() - start)
        return self._encode_query_response(response)

    async def _route_mutate(self, request: HttpRequest) -> Tuple[int, str, bytes]:
        try:
            payload = request.json()
        except HttpError as error:
            self._front["client_errors"].inc()
            return error.status, "application/json", _error_body(
                type(error).__name__, str(error)
            )
        return self._encode_query_response(await self._serve_mutate(payload))

    # -- the query pipeline ---------------------------------------------

    def _admit(self) -> None:
        if self._closed:
            raise ServerClosedError("the server is closed")
        if self._inflight >= self.config.max_inflight:
            raise ServerOverloadedError(
                f"{self._inflight} requests in flight >= max_inflight="
                f"{self.config.max_inflight}; shedding load"
            )
        self._inflight += 1
        self._inflight_gauge.set(self._inflight)

    def _leave(self) -> None:
        self._inflight -= 1
        self._inflight_gauge.set(self._inflight)

    def _cache_key(self, message: Dict[str, Any]) -> Optional[CacheKey]:
        """The result-cache key of a validated query, ``None`` without a cache."""
        if self._cache is None:
            return None
        # An absent budget keys as the value the execution runs with, so an
        # explicit default shares the absent one's entry.
        budget = message["budget_request"]
        return (
            message["query"],
            budget if budget is not None else self._scheduler.default_request_rows,
            message["count_only"],
        )

    async def _serve_query(
        self,
        message: Dict[str, Any],
        key: Optional[CacheKey],
        tracer: Optional[Tracer],
    ) -> Dict[str, Any]:
        """Lease, dispatch, and fill the cache under ``key``; always typed."""
        try:
            span = tracer.span("serve", "lease") if tracer else _NULL_SPAN
            with span:
                lease = await self._scheduler.acquire(
                    rows=message.pop("budget_request")
                )
            with lease:
                if lease.rows is not None:
                    message["budget"] = lease.rows
                span = tracer.span("serve", "dispatch") if tracer else _NULL_SPAN
                with span:
                    response = await self._pool.dispatch_async(
                        message, timeout=self.config.request_timeout_seconds
                    )
            if response.get("ok") and key is not None:
                self._cache.fill(key, response)
                response["cached"] = False
        except ServerError as error:
            if isinstance(error, ServerOverloadedError):
                self._front["shed_budget"].inc()
            response = _failure(error)
        return self._finish(response, tracer)

    def _finish(
        self, response: Dict[str, Any], tracer: Optional[Tracer]
    ) -> Dict[str, Any]:
        if response.get("ok"):
            self._front["queries"].inc()
        if tracer is not None:
            response["front_spans"] = [s.summary() for s in tracer.finish()]
        return response

    async def _serve_mutate(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Replace one relation's rows across the pool, then switch versions.

        The relation's content version is computed here, once (and only
        when there is a cache), and rides the mutate frame.  The cache's
        current version of the name switches only after every worker
        acknowledged the new rows, so a read that misses after the switch
        is answered from them; a read that overlapped the mutation is
        answered from either content and filed under the one it read.
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
                relation = Relation.from_rows(current.scheme, rows, name=name)
            except (TypeError, ValueError, AlgebraError) as error:
                raise BadRequestError(f"rows do not fit {name!r}'s scheme: {error}")
            # ``is None``, not truthiness: an empty cache has ``len() == 0``
            # and must still switch.
            cache = self._cache
            version = None if cache is None else content_version(relation)
            async with self._mutate_lock:
                acks = await self._pool.mutate_async(name, relation, version)
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
            return _failure(error)

    def _validate_query(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        query = payload.get("query")
        if not isinstance(query, str) or not query.strip():
            raise BadRequestError('the "query" field must be a non-empty string')
        # Removed fields are refused, not ignored: a client's choice must not
        # be answered as if it had been honoured.
        if "backend" in payload:
            raise BadRequestError(
                'the "backend" field was removed: every query runs on the engine'
            )
        if "workers" in payload:
            raise BadRequestError(
                'the "workers" field was removed: a served query runs in one process'
            )
        # ``type(...) is int``: a JSON ``true`` decodes to ``True``, an int.
        budget = payload.get("budget")
        if budget is not None and (type(budget) is not int or budget <= 0):
            raise BadRequestError('"budget" must be a positive integer')
        return {
            "op": "query",
            "query": query,
            "count_only": bool(payload.get("count_only")),
            "budget_request": budget,
        }

    def _encode_query_response(
        self, response: Dict[str, Any]
    ) -> Tuple[int, str, bytes]:
        if response.get("ok"):
            return 200, "application/json", json_body(response)
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
        return status, "application/json", json_body(body)

    # -- observability --------------------------------------------------

    def render_metrics(self) -> str:
        """:meth:`render_metrics_async`, from a thread off the server's loop."""
        return self._pool.run(self.render_metrics_async())

    def stats(self) -> Dict[str, Any]:
        """:meth:`stats_async`, from a thread off the server's loop."""
        return self._pool.run(self.stats_async())

    async def render_metrics_async(self) -> str:
        """The Prometheus exposition of the front merged with every worker."""
        collections = [self._metrics.collect()]
        collections.extend(await self._pool.collect_metrics_async())
        return render_prometheus(merge_collected(collections))

    async def stats_async(self) -> Dict[str, Any]:
        """Front counters + budget scheduler + worker pool, one JSON dict.

        The ``front`` numbers are views of the registry counters
        ``/metrics`` renders; a 504 is a server error here and its own
        ``repro_http_timeouts_total`` there.
        """
        front = {key: counter.value for key, counter in self._front.items()}
        front["server_errors"] += front.pop("timeouts")
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
            "pool": await self._pool.stats_async(),
        }


#: Stand-in span when a request did not ask for front tracing.
_NULL_SPAN = nullcontext()


def _failure(error: ServerError) -> Dict[str, Any]:
    return {"ok": False, "error": type(error).__name__, "message": str(error)}


def _error_body(error: str, message: str) -> bytes:
    return json_body({"ok": False, "error": error, "message": message})
