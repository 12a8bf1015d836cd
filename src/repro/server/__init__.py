"""The networked serving tier: HTTP front, worker pool, shared budget.

``repro.server`` lifts the facade's prepare-once/execute-many discipline
to a deployment: an asyncio HTTP front (:class:`ReproServer`) admits
JSON query requests against a bounded in-flight limit, leases each one
an engine memory budget from a cross-session
:class:`BudgetScheduler` pool, and dispatches it to a
:class:`~repro.server.worker.WorkerPool` of processes holding warm
:class:`~repro.api.Session`\\ s — pinned plans, forked probe pools, and
per-request ``budget``/``workers`` overrides served from a small LRU of
session configs.  Each worker answers its frames one at a time, in the
order they were written, and dispatch picks the worker with the fewest
frames in flight, so fast queries go around a slow spilling execute; the
front adds a :class:`ResultCache` over pure read-only queries keyed on
the content versions of the relations each execute read, so
``POST /mutate`` only switches which entries are current.
Observability is wired end-to-end: ``GET /metrics``
merges the front's and every worker's registries into one Prometheus
exposition, workers mirror event logs to per-worker JSONL files, and
requests can opt into front span traces.

Start one in-process (tests, benchmarks)::

    from repro.server import ReproServer
    from repro.workloads import serving_relations

    with ReproServer(serving_relations(), pool_size=2) as server:
        ...  # POST http://127.0.0.1:{server.port}/query

or from the shell: ``repro serve --port 8080``.  See ``docs/SERVER.md``.
"""

from .app import ReproServer, ServerConfig
from .budget import BudgetLease, BudgetScheduler
from .cache import ResultCache
from .errors import (
    BadRequestError,
    BudgetExhaustedError,
    RequestTimeoutError,
    ServerClosedError,
    ServerError,
    ServerOverloadedError,
    WorkerCrashedError,
)
from .loadgen import LoadReport, percentile, run_load, zipf_schedule
from .worker import Worker, WorkerPool

__all__ = [
    "BadRequestError",
    "BudgetExhaustedError",
    "BudgetLease",
    "BudgetScheduler",
    "LoadReport",
    "ReproServer",
    "RequestTimeoutError",
    "ResultCache",
    "ServerClosedError",
    "ServerConfig",
    "ServerError",
    "ServerOverloadedError",
    "Worker",
    "WorkerCrashedError",
    "WorkerPool",
    "percentile",
    "run_load",
    "zipf_schedule",
]
