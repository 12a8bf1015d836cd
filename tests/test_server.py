"""Tests for :mod:`repro.server`: the networked serving tier.

Covers the tier's contracts layer by layer — the budget scheduler's
lease/wait/reject semantics, the worker pool's warm-session dispatch,
per-request budget overrides, and crash respawn, the HTTP front's
routes, admission shedding, typed error mapping, and merged ``/metrics``
exposition, the load generator's exact percentiles — plus the shutdown
satellite: a session closed concurrently with in-flight executes leaks
no spill directories and answers post-close requests with the
typed :class:`~repro.api.SessionClosedError`.
"""

import asyncio
import json
import http.client
import multiprocessing
import os
import pickle
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time

import pytest

from repro.algebra import Attribute, Domain, Relation, RelationScheme
from repro.api import Session, SessionClosedError
from repro.api.config import BackendConfig
from repro.engine import join_estimate_provenance
from repro.engine import spill as spill_module
from repro.engine.spill import _ACTIVE_SPILL_DIRS
from repro.server import (
    BudgetExhaustedError,
    BudgetScheduler,
    LoadReport,
    ReproServer,
    RequestTimeoutError,
    ResultCache,
    ServerClosedError,
    ServerConfig,
    ServerError,
    WorkerPool,
    percentile,
    run_load,
    zipf_schedule,
)
from repro.server import worker as worker_server
from repro.server.cache import content_version
from repro.server.http import json_body
from repro.workloads import serving_queries, serving_relations

RELATIONS = serving_relations(rows=200)
QUERIES = serving_queries()
HEAVY_QUERY = "project[A, C, D](R * S * T)"
#: The cheapest of the serving queries (``project[C](S * T)``).
FAST_QUERY = QUERIES[5]


def _chain_relations(rows, a, b, c, d):
    """``serving_relations``' chain shape with the column moduli chosen."""
    return {
        "R": Relation.from_rows("A B", [(i % a, i % b) for i in range(rows)], name="R"),
        "S": Relation.from_rows("B C", [(i % b, i % c) for i in range(rows)], name="S"),
        "T": Relation.from_rows("C D", [(i % c, i % d) for i in range(rows)], name="T"),
    }


#: Larger relations for the timing-sensitive multiplexing tests.  What the
#: "slow query is still running" assertions lean on is a *ratio*: the
#: budget-64 spilling execute of ``HEAVY_QUERY`` (80,040 result rows) costs
#: ~100x a warm ``QUERIES[0]`` and ~400x a warm ``FAST_QUERY`` here, so they
#: keep two orders of magnitude of margin whatever the engine's speed;
#: ``_warm_execute_seconds`` lets a test measure both sides of it.
HEAVY_RELATIONS = _chain_relations(2000, 120, 17, 23, 29)
#: A mid-sized instance: the same execute takes a few tens of fast queries.
MEDIUM_RELATIONS = serving_relations(rows=600)
#: The budget-64 spilling execute of ``HEAVY_QUERY``: a slow frame.
SLOW_FRAME = {"op": "query", "query": HEAVY_QUERY, "budget": 64, "count_only": True}


def _warm_execute_seconds(relations, query, budget, pick=min):
    """``pick`` of three warm in-process executes of ``query`` (seconds)."""
    with Session(relations, budget=budget) as session:
        prepared = session.prepare(query)
        prepared.execute()
        samples = []
        for _ in range(3):
            start = time.perf_counter()
            prepared.execute()
            samples.append(time.perf_counter() - start)
    return pick(samples)


def _post(conn, body):
    status, raw = _post_raw(conn, body)
    return status, json.loads(raw)


def _post_raw(conn, body):
    """``POST /query`` answered as its status and undecoded body bytes."""
    conn.request(
        "POST",
        "/query",
        body=json.dumps(body),
        headers={"Content-Type": "application/json"},
    )
    response = conn.getresponse()
    return response.status, response.read()


def _get(conn, path):
    conn.request("GET", path)
    response = conn.getresponse()
    return response.status, response.read()


def _samples(conn):
    """``GET /metrics`` as ``{series name (labels dropped): value text}``."""
    samples = {}
    for line in _get(conn, "/metrics")[1].decode("utf-8").splitlines():
        if not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            samples[name.split("{")[0]] = value
    return samples


@pytest.fixture(scope="module")
def server():
    with ReproServer(
        RELATIONS, pool_size=2, total_budget_rows=50_000, session_budget=10_000
    ) as running:
        yield running


@pytest.fixture()
def connection(server):
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
    yield conn
    conn.close()


class TestBudgetScheduler:
    """The scheduler belongs to one event loop: each test runs one."""

    def test_unlimited_pool_grants_immediately(self):
        scheduler = BudgetScheduler()

        async def scenario():
            with await scheduler.acquire() as lease:
                assert lease.rows is None
            with await scheduler.acquire(rows=500) as lease:
                assert lease.rows == 500

        asyncio.run(scenario())
        assert scheduler.stats()["grants"] == 2

    def test_finite_pool_defaults_to_a_quarter_slice(self):
        scheduler = BudgetScheduler(total_rows=1000)
        assert scheduler.default_request_rows == 250
        lease = asyncio.run(scheduler.acquire())
        assert lease.rows == 250

    def test_request_larger_than_pool_rejects_immediately(self):
        scheduler = BudgetScheduler(total_rows=100, max_wait_seconds=30.0)
        start = time.perf_counter()
        with pytest.raises(BudgetExhaustedError):
            asyncio.run(scheduler.acquire(rows=101))
        assert time.perf_counter() - start < 1.0
        assert scheduler.stats()["rejections"] == 1

    def test_concurrent_leases_never_exceed_the_pool(self):
        scheduler = BudgetScheduler(total_rows=100, max_wait_seconds=5.0)

        async def scenario():
            first = await scheduler.acquire(rows=60)
            # A second 60-row lease must wait; release on a timer unblocks it.
            asyncio.get_running_loop().call_later(0.05, first.release)
            second = await scheduler.acquire(rows=60)
            assert second.rows == 60 and first.released
            second.release()

        asyncio.run(scenario())
        assert scheduler.stats()["waits"] == 1
        assert scheduler.stats()["peak_leased_rows"] <= 100

    def test_wait_deadline_raises_the_typed_rejection(self):
        scheduler = BudgetScheduler(total_rows=100, max_wait_seconds=0.05)

        async def scenario():
            held = await scheduler.acquire(rows=80)
            with pytest.raises(BudgetExhaustedError):
                await scheduler.acquire(rows=80)
            held.release()

        asyncio.run(scenario())
        assert scheduler.stats()["rejections"] == 1
        assert scheduler.stats()["leased_rows"] == 0

    def test_a_released_lease_wakes_only_the_waiters_that_fit(self):
        scheduler = BudgetScheduler(total_rows=100, max_wait_seconds=5.0)

        async def scenario():
            held = [await scheduler.acquire(rows=50) for _ in range(2)]
            small = asyncio.ensure_future(scheduler.acquire(rows=40))
            large = asyncio.ensure_future(scheduler.acquire(rows=90))
            await asyncio.sleep(0.01)
            held[0].release()
            assert (await small).rows == 40
            await asyncio.sleep(0.01)
            assert not large.done()  # 50 + 40 leased: 90 more cannot fit
            held[1].release()
            (await small).release()
            assert (await large).rows == 90

        asyncio.run(scenario())
        assert scheduler.stats()["waits"] == 2
        assert scheduler.stats()["peak_leased_rows"] == 100

    def test_two_waiters_that_fit_alone_but_not_together_are_granted_in_turn(self):
        # One release wakes both waiters; the first to resume takes the
        # room and the other waits again, so the pool is never overdrawn.
        scheduler = BudgetScheduler(total_rows=100, max_wait_seconds=5.0)

        async def scenario():
            held = [await scheduler.acquire(rows=50) for _ in range(2)]
            waiters = [
                asyncio.ensure_future(scheduler.acquire(rows=50)) for _ in range(2)
            ]
            await asyncio.sleep(0.01)
            held[0].release()
            done, pending = await asyncio.wait(waiters, timeout=0.2)
            assert len(done) == 1 and len(pending) == 1
            assert scheduler.stats()["leased_rows"] == 100
            held[1].release()
            granted = [(await waiter) for waiter in waiters]
            assert [lease.rows for lease in granted] == [50, 50]
            for lease in granted:
                lease.release()

        asyncio.run(scenario())
        assert scheduler.stats()["waits"] == 2
        assert scheduler.stats()["peak_leased_rows"] <= 100
        assert scheduler.stats()["leased_rows"] == 0

    @pytest.mark.parametrize("spins", range(6))
    def test_a_request_on_the_no_wait_path_cannot_overdraw_a_woken_waiter(self, spins):
        # A release wakes the waiter, and a fresh request takes the room
        # ``spins`` loop iterations later, before or after the waiter
        # resumes: whichever comes second waits, and the pool holds.
        scheduler = BudgetScheduler(total_rows=100, max_wait_seconds=5.0)

        async def scenario():
            held = [await scheduler.acquire(rows=50) for _ in range(2)]
            waiter = asyncio.ensure_future(scheduler.acquire(rows=50))
            await asyncio.sleep(0.01)
            held[0].release()
            for _ in range(spins):
                await asyncio.sleep(0)
            fresh = asyncio.ensure_future(scheduler.acquire(rows=50))
            done, pending = await asyncio.wait([waiter, fresh], timeout=0.2)
            assert len(done) == 1 and scheduler.stats()["leased_rows"] == 100
            held[1].release()
            for lease in await asyncio.gather(waiter, fresh):
                lease.release()

        asyncio.run(scenario())
        assert scheduler.stats()["peak_leased_rows"] <= 100
        assert scheduler.stats()["leased_rows"] == 0

    def test_release_is_idempotent(self):
        scheduler = BudgetScheduler(total_rows=100)
        lease = asyncio.run(scheduler.acquire(rows=40))
        lease.release()
        lease.release()
        assert scheduler.stats()["leased_rows"] == 0
        assert scheduler.stats()["active_leases"] == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            BudgetScheduler(total_rows=0)
        with pytest.raises(ValueError):
            BudgetScheduler(total_rows=100, default_request_rows=200)
        with pytest.raises(ValueError):
            asyncio.run(BudgetScheduler().acquire(rows=0))


class TestWorkerPool:
    def test_dispatch_matches_direct_session(self):
        pool = WorkerPool(RELATIONS, BackendConfig(), size=2)
        try:
            with Session(RELATIONS) as session:
                for query in QUERIES:
                    response = pool.dispatch(
                        {"op": "query", "query": query, "count_only": True}
                    )
                    assert response["ok"], response
                    assert response["rowcount"] == len(session.execute(query))
        finally:
            pool.close()

    def test_rows_are_sorted_and_match(self):
        pool = WorkerPool(RELATIONS, BackendConfig(), size=1)
        try:
            response = pool.dispatch({"op": "query", "query": "project[A](R * S)"})
            with Session(RELATIONS) as session:
                expected = session.execute("project[A](R * S)")
            assert response["columns"] == list(expected.scheme.names)
            assert response["rows"] == [
                list(row) for row in expected.relation.sorted_rows()
            ]
        finally:
            pool.close()

    def test_budget_override_selects_a_spilling_session(self):
        pool = WorkerPool(RELATIONS, BackendConfig(budget=50_000), size=1)
        try:
            roomy = pool.dispatch(
                {"op": "query", "query": HEAVY_QUERY, "count_only": True}
            )
            tight = pool.dispatch(
                {"op": "query", "query": HEAVY_QUERY, "budget": 64,
                 "count_only": True}
            )
            assert roomy["ok"] and tight["ok"]
            assert roomy["rowcount"] == tight["rowcount"]
            assert roomy["budget"] == 50_000 and tight["budget"] == 64
            assert roomy["spilled_rows"] == 0
            assert tight["spilled_rows"] > 0
            assert tight["spill_overflows"] == 0
            assert tight["peak_memory_rows"] < roomy["peak_memory_rows"]
        finally:
            pool.close()

    def test_typed_errors_cross_the_pipe(self):
        pool = WorkerPool(RELATIONS, BackendConfig(), size=1)
        try:
            response = pool.dispatch({"op": "query", "query": "project[Z](R)"})
            assert not response["ok"]
            assert response["error"] == "ExpressionError"
            # The worker survives a bad query and keeps serving.
            again = pool.dispatch(
                {"op": "query", "query": QUERIES[0], "count_only": True}
            )
            assert again["ok"]
        finally:
            pool.close()

    def test_crashed_worker_is_respawned_and_the_request_retried(self):
        pool = WorkerPool(RELATIONS, BackendConfig(), size=1)
        try:
            assert pool.dispatch(
                {"op": "query", "query": QUERIES[0], "count_only": True}
            )["ok"]
            pool._workers[0].kill()
            response = pool.dispatch(
                {"op": "query", "query": QUERIES[0], "count_only": True}
            )
            assert response["ok"]
            assert pool.worker_restarts == 1
        finally:
            pool.close()

    def test_a_heavy_hitter_query_is_served_like_any_other(self):
        """A worker plans on the same catalog a direct session does, one
        that measures the skewed ``B`` on samples drawn lazily in whichever
        process plans: the count matches, and the reply says nothing about
        re-planning — nothing re-plans."""
        relations = {
            "R": Relation.from_rows(
                "A B", [(a, 0 if a % 2 else a) for a in range(400)], name="R"
            ),
            "S": Relation.from_rows(
                "B C", [(0 if c % 2 else 1000 + c, c) for c in range(400)], name="S"
            ),
            "T": Relation.from_rows("C D", [(k % 40, k) for k in range(2000)], name="T"),
        }
        query = "project[A, D](R * S * T)"
        assert join_estimate_provenance(
            relations["R"].stats(), relations["S"].stats(), ("B",)
        ) == "sampled"
        pool = WorkerPool(relations, BackendConfig(), size=1)
        try:
            response = pool.dispatch({"op": "query", "query": query, "count_only": True})
            assert response["ok"], response
            with Session(relations) as session:
                expected = session.execute(query)
            assert response["rowcount"] == len(expected)
            assert "replans" not in response
        finally:
            pool.close()

    def test_closed_pool_raises_the_typed_error(self):
        pool = WorkerPool(RELATIONS, BackendConfig(), size=1)
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(ServerClosedError):
            pool.dispatch({"op": "query", "query": QUERIES[0]})

    def test_workers_exit_when_the_front_dies_without_a_word(self):
        if not hasattr(os, "fork") or not os.path.isdir("/proc"):
            pytest.skip("needs fork workers and /proc")
        script = (
            "import os, sys, time\n"
            "from repro.api.config import BackendConfig\n"
            "from repro.server import WorkerPool\n"
            "from repro.workloads import serving_relations\n"
            "pool = WorkerPool(serving_relations(rows=50), BackendConfig(), size=2)\n"
            "print(*(worker._process.pid for worker in pool._workers), flush=True)\n"
            "time.sleep(60)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        front = subprocess.Popen(
            [sys.executable, "-c", script], stdout=subprocess.PIPE, text=True, env=env
        )
        try:
            pids = [int(pid) for pid in front.stdout.readline().split()]
            assert len(pids) == 2
        finally:
            front.kill()  # SIGKILL: no shutdown frame, no cleanup
            front.wait(10)
            front.stdout.close()

        def running(pid):
            try:
                with open(f"/proc/{pid}/stat") as handle:
                    return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
            except FileNotFoundError:
                return False

        deadline = time.perf_counter() + 20
        while any(map(running, pids)) and time.perf_counter() < deadline:
            time.sleep(0.05)
        assert not any(map(running, pids)), "a worker outlived its front"

    def test_a_worker_terminated_mid_spill_removes_its_spill_directory(
        self, tmp_path, monkeypatch
    ):
        # ``Worker.stop`` terminates a worker that does not exit in time.
        # A forked child ends in ``os._exit`` and runs no atexit hook, so the
        # spill directory survives unless SIGTERM unwinds the execute.
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        # Once ``stall`` is set, the execute holds right after its first
        # spill file exists until the signal unwinds it: it is still
        # spilling when SIGTERM lands, however fast the host (a spill that
        # finished inside stop()'s grace window exited 0).  Patched before
        # the pool forks, so the worker inherits it.
        stall = multiprocessing.get_context("fork").Event()
        real_file = spill_module.PartitionedSpill.file

        def file_then_stall(spill, kind):
            spill_file = real_file(spill, kind)
            if stall.is_set():
                time.sleep(60)
            return spill_file

        monkeypatch.setattr(spill_module.PartitionedSpill, "file", file_then_stall)
        pool = WorkerPool(HEAVY_RELATIONS, BackendConfig(budget=50_000), size=1)
        worker = pool._workers[0]
        try:
            assert pool.run(worker.request(SLOW_FRAME))["spilled_rows"] > 0
            stall.set()

            async def stop_mid_spill():
                _request_id, answer = await worker.submit(SLOW_FRAME)
                while not any(tmp_path.iterdir()) and not answer.done():
                    await asyncio.sleep(0.001)
                assert not answer.done(), "the spilling execute must still run"
                worker.stop(timeout=0.05)
                with pytest.raises(ServerClosedError):
                    await answer

            pool.run(stop_mid_spill())
            worker._process.join(10)
            assert worker._process.exitcode == 128 + signal.SIGTERM
            assert list(tmp_path.iterdir()) == []
        finally:
            pool.close()

    def test_closing_a_pool_joins_its_workers_against_one_deadline(
        self, monkeypatch
    ):
        # Every worker here plays stuck: its join waits out the time it is
        # given.  The pool must tell them all before joining any, and give
        # them one shared deadline, not one deadline each.
        pool = WorkerPool(RELATIONS, BackendConfig(), size=3)
        workers = list(pool._workers)
        worker_class = type(workers[0])
        events = []
        stop = worker_class.stop

        def recording_stop(worker, wait=True, timeout=5.0):
            events.append(("stop", worker.index, wait))
            stop(worker, wait, timeout)

        def stuck_join(worker, timeout):
            events.append(("join", worker.index, timeout))
            time.sleep(timeout)
            return False

        monkeypatch.setattr(worker_server, "_STOP_SECONDS", 0.2)
        monkeypatch.setattr(worker_class, "stop", recording_stop)
        monkeypatch.setattr(worker_class, "join", stuck_join)
        monkeypatch.setattr(
            worker_class, "kill", lambda worker: events.append(("kill", worker.index))
        )
        pool.close()
        assert [event[0] for event in events] == ["stop"] * 3 + ["join", "kill"] * 3
        assert all(wait is False for _, _, wait in events[:3])
        assert sum(event[2] for event in events if event[0] == "join") <= 0.2
        monkeypatch.undo()
        for worker in workers:  # told to shut down: each exits by itself
            assert worker.join(5.0)


class TestHttpFront:
    def test_query_round_trip(self, connection):
        status, body = _post(connection, {"query": "project[A](R * S)"})
        assert status == 200
        assert body["ok"]
        with Session(RELATIONS) as session:
            expected = session.execute("project[A](R * S)")
        assert body["rowcount"] == len(expected)
        assert body["rows"] == [list(row) for row in expected.relation.sorted_rows()]

    def test_keep_alive_serves_many_requests_on_one_connection(self, connection):
        for query in QUERIES:
            status, body = _post(connection, {"query": query, "count_only": True})
            assert status == 200 and body["ok"]

    def test_per_request_budget_override_under_http(self, connection):
        status, body = _post(
            connection,
            {"query": HEAVY_QUERY, "budget": 64, "count_only": True, "trace": True},
        )
        assert status == 200
        assert body["budget"] == 64
        assert body["spilled_rows"] > 0
        assert body["spill_overflows"] == 0
        labels = [span["label"] for span in body["front_spans"]]
        assert labels == ["lease", "dispatch"]

    def test_client_faults_map_to_400(self, connection):
        for payload in (
            {"query": "project[Z](R)"},
            {"query": ""},
            {"query": 42},
            {"query": QUERIES[0], "budget": -5},
            {"query": QUERIES[0], "workers": 0},
            {"query": QUERIES[0], "budget": True},
            {"query": QUERIES[0], "workers": True},
        ):
            status, body = _post(connection, payload)
            assert status == 400, payload
            assert not body["ok"]

    def test_a_body_naming_workers_is_refused(self, connection):
        # A served query runs in one process and the field is gone: any
        # value is a client fault naming it, never a 500.
        for workers in (2, 1, None):
            status, body = _post(connection, {"query": QUERIES[0], "workers": workers})
            assert status == 400, body
            assert body["error"] == "BadRequestError"
            assert '"workers" field was removed' in body["message"]
        status, body = _post(connection, {"query": QUERIES[0]})
        assert status == 200 and body["ok"]

    def test_a_body_naming_a_backend_is_refused(self, connection):
        # Every query runs on the engine; a client still choosing an
        # evaluator must hear that, not be served under another meaning.
        for backend in ("engine", "naive", None):
            status, body = _post(
                connection, {"query": QUERIES[0], "backend": backend}
            )
            assert status == 400, backend
            assert body["error"] == "BadRequestError"
            assert '"backend" field was removed' in body["message"]

    def test_non_json_body_maps_to_400(self, connection):
        connection.request("POST", "/query", body=b"not json{")
        response = connection.getresponse()
        assert response.status == 400
        assert not json.loads(response.read())["ok"]

    @pytest.mark.parametrize(
        "head",
        [
            b"GET /" + b"a" * 9_000 + b" HTTP/1.1\r\n",  # over MAX_REQUEST_LINE
            b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n",  # over the stream's limit
            b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * 40_000 + b"\r\n",
            b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * 70_000 + b"\r\n",
        ],
        ids=["request-line-9k", "request-line-70k", "header-line-40k", "header-line-70k"],
    )
    def test_an_oversized_line_maps_to_a_counted_400(self, server, head):
        before = server.stats()["front"]["client_errors"]
        with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
            sock.sendall(head + b"\r\n")
            answer = b""
            try:
                while chunk := sock.recv(65536):
                    answer += chunk
            except ConnectionResetError:
                pass  # the front closed with bytes of the line still unread
        status_line, _, rest = answer.partition(b"\r\n")
        assert status_line == b"HTTP/1.1 400 Bad Request", answer[:200]
        body = json.loads(rest.partition(b"\r\n\r\n")[2])
        assert body["error"] == "HttpError" and "too" in body["message"], body
        assert server.stats()["front"]["client_errors"] == before + 1

    def test_budget_beyond_the_pool_maps_to_503(self, connection):
        status, body = _post(
            connection, {"query": QUERIES[0], "budget": 10_000_000}
        )
        assert status == 503
        assert body["error"] == "BudgetExhaustedError"

    def test_unknown_route_and_wrong_method(self, connection):
        status, _body = _get(connection, "/nope")
        assert status == 404
        connection.request("GET", "/query")
        assert connection.getresponse().read() and True
        # methods are checked per route
        conn2 = http.client.HTTPConnection(
            "127.0.0.1", connection.port, timeout=30
        )
        try:
            conn2.request("POST", "/metrics")
            assert conn2.getresponse().status == 405
        finally:
            conn2.close()

    def test_healthz(self, connection):
        status, body = _get(connection, "/healthz")
        assert status == 200
        decoded = json.loads(body)
        assert decoded["ok"] and decoded["workers"] == 2

    def test_metrics_merges_front_and_workers(self, server, connection):
        # Serve at least one query so both layers have samples.
        status, _ = _post(connection, {"query": QUERIES[0], "count_only": True})
        assert status == 200
        status, body = _get(connection, "/metrics")
        assert status == 200
        text = body.decode("utf-8")
        samples = {}
        for line in text.splitlines():
            assert line, "exposition must not contain blank lines"
            if line.startswith("#"):
                assert line.startswith(("# HELP ", "# TYPE "))
                continue
            name, _, value = line.rpartition(" ")
            samples[name.split("{")[0]] = value
        # Front-side and worker-side metric families in one exposition.
        assert "repro_http_requests_total" in samples
        assert "repro_executes_total" in samples
        assert samples["repro_spill_overflows_total"] == "0"

    def test_stats_exposes_all_three_layers(self, connection):
        status, body = _get(connection, "/stats")
        assert status == 200
        decoded = json.loads(body)
        assert decoded["front"]["requests"] >= 1
        assert decoded["budget"]["total_rows"] == 50_000
        assert decoded["pool"]["size"] == 2
        assert len(decoded["pool"]["workers"]) == 2

    @pytest.mark.parametrize("cache_size", [0, None], ids=["cache_off", "cache_on"])
    def test_admission_control_sheds_with_503(self, cache_size):
        sizing = {} if cache_size is None else {"result_cache_size": cache_size}
        with ReproServer(RELATIONS, pool_size=1, max_inflight=1, **sizing) as tight:
            barrier = threading.Barrier(6)
            statuses = []
            lock = threading.Lock()

            def fire():
                conn = http.client.HTTPConnection(
                    "127.0.0.1", tight.port, timeout=30
                )
                try:
                    barrier.wait(timeout=10)
                    status, _body = _post(
                        conn, {"query": HEAVY_QUERY, "count_only": True}
                    )
                    with lock:
                        statuses.append(status)
                finally:
                    conn.close()

            threads = [threading.Thread(target=fire) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert 200 in statuses
            assert 503 in statuses
            assert tight.stats()["front"]["shed_overload"] >= 1

    def test_a_hit_is_shed_while_a_miss_holds_the_only_slot(self, monkeypatch):
        # A hit is answered on the loop, but admitted first: it counts
        # against ``max_inflight`` like any other request.
        with ReproServer(RELATIONS, pool_size=1, max_inflight=1) as tight:
            hit = {"query": QUERIES[0], "count_only": True}
            conn = http.client.HTTPConnection("127.0.0.1", tight.port, timeout=30)
            try:
                assert _post(conn, hit)[1]["cached"] is False  # fills the entry
                dispatch = tight._pool.dispatch_async
                entered, release = threading.Event(), threading.Event()

                async def held(message, timeout=None):
                    entered.set()
                    while not release.is_set():  # the loop keeps serving
                        await asyncio.sleep(0.001)
                    return await dispatch(message, timeout=timeout)

                monkeypatch.setattr(tight._pool, "dispatch_async", held)
                answered = []

                def miss():
                    other = http.client.HTTPConnection(
                        "127.0.0.1", tight.port, timeout=30
                    )
                    try:
                        answered.append(
                            _post(other, {"query": QUERIES[1], "count_only": True})
                        )
                    finally:
                        other.close()

                holder = threading.Thread(target=miss)
                holder.start()
                try:
                    assert entered.wait(10)
                    shed = tight.stats()["front"]["shed_overload"]
                    status, body = _post(conn, hit)
                    assert status == 503 and body["error"] == "ServerOverloadedError"
                    assert tight.stats()["front"]["shed_overload"] == shed + 1
                finally:
                    release.set()
                    holder.join(30)
                assert answered and answered[0][0] == 200
                status, body = _post(conn, hit)
                assert status == 200 and body["cached"] is True
            finally:
                conn.close()
            cache = tight.stats()["cache"]
            # The shed hit was never looked up.
            assert (cache["cache_hits"], cache["cache_misses"]) == (1, 2)

    def test_worker_events_are_mirrored_to_jsonl(self, tmp_path):
        events_dir = str(tmp_path / "events")
        with ReproServer(
            RELATIONS, pool_size=1, events_dir=events_dir
        ) as observed:
            conn = http.client.HTTPConnection(
                "127.0.0.1", observed.port, timeout=30
            )
            try:
                status, body = _post(
                    conn, {"query": HEAVY_QUERY, "budget": 64, "count_only": True}
                )
                assert status == 200 and body["spilled_rows"] > 0
            finally:
                conn.close()
        mirror = os.path.join(events_dir, "worker-0.jsonl")
        assert os.path.exists(mirror)
        with open(mirror, encoding="utf-8") as handle:
            events = [json.loads(line) for line in handle]
        assert events, "spilling under budget 64 must emit events"
        assert [event["seq"] for event in events] == list(
            range(1, len(events) + 1)
        )

    def test_server_close_is_idempotent_and_post_close_requests_fail(self):
        server = ReproServer(RELATIONS, pool_size=1).start()
        port = server.port
        server.close()
        server.close()
        with pytest.raises((ConnectionRefusedError, OSError)):
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=2)
            _post(conn, {"query": QUERIES[0]})


class TestLoadGenerator:
    def test_percentile_is_exact_nearest_rank(self):
        sample = list(range(1, 101))
        assert percentile(sample, 50) == 50
        assert percentile(sample, 99) == 99
        assert percentile(sample, 100) == 100
        assert percentile([7.0], 99) == 7.0
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_run_load_reports_latency_and_throughput(self, server):
        report = run_load(
            "127.0.0.1",
            server.port,
            QUERIES,
            clients=8,
            requests_per_client=3,
        )
        assert report.clients == 8
        assert report.requests == 24
        assert report.ok == 24
        assert report.errors == 0
        summary = report.summary()
        assert summary["p50_ms"] > 0
        assert summary["p99_ms"] >= summary["p50_ms"]
        assert summary["throughput_rps"] > 0
        assert summary["status_counts"] == {"200": 24}

    def test_zipf_schedule_is_seeded_and_skewed(self):
        schedule = zipf_schedule(len(QUERIES), 200, 1.2, seed=3)
        assert schedule == zipf_schedule(len(QUERIES), 200, 1.2, seed=3)
        # Rank 0 is the hot query.
        assert max(set(schedule), key=schedule.count) == 0


class TestServerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ServerConfig(pool_size=0)
        with pytest.raises(ValueError):
            ServerConfig(max_inflight=0)
        # Counts are ints: a float or a bool is refused at construction.
        for knobs in (
            {"pool_size": 2.5},
            {"pool_size": True},
            {"max_inflight": 1.5},
            {"result_cache_size": 2.5},
        ):
            with pytest.raises(ValueError):
                ServerConfig(**knobs)

    def test_override(self):
        config = ServerConfig().override(pool_size=4)
        assert config.pool_size == 4

    def test_a_platform_without_fork_gets_a_typed_error(self, monkeypatch):
        # Workers are forked processes: without os.fork nothing can serve.
        monkeypatch.setattr(worker_server, "fork_available", lambda: False)
        with pytest.raises(ServerError, match="os.fork"):
            WorkerPool(RELATIONS, BackendConfig(), size=1)
        with pytest.raises(ServerError, match="os.fork"):
            ReproServer(RELATIONS, pool_size=1)


class TestSessionShutdownUnderLoad:
    """The shutdown satellite: close() racing in-flight executes."""

    def test_concurrent_close_leaks_no_spill_dirs(self):
        for _round in range(3):
            session = Session(RELATIONS, budget=64)
            prepared = session.prepare(HEAVY_QUERY)
            errors = []
            done = threading.Event()

            def hammer():
                try:
                    while not done.is_set():
                        prepared.execute()
                except SessionClosedError:
                    pass
                except Exception as error:  # noqa: BLE001 - recorded for assert
                    errors.append(error)

            threads = [threading.Thread(target=hammer) for _ in range(3)]
            for thread in threads:
                thread.start()
            time.sleep(0.05)  # let executes get in flight
            session.close()
            done.set()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            # In-flight executes either finished or raised the typed
            # closed error recorded above; nothing else may escape.
            assert errors == [], errors
        assert _ACTIVE_SPILL_DIRS == set()

    def test_post_close_requests_raise_the_typed_error(self):
        session = Session(RELATIONS, budget=64)
        prepared = session.prepare(HEAVY_QUERY)
        prepared.execute()
        session.close()
        with pytest.raises(SessionClosedError):
            session.prepare("project[A](R * S)")
        with pytest.raises(SessionClosedError):
            prepared.execute()


class TestInOrderWorkers:
    """A worker answers its frames in order; the pool routes around a busy one."""

    def test_fast_queries_complete_while_a_slow_spill_is_in_flight(self):
        # One worker chews on a budget-64 spilling execute; every fast
        # query meanwhile is routed to the other, idle worker and finishes
        # before the spill does.
        pool = WorkerPool(HEAVY_RELATIONS, BackendConfig(budget=50_000), size=2)
        fast = {"op": "query", "query": QUERIES[0], "count_only": True}
        try:
            # Warm both sessions on both workers so timings reflect
            # serving, not setup.
            for worker in pool._workers:
                assert pool.run(worker.request(fast))["ok"]
                assert pool.run(worker.request(SLOW_FRAME))["spilled_rows"] > 0

            slow_done = threading.Event()
            slow_box = {}

            def run_slow():
                slow_box["response"] = pool.dispatch(SLOW_FRAME)
                slow_done.set()

            slow = threading.Thread(target=run_slow)
            slow.start()
            deadline = time.perf_counter() + 10.0
            while (
                max(worker.inflight for worker in pool._workers) < 1
                and not slow_done.is_set()
                and time.perf_counter() < deadline
            ):
                time.sleep(0.001)
            assert not slow_done.is_set(), "slow query must still be running"
            busy = max(range(2), key=lambda index: pool._workers[index].inflight)

            for _ in range(5):
                response = pool.dispatch(fast)
                assert response["ok"], response
                assert response["worker"] != busy, "routed behind the slow spill"
            assert not slow_done.is_set(), (
                "all five fast queries finished, yet the slow spilling "
                "execute must still be in flight on the other worker"
            )
            slow.join(timeout=30)
            assert slow_box["response"]["ok"]
            assert slow_box["response"]["worker"] == busy
        finally:
            pool.close()

    def test_frames_are_answered_in_the_order_they_were_written(self):
        versions = {name: content_version(r) for name, r in HEAVY_RELATIONS.items()}
        pool = WorkerPool(
            HEAVY_RELATIONS, BackendConfig(budget=50_000), size=1, versions=versions
        )
        worker = pool._workers[0]
        read = {"op": "query", "query": "project[A, B](R)"}
        relation = Relation.from_rows(
            HEAVY_RELATIONS["R"].scheme, [(1, 2), (3, 4)], name="R"
        )
        mutate = {"op": "mutate", "name": "R", "relation": relation, "version": "next"}
        # Every frame is written before the slow one is answered.
        frames = {
            "slow": SLOW_FRAME,
            "before": read,
            "mutate": mutate,
            "after": read,
            "ping": {"op": "ping"},
        }

        async def write_all():
            order, written = [], []
            for name, frame in frames.items():
                request_id, future = await worker.submit(frame)
                future.add_done_callback(lambda _future, name=name: order.append(name))
                written.append((name, request_id, future))
            answers = {
                name: await worker.wait(request_id, future, timeout=60)
                for name, request_id, future in written
            }
            return order, answers

        try:
            order, answers = pool.run(write_all())
            assert order == list(frames)
            assert all(answer["ok"] for answer in answers.values()), answers
            old_rows = [list(row) for row in HEAVY_RELATIONS["R"].sorted_rows()]
            assert answers["before"]["rows"] == old_rows
            assert answers["before"]["versions"] == {"R": versions["R"]}
            assert answers["after"]["rows"] == [[1, 2], [3, 4]]
            assert answers["after"]["versions"] == {"R": "next"}
            assert answers["slow"]["versions"] == {
                name: versions[name] for name in ("R", "S", "T")
            }
            assert worker.inflight == 0
        finally:
            pool.close()

    def test_dispatch_prefers_the_least_loaded_worker(self):
        pool = WorkerPool(HEAVY_RELATIONS, BackendConfig(budget=50_000), size=2)
        try:
            for index in range(2):
                warm = pool.run(pool._workers[index].request(SLOW_FRAME))
                assert warm["ok"]
            slow_done = threading.Event()

            def run_slow():
                pool.dispatch(SLOW_FRAME)
                slow_done.set()

            slow = threading.Thread(target=run_slow)
            slow.start()
            deadline = time.perf_counter() + 10.0
            while (
                max(w.inflight for w in pool._workers) < 1
                and not slow_done.is_set()
                and time.perf_counter() < deadline
            ):
                time.sleep(0.001)
            busy = max(range(2), key=lambda i: pool._workers[i].inflight)
            if not slow_done.is_set():
                # While one worker is busy, dispatch must route to the
                # idle one.
                assert pool._pick() != busy
            slow.join(timeout=30)
        finally:
            pool.close()


class TestLeaseLifecycle:
    """Every request outcome returns its budget lease — no leaks."""

    def _budget(self, server):
        return server.stats()["budget"]

    def test_completed_requests_return_their_leases(self):
        with ReproServer(
            RELATIONS, pool_size=1, total_budget_rows=10_000
        ) as running:
            conn = http.client.HTTPConnection(
                "127.0.0.1", running.port, timeout=30
            )
            try:
                for query in QUERIES[:3]:
                    status, _body = _post(
                        conn, {"query": query, "count_only": True}
                    )
                    assert status == 200
            finally:
                conn.close()
            budget = self._budget(running)
            assert budget["leased_rows"] == 0
            assert budget["active_leases"] == 0
            assert budget["grants"] >= 3

    def test_timed_out_request_releases_its_lease_and_worker_survives(self):
        # The deadline is derived from the engine as it is, not from a speed
        # it once had: a fifth of the fastest warm execute of the slow query
        # (so that execute must overrun it), which the slowest warm execute
        # of the fast query must still beat ten times over.
        slow_seconds = _warm_execute_seconds(HEAVY_RELATIONS, HEAVY_QUERY, 64)
        fast_seconds = _warm_execute_seconds(
            HEAVY_RELATIONS, FAST_QUERY, 10_000, pick=max
        )
        deadline = slow_seconds / 5
        assert fast_seconds * 10 <= deadline, (
            f"instance too small to separate a {slow_seconds:.3f}s spilling "
            f"execute from a {fast_seconds:.4f}s fast one by a deadline"
        )
        with ReproServer(
            HEAVY_RELATIONS,
            pool_size=2,
            total_budget_rows=10_000,
            request_timeout_seconds=deadline,
            result_cache_size=0,
        ) as running:
            pool = running._pool
            # Warm the fast path on both workers first: planning is paid
            # here, with no deadline to meet.
            for worker in pool._workers:
                warm = {"op": "query", "query": FAST_QUERY, "count_only": True}
                assert pool.run(worker.request(warm))["ok"]
            conn = http.client.HTTPConnection(
                "127.0.0.1", running.port, timeout=30
            )
            try:
                status, body = _post(
                    conn,
                    {"query": HEAVY_QUERY, "budget": 64, "count_only": True},
                )
                assert status == 504
                assert body["error"] == "RequestTimeoutError"
                # The lease goes with the 504, not with the late answer: read
                # the scheduler directly, with no round trip to the worker.
                budget = running._scheduler.stats()
                assert budget["leased_rows"] == 0, budget
                assert budget["active_leases"] == 0, budget
                assert pool._workers[0].inflight + pool._workers[1].inflight == 1
                # The abandoned execute still holds its worker, and the pool
                # routes around it: both follow-ups (the round-robin turn
                # included) are answered by the idle worker.
                busy = [worker.inflight for worker in pool._workers].index(1)
                for _ in range(2):
                    status, body = _post(
                        conn, {"query": FAST_QUERY, "count_only": True}
                    )
                    assert status == 200 and body["ok"]
                    assert body["worker"] != busy
                # ``/stats`` waits for the busy worker's answer.
                stats = running.stats()
                assert stats["budget"]["leased_rows"] == 0, stats["budget"]
                assert stats["budget"]["active_leases"] == 0, stats["budget"]
                assert stats["pool"]["worker_restarts"] == 0
            finally:
                conn.close()

    def test_mid_flight_worker_kill_with_two_outstanding_ids(self):
        # MEDIUM_RELATIONS: each spilling execute must outlast the few
        # milliseconds the poll below needs to see both ids in flight.
        with ReproServer(
            MEDIUM_RELATIONS,
            pool_size=1,
            total_budget_rows=10_000,
            result_cache_size=0,
        ) as running:
            # Warm the spilling session so both requests are mid-execute
            # when the kill lands.
            conn = http.client.HTTPConnection(
                "127.0.0.1", running.port, timeout=60
            )
            try:
                status, _body = _post(
                    conn,
                    {"query": HEAVY_QUERY, "budget": 64, "count_only": True},
                )
                assert status == 200
            finally:
                conn.close()

            results = []
            lock = threading.Lock()
            barrier = threading.Barrier(3)

            def fire():
                inner = http.client.HTTPConnection(
                    "127.0.0.1", running.port, timeout=60
                )
                try:
                    barrier.wait(timeout=10)
                    status, body = _post(
                        inner,
                        {"query": HEAVY_QUERY, "budget": 64,
                         "count_only": True},
                    )
                    with lock:
                        results.append((status, body))
                finally:
                    inner.close()

            threads = [threading.Thread(target=fire) for _ in range(2)]
            for thread in threads:
                thread.start()
            barrier.wait(timeout=10)
            worker = running._pool._workers[0]
            deadline = time.perf_counter() + 10.0
            while worker.inflight < 2 and time.perf_counter() < deadline:
                time.sleep(0.001)
            assert worker.inflight >= 2, "two ids must be in flight"
            worker.kill()
            for thread in threads:
                thread.join(timeout=60)
            assert len(results) == 2
            for status, body in results:
                # Each in-flight id failed over: the pool respawned the
                # worker and retried (200), or surfaced the typed error.
                assert status in (200, 500, 503), (status, body)
                if status != 200:
                    assert body["error"] in (
                        "WorkerCrashedError",
                        "ServerClosedError",
                    ), body
            stats = running.stats()
            assert stats["pool"]["worker_restarts"] >= 1
            # The linchpin: both leases came back, whatever the outcome.
            assert stats["budget"]["leased_rows"] == 0, stats["budget"]
            assert stats["budget"]["active_leases"] == 0, stats["budget"]

    def test_pool_close_fails_inflight_requests_typed(self):
        pool = WorkerPool(RELATIONS, BackendConfig(budget=50_000), size=1)
        warm = pool.dispatch(
            {"op": "query", "query": HEAVY_QUERY, "budget": 64,
             "count_only": True}
        )
        assert warm["ok"]
        outcome = {}
        started = threading.Event()

        def run_slow():
            started.set()
            try:
                outcome["response"] = pool.dispatch(
                    {"op": "query", "query": HEAVY_QUERY, "budget": 64,
                     "count_only": True}
                )
            except ServerClosedError as error:
                outcome["raised"] = error

        slow = threading.Thread(target=run_slow)
        slow.start()
        started.wait(timeout=10)
        deadline = time.perf_counter() + 10.0
        while pool._workers[0].inflight < 1 and time.perf_counter() < deadline:
            time.sleep(0.001)
        pool.close()
        slow.join(timeout=30)
        assert not slow.is_alive()
        if "raised" not in outcome:
            # The worker may have finished (or typed-failed) the execute
            # before the shutdown frame closed its sessions; either way
            # the outcome is typed, never a hang.
            response = outcome["response"]
            assert response["ok"] or response["error"] in (
                "SessionClosedError",
                "ServerClosedError",
                "WorkerCrashedError",
            ), response


class TestPoolFrames:
    """Frames that fail to send, responses racing timeouts, broadcasts."""

    def test_unpicklable_mutate_leaves_the_pool_unchanged(self):
        def local():  # hashable, but pickles by qualified name only
            pass

        pool = WorkerPool(
            RELATIONS,
            BackendConfig(),
            size=2,
            versions={name: content_version(r) for name, r in RELATIONS.items()},
        )
        try:
            original, versions = pool.relation("R"), pool.versions()
            relation = Relation.from_rows(
                original.scheme, [(local, 1), (2, 3)], name="R"
            )
            with pytest.raises((AttributeError, TypeError, pickle.PicklingError)):
                pool.run(pool.mutate_async("R", relation, content_version(relation)))
            assert pool.relation("R") is original
            assert pool.versions() == versions
            assert pool.run(pool.stats_async())["inflight"] == [0, 0]
            response = pool.dispatch(
                {"op": "query", "query": "project[A, B](R)", "count_only": True}
            )
            assert response["ok"] and response["rowcount"] == len(original)
            assert response["versions"] == {"R": versions["R"]}
        finally:
            pool.close()

    def test_a_response_whose_caller_gave_up_is_dropped(self):
        # The caller's deadline fires first.  The worker is still busy with
        # the frame, so it counts in flight until the late response lands
        # and is dropped; the pipe keeps serving.
        pool = WorkerPool(HEAVY_RELATIONS, BackendConfig(budget=50_000), size=1)
        worker = pool._workers[0]
        try:
            assert pool.run(worker.request(SLOW_FRAME))["ok"]  # warm the spilling session

            async def scenario():
                with pytest.raises(RequestTimeoutError):
                    await worker.request(SLOW_FRAME, timeout=0.001)
                assert worker.inflight == 1
                # Written behind the abandoned frame, answered after it.
                ping = await worker.request({"op": "ping"}, timeout=30)
                assert worker.inflight == 0
                answered = await worker.request(SLOW_FRAME, timeout=30)
                return ping, answered

            ping, answered = pool.run(scenario())
            assert ping["ok"] and answered["ok"] and worker.alive()
            assert worker.inflight == 0 and pool.worker_restarts == 0
        finally:
            pool.close()

    def test_broadcast_sends_every_frame_before_awaiting_any(self):
        pool = WorkerPool(RELATIONS, BackendConfig(), size=2)
        calls = []
        try:
            for worker in pool._workers:
                submit, wait = worker.submit, worker.wait

                async def logged_submit(message, worker=worker, submit=submit):
                    calls.append(("submit", worker.index))
                    return await submit(message)

                async def logged_wait(*args, worker=worker, wait=wait, **kwargs):
                    calls.append(("wait", worker.index))
                    return await wait(*args, **kwargs)

                worker.submit, worker.wait = logged_submit, logged_wait
            responses = pool.run(pool._broadcast(pool._workers, {"op": "ping"}))
            assert [response["worker"] for response in responses] == [0, 1]
            assert calls == [("submit", 0), ("submit", 1), ("wait", 0), ("wait", 1)]
        finally:
            pool.close()


class TestMutateFailures:
    """A worker that fails a mutate is replaced, never left on the old rows."""

    QUERY = {"op": "query", "query": "project[A, B](R)"}

    def _pool(self):
        return WorkerPool(
            RELATIONS,
            BackendConfig(),
            size=2,
            versions={name: content_version(r) for name, r in RELATIONS.items()},
        )

    def _assert_every_worker_serves(self, pool, relation):
        for worker in pool._workers:
            response = pool.run(worker.request(self.QUERY, timeout=30))
            assert response["ok"], response
            assert response["rows"] == [list(row) for row in relation.sorted_rows()]
            assert response["versions"] == {"R": content_version(relation)}

    def test_a_worker_that_answers_not_ok_is_respawned(self, monkeypatch):
        from repro.server import worker as worker_module

        handle_mutate = worker_module._WorkerRuntime._handle_mutate

        def failing_on_worker_0(runtime, message):
            if runtime.index == 0:
                raise RuntimeError("injected mutate failure")
            return handle_mutate(runtime, message)

        monkeypatch.setattr(
            worker_module._WorkerRuntime, "_handle_mutate", failing_on_worker_0
        )
        pool = self._pool()
        try:
            relation = Relation.from_rows(
                RELATIONS["R"].scheme, [(1, 2), (3, 4)], name="R"
            )
            acks = pool.run(
                pool.mutate_async("R", relation, content_version(relation))
            )
            assert sorted(ack["ok"] for ack in acks) == [False, True]
            assert pool.worker_restarts == 1
            self._assert_every_worker_serves(pool, relation)
            assert pool.run(pool.stats_async())["worker_restarts"] == 1
        finally:
            pool.close()

    def test_the_query_deadline_does_not_bound_a_mutate(self, monkeypatch):
        # ``request_timeout_seconds`` is the per-query 504 deadline: a
        # worker slower than it at applying a mutate is waited for, not
        # replaced.
        from repro.server import worker as worker_module

        handle_mutate = worker_module._WorkerRuntime._handle_mutate

        def slow_on_worker_0(runtime, message):
            if runtime.index == 0:
                time.sleep(0.3)
            return handle_mutate(runtime, message)

        monkeypatch.setattr(
            worker_module._WorkerRuntime, "_handle_mutate", slow_on_worker_0
        )
        with ReproServer(
            RELATIONS, pool_size=2, request_timeout_seconds=0.05
        ) as running:
            conn = http.client.HTTPConnection("127.0.0.1", running.port, timeout=30)
            try:
                conn.request(
                    "POST",
                    "/mutate",
                    body=json.dumps({"name": "R", "rows": [[1, 2]]}),
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                body = json.loads(response.read())
                assert response.status == 200 and body["ok"], body
                assert body["workers_updated"] == 2
                stats = json.loads(_get(conn, "/stats")[1])
                assert stats["pool"]["worker_restarts"] == 0
                status, answer = _post(conn, {"query": "project[A, B](R)"})
                assert status == 200 and answer["rows"] == [[1, 2]]
            finally:
                conn.close()

    def test_a_failed_mutate_splits_the_queue_at_the_mutate(self, monkeypatch):
        # The worker is held while a query, a mutate it fails and a second
        # query queue up on it.  The first query is answered on the old
        # rows; the worker then NACKs and exits, and the second query is
        # retried on the replacement, on the new rows.
        from repro.server import worker as worker_module

        # Set and awaited across the fork: the worker is a child process.
        context = multiprocessing.get_context("fork")
        entered, release = context.Event(), context.Event()
        handle_query = worker_module._WorkerRuntime._handle_query

        def first_query_waits(runtime, message):
            if not entered.is_set():
                entered.set()
                release.wait(30)
            return handle_query(runtime, message)

        def failing(runtime, message):
            raise RuntimeError("injected mutate failure")

        runtime_class = worker_module._WorkerRuntime
        monkeypatch.setattr(runtime_class, "_handle_query", first_query_waits)
        monkeypatch.setattr(runtime_class, "_handle_mutate", failing)
        pool = WorkerPool(RELATIONS, BackendConfig(), size=1)
        relation = Relation.from_rows(RELATIONS["R"].scheme, [(7, 8)], name="R")

        async def scenario():
            before = asyncio.ensure_future(pool.dispatch_async(self.QUERY, timeout=30))
            while not entered.is_set():
                await asyncio.sleep(0.001)
            mutate = asyncio.ensure_future(pool.mutate_async("R", relation, None))
            await asyncio.sleep(0)  # the mutate frame is written
            after = asyncio.ensure_future(pool.dispatch_async(self.QUERY, timeout=30))
            await asyncio.sleep(0)
            assert pool._workers[0].inflight == 3
            release.set()
            return await asyncio.gather(before, mutate, after)

        held = pool._workers[0]
        try:
            before, acks, after = pool.run(scenario())
            assert held.join(10), "a worker that NACKs a mutate exits"
            assert before["ok"] and before["worker"] == 0, before
            assert before["rows"] == [list(row) for row in RELATIONS["R"].sorted_rows()]
            assert [ack["ok"] for ack in acks] == [False]
            assert after["ok"] and after["rows"] == [[7, 8]], after
            assert pool.worker_restarts == 1
        finally:
            release.set()
            pool.close()

    def test_a_worker_skipped_as_dead_is_respawned_on_the_new_rows(self):
        pool = self._pool()
        try:
            pool._workers[0].stop()
            relation = Relation.from_rows(
                RELATIONS["R"].scheme, [(5, 6)], name="R"
            )
            acks = pool.run(
                pool.mutate_async("R", relation, content_version(relation))
            )
            assert [ack["worker"] for ack in acks] == [1]
            assert pool.worker_restarts == 0
            # The next dispatch to the dead slot respawns it from the new map.
            answered = {}
            for _ in range(2):
                response = pool.dispatch(self.QUERY, timeout=30)
                answered[response["worker"]] = response
            assert sorted(answered) == [0, 1]
            for response in answered.values():
                assert response["rows"] == [[5, 6]]
                assert response["versions"] == {"R": content_version(relation)}
            assert pool.worker_restarts == 1
        finally:
            pool.close()


class TestWorkerVersions:
    """A query response reports the content versions of the rows it read."""

    QUERY = {"op": "query", "query": "project[A](R * S)", "count_only": True}

    @pytest.fixture()
    def runtime(self):
        from repro.server.worker import _WorkerRuntime

        versions = {name: content_version(r) for name, r in RELATIONS.items()}
        runtime = _WorkerRuntime(RELATIONS, versions, BackendConfig(), 0, None)
        yield runtime, versions
        runtime.close()

    def _mutate(self, runtime, rows, version):
        relation = Relation.from_rows(RELATIONS["R"].scheme, rows, name="R")
        ack = runtime.handle(
            {"op": "mutate", "name": "R", "relation": relation, "version": version}
        )
        assert ack["ok"], ack

    def test_a_query_reports_the_versions_of_what_it_read(self, runtime):
        runtime, versions = runtime
        response = runtime.handle(self.QUERY)
        assert response["versions"] == {"R": versions["R"], "S": versions["S"]}
        self._mutate(runtime, [(1, 2), (3, 4)], "next")
        response = runtime.handle(self.QUERY)
        assert response["versions"] == {"R": "next", "S": versions["S"]}
        assert response["rowcount"] == 2

    def test_a_query_behind_a_failed_mutate_reads_the_new_rows(self, monkeypatch):
        # Worker 0 NACKs the mutate; worker 1 applies it.  A query written
        # behind the mutate on either is answered from the new rows under
        # the new version — worker 0's by its replacement — never the old
        # rows filed under the new version.
        from repro.server import worker as worker_module

        handle_mutate = worker_module._WorkerRuntime._handle_mutate
        release = multiprocessing.get_context("fork").Event()  # set across the fork

        def held_then_failing_on_worker_0(runtime, message):
            release.wait(30)  # until a query is queued behind the mutate
            if runtime.index == 0:
                raise RuntimeError("injected mutate failure")
            return handle_mutate(runtime, message)

        monkeypatch.setattr(
            worker_module._WorkerRuntime, "_handle_mutate", held_then_failing_on_worker_0
        )
        versions = {name: content_version(r) for name, r in RELATIONS.items()}
        pool = WorkerPool(RELATIONS, BackendConfig(), size=2, versions=versions)
        relation = Relation.from_rows(RELATIONS["R"].scheme, [(1, 2), (3, 4)], name="R")
        version = content_version(relation)
        read = {"op": "query", "query": "project[A, B](R)"}

        async def scenario():
            for worker in pool._workers:
                await worker.request({"op": "ping"})  # connect: writes do not wait
            mutate = asyncio.ensure_future(pool.mutate_async("R", relation, version))
            await asyncio.sleep(0)  # both mutate frames are written
            reads = [
                asyncio.ensure_future(pool.dispatch_async(read, timeout=30))
                for _ in range(2)
            ]
            await asyncio.sleep(0)
            # One query queued behind the mutate on each worker.
            assert [worker.inflight for worker in pool._workers] == [2, 2]
            release.set()
            return await mutate, await asyncio.gather(*reads)

        try:
            acks, answers = pool.run(scenario())
            assert sorted(ack["ok"] for ack in acks) == [False, True]
            for answer in answers:
                assert answer["ok"], answer
                assert answer["rows"] == [[1, 2], [3, 4]]
                assert answer["versions"] == {"R": version}
            assert pool.worker_restarts == 1
        finally:
            release.set()
            pool.close()


class TestWorkerRuntimeFrames:
    """A worker's in-child request handling, driven in-process (no fork)."""

    QUERY = {"op": "query", "query": "project[A](R * S)"}

    @pytest.fixture()
    def runtime(self):
        from repro.server.worker import _WorkerRuntime

        versions = {name: content_version(r) for name, r in RELATIONS.items()}
        runtime = _WorkerRuntime(RELATIONS, versions, BackendConfig(), 3, None, max_sessions=2)
        yield runtime
        runtime.close()

    @staticmethod
    def _answer(response):
        assert response["ok"], response
        return {key: value for key, value in response.items() if key != "elapsed_ms"}

    @pytest.mark.parametrize("workers", [None, 1, 2])
    def test_a_frames_workers_key_is_ignored(self, runtime, workers):
        """The benchmark ladder's frames still carry ``"workers"``: the
        worker answers them as if the key were absent."""
        plain = self._answer(runtime.handle(self.QUERY))
        keyed = self._answer(runtime.handle({**self.QUERY, "workers": workers}))
        assert keyed == plain
        assert plain["worker"] == 3 and plain["rowcount"] == len(plain["rows"]) > 0

    def test_a_query_response_carries_no_pool_counters(self, runtime):
        response = runtime.handle(self.QUERY)
        assert sorted(response) == sorted(
            [
                "ok",
                "worker",
                "columns",
                "versions",
                "rowcount",
                "elapsed_ms",
                "budget",
                "spilled_rows",
                "spill_overflows",
                "peak_memory_rows",
                "spans",
                "rows",
            ]
        )

    def test_warm_sessions_are_kept_per_budget_and_the_coldest_is_closed(self, runtime):
        for budget in (None, 64, 32):
            assert runtime.handle({**self.QUERY, "budget": budget})["ok"]
            if budget is None:
                (coldest,) = runtime._sessions.values()
        stats = runtime.handle({"op": "stats"})["stats"]
        assert sorted(stats["sessions"]) == ["budget=32", "budget=64"]
        with pytest.raises(SessionClosedError):
            coldest.prepare(self.QUERY["query"])

    def test_an_unknown_op_is_answered_with_a_typed_error(self, runtime):
        response = runtime.handle({"op": "probe"})
        assert response["ok"] is False
        assert (response["error"], response["worker"]) == ("ServerError", 3)
        assert "unknown worker op" in response["message"]


class TestResultCache:
    """Unit contracts of the front's content-keyed LRU."""

    KEY = ("project[A](R * S)", None, 2500, None, True)
    #: Content versions at start; ``R2`` / ``R3`` are later contents of R.
    VERSIONS = {"R": "R1", "S": "S1", "T": "T1"}

    def _cache(self, capacity=4):
        return ResultCache(capacity, versions=self.VERSIONS)

    def _response(self, rowcount=40, versions=None):
        versions = versions or {"R": "R1", "S": "S1"}
        return {"ok": True, "rowcount": rowcount, "versions": versions}

    def test_miss_then_fill_then_hit(self):
        cache = self._cache()
        assert cache.lookup(self.KEY) is None
        assert cache.fill(self.KEY, self._response())
        hit = cache.lookup(self.KEY)
        assert hit is not None and json.loads(hit)["rowcount"] == 40
        stats = cache.stats()
        assert stats["cache_hits"] == 1
        assert stats["cache_misses"] == 1
        assert stats["entries"] == 1

    def test_every_lookup_returns_the_same_immutable_bytes(self):
        cache = self._cache()
        response = self._response()
        cache.fill(self.KEY, response)
        response["rowcount"] = -1  # the filed body does not alias the response
        first = cache.lookup(self.KEY)
        assert isinstance(first, bytes)
        assert first == json_body({**self._response(), "cached": True})
        assert all(cache.lookup(self.KEY) is first for _ in range(3))

    def test_only_the_first_hit_of_an_entry_encodes(self, monkeypatch):
        # A miss pays for encoding its own response only: a fill encodes
        # nothing, a dropped fill nothing, and one entry is encoded once.
        from repro.server import cache as cache_module

        encoded = []
        encode = cache_module.json_body
        monkeypatch.setattr(
            cache_module, "json_body", lambda value: encoded.append(1) or encode(value)
        )
        cache = self._cache()
        assert cache.fill(self.KEY, self._response())
        assert not cache.fill(self.KEY, self._response(9, {"R": "R0", "S": "S1"}))
        assert encoded == []
        for _ in range(5):
            assert json.loads(cache.lookup(self.KEY))["rowcount"] == 40
        assert encoded == [1]

    def test_lru_eviction_at_capacity(self):
        cache = self._cache(2)
        for index in range(3):
            key = (f"q{index}", None, None, None, True)
            assert cache.lookup(key) is None
            cache.fill(key, self._response(index, {"R": "R1"}))
        assert len(cache) == 2
        assert cache.lookup(("q0", None, None, None, True)) is None
        assert cache.lookup(("q2", None, None, None, True)) is not None
        assert cache.stats()["cache_evictions"] == 1

    def test_lru_eviction_counts_every_content_of_a_key(self):
        # Two contents of one key are two entries; evicting the older one
        # leaves the newer one served.
        cache = self._cache(2)
        cache.fill(self.KEY, self._response(1))
        cache.switch("R", "R2")
        cache.fill(self.KEY, self._response(2, {"R": "R2", "S": "S1"}))
        cache.fill(("other", None, None, None, True), self._response(3, {"T": "T1"}))
        assert len(cache) == 2 and cache.stats()["cache_evictions"] == 1
        assert json.loads(cache.lookup(self.KEY))["rowcount"] == 2
        cache.switch("R", "R1")
        assert cache.lookup(self.KEY) is None  # R1's entry was the evicted one

    def test_switch_makes_only_entries_reading_the_name_noncurrent(self):
        cache = self._cache(8)
        key_rs = ("a", None, None, None, True)
        key_t = ("b", None, None, None, True)
        cache.fill(key_rs, self._response())
        cache.fill(key_t, self._response(7, {"T": "T1"}))
        assert cache.switch("R", "R2") == 1
        assert cache.lookup(key_rs) is None
        assert cache.lookup(key_t) is not None
        stats = cache.stats()
        assert stats["cache_invalidations"] == 1
        assert stats["cache_stale_served"] == 0
        assert stats["entries"] == 2  # nothing is evicted for correctness

    def test_switching_back_serves_the_earlier_content(self):
        cache = self._cache()
        cache.fill(self.KEY, self._response(40))
        cache.switch("R", "R2")
        assert cache.lookup(self.KEY) is None
        cache.fill(self.KEY, self._response(9, {"R": "R2", "S": "S1"}))
        assert json.loads(cache.lookup(self.KEY))["rowcount"] == 9
        assert cache.switch("R", "R1") == 1
        assert json.loads(cache.lookup(self.KEY))["rowcount"] == 40
        assert cache.switch("R", "R2") == 1
        assert json.loads(cache.lookup(self.KEY))["rowcount"] == 9
        assert cache.stats()["cache_stale_served"] == 0

    def test_a_switch_drops_the_entries_of_a_content_two_mutations_old(self):
        cache = self._cache(8)
        other = ("other", None, None, None, True)
        cache.fill(other, self._response(5, {"T": "T1"}))
        for rowcount, version in enumerate(("R1", "R2", "R3", "R4")):
            cache.switch("R", version)
            assert cache.fill(self.KEY, self._response(rowcount, {"R": version, "S": "S1"}))
        # Never-repeating contents: one old content stays beside the current one.
        assert len(cache) == 3 and cache.stats()["cache_evictions"] == 2
        assert json.loads(cache.lookup(other))["rowcount"] == 5
        assert json.loads(cache.lookup(self.KEY))["rowcount"] == 3
        assert cache.switch("R", "R3") == 1
        assert json.loads(cache.lookup(self.KEY))["rowcount"] == 2
        cache.switch("R", "R2")
        assert cache.lookup(self.KEY) is None  # R2's entry went at the switch to R4
        assert cache.stats()["cache_stale_served"] == 0

    def test_noncurrent_entries_never_displace_current_ones(self):
        # A full cache; R switches to a fresh content and its two keys are
        # answered again.  The entries of T (never mutated) are older in
        # LRU order than R's, but only R's old entries make room.
        cache = self._cache(4)
        keys_t = [(f"t{index}", None, None, None, True) for index in range(2)]
        keys_r = [(f"r{index}", None, None, None, True) for index in range(2)]
        for key in keys_t:
            cache.fill(key, self._response(7, {"T": "T1"}))
        for key in keys_r:
            cache.fill(key, self._response(1, {"R": "R1"}))
        cache.switch("R", "R2")
        for key in keys_r:
            cache.fill(key, self._response(2, {"R": "R2"}))
        assert len(cache) == 4 and cache.stats()["cache_evictions"] == 2
        assert all(json.loads(cache.lookup(key))["rowcount"] == 7 for key in keys_t)
        assert all(json.loads(cache.lookup(key))["rowcount"] == 2 for key in keys_r)

    def test_a_fill_of_a_content_neither_current_nor_previous_is_dropped(self):
        # A read of R1 answered after two switches, or of a content the
        # front has not switched to yet: no later switch keeps it.
        cache = self._cache()
        cache.switch("R", "R2")
        cache.switch("R", "R3")
        assert not cache.fill(self.KEY, self._response(1))
        assert not cache.fill(self.KEY, self._response(4, {"R": "R4", "S": "S1"}))
        assert cache.fill(self.KEY, self._response(2, {"R": "R2", "S": "S1"}))
        assert len(cache) == 1 and cache.stats()["cache_stale_fill_drops"] == 2
        cache.switch("R", "R2")
        assert json.loads(cache.lookup(self.KEY))["rowcount"] == 2

    def test_switching_to_the_current_version_changes_nothing(self):
        cache = self._cache()
        cache.fill(self.KEY, self._response())
        assert cache.switch("R", "R1") == 0
        assert json.loads(cache.lookup(self.KEY))["rowcount"] == 40
        assert cache.stats()["cache_invalidations"] == 0

    def test_fill_is_filed_under_the_versions_it_read(self):
        # The race the old snapshot protocol closed: a miss executes
        # against R1, the mutate to R2 lands, THEN the fill arrives.  It
        # is filed under R1, so it is not served while R2 is current —
        # and a fill computed from R2 is served at once.
        cache = self._cache()
        assert cache.lookup(self.KEY) is None
        cache.switch("R", "R2")
        assert cache.fill(self.KEY, self._response(40))
        assert cache.lookup(self.KEY) is None
        assert cache.fill(self.KEY, self._response(1, {"R": "R2", "S": "S1"}))
        assert json.loads(cache.lookup(self.KEY))["rowcount"] == 1
        stats = cache.stats()
        assert stats["cache_stale_fill_drops"] == 0
        assert stats["cache_stale_served"] == 0
        assert stats["entries"] == 2

    def test_the_tripwire_counts_a_response_filed_under_other_versions(self):
        # Unreachable through fill(): plant an entry whose reported
        # versions disagree with the slot it sits in.
        cache = self._cache()
        cache.fill(self.KEY, self._response())
        slot = next(iter(cache._entries))
        cache._entries[slot][1] = {"R": "R0", "S": "S1"}
        assert cache.lookup(self.KEY) is None
        assert cache.stats()["cache_stale_served"] == 1

    def test_content_version_is_a_function_of_scheme_and_rows(self):
        rows = [(index % 7, index) for index in range(50)]
        first = content_version(Relation.from_rows("A B", rows, name="R"))
        assert len(first) == 32 and int(first, 16) >= 0
        assert first == content_version(
            Relation.from_rows("A B", list(reversed(rows)) + rows[:5], name="Q")
        )
        assert first != content_version(Relation.from_rows("A B", rows[1:]))
        assert first != content_version(Relation.from_rows("A C", rows))
        assert first != content_version(
            Relation.from_rows("A B", [(a, str(b)) for a, b in rows])
        )

    def test_content_version_ignores_the_hash_seed(self):
        script = (
            "from repro.algebra import Relation\n"
            "from repro.server.cache import content_version\n"
            "rows = [('x%d' % i, i % 3) for i in range(40)]\n"
            "print(content_version(Relation.from_rows('A B', rows)))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        digests = {
            subprocess.run(
                [sys.executable, "-c", script],
                env=dict(env, PYTHONHASHSEED=seed),
                capture_output=True, text=True, check=True, timeout=60,
            ).stdout
            for seed in ("0", "1", "2")
        }
        assert len(digests) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            ResultCache(0)


class TestResultCacheOverHttp:
    """The cache and ``POST /mutate`` end to end through the front."""

    @pytest.fixture()
    def cached_server(self):
        with ReproServer(
            RELATIONS,
            pool_size=2,
            total_budget_rows=50_000,
            session_budget=10_000,
        ) as running:
            yield running

    def _conn(self, running):
        return http.client.HTTPConnection(
            "127.0.0.1", running.port, timeout=30
        )

    def _mutate(self, conn, name, rows):
        conn.request(
            "POST",
            "/mutate",
            body=json.dumps({"name": name, "rows": rows}),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        return response.status, json.loads(response.read())

    def test_repeat_query_is_served_from_the_cache(self, cached_server):
        conn = self._conn(cached_server)
        try:
            status, first = _post(conn, {"query": QUERIES[1]})
            assert status == 200 and first["cached"] is False
            status, second = _post(conn, {"query": QUERIES[1]})
            assert status == 200 and second["cached"] is True
            assert second["rowcount"] == first["rowcount"]
            assert second["rows"] == first["rows"]
            stats = json.loads(_get(conn, "/stats")[1])
            assert stats["cache"]["cache_hits"] == 1
            assert stats["cache"]["cache_misses"] == 1
            # A hit leases no budget: exactly one grant for two queries.
            assert stats["budget"]["grants"] == 1
        finally:
            conn.close()

    def test_zipf_load_is_served_mostly_from_the_cache(self, cached_server):
        report = run_load(
            "127.0.0.1",
            cached_server.port,
            QUERIES,
            clients=8,
            requests_per_client=25,
            zipf=1.2,
        )
        assert report.ok == report.requests == 200 and report.errors == 0
        cache = cached_server.stats()["cache"]
        assert cache["cache_hits"] + cache["cache_misses"] == report.requests
        assert cache["cache_hits"] / report.requests >= 0.5
        assert cache["cache_stale_served"] == 0

    def test_cache_key_separates_budget_and_count_only(self, cached_server):
        conn = self._conn(cached_server)
        try:
            base = {"query": HEAVY_QUERY, "count_only": True}
            _post(conn, base)
            status, tight = _post(conn, dict(base, budget=64))
            assert status == 200 and tight["cached"] is False
            # An explicit null budget is the execution an absent one runs:
            # the same entry.
            status, same = _post(conn, dict(base, budget=None))
            assert status == 200 and same["cached"] is True
            assert cached_server.stats()["cache"]["entries"] == 2
            status, rows = _post(conn, {"query": HEAVY_QUERY})
            assert status == 200 and rows["cached"] is False
            # ... but each exact shape repeats from the cache.
            status, again = _post(conn, dict(base, budget=64))
            assert status == 200 and again["cached"] is True
        finally:
            conn.close()

    def test_traced_requests_bypass_the_cache(self, cached_server):
        conn = self._conn(cached_server)
        try:
            _post(conn, {"query": QUERIES[2], "count_only": True})
            status, traced = _post(
                conn, {"query": QUERIES[2], "count_only": True, "trace": True}
            )
            assert status == 200
            assert "cached" not in traced
            labels = [span["label"] for span in traced["front_spans"]]
            assert labels == ["lease", "dispatch"]
        finally:
            conn.close()

    def test_mutate_invalidates_and_requeries_see_new_data(self, cached_server):
        conn = self._conn(cached_server)
        try:
            query = "project[A, B](R)"
            status, before = _post(conn, {"query": query})
            assert status == 200
            status, hit = _post(conn, {"query": query})
            assert hit["cached"] is True

            status, ack = self._mutate(conn, "R", [[1, 2], [3, 4]])
            assert status == 200, ack
            assert ack["ok"] and ack["rowcount"] == 2
            assert ack["workers_updated"] == 2
            assert ack["cache_evicted"] >= 1

            status, after = _post(conn, {"query": query})
            assert status == 200
            assert after["cached"] is False
            assert after["rows"] == [[1, 2], [3, 4]]
            assert after["rows"] != before["rows"]

            stats = json.loads(_get(conn, "/stats")[1])
            assert stats["front"]["mutations"] == 1
            assert stats["cache"]["cache_invalidations"] == 1
            assert stats["cache"]["cache_stale_served"] == 0
        finally:
            conn.close()

    def test_identical_repost_and_restored_rows_are_served_from_the_cache(
        self, cached_server
    ):
        conn = self._conn(cached_server)
        original = [list(row) for row in RELATIONS["R"].sorted_rows()]
        query = {"query": "project[A](R * S)"}
        try:
            status, before = _post(conn, query)
            assert status == 200 and before["cached"] is False
            versions = cached_server._pool.versions()
            assert before["versions"] == {name: versions[name] for name in ("R", "S")}

            new_rows = [[a, b] for a in range(7) for b in range(3)]
            ack = self._mutate(conn, "R", new_rows)[1]
            assert ack["ok"] and ack["cache_evicted"] == 1
            status, after = _post(conn, query)
            assert after["cached"] is False and after["rows"] != before["rows"]

            # The same rows again: nothing changes for readers.
            ack = self._mutate(conn, "R", list(reversed(new_rows)))[1]
            assert ack["ok"] and ack["cache_evicted"] == 0
            status, again = _post(conn, query)
            assert again["cached"] is True and again["rows"] == after["rows"]

            # The original rows back: the pre-mutate answer, from the cache.
            ack = self._mutate(conn, "R", original)[1]
            assert ack["ok"] and ack["cache_evicted"] == 1
            status, restored = _post(conn, query)
            assert restored["cached"] is True
            assert restored["rows"] == before["rows"]
            assert restored["versions"] == before["versions"]

            cache = json.loads(_get(conn, "/stats")[1])["cache"]
            assert cache["cache_invalidations"] == 2  # the re-post switched nothing
            assert cache["cache_misses"] == 2 and cache["cache_hits"] == 2
            assert cache["cache_stale_served"] == 0
        finally:
            conn.close()

    def test_a_mutate_before_any_read_still_switches_the_content(self, cached_server):
        # The cache is empty (``len() == 0``) when the mutate lands.
        conn = self._conn(cached_server)
        try:
            assert len(cached_server._cache) == 0
            assert self._mutate(conn, "R", [[1, 2], [3, 4]])[1]["ok"]
            query = {"query": "project[A, B](R)"}
            status, first = _post(conn, query)
            assert first["cached"] is False and first["rows"] == [[1, 2], [3, 4]]
            status, second = _post(conn, query)
            assert second["cached"] is True and second["rows"] == first["rows"]
            assert cached_server.stats()["cache"]["cache_invalidations"] == 1
        finally:
            conn.close()

    def test_mutate_rejects_unknown_names_and_bad_rows(self, cached_server):
        conn = self._conn(cached_server)
        try:
            status, body = self._mutate(conn, "NOPE", [[1, 2]])
            assert status == 400 and body["error"] == "BadRequestError"
            status, body = self._mutate(conn, "R", [[1, 2, 3]])
            assert status == 400 and body["error"] == "BadRequestError"
            status, body = self._mutate(conn, "R", "not rows")
            assert status == 400
            conn.request("GET", "/mutate")
            assert conn.getresponse().status == 405
        finally:
            conn.close()

    def test_cache_metrics_render_in_the_exposition(self, cached_server):
        conn = self._conn(cached_server)
        try:
            _post(conn, {"query": QUERIES[0], "count_only": True})
            _post(conn, {"query": QUERIES[0], "count_only": True})
            samples = _samples(conn)
            assert samples["repro_server_cache_hits_total"] == "1"
            assert samples["repro_server_cache_misses_total"] == "1"
            assert samples["repro_server_cache_stale_served_total"] == "0"
            assert samples["repro_server_cache_entries"] == "1"
        finally:
            conn.close()

    def test_stats_and_metrics_read_the_same_counters(self, cached_server):
        """Each serving event is counted once: ``/stats`` is a view of ``/metrics``."""
        conn = self._conn(cached_server)
        try:
            query = "project[A, B](R)"
            assert _post(conn, {"query": query})[1]["cached"] is False  # miss
            assert _post(conn, {"query": query})[1]["cached"] is True  # hit
            assert self._mutate(conn, "R", [[1, 2], [3, 4]])[0] == 200
            assert _post(conn, {"query": query})[1]["cached"] is False  # miss
            assert _post(conn, {"query": ""})[0] == 400
            assert _post(conn, {"query": query, "budget": 10_000_000})[0] == 503

            stats = json.loads(_get(conn, "/stats")[1])
            samples = {
                name: int(value)
                for name, value in _samples(conn).items()
                if name.endswith("_total") or name == "repro_server_cache_entries"
            }
        finally:
            conn.close()
        front, cache = stats["front"], stats["cache"]
        assert sorted(front) == [
            "client_errors", "closed", "inflight", "mutations", "queries",
            "requests", "server_errors", "shed_budget", "shed_overload",
        ]
        # The scrape itself is one more accepted request than /stats saw.
        assert front["requests"] + 1 == samples["repro_http_requests_total"] == 8
        assert front["queries"] == samples["repro_http_queries_total"] == 3
        assert front["mutations"] == samples["repro_http_mutations_total"] == 1
        assert front["shed_overload"] == samples["repro_http_shed_total"] == 0
        assert front["shed_budget"] == samples["repro_budget_rejections_total"] == 1
        assert front["client_errors"] == samples["repro_http_client_errors_total"] == 1
        assert front["server_errors"] == (
            samples["repro_http_errors_total"] + samples["repro_http_timeouts_total"]
        ) == 0
        counted = {key: value for key, value in cache.items() if key.startswith("cache_")}
        assert counted == {
            "cache_hits": 1,
            "cache_misses": 3,  # cold, after the mutate, and the shed request's key
            "cache_invalidations": 1,
            "cache_evictions": 0,
            "cache_stale_fill_drops": 0,
            "cache_stale_served": 0,
        }
        for key, value in counted.items():
            assert samples[f"repro_server_{key}_total"] == value, key
        # One entry per content of R the query was answered on.
        assert samples["repro_server_cache_entries"] == cache["entries"] == 2

    def test_a_hit_replays_the_miss_byte_for_byte(self, cached_server):
        conn = self._conn(cached_server)
        try:
            for query in (
                {"query": QUERIES[1], "count_only": True},
                {"query": QUERIES[1]},
            ):
                status, miss = _post(conn, query)
                assert status == 200 and miss["cached"] is False
                status, body = _post_raw(conn, query)
                assert status == 200
                assert body == json_body({**miss, "cached": True})
        finally:
            conn.close()

    def test_no_query_or_mutate_reaches_the_executor(self, cached_server, monkeypatch):
        loop = cached_server._pool._loop
        run_in_executor = loop.run_in_executor
        calls = []

        def counted(executor, func, *args):
            calls.append(func)
            return run_in_executor(executor, func, *args)

        monkeypatch.setattr(loop, "run_in_executor", counted)
        conn = self._conn(cached_server)
        query = {"query": QUERIES[4], "count_only": True}
        try:
            assert _post(conn, query)[1]["cached"] is False  # lease, dispatch, fill
            assert cached_server.stats()["cache"]["cache_misses"] == 1
            for _ in range(25):
                assert _post(conn, query)[1]["cached"] is True
            assert self._mutate(conn, "T", [[1, 2]])[0] == 200
            assert _post(conn, query)[1]["cached"] is False
            assert _get(conn, "/stats")[0] == _get(conn, "/metrics")[0] == 200
            assert calls == []
        finally:
            conn.close()
            monkeypatch.undo()
        cache = cached_server.stats()["cache"]
        assert (cache["cache_hits"], cache["cache_misses"]) == (25, 2)
        # The front runs no thread of its own beside its loop: no executor,
        # no per-worker receiver.
        names = [thread.name for thread in threading.enumerate()]
        assert not any("recv" in name or "asyncio_" in name for name in names), names

    def test_hits_leave_the_event_log_alone(self, cached_server):
        conn = self._conn(cached_server)
        query = {"query": QUERIES[2], "count_only": True}
        try:
            assert _post(conn, query)[1]["cached"] is False
            events = cached_server._observer.events
            before = len(events)
            for _ in range(1000):
                _post_raw(conn, query)
            assert len(events) == before
        finally:
            conn.close()
        assert cached_server.stats()["cache"]["cache_hits"] == 1000

    def test_mutate_answers_400_for_rows_the_scheme_refuses(self):
        scheme = RelationScheme(
            [Attribute("A", Domain.of("small", range(4))), Attribute("B")]
        )
        relations = {"R": Relation.from_rows(scheme, [(0, 1), (3, 2)], name="R")}
        with ReproServer(relations, pool_size=1) as running:
            conn = self._conn(running)
            try:
                for rows in ([[1, 2, 3]], [[9, 2]], [[1, [2]]]):  # arity, domain, unhashable
                    status, body = self._mutate(conn, "R", rows)
                    assert status == 400 and body["error"] == "BadRequestError", body
                status, ack = self._mutate(conn, "R", [[1, 2]])
                assert status == 200 and ack["rowcount"] == 1
            finally:
                conn.close()

    def test_cache_events_are_emitted(self, cached_server):
        conn = self._conn(cached_server)
        try:
            _post(conn, {"query": QUERIES[3], "count_only": True})
            _post(conn, {"query": QUERIES[3], "count_only": True})
            self._mutate(conn, "T", [[1, 2]])
        finally:
            conn.close()
        events = cached_server._observer.events
        assert events is not None
        assert cached_server.stats()["cache"]["cache_hits"] == 1
        assert events.events("cache_hit") == []  # a hit is counted, not logged
        switches = events.events("cache_switch")
        assert [event["name"] for event in switches] == ["T"]
        assert switches[0]["noncurrent"] == 1

    def test_disabled_cache_never_marks_responses(self):
        with ReproServer(
            RELATIONS, pool_size=1, result_cache_size=0
        ) as plain:
            conn = self._conn(plain)
            try:
                for _ in range(2):
                    status, body = _post(
                        conn, {"query": QUERIES[0], "count_only": True}
                    )
                    assert status == 200
                    assert "cached" not in body
                stats = json.loads(_get(conn, "/stats")[1])
                assert stats["cache"] == {"enabled": False}
            finally:
                conn.close()

    def test_disabled_cache_never_digests_a_relation(self, monkeypatch):
        from repro.server import app as app_module

        def refuse(relation):
            raise AssertionError("a server without a cache digested a relation")

        monkeypatch.setattr(app_module, "content_version", refuse)
        with ReproServer(
            RELATIONS, pool_size=1, result_cache_size=0
        ) as plain:
            conn = self._conn(plain)
            try:
                status, ack = self._mutate(conn, "R", [[1, 2], [3, 4]])
                assert status == 200 and ack["ok"], ack
                status, body = _post(conn, {"query": "project[A, B](R)"})
                assert status == 200 and body["rows"] == [[1, 2], [3, 4]]
                assert body["versions"] == {"R": None}
            finally:
                conn.close()


class TestLoadReportRejections:
    """The loadgen fix: rejections are reported, never sampled."""

    def test_rejected_is_separate_and_percentiles_ignore_it(self):
        completed = [100.0, 110.0, 120.0, 130.0, 140.0]
        clean = LoadReport(
            clients=1, requests=5, ok=5, errors=0, rejected=0,
            seconds=1.0, latencies_ms=list(completed),
            status_counts={200: 5},
        )
        shed_heavy = LoadReport(
            clients=1, requests=10, ok=5, errors=0, rejected=5,
            seconds=1.0, latencies_ms=list(completed),
            status_counts={200: 5, 503: 5},
        )
        # Adding rejections must not move the latency percentiles: a
        # 503 turns around in microseconds, and folding those samples
        # in would make an overloaded server look *faster*.
        assert shed_heavy.p50_ms() == clean.p50_ms()
        assert shed_heavy.p99_ms() == clean.p99_ms()
        summary = shed_heavy.summary()
        assert summary["rejected"] == 5
        assert summary["shed"] == 5  # the pre-PR-10 alias stays
        assert summary["ok"] == 5 and summary["errors"] == 0
        assert shed_heavy.shed == 5
        # Throughput counts completed requests only.
        assert shed_heavy.throughput_rps == clean.throughput_rps

    def test_run_load_counts_rejections_under_real_shedding(self):
        with ReproServer(
            RELATIONS,
            pool_size=1,
            max_inflight=1,
            result_cache_size=0,
        ) as tight:
            report = run_load(
                "127.0.0.1",
                tight.port,
                [HEAVY_QUERY],
                clients=6,
                requests_per_client=2,
                budget=64,
                timeout=120.0,
            )
        assert report.requests == 12
        assert report.ok + report.rejected + report.errors == report.requests
        assert report.errors == 0, report.summary()
        assert report.rejected > 0, "max_inflight=1 under 6 clients must shed"
        # Every latency sample belongs to a completed request.
        assert len(report.latencies_ms) == report.ok
        assert report.status_counts.get(503, 0) == report.rejected
