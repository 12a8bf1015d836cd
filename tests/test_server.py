"""Tests for :mod:`repro.server`: the networked serving tier.

Covers the tier's contracts layer by layer — the budget scheduler's
lease/wait/reject semantics, the worker pool's warm-session dispatch,
per-request budget overrides, and crash respawn, the HTTP front's
routes, admission shedding, typed error mapping, and merged ``/metrics``
exposition, the load generator's exact percentiles — plus the shutdown
satellite: a session closed concurrently with in-flight executes leaks
no pools or spill directories and answers post-close requests with the
typed :class:`~repro.api.SessionClosedError`.
"""

import json
import http.client
import multiprocessing
import os
import threading
import time

import pytest

from repro.algebra import Relation
from repro.api import Session, SessionClosedError
from repro.api.config import BackendConfig
from repro.engine import join_estimate_provenance
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
    WorkerPool,
    percentile,
    run_load,
    zipf_schedule,
)
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


def _warm_execute_seconds(relations, query, budget, pick=min):
    """``pick`` of three warm in-process executes of ``query`` (seconds)."""
    with Session(relations, backend="engine", budget=budget) as session:
        prepared = session.prepare(query)
        prepared.execute()
        samples = []
        for _ in range(3):
            start = time.perf_counter()
            prepared.execute()
            samples.append(time.perf_counter() - start)
    return pick(samples)


def _post(conn, body):
    conn.request(
        "POST",
        "/query",
        body=json.dumps(body),
        headers={"Content-Type": "application/json"},
    )
    response = conn.getresponse()
    return response.status, json.loads(response.read())


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
    def test_unlimited_pool_grants_immediately(self):
        scheduler = BudgetScheduler()
        with scheduler.acquire() as lease:
            assert lease.rows is None
        with scheduler.acquire(rows=500) as lease:
            assert lease.rows == 500
        assert scheduler.stats()["grants"] == 2

    def test_finite_pool_defaults_to_a_quarter_slice(self):
        scheduler = BudgetScheduler(total_rows=1000)
        assert scheduler.default_request_rows == 250
        with scheduler.acquire() as lease:
            assert lease.rows == 250

    def test_request_larger_than_pool_rejects_immediately(self):
        scheduler = BudgetScheduler(total_rows=100, max_wait_seconds=30.0)
        start = time.perf_counter()
        with pytest.raises(BudgetExhaustedError):
            scheduler.acquire(rows=101)
        assert time.perf_counter() - start < 1.0
        assert scheduler.stats()["rejections"] == 1

    def test_concurrent_leases_never_exceed_the_pool(self):
        scheduler = BudgetScheduler(total_rows=100, max_wait_seconds=5.0)
        first = scheduler.acquire(rows=60)
        # A second 60-row lease must wait; release on a timer unblocks it.
        timer = threading.Timer(0.05, first.release)
        timer.start()
        second = scheduler.acquire(rows=60)
        assert second.rows == 60
        assert scheduler.stats()["waits"] == 1
        assert scheduler.stats()["peak_leased_rows"] <= 100
        second.release()
        timer.join()

    def test_wait_deadline_raises_the_typed_rejection(self):
        scheduler = BudgetScheduler(total_rows=100, max_wait_seconds=0.05)
        held = scheduler.acquire(rows=80)
        with pytest.raises(BudgetExhaustedError):
            scheduler.acquire(rows=80)
        assert scheduler.stats()["rejections"] == 1
        held.release()
        assert scheduler.stats()["leased_rows"] == 0

    def test_release_is_idempotent(self):
        scheduler = BudgetScheduler(total_rows=100)
        lease = scheduler.acquire(rows=40)
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
            BudgetScheduler().acquire(rows=0)


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
        if pool.backend != "fork":
            pool.close()
            pytest.skip("crash recovery needs process workers")
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

    def test_thread_backend_serves_too(self):
        pool = WorkerPool(RELATIONS, BackendConfig(), size=1, worker_backend="thread")
        try:
            response = pool.dispatch(
                {"op": "query", "query": QUERIES[0], "count_only": True}
            )
            assert response["ok"]
        finally:
            pool.close()


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
            {"query": QUERIES[0], "backend": "nope"},
            {"query": QUERIES[0], "budget": -5},
            {"query": QUERIES[0], "workers": 0},
        ):
            status, body = _post(connection, payload)
            assert status == 400, payload
            assert not body["ok"]

    def test_non_json_body_maps_to_400(self, connection):
        connection.request("POST", "/query", body=b"not json{")
        response = connection.getresponse()
        assert response.status == 400
        assert not json.loads(response.read())["ok"]

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

    def test_admission_control_sheds_with_503(self):
        with ReproServer(RELATIONS, pool_size=1, max_inflight=1) as tight:
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

    def test_override(self):
        config = ServerConfig().override(pool_size=4)
        assert config.pool_size == 4


class TestSessionShutdownUnderLoad:
    """The shutdown satellite: close() racing in-flight executes."""

    def test_concurrent_close_leaks_no_pools_or_spill_dirs(self):
        for _round in range(3):
            session = Session(
                RELATIONS, backend="engine", budget=64, workers=2
            )
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
            assert session.stats()["open_pools"] == 0
        assert _ACTIVE_SPILL_DIRS == set()

    def test_an_execute_that_outlives_close_caches_no_pool(self, monkeypatch):
        # The race above without a clock: close() lands after the execute
        # passed _ensure_open() and before it reaches the fork stage.
        others = set(multiprocessing.active_children())
        session = Session(RELATIONS, backend="engine", budget=64, workers=2)
        prepared = session.prepare(HEAVY_QUERY)
        expected = prepared.execute().relation
        assert session.stats()["open_pools"] == 1
        ensure_open = session._ensure_open

        def open_then_closed():
            ensure_open()
            session.close()

        monkeypatch.setattr(session, "_ensure_open", open_then_closed)
        assert prepared.execute().relation == expected
        assert session.stats()["open_pools"] == 0
        assert set(multiprocessing.active_children()) <= others
        assert _ACTIVE_SPILL_DIRS == set()

    def test_post_close_requests_raise_the_typed_error(self):
        session = Session(RELATIONS, backend="engine", budget=64)
        prepared = session.prepare(HEAVY_QUERY)
        prepared.execute()
        session.close()
        with pytest.raises(SessionClosedError):
            session.prepare("project[A](R * S)")
        with pytest.raises(SessionClosedError):
            prepared.execute()


class TestMultiplexedWorkers:
    """The tentpole pin: one worker serves many requests over one pipe."""

    def test_fast_queries_complete_while_a_slow_spill_is_in_flight(self):
        # The head-of-line regression: a single worker (pool of one)
        # chewing on a budget-64 spilling execute must keep answering
        # fast queries on its other dispatcher threads.  Pre-multiplex,
        # the fast queries queued behind the slow one on the pipe.
        pool = WorkerPool(
            HEAVY_RELATIONS, BackendConfig(budget=50_000), size=1, concurrency=4
        )
        try:
            # Warm both sessions so timings reflect serving, not setup:
            # the default-budget session for the fast mix, the budget-64
            # session for the slow spilling execute.
            fast = pool.dispatch(
                {"op": "query", "query": QUERIES[0], "count_only": True}
            )
            warm = pool.dispatch(
                {"op": "query", "query": HEAVY_QUERY, "budget": 64,
                 "count_only": True}
            )
            assert fast["ok"] and warm["ok"] and warm["spilled_rows"] > 0

            slow_done = threading.Event()
            slow_box = {}

            def run_slow():
                slow_box["response"] = pool.dispatch(
                    {"op": "query", "query": HEAVY_QUERY, "budget": 64,
                     "count_only": True}
                )
                slow_done.set()

            slow = threading.Thread(target=run_slow)
            slow.start()
            deadline = time.perf_counter() + 10.0
            while (
                pool._workers[0].inflight < 1
                and not slow_done.is_set()
                and time.perf_counter() < deadline
            ):
                time.sleep(0.001)
            assert not slow_done.is_set(), "slow query must still be running"

            # Five fast queries against the SAME worker, all while the
            # spilling execute holds one dispatcher thread.
            for _ in range(5):
                response = pool.dispatch(
                    {"op": "query", "query": QUERIES[0], "count_only": True}
                )
                assert response["ok"], response
            assert not slow_done.is_set(), (
                "all five fast queries finished, yet the slow spilling "
                "execute must still be in flight — head-of-line blocking "
                "would have serialised them behind it"
            )
            slow.join(timeout=30)
            assert slow_box["response"]["ok"]
            assert slow_box["response"]["rowcount"] == warm["rowcount"]
        finally:
            pool.close()

    def test_control_frames_answer_during_a_slow_query(self):
        # ping/stats/metrics are handled inline on the worker's recv
        # loop, so telemetry stays live even with every dispatcher
        # thread busy.
        pool = WorkerPool(
            HEAVY_RELATIONS, BackendConfig(budget=50_000), size=1, concurrency=1
        )
        try:
            warm = pool.dispatch(
                {"op": "query", "query": HEAVY_QUERY, "budget": 64,
                 "count_only": True}
            )
            assert warm["ok"]
            slow_done = threading.Event()
            slow = threading.Thread(
                target=lambda: (
                    pool.dispatch(
                        {"op": "query", "query": HEAVY_QUERY, "budget": 64,
                         "count_only": True}
                    ),
                    slow_done.set(),
                )
            )
            slow.start()
            deadline = time.perf_counter() + 10.0
            while (
                pool._workers[0].inflight < 1
                and not slow_done.is_set()
                and time.perf_counter() < deadline
            ):
                time.sleep(0.001)
            ping = pool._workers[0].request({"op": "ping"})
            assert ping["ok"]
            assert not slow_done.is_set(), (
                "the ping answered inline must not wait for the query"
            )
            slow.join(timeout=30)
        finally:
            pool.close()

    def test_dispatch_prefers_the_least_loaded_worker(self):
        pool = WorkerPool(
            HEAVY_RELATIONS, BackendConfig(budget=50_000), size=2, concurrency=4
        )
        try:
            for index in range(2):
                warm = pool._workers[index].request(
                    {"op": "query", "query": HEAVY_QUERY, "budget": 64,
                     "count_only": True}
                )
                assert warm["ok"]
            slow_done = threading.Event()

            def run_slow():
                pool.dispatch(
                    {"op": "query", "query": HEAVY_QUERY, "budget": 64,
                     "count_only": True}
                )
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


class TestLeaseLifecycleUnderMultiplexing:
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
            pool_size=1,
            total_budget_rows=10_000,
            request_timeout_seconds=deadline,
            result_cache_size=0,
        ) as running:
            conn = http.client.HTTPConnection(
                "127.0.0.1", running.port, timeout=30
            )
            try:
                # Warm the fast path first: planning is paid here, with no
                # deadline to meet (a cold first request may take a 504).
                for _ in range(2):
                    status, _body = _post(
                        conn, {"query": FAST_QUERY, "count_only": True}
                    )
                assert status == 200
                status, body = _post(
                    conn,
                    {"query": HEAVY_QUERY, "budget": 64, "count_only": True},
                )
                assert status == 504
                assert body["error"] == "RequestTimeoutError"
                budget = self._budget(running)
                assert budget["leased_rows"] == 0, budget
                assert budget["active_leases"] == 0, budget
                # The pipe stayed healthy: the same worker keeps serving
                # (the late response for the abandoned id is dropped).
                status, body = _post(
                    conn, {"query": FAST_QUERY, "count_only": True}
                )
                assert status == 200 and body["ok"]
                assert running.stats()["pool"]["worker_restarts"] == 0
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
            if running._pool.backend != "fork":
                pytest.skip("crash recovery needs process workers")
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
        pool = WorkerPool(
            RELATIONS, BackendConfig(budget=50_000), size=1, concurrency=4
        )
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


class TestResultCache:
    """Unit contracts of the front's invalidating LRU."""

    KEY = ("project[A](R * S)", None, 2500, None, True)

    def _response(self, rowcount=40):
        return {"ok": True, "rowcount": rowcount, "relations": ["R", "S"]}

    def test_miss_then_fill_then_hit(self):
        cache = ResultCache(4)
        hit, snapshot = cache.lookup(self.KEY)
        assert hit is None
        assert cache.fill(self.KEY, ["R", "S"], self._response(), snapshot)
        hit, _snapshot = cache.lookup(self.KEY)
        assert hit is not None and hit["rowcount"] == 40
        stats = cache.stats()
        assert stats["cache_hits"] == 1
        assert stats["cache_misses"] == 1
        assert stats["entries"] == 1

    def test_hit_returns_a_copy(self):
        cache = ResultCache(4)
        _miss, snapshot = cache.lookup(self.KEY)
        cache.fill(self.KEY, ["R", "S"], self._response(), snapshot)
        first, _ = cache.lookup(self.KEY)
        first["rowcount"] = -1
        second, _ = cache.lookup(self.KEY)
        assert second["rowcount"] == 40

    def test_lru_eviction_at_capacity(self):
        cache = ResultCache(2)
        for index in range(3):
            key = (f"q{index}", None, None, None, True)
            _miss, snapshot = cache.lookup(key)
            cache.fill(key, ["R"], self._response(index), snapshot)
        assert len(cache) == 2
        gone, _ = cache.lookup(("q0", None, None, None, True))
        assert gone is None
        kept, _ = cache.lookup(("q2", None, None, None, True))
        assert kept is not None
        assert cache.stats()["cache_evictions"] == 1

    def test_invalidate_evicts_only_entries_reading_the_name(self):
        cache = ResultCache(8)
        key_rs = ("a", None, None, None, True)
        key_t = ("b", None, None, None, True)
        _m, snap = cache.lookup(key_rs)
        cache.fill(key_rs, ["R", "S"], self._response(), snap)
        _m, snap = cache.lookup(key_t)
        cache.fill(key_t, ["T"], self._response(7), snap)
        assert cache.invalidate("R") == 1
        assert cache.lookup(key_rs)[0] is None
        assert cache.lookup(key_t)[0] is not None
        assert cache.stats()["cache_invalidations"] == 1
        assert cache.stats()["cache_stale_served"] == 0

    def test_stale_fill_is_dropped_when_invalidation_races_the_miss(self):
        # The generational race: lookup misses, the execute runs against
        # pre-mutation data, the mutation lands, THEN the fill arrives.
        # Accepting it would cache a stale result forever.
        cache = ResultCache(4)
        _miss, snapshot = cache.lookup(self.KEY)
        cache.invalidate("R")
        assert not cache.fill(self.KEY, ["R", "S"], self._response(), snapshot)
        assert cache.lookup(self.KEY)[0] is None
        assert cache.stats()["cache_stale_fill_drops"] == 1

    def test_fill_after_the_invalidation_is_accepted(self):
        # The other half of the race's contract: a miss whose lookup
        # happened AT the invalidation's generation executed against the
        # new data (the pool is mutated before the cache invalidates),
        # so its fill must be accepted — the cache recovers immediately.
        cache = ResultCache(4)
        cache.invalidate("R")
        _miss, snapshot = cache.lookup(self.KEY)
        assert cache.fill(self.KEY, ["R", "S"], self._response(1), snapshot)
        hit, _ = cache.lookup(self.KEY)
        assert hit is not None and hit["rowcount"] == 1
        assert cache.stats()["cache_stale_fill_drops"] == 0

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

    def test_cache_key_separates_budget_backend_and_count_only(
        self, cached_server
    ):
        conn = self._conn(cached_server)
        try:
            base = {"query": HEAVY_QUERY, "count_only": True}
            _post(conn, base)
            status, tight = _post(conn, dict(base, budget=64))
            assert status == 200 and tight["cached"] is False
            status, optimized = _post(conn, dict(base, backend="optimized"))
            assert status == 200 and optimized["cached"] is False
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
        assert samples["repro_server_cache_entries"] == cache["entries"] == 1

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
        assert len(events.events("cache_hit")) == 1
        invalidations = events.events("cache_invalidate")
        assert [event["name"] for event in invalidations] == ["T"]

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
