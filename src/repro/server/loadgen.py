"""The load generator: concurrent keep-alive clients over mixed queries.

One thread per client, one persistent :class:`http.client.HTTPConnection`
per thread (keep-alive, so the measured latency is request handling, not
TCP setup), each client walking the query mix round-robin from its own
offset so every plan in the mix stays warm on every worker.  Latencies
are collected per request and summarised with *exact* percentiles from
the sorted sample — no histogram buckets between the benchmark and its
gate.

``run_load(..., zipf=s)`` switches the uniform round-robin walk to a
Zipf-skewed mix: query rank ``k`` (0-based position in ``queries``) is
drawn with probability proportional to ``1 / (k + 1) ** s``, from a
deterministic per-client stream — real serving traffic concentrates on
a few hot queries, so the skewed mix keeps hot plans served from the
pinned-plan and result caches while cold plans are still exercised in the
tail.

This is the smoke client the CI ``server-smoke`` job runs and the client
behind ``tests/test_server.py``'s load tests; timed serving numbers come
from the ladder's ``serve_mixed`` / ``serve_zipf_mutate`` workloads
(``benchmarks/ladder``), which drive their own closed-loop clients.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence

__all__ = ["LoadReport", "percentile", "run_load", "zipf_schedule"]


def zipf_schedule(
    count: int, requests: int, s: float, seed: int = 0
) -> List[int]:
    """A deterministic Zipf(s)-skewed sequence of query indices.

    Index ``k`` appears with probability proportional to
    ``1 / (k + 1) ** s`` — rank 0 is the hot query.  Deterministic in
    ``seed`` so benchmark legs are reproducible; each client passes its
    own offset as the seed to decorrelate the streams.
    """
    if count < 1:
        raise ValueError(f"zipf_schedule needs at least one query, got {count}")
    if s <= 0:
        raise ValueError(f"zipf skew must be positive, got {s}")
    weights = [1.0 / (rank + 1) ** s for rank in range(count)]
    rng = random.Random(seed)
    return rng.choices(range(count), weights=weights, k=requests)


def percentile(latencies: Sequence[float], q: float) -> float:
    """The exact ``q``-th percentile (nearest-rank) of a non-empty sample."""
    if not latencies:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(latencies)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without floats
    return ordered[int(rank) - 1]


@dataclass
class LoadReport:
    """One load run's outcome: counts, throughput, latency percentiles.

    The population split is exact and disjoint: ``ok`` (HTTP 200),
    ``rejected`` (HTTP 503 — load shed by admission control or the
    budget scheduler), ``errors`` (everything else, including transport
    failures).  ``latencies_ms`` holds **completed (200) requests
    only** — a shed request turns around in microseconds, and folding
    those near-zero samples into the percentiles would make an
    overloaded server look *faster* as it rejects more.  The regression
    test pins this: p50/p99 must not move when rejections are added to a
    run.
    """

    clients: int
    requests: int
    ok: int
    errors: int
    rejected: int
    seconds: float
    latencies_ms: List[float] = field(default_factory=list)
    status_counts: Dict[int, int] = field(default_factory=dict)

    @property
    def shed(self) -> int:
        """Alias of ``rejected`` (the pre-PR-10 field name)."""
        return self.rejected

    @property
    def throughput_rps(self) -> float:
        """Successful requests per wall-clock second."""
        return self.ok / self.seconds if self.seconds > 0 else 0.0

    def p50_ms(self) -> float:
        """Median completed-request latency in milliseconds."""
        return percentile(self.latencies_ms, 50)

    def p99_ms(self) -> float:
        """99th-percentile completed-request latency in milliseconds."""
        return percentile(self.latencies_ms, 99)

    def summary(self) -> Dict[str, Any]:
        """The report as a plain dict (the benchmark section's shape)."""
        return {
            "clients": self.clients,
            "requests": self.requests,
            "ok": self.ok,
            "errors": self.errors,
            "rejected": self.rejected,
            "shed": self.rejected,
            "seconds": round(self.seconds, 4),
            "throughput_rps": round(self.throughput_rps, 2),
            "p50_ms": round(self.p50_ms(), 3) if self.latencies_ms else None,
            "p99_ms": round(self.p99_ms(), 3) if self.latencies_ms else None,
            "status_counts": {
                str(status): count
                for status, count in sorted(self.status_counts.items())
            },
        }


def _client_worker(
    host: str,
    port: int,
    queries: Sequence[str],
    offset: int,
    requests: int,
    payload_extra: Dict[str, Any],
    latencies: List[float],
    statuses: List[int],
    barrier: threading.Barrier,
    timeout: float,
    zipf: Optional[float],
) -> None:
    if zipf is not None:
        schedule = zipf_schedule(len(queries), requests, zipf, seed=offset)
    else:
        schedule = [(offset + index) % len(queries) for index in range(requests)]
    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        barrier.wait(timeout=timeout)
        for index in range(requests):
            body = dict(payload_extra)
            body["query"] = queries[schedule[index]]
            encoded = json.dumps(body)
            start = perf_counter()
            try:
                connection.request(
                    "POST",
                    "/query",
                    body=encoded,
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                response.read()
                status = response.status
            except (http.client.HTTPException, OSError):
                status = -1
                connection.close()
                connection = http.client.HTTPConnection(host, port, timeout=timeout)
            elapsed_ms = (perf_counter() - start) * 1000.0
            statuses.append(status)
            if status == 200:
                latencies.append(elapsed_ms)
    finally:
        connection.close()


def run_load(
    host: str,
    port: int,
    queries: Sequence[str],
    clients: int = 8,
    requests_per_client: int = 25,
    budget: Optional[int] = None,
    count_only: bool = True,
    timeout: float = 30.0,
    zipf: Optional[float] = None,
) -> LoadReport:
    """Drive ``clients`` concurrent keep-alive clients and report latency.

    Every client starts at its own offset into ``queries`` and walks the
    mix round-robin, so the traffic interleaves all plans at all times.
    ``budget`` attaches a per-request engine-budget override to every
    request — the knob the benchmark uses to demonstrate the override
    under load.  ``zipf`` replaces the round-robin walk with a
    Zipf(``zipf``)-skewed draw over the mix (see :func:`zipf_schedule`):
    the first queries in ``queries`` become hot, the rest become a long
    tail, which is what real serving traffic looks like.  Clients
    synchronise on a barrier so the measured window is fully concurrent
    from the first request.
    """
    if not queries:
        raise ValueError("run_load needs at least one query")
    if clients < 1:
        raise ValueError(f"clients must be >= 1, got {clients}")
    payload_extra: Dict[str, Any] = {"count_only": count_only}
    if budget is not None:
        payload_extra["budget"] = budget
    per_client_latencies: List[List[float]] = [[] for _ in range(clients)]
    per_client_statuses: List[List[int]] = [[] for _ in range(clients)]
    barrier = threading.Barrier(clients + 1)
    threads = [
        threading.Thread(
            target=_client_worker,
            args=(
                host,
                port,
                queries,
                index,
                requests_per_client,
                payload_extra,
                per_client_latencies[index],
                per_client_statuses[index],
                barrier,
                timeout,
                zipf,
            ),
            daemon=True,
        )
        for index in range(clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait(timeout=timeout)
    start = perf_counter()
    for thread in threads:
        thread.join()
    seconds = perf_counter() - start

    latencies = [ms for bucket in per_client_latencies for ms in bucket]
    statuses = [status for bucket in per_client_statuses for status in bucket]
    status_counts: Dict[int, int] = {}
    for status in statuses:
        status_counts[status] = status_counts.get(status, 0) + 1
    ok = status_counts.get(200, 0)
    rejected = status_counts.get(503, 0)
    return LoadReport(
        clients=clients,
        requests=len(statuses),
        ok=ok,
        errors=len(statuses) - ok - rejected,
        rejected=rejected,
        seconds=seconds,
        latencies_ms=latencies,
        status_counts=status_counts,
    )
