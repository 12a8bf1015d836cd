"""The measured process: one workload set up, run, checked and torn down.

``run.py`` starts this in a fresh interpreter (``--role main`` or ``--role
setup``) so that ``setup_s`` runs from process start and ``peak_rss_mb``
belongs to one workload alone.
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import resource
from statistics import median
import tempfile
import time
from time import perf_counter
from pathlib import Path
from typing import Dict, List

import ladder
import workloads as w
from stats import percentile

#: Counters that must stay zero: a non-zero value fails the run.
TRIPWIRES = (
    "engine.spill_overflows",
    "engine.serial_fallbacks",
    "engine.replans",
    "server.cache_stale_served",
    "server.rejected",
    "server.errors",
    "server.worker_restarts",
)
CALIBRATION_SPINS = 3  # before the window, and again after it


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes: the machine's speed right now.

    On a shared box the same code runs 25-30 % slower for minutes at a time
    (parse, evaluate and CPU seconds all move together); this number says
    which phase a run was taken in.
    """
    start = perf_counter()
    total = 0
    for value in range(1_000_000):
        total += value * value % 7
    return perf_counter() - start


def measure(args: argparse.Namespace, out: Path) -> dict:
    """Set one workload up, run its window (and the ladder), tear it down."""
    problems: List[str] = []
    ops = w.op_count(args.workload, args.seconds, args.smoke)
    inputs = w.build(args.workload, args.seed, ops)
    server = session = None
    if inputs.served:
        server = w.open_served(inputs, problems)
        before = server.stats()
    else:
        session, prepared, expected = w.open_in_process(inputs, problems)
        before = session.stats()
    setup_s = time.time() - args.spawned_at
    if args.role == "setup":
        (server or session).close()
        return {"setup_s": setup_s}

    spins = [calibrate() for _ in range(CALIBRATION_SPINS)]
    if server is not None:
        window = w.run_served(server, inputs)
        after = server.stats()
        if not w.final_reads_agree(server, inputs):
            problems.append("reads after the last mutate are not the final generation")
        server.close()
    else:
        window = w.run_in_process(prepared, expected, inputs.schedule)
        after = session.stats()
        session.close()
    spins += [calibrate() for _ in range(CALIBRATION_SPINS)]
    if window.first_error:
        problems.append(f"first failed operation: {window.first_error}")
    if multiprocessing.active_children():
        problems.append("worker processes outlived teardown")
    usage = [resource.getrusage(who) for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    cpu_s = sum(u.ru_utime + u.ru_stime for u in usage)
    attempted = len(window.latencies)
    record = {
        "ops": ops,
        "attempted": attempted,
        "failed": window.failed,
        "window_s": max(window.ends) - window.begin,
        "calibration_ms": 1000.0 * median(spins),
        "end_to_end": {
            "setup_s": setup_s,
            "latency_quiet_ms": 1000.0 * window.quiet_latency(),
            "peak_rss_mb": sum(u.ru_maxrss for u in usage) / 1024.0,
        },
    }
    if args.ladder:
        layer, extra = window_layers(inputs, window, before, after, attempted)
        layer["bench.cpu_s"] = cpu_s
        layer["bench.calibration_ms"] = record["calibration_ms"]
        recorder = ladder.SpanRecorder()
        rungs, probes, tried, wrong = ladder.run_ladder(
            inputs, args.seconds, args.smoke, recorder, problems
        )
        # Only the server health counters exist on both sides: the window's
        # server and the ladder's add up.
        for name, value in rungs.items():
            layer[name] = layer.get(name, 0) + value
        extra.update(probes)
        recorder.write(str(out / f"spans-{args.workload}.jsonl"))
        record["attempted"] += tried
        record["failed"] += wrong
        record["per_layer"] = layer
        record["extra"] = extra
        problems.extend(
            f"tripwire {name} = {layer[name]}" for name in TRIPWIRES if layer[name]
        )
    window_trips = {
        "spill_overflows": window.spill_overflows,
        "serial_fallbacks": window.serial_fallbacks,
        "replans": window.replans,
        "cache_stale_served": after.get("cache", {}).get("cache_stale_served", 0),
    }
    problems.extend(
        f"tripwire {name} = {value} in the window"
        for name, value in window_trips.items() if value
    )
    if os.listdir(tempfile.gettempdir()):
        problems.append("spill directories outlived teardown")
    record["problems"] = problems
    return record


def window_layers(inputs, window, before, after, attempted):
    """Per-layer metrics the untraced window yields from the outside."""
    extra: Dict[str, dict] = {}
    if inputs.served:
        sessions_before = w.worker_session_totals(before)
        sessions_after = w.worker_session_totals(after)
        worker_ms = sum(elapsed for _, cached, elapsed in window.reads if not cached)
        layer = {
            "server.overhead_share": 1.0 - worker_ms / (1000.0 * sum(window.latencies)),
            **w.server_health(after),
        }
        extra["server.latency_p99_ms"] = ms(percentile(window.latencies, 99))
    else:
        sessions_before, sessions_after = before, after
        layer = {"server.overhead_share": 0.0}
    # What the caller saw on this machine at this hour: reported, not gated,
    # because identical runs differ by 10-20 % in all three (see README).
    layer["throughput_ops_s"] = window.throughput()
    layer["latency_p50_ms"] = 1000.0 * median(window.latencies)
    layer["latency_p90_ms"] = 1000.0 * percentile(window.latencies, 90)
    for key in ("executes", "plan_builds", "plan_cache_hits"):
        layer[f"api.{key}"] = (sessions_after[key] - sessions_before[key]) / attempted
    cache = {
        key: after.get("cache", {}).get(key, 0) - before.get("cache", {}).get(key, 0)
        for key in ("cache_hits", "cache_misses", "cache_invalidations",
                    "cache_evictions", "cache_stale_fill_drops", "cache_stale_served")
    }
    lookups = cache["cache_hits"] + cache["cache_misses"]
    layer["server.cache_hit_rate"] = cache["cache_hits"] / lookups if lookups else 0.0
    for key in ("invalidations", "evictions", "stale_fill_drops", "stale_served"):
        layer[f"server.cache_{key}"] = cache[f"cache_{key}"]
    hits = [latency for latency, cached, _ in window.reads if cached]
    misses = [latency for latency, cached, _ in window.reads if not cached]
    if hits and misses:
        extra["server.read_hit_p50_ms"] = ms(median(hits))
        extra["server.read_miss_p50_ms"] = ms(median(misses))
    if window.mutates:
        extra["server.mutate_p50_ms"] = ms(median(window.mutates))
        extra["server.mutate_p90_ms"] = ms(percentile(window.mutates, 90))
    return layer, extra


def ms(seconds: float) -> dict:
    """An extra metric in milliseconds."""
    return {"value": 1000.0 * seconds, "unit": "ms"}
