"""The traced ladder: the workload's queries entered at every layer.

Each query goes in at ``algebra.kernel_eval`` -> ``engine.evaluate`` ->
``api.execute`` -> ``server.dispatch`` -> ``server.http``, a few dozen times
per rung, interleaved round-robin across rungs so a load spike lands on all
of them.  A layer's self time is its rung's median minus the rung below.
Spans are recorded by this file, around the calls into each layer; nothing
inside the program is instrumented.
"""

from __future__ import annotations

import http.client
import json
import os
from statistics import median
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.api import BackendConfig, ObserveConfig, Session
from repro.engine.evaluator import EngineEvaluator
from repro.expressions.optimizer import OptimizedEvaluator
from repro.expressions.parser import parse_expression
from repro.perf import kernel_counters
from repro.server import ReproServer, WorkerPool

from stats import weighted_mean
from workloads import (
    POOL_SIZE,
    Inputs,
    post,
    query_body,
    rg_inputs,
    server_health,
)

#: Warm rungs, bottom to top.  ``api.execute.traced`` is ``api.execute`` with
#: the program's span tracer on; it prices tracing, it is not a layer.
RUNGS = (
    "algebra.kernel_eval",
    "engine.evaluate",
    "api.execute",
    "api.execute.traced",
    "server.dispatch",
    "server.http",
)
#: Cold paths, timed once per round next to the warm rungs.
COLD = ("expressions.parse", "engine.plan_build", "api.prepare")
#: The rounds fill this share of ``--seconds`` (within MIN_REPS..MAX_REPS).
LADDER_SHARE = 0.6
MIN_REPS = 3
LADDER_WARMUPS = 2
MAX_REPS = 20
EXPLAIN_REPS = 3
M14_CLAUSES = 14
M14_EXECUTES = 3
PARALLEL_EXECUTES = 5
OPERATOR_CLASSES = ("join", "project", "scan", "sort")


class SpanRecorder:
    """In-memory spans — name, request id, parent, start, end — written once."""

    def __init__(self) -> None:
        self.spans: List[Tuple[str, str, Optional[str], float, float]] = []

    def record(
        self, name: str, request: str, parent: Optional[str], start: float, end: float
    ) -> None:
        """Keep one finished span."""
        self.spans.append((name, request, parent, start, end))

    def write(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, request, parent, start, end in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "name": name,
                            "request": request,
                            "parent": parent,
                            "start": start,
                            "end": end,
                        }
                    )
                    + "\n"
                )


def operator_class(label: str) -> str:
    """Fold an ``explain_analyze`` operator label into its class."""
    if "join" in label.split("(", 1)[0]:
        return "join"
    for name in ("project", "scan", "sort"):
        if label.startswith(name):
            return name
    return "other"


def run_ladder(
    inputs: Inputs,
    seconds: float,
    smoke: bool,
    recorder: SpanRecorder,
    problems: List[str],
) -> Tuple[Dict[str, float], Dict[str, dict], int, int]:
    """Run the ladder; returns ``(per-layer, extra, attempted, failed)``."""
    relations = inputs.relations
    budget = inputs.budget
    texts = inputs.queries
    count = len(texts)
    mix = inputs.query_mix()
    schemes = {name: relation.scheme for name, relation in relations.items()}
    expressions = [parse_expression(text, schemes) for text in texts]

    kernel = OptimizedEvaluator()
    engine = EngineEvaluator(budget=budget)
    session = Session(relations, budget=budget)
    traced = Session(relations, budget=budget, observe=ObserveConfig(trace=True))
    pool = WorkerPool(relations, BackendConfig(budget=budget), size=POOL_SIZE)
    server = ReproServer(
        relations, pool_size=POOL_SIZE, result_cache_size=0, session_budget=budget
    ).start()
    connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
    try:
        prepared = [session.prepare(text) for text in texts]
        prepared_traced = [traced.prepare(text) for text in texts]
        frames = [
            {"op": "query", "query": text, "backend": None, "workers": None,
             "count_only": True}
            for text in texts
        ]
        bodies = [query_body(text) for text in texts]

        def dispatch(index: int):
            response = pool.dispatch(frames[index])
            return response["rowcount"], response["elapsed_ms"]

        def over_http(index: int):
            _status, payload = post(connection, "/query", bodies[index])
            return payload["rowcount"], payload["elapsed_ms"]

        rungs: Dict[str, Callable[[int], tuple]] = {
            "algebra.kernel_eval": lambda i: (
                len(kernel.evaluate(expressions[i], relations)[0]), None),
            "engine.evaluate": lambda i: (
                len(engine.evaluate(expressions[i], relations)[0]), None),
            "api.execute": lambda i: (len(prepared[i].execute()), None),
            "api.execute.traced": lambda i: (len(prepared_traced[i].execute()), None),
            "server.dispatch": dispatch,
            "server.http": over_http,
        }

        # Warm every rung (both workers behind the two server rungs) and
        # size the rounds from what one warm pass costs.
        one_pass = 0.0
        expected = []
        for index in range(count):
            for name in RUNGS:
                # Sequential requests alternate between idle workers, so
                # POOL_SIZE of them prepare the query on every worker.
                warmups = POOL_SIZE if name.startswith("server.") else LADDER_WARMUPS
                for _ in range(warmups):
                    start = perf_counter()
                    rows, _elapsed = rungs[name](index)
                    last = perf_counter() - start
                one_pass += last
            expected.append(rows)
        reps = 2 if smoke else max(MIN_REPS, min(MAX_REPS, int(LADDER_SHARE * seconds / one_pass)))

        times: Dict[str, List[List[float]]] = {
            name: [[] for _ in range(count)] for name in RUNGS + COLD
        }
        elapsed_ms: Dict[str, List[List[float]]] = {
            name: [[] for _ in range(count)] for name in ("server.dispatch", "server.http")
        }
        kernel_delta = dict.fromkeys(kernel_counters().snapshot(), 0)
        attempted = failed = 0
        def timed(name: str, call: Callable[[], object], request: str, index: int):
            start = perf_counter()
            outcome = call()
            end = perf_counter()
            times[name][index].append(end - start)
            recorder.record(name, request, "ladder.request", start, end)
            return outcome

        for rep in range(reps):
            for index in range(count):
                request = f"{rep}.{index}"
                root_start = perf_counter()
                # Rotate the starting rung: whichever rung follows the
                # allocation-heavy kernel pass pays for its cache misses.
                shift = (rep * count + index) % len(RUNGS)
                for name in RUNGS[shift:] + RUNGS[:shift]:
                    before = kernel_counters().snapshot() if name == RUNGS[0] else None
                    rows, elapsed = timed(name, lambda: rungs[name](index), request, index)
                    if before is not None:
                        for key, value in kernel_counters().delta_since(before).items():
                            kernel_delta[key] += value
                    if elapsed is not None:
                        elapsed_ms[name][index].append(elapsed)
                    attempted += 1
                    failed += rows != expected[index]
                cold_engine = EngineEvaluator(budget=budget)
                cold_session = Session(relations, budget=budget)
                timed("expressions.parse",
                      lambda: parse_expression(texts[index], schemes), request, index)
                timed("engine.plan_build",
                      lambda: cold_engine.plan_for(expressions[index], relations),
                      request, index)
                timed("api.prepare", lambda: cold_session.prepare(texts[index]),
                      request, index)
                cold_session.close()
                cold_engine.close()
                recorder.record("ladder.request", request, None, root_start, perf_counter())

        def rung_ms(name: str) -> List[float]:
            return [1000.0 * median(samples) for samples in times[name]]

        def mixed(values: List[float]) -> float:
            return weighted_mean(values, mix)

        kernel_ms, engine_ms, api_ms = (rung_ms(name) for name in RUNGS[:3])
        traced_ms, dispatch_ms, http_ms = (rung_ms(name) for name in RUNGS[3:])
        dispatch_elapsed = [median(samples) for samples in elapsed_ms["server.dispatch"]]
        http_elapsed = [median(samples) for samples in elapsed_ms["server.http"]]
        # Per query: (evaluate + api self + pipe self + front self - http) / http.
        # The rung differences telescope, so what is left is the in-process
        # api.execute against the worker's own elapsed_ms for the same query.
        residuals = [
            (api_ms[i] - dispatch_elapsed[i]) / http_ms[i] for i in range(count)
        ]
        kernel_ops = reps * count
        plan_lookups = sum(
            kernel_delta[key]
            for key in ("join_plan_hits", "join_plan_misses",
                        "project_plan_hits", "project_plan_misses")
        )
        layer: Dict[str, float] = {
            "algebra.kernel_eval_ms": mixed(kernel_ms),
            "algebra.tuples_built": kernel_delta["trusted_tuples_built"] / kernel_ops,
            "algebra.join_probes": kernel_delta["join_probes"] / kernel_ops,
            "algebra.plan_cache_hit_rate": (
                (kernel_delta["join_plan_hits"] + kernel_delta["project_plan_hits"])
                / plan_lookups if plan_lookups else 0.0
            ),
            "expressions.parse_ms": mixed(rung_ms("expressions.parse")),
            "engine.plan_build_ms": mixed(rung_ms("engine.plan_build")),
            "engine.evaluate_ms": mixed(engine_ms),
            "api.prepare_ms": mixed(rung_ms("api.prepare")),
            "api.execute_ms": mixed(api_ms),
            "api.self_ms": mixed(api_ms) - mixed(engine_ms),
            "obs.trace_overhead_ratio": mixed(traced_ms) / mixed(api_ms),
            "server.dispatch_ms": mixed(dispatch_ms),
            "server.pipe_self_ms": mixed(dispatch_ms) - mixed(dispatch_elapsed),
            "server.http_ms": mixed(http_ms),
            "server.front_self_ms": mixed(http_ms) - mixed(dispatch_ms),
            "server.worker_elapsed_ms": mixed(http_elapsed),
            "server.ladder_overhead_share": 1.0 - mixed(http_elapsed) / mixed(http_ms),
            "bench.ladder_residual": median(residuals),
        }

        # Counters and operator timings the program reports about itself.
        traces = [query.trace() for query in prepared]
        layer["engine.peak_live_rows"] = max(t.peak_live_rows for t in traces)
        layer["engine.peak_build_rows"] = max(t.peak_build_rows for t in traces)
        layer["engine.intermediate_rows"] = mixed(
            [t.total_intermediate_tuples for t in traces])
        for name in ("spill_rows", "join_spills", "spill_partitions",
                     "dedup_spills", "spill_retries"):
            layer[f"engine.{name}"] = mixed([t.counters.get(name, 0) for t in traces])
        layer["engine.spill_overflows"] = sum(
            t.counters.get("spill_overflows", 0) for t in traces)
        layer["engine.serial_fallbacks"] = sum(t.serial_fallbacks for t in traces)
        layer["engine.replans"] = sum(t.replans for t in traces)
        layer["obs.span_count"] = mixed(
            [len(query.execute().trace.spans or ()) for query in prepared_traced])

        self_ms: Dict[str, List[float]] = {name: [] for name in OPERATOR_CLASSES}
        spill_ms, attributed, operators = [], [], []
        for query in prepared:
            reports = [query.explain_analyze() for _ in range(EXPLAIN_REPS)]
            for name in OPERATOR_CLASSES:
                self_ms[name].append(1000.0 * median([
                    sum(op.self_seconds for op in report.operators
                        if operator_class(op.label) == name)
                    for report in reports
                ]))
            spill_ms.append(1000.0 * median([
                report.others.get("spill", {}).get("seconds", 0.0) for report in reports
            ]))
            attributed.append(median([r.attributed_fraction for r in reports]))
            operators.append(len(reports[0].operators))
        layer["engine.operators"] = mixed(operators)
        layer["engine.attributed_fraction"] = mixed(attributed)
        for name in ("join", "project", "scan"):
            layer[f"engine.op_self_ms.{name}"] = mixed(self_ms[name])
        # sort/spill time exists only on plans that sort or spill: an extra,
        # because a per-layer time must be measured on every workload.
        extra: Dict[str, dict] = {}
        if any(self_ms["sort"]):
            extra["engine.op_self_ms.sort"] = {"value": mixed(self_ms["sort"]), "unit": "ms"}
        if any(spill_ms):
            extra["engine.op_self_ms.spill"] = {"value": mixed(spill_ms), "unit": "ms"}

        layer.update(server_health(server.stats()))
        layer["server.worker_restarts"] += pool.worker_restarts
        if inputs.name == "rg_blowup":
            extra.update(rg_probes(inputs, problems))
    finally:
        connection.close()
        server.close()
        pool.close()
        traced.close()
        session.close()
        engine.close()
    return layer, extra, attempted, failed


def rg_probes(inputs: Inputs, problems: List[str]) -> Dict[str, dict]:
    """The two ``rg_blowup``-only probes: the m=14 point and 2-worker probing."""
    m14 = rg_inputs("rg_blowup", 0, 1, budget=None, clauses=M14_CLAUSES)
    with Session(m14.relations) as session:
        query = session.prepare(m14.queries[0])
        if not query.execute().set_equal(m14.oracles[0]()):
            problems.append("m=14 answer differs from the oracle")
        samples = []
        for _ in range(M14_EXECUTES):
            start = perf_counter()
            query.execute()
            samples.append(perf_counter() - start)
    probes = {"engine.evaluate_ms.m14": {"value": 1000.0 * median(samples), "unit": "ms"}}

    medians = {}
    for workers in (1, 2):
        with Session(inputs.relations, workers=workers) as session:
            query = session.prepare(inputs.queries[0])
            for _ in range(LADDER_WARMUPS):
                query.execute()
            samples = []
            for _ in range(PARALLEL_EXECUTES):
                start = perf_counter()
                query.execute()
                samples.append(perf_counter() - start)
            medians[workers] = median(samples)
    observed = medians[1] / medians[2]
    cpus = len(os.sched_getaffinity(0))
    # Two probe workers plus the parent that slices, merges and dedups while
    # they run: below three CPUs the ratio measures time-slicing, not probing.
    measurable = cpus >= 3
    probes["engine.parallel_speedup_w2"] = {
        "value": observed if measurable else "unmeasured",
        "observed": observed,
        "unit": "x",
        "cpu_count": cpus,
    }
    return probes
