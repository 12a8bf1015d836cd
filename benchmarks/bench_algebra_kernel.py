"""Microbenchmark of the positional algebra kernel vs the seed implementation.

Measures ops/sec for ``natural_join`` and ``project`` across scheme widths
2–16 and cardinalities 10^2–10^4, for both the compiled-plan positional
kernel (:class:`repro.algebra.Relation`) and the retained dict-based seed
reference (:mod:`repro.algebra.reference`), and writes the numbers to
``benchmarks/results/BENCH_algebra.json`` so future PRs have a machine-
readable perf trajectory.  The headline metric is the geometric-mean speedup
of the kernel over the reference on the combined join+project workload; the
kernel is expected to stay >= 5x.

Since PR 2 the document also carries an ``engine`` section comparing the
streaming execution engine (:mod:`repro.engine`) against the materialising
kernel evaluators on the intermediate-blowup workload: the engine's peak
*live* row count must stay strictly below both the optimiser's and the naive
evaluator's peak materialised cardinality, at a steady-state runtime within
``MAX_ENGINE_RUNTIME_RATIO`` of the PR 1 kernel path.  Since the
memory-budget PR it additionally carries ``spill`` and ``parallel``
sections: the m=12 instance run under a ``SPILL_BUDGET_ROWS`` budget
(Grace-hash spilling, output set-equal to the unbudgeted run, every build
table inside the budget) and under a ``PARALLEL_WORKERS``-way partitioned
probe scan (speedup recorded together with the host's CPU count; the
``MIN_PARALLEL_SPEEDUP`` gate applies where >= 2 CPUs exist).  Every section
is *appended* to the existing document — ``BENCH_algebra.json`` is the perf
trajectory anchor and is extended, never replaced.

Run standalone for the full sweep::

    PYTHONPATH=src python benchmarks/bench_algebra_kernel.py

Under pytest a reduced kernel grid runs (cardinalities 10^2-10^3) to keep
the suite fast; the standalone sweep adds the 10^4 points.  The engine
comparison runs the same blowup grid either way (see ``BLOWUP_CLAUSES``).
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List

from repro.algebra import Relation, naive_natural_join, naive_project
from repro.api import Session
from repro.engine import (
    AdaptiveConfig,
    EngineEvaluator,
    MemoryBudget,
    PlannerConfig,
    default_backend,
)
from repro.expressions import (
    InstrumentedEvaluator,
    OptimizedEvaluator,
    Projection,
    evaluate,
)
from repro.expressions.ast import Join, Operand
from repro.perf import kernel_counters, plan_cache_stats
from repro.reductions import RGConstruction
from repro.workloads import (
    actual_greedy_order,
    chain_peak,
    growing_construction_family,
    join_parts,
    planner_join_order,
)

RESULTS_DIRECTORY = Path(__file__).parent / "results"
OUTPUT_PATH = RESULTS_DIRECTORY / "BENCH_algebra.json"

WIDTHS = (2, 4, 8, 16)
QUICK_CARDINALITIES = (100, 1000)
FULL_CARDINALITIES = (100, 1000, 10000)
MIN_EXPECTED_SPEEDUP = 5.0

#: Clause counts for the engine-vs-kernel blowup comparison.  The regime of
#: interest starts around m=10: below that the greedy optimiser's peak is
#: still input-sized and there is nothing for streaming to win; above m=12
#: the naive evaluator (needed as the full-materialisation baseline) takes
#: tens of seconds.
BLOWUP_CLAUSES = (10, 12)
MAX_ENGINE_RUNTIME_RATIO = 1.25

#: Budget/parallel smoke parameters (the m=12 acceptance instance): the
#: build-side row budget the Grace-hash spill must respect, and the probe
#: worker count whose speedup the ``parallel`` section records.
SPILL_BUDGET_ROWS = 256
PARALLEL_WORKERS = 4
#: Required 4-worker speedup — only enforceable where every worker has a
#: core to run on (``cpu_count >= workers``); on smaller hosts the measured
#: number is still recorded (with ``cpu_count``) but the gate is vacuous.
MIN_PARALLEL_SPEEDUP = 1.5

#: Serving parameters: how many distinct prepared queries one Session serves
#: round-robin, and the allowed steady-state per-execute overhead of the
#: facade over calling the pinned backend evaluator directly.
SERVING_QUERIES = 8
SERVING_MAX_OVERHEAD = 1.05

#: Networked serving-tier parameters: concurrent keep-alive clients driven
#: by the load generator, requests each client issues, worker processes
#: behind the HTTP front, and the allowed end-to-end throughput cost of the
#: whole tier (HTTP parse + admission + budget lease + pipe IPC + JSON) vs
#: the same mixed traffic executed directly on one warm in-process Session
#: (measured ~1.2x; gated at 2x so the serving fleet is guaranteed to
#: sustain at least half the raw in-process rate).  The override budget is
#: the per-request engine budget the demonstration leg attaches to every
#: request — small enough that the heavy three-way join must spill.
SERVER_CLIENTS = 8
SERVER_REQUESTS_PER_CLIENT = 25
SERVER_POOL_SIZE = 2
SERVER_MAX_OVERHEAD = 2.0
SERVER_OVERRIDE_BUDGET_ROWS = 64
#: Skew exponent for the Zipf-mix leg: rank-k query weight 1/(k+1)^s.  At
#: s=1.2 over the 8-query mix the hottest query draws ~43% of traffic —
#: realistic serving concentration, served from pinned plans.
SERVER_ZIPF_SKEW = 1.2
#: Scale-out gates for the multiplexing + result-cache legs.  The cached
#: Zipf leg replays the skewed mix against a cache-enabled front after a
#: round-robin warm pass touched every key: at least half the requests
#: must come back from the cache (in practice ~100% — the mix holds 8
#: keys and the cache 256 entries) and its p99 must beat the uncached
#: zipf leg's.  The head-of-line leg pins the tentpole: with one worker
#: running a budget-64 spilling execute of the heavy join, fast-query
#: p99 through the multiplexed pipe (worker_concurrency=4) must be at
#: most a quarter of the serialized (worker_concurrency=1) value, where
#: the first fast request queues behind the whole ~1s spill.
SERVER_CACHE_MIN_HIT_RATE = 0.5
SERVER_HOL_MAX_P99_RATIO = 0.25
SERVER_HOL_FAST_QUERIES = 12

#: Robustness parameters (the total-spill memory model at m=12).  The
#: *gated* budget re-runs the spill scenario with the PR 6 machinery
#: (spilling dedup alongside the Grace joins) and enforces the runtime
#: price of spilling; the *tiny* budget — a sixth of the engine's natural
#: m=12 footprint (~393 live rows) — asserts the zero-overflow contract
#: where every operator class must spill, with its runtime recorded
#: unguarded (at that scarcity ~10 of 11 joins spill; the differential
#: fuzz grid pushes the same contract down to 4-row budgets).
ROBUSTNESS_GATE_BUDGET_ROWS = 256
ROBUSTNESS_TINY_BUDGET_ROWS = 64
MAX_ROBUSTNESS_RUNTIME_RATIO = 1.5

#: Adaptive-estimation parameters: the clause counts whose
#: greedy-with-sampling ordering is compared against the actual-size greedy
#: oracle (m=14 is the instance the backoff estimator loses), the allowed
#: peak degradation, and the allowed steady-state runtime overhead of
#: adaptive execution (guards + sampling) on well-estimated queries.
ADAPTIVE_CLAUSES = (12, 14)
ADAPTIVE_MAX_PEAK_RATIO = 3.5
ADAPTIVE_MAX_RUNTIME_RATIO = 1.1

#: Plan-store parameters.  The repin leg pins a plan against catastrophic
#: one-row statistics, lets the first execution correct itself mid-stream,
#: and then demands a *corrected steady state*: ``PLANSTORE_ROUNDS``
#: further executions with zero additional re-plans, at a runtime no worse
#: than the store-less adaptive evaluator whose stale pin re-plans
#: mid-stream on every execution (that uncorrected pin *is* the static
#: plan the repin replaces).  The warm-sample leg rebuilds plans
#: repeatedly over unchanged relations: after the first build the sample
#: cache must serve at least ``PLANSTORE_MIN_HIT_RATE`` of catalog lookups
#: and ``sample_builds`` must stop growing.
PLANSTORE_ROUNDS = 20
PLANSTORE_MAX_RUNTIME_RATIO = 1.0
PLANSTORE_MIN_HIT_RATE = 0.9
PLANSTORE_REBUILDS = 10

#: Observability parameters (pay-for-what-you-use, measured at m=12).  An
#: attached-but-trace-off observability layer must stay within 1.05x of a
#: bare evaluator (the disabled path is one attribute check per operator);
#: full span tracing may cost up to 1.25x; and the spans of a traced run
#: must attribute >= 95% of the measured wall time to operator spans —
#: otherwise ``explain_analyze`` is decorating, not explaining.
OBSERVABILITY_CLAUSE_COUNT = 12
MAX_DISABLED_OBSERVE_RATIO = 1.05
MAX_TRACING_OVERHEAD_RATIO = 1.25
MIN_ATTRIBUTED_FRACTION = 0.95


def _merge_into_document(updates: Dict) -> Dict:
    """Merge ``updates`` into BENCH_algebra.json and write it back.

    The document is the perf trajectory anchor: sections owned by other
    benchmark sections (e.g. ``engine`` vs the kernel sweep) must survive a
    partial run, so every writer reads, updates, and rewrites.
    """
    document: Dict = {}
    if OUTPUT_PATH.exists():
        document = json.loads(OUTPUT_PATH.read_text())
    document.update(updates)
    RESULTS_DIRECTORY.mkdir(exist_ok=True)
    OUTPUT_PATH.write_text(json.dumps(document, indent=2) + "\n")
    return document


def _attribute_names(width: int, offset: int = 0) -> List[str]:
    return [f"A{i}" for i in range(offset, offset + width)]


def _join_operands(width: int, cardinality: int):
    """Two width-``width`` relations sharing one near-unique key column.

    The shared column makes the join output size ~``cardinality`` so the
    benchmark measures per-tuple kernel cost, not output blow-up.
    """
    half = max(width // 2, 1)
    left_scheme = ["K"] + _attribute_names(half)
    right_scheme = ["K"] + _attribute_names(half, offset=half)
    left = Relation.from_rows(
        left_scheme,
        [(i,) + tuple((i + j) % 7 for j in range(half)) for i in range(cardinality)],
    )
    right = Relation.from_rows(
        right_scheme,
        [(i,) + tuple((i * 3 + j) % 5 for j in range(half)) for i in range(cardinality)],
    )
    return left, right


def _project_operand(width: int, cardinality: int):
    scheme = _attribute_names(width)
    relation = Relation.from_rows(
        scheme,
        [tuple((i + j) % (cardinality // 2 + 1) for j in range(width)) for i in range(cardinality)],
    )
    target = scheme[: max(width // 2, 1)]
    return relation, target


def _time_op(op: Callable[[], object], min_seconds: float = 0.2, min_rounds: int = 3) -> float:
    """Return ops/sec for ``op``, timing enough rounds to fill ``min_seconds``."""
    # One warmup round (also compiles/caches plans, matching steady state).
    op()
    rounds = 0
    elapsed = 0.0
    while elapsed < min_seconds or rounds < min_rounds:
        start = time.perf_counter()
        op()
        elapsed += time.perf_counter() - start
        rounds += 1
        if rounds >= 200:
            break
    return rounds / elapsed


def run_benchmark(cardinalities=QUICK_CARDINALITIES, widths=WIDTHS) -> Dict:
    """Run the sweep and return the result document (also written to disk)."""
    cases = []
    speedups = []
    for width in widths:
        for cardinality in cardinalities:
            left, right = _join_operands(width, cardinality)
            kernel_join = _time_op(lambda: left.natural_join(right))
            naive_join = _time_op(lambda: naive_natural_join(left, right))

            relation, target = _project_operand(width, cardinality)
            kernel_project = _time_op(lambda: relation.project(target))
            naive_project_ops = _time_op(lambda: naive_project(relation, target))

            join_speedup = kernel_join / naive_join
            project_speedup = kernel_project / naive_project_ops
            speedups.extend([join_speedup, project_speedup])
            cases.append(
                {
                    "width": width,
                    "cardinality": cardinality,
                    "join_kernel_ops_per_sec": round(kernel_join, 3),
                    "join_seed_ops_per_sec": round(naive_join, 3),
                    "join_speedup": round(join_speedup, 2),
                    "project_kernel_ops_per_sec": round(kernel_project, 3),
                    "project_seed_ops_per_sec": round(naive_project_ops, 3),
                    "project_speedup": round(project_speedup, 2),
                }
            )
            print(
                f"width={width:>2} n={cardinality:>5}  "
                f"join {kernel_join:>9.1f}/s vs {naive_join:>8.1f}/s ({join_speedup:>5.1f}x)  "
                f"project {kernel_project:>9.1f}/s vs {naive_project_ops:>8.1f}/s ({project_speedup:>5.1f}x)"
            )

    geomean = math.exp(sum(math.log(s) for s in speedups) / len(speedups))
    document = _merge_into_document(
        {
            "benchmark": "algebra_kernel",
            "description": "positional kernel vs dict-based seed implementation (ops/sec)",
            "widths": list(widths),
            "cardinalities": list(cardinalities),
            "cases": cases,
            "geomean_speedup": round(geomean, 2),
            "min_expected_speedup": MIN_EXPECTED_SPEEDUP,
            "plan_cache": plan_cache_stats(),
            "kernel_counters": kernel_counters().snapshot(),
        }
    )
    print(f"geomean speedup: {geomean:.2f}x  ->  {OUTPUT_PATH}")
    return document


def _blowup_instances(clause_counts):
    for case in growing_construction_family(clause_counts=tuple(clause_counts)):
        construction = RGConstruction(case.formula)
        query = Projection([construction.s_attribute], construction.expression)
        yield case.label, query, construction.relation


def _best_of_interleaved(
    first: Callable[[], object], second: Callable[[], object], rounds: int = 5
):
    """Best wall-clock seconds for two ops, measured in alternating rounds.

    Interleaving means a load spike on the machine hits both contenders
    rather than biasing whichever happened to run during it.
    """
    first()
    second()
    bests = [math.inf, math.inf]
    for _ in range(rounds):
        for index, op in enumerate((first, second)):
            start = time.perf_counter()
            op()
            elapsed = time.perf_counter() - start
            if elapsed < bests[index]:
                bests[index] = elapsed
    return bests[0], bests[1]


def run_engine_benchmark(clause_counts=BLOWUP_CLAUSES) -> Dict:
    """Engine-vs-kernel comparison on the intermediate-blowup workload.

    Appends an ``engine`` section to the existing ``BENCH_algebra.json``
    document (the perf trajectory anchor is extended, not replaced).
    """
    rows = []
    for label, query, relation in _blowup_instances(clause_counts):
        engine = EngineEvaluator()
        engine_result, engine_trace = engine.evaluate(query, relation)
        optimized_result, optimized_trace = OptimizedEvaluator().evaluate(query, relation)
        naive_result, naive_trace = InstrumentedEvaluator().evaluate(query, relation)
        if engine_result != naive_result or optimized_result != naive_result:
            raise AssertionError(f"evaluator disagreement on {label}")
        # Steady state: the engine re-runs its pinned plan, the optimiser
        # re-runs the PR 1 kernel path.
        engine_seconds, optimized_seconds = _best_of_interleaved(
            lambda: engine.evaluate(query, relation),
            lambda: OptimizedEvaluator().evaluate(query, relation),
        )
        ratio = engine_seconds / optimized_seconds
        rows.append(
            {
                "case": label,
                "input_cardinality": naive_trace.input_cardinality,
                "result_cardinality": naive_trace.result_cardinality,
                "engine_peak_live_rows": engine_trace.peak_live_rows,
                "optimized_peak_materialized": optimized_trace.peak_intermediate_cardinality,
                "naive_peak_materialized": naive_trace.peak_intermediate_cardinality,
                "engine_seconds": round(engine_seconds, 6),
                "optimized_seconds": round(optimized_seconds, 6),
                "runtime_ratio": round(ratio, 3),
            }
        )
        print(
            f"{label:>14}  live {engine_trace.peak_live_rows:>6} vs "
            f"opt peak {optimized_trace.peak_intermediate_cardinality:>6} / "
            f"naive peak {naive_trace.peak_intermediate_cardinality:>6}  "
            f"runtime {engine_seconds * 1e3:,.1f}ms vs {optimized_seconds * 1e3:,.1f}ms "
            f"({ratio:.2f}x)"
        )
    section = {
        "description": (
            "streaming engine peak live rows vs materialising evaluators' peak "
            "cardinality on the R_G blowup workload (output = 1 column)"
        ),
        "clause_counts": list(clause_counts),
        "max_runtime_ratio": MAX_ENGINE_RUNTIME_RATIO,
        "cases": rows,
    }
    _merge_into_document({"engine": section})
    print(f"engine section -> {OUTPUT_PATH}")
    return section


def run_spill_parallel_benchmark(
    clause_count: int = 12,
    budget_rows: int = SPILL_BUDGET_ROWS,
    workers: int = PARALLEL_WORKERS,
) -> Dict:
    """Budgeted (Grace-hash spill) and parallel-probe runs at m=12.

    Appends ``spill`` and ``parallel`` sections to ``BENCH_algebra.json``
    (the perf trajectory anchor is extended, never replaced).  Both runs are
    checked set-equal against the unbudgeted serial engine before anything
    is timed.
    """
    label, query, relation = next(iter(_blowup_instances((clause_count,))))
    bound = {name: relation for name in query.operand_names()}

    serial = EngineEvaluator()
    serial_result, serial_trace = serial.evaluate(query, bound)

    budgeted = EngineEvaluator(budget=budget_rows)
    counters = kernel_counters()
    before = counters.snapshot()
    budgeted_result, budgeted_trace = budgeted.evaluate(query, bound)
    spill_delta = counters.delta_since(before)
    if budgeted_result != serial_result:
        raise AssertionError(f"budgeted engine disagreement on {label}")
    serial_seconds, budgeted_seconds = _best_of_interleaved(
        lambda: serial.evaluate(query, bound),
        lambda: budgeted.evaluate(query, bound),
    )
    spill_section = {
        "description": (
            "Grace-hash spill under a row budget on the R_G blowup workload; "
            "output checked set-equal to the unbudgeted engine"
        ),
        "case": label,
        "budget_rows": budget_rows,
        "peak_live_rows": budgeted_trace.peak_live_rows,
        "peak_build_rows": budgeted_trace.peak_build_rows,
        "unbudgeted_peak_live_rows": serial_trace.peak_live_rows,
        "join_spills": spill_delta["join_spills"],
        "spill_partitions": spill_delta["spill_partitions"],
        "spill_rows": spill_delta["spill_rows"],
        "spill_recursions": spill_delta["spill_recursions"],
        "spill_overflows": spill_delta["spill_overflows"],
        "unbudgeted_seconds": round(serial_seconds, 6),
        "budgeted_seconds": round(budgeted_seconds, 6),
        "spill_runtime_ratio": round(budgeted_seconds / serial_seconds, 3),
    }
    print(
        f"{label:>14}  budget {budget_rows}: live {budgeted_trace.peak_live_rows} "
        f"(unbudgeted {serial_trace.peak_live_rows}), build peak "
        f"{budgeted_trace.peak_build_rows}, {spill_delta['join_spills']} spills / "
        f"{spill_delta['spill_rows']} rows spilled, runtime "
        f"{budgeted_seconds * 1e3:,.1f}ms vs {serial_seconds * 1e3:,.1f}ms"
    )

    parallel = EngineEvaluator(workers=workers)
    try:
        parallel_result, parallel_trace = parallel.evaluate(query, bound)
        if parallel_result != serial_result:
            raise AssertionError(f"parallel engine disagreement on {label}")
        one_worker_seconds, parallel_seconds = _best_of_interleaved(
            lambda: serial.evaluate(query, bound),
            lambda: parallel.evaluate(query, bound),
        )
    finally:
        # Release the persistent fork pool: its daemon workers hold a
        # forked copy of the interpreter and would outlive this benchmark.
        parallel.close()
    speedup = one_worker_seconds / parallel_seconds
    cpu_count = os.cpu_count() or 1
    parallel_section = {
        "description": (
            "parallel probe stage (partitioned probe scan, one pinned plan) "
            "vs the serial engine on the R_G blowup workload"
        ),
        "case": label,
        "workers": workers,
        "backend": default_backend(),
        "cpu_count": cpu_count,
        "workers_1_seconds": round(one_worker_seconds, 6),
        f"workers_{workers}_seconds": round(parallel_seconds, 6),
        "speedup": round(speedup, 3),
        "min_expected_speedup": MIN_PARALLEL_SPEEDUP,
        # The gate needs one core per worker; with fewer, workers time-slice
        # the CPUs and the recorded speedup documents that honestly rather
        # than passing a sham (1 CPU serialises the pool entirely).
        "speedup_gate_active": cpu_count >= workers,
    }
    print(
        f"{label:>14}  probe x{workers} ({parallel_section['backend']}, "
        f"{cpu_count} cpu): {parallel_seconds * 1e3:,.1f}ms vs "
        f"{one_worker_seconds * 1e3:,.1f}ms serial ({speedup:.2f}x)"
    )
    _merge_into_document({"spill": spill_section, "parallel": parallel_section})
    print(f"spill/parallel sections -> {OUTPUT_PATH}")
    return {"spill": spill_section, "parallel": parallel_section}


def _spill_activity(delta: Dict) -> Dict:
    """The spill/robustness counters of one evaluation's delta."""
    names = (
        "join_spills",
        "spill_rows",
        "spill_recursions",
        "spill_overflows",
        "join_chunk_passes",
        "dedup_spills",
        "checkpoint_spills",
        "spill_retries",
    )
    return {name: delta[name] for name in names}


def run_robustness_benchmark(
    clause_count: int = 12,
    gate_budget_rows: int = ROBUSTNESS_GATE_BUDGET_ROWS,
    tiny_budget_rows: int = ROBUSTNESS_TINY_BUDGET_ROWS,
) -> Dict:
    """The total-spill memory model at m=12: zero overflows, priced runtime.

    Appends a ``robustness`` section to ``BENCH_algebra.json`` with two
    legs, each checked set-equal against the unbudgeted engine before
    anything is timed:

    * the **gated** leg re-runs the m=12 spill scenario at
      ``gate_budget_rows`` with the total-spill machinery engaged (the
      dedup seen-sets now spill alongside the Grace joins) and gates its
      runtime at ``MAX_ROBUSTNESS_RUNTIME_RATIO`` of the unbudgeted run;
    * the **tiny** leg squeezes the same query to ``tiny_budget_rows`` —
      a sixth of the engine's natural footprint, where most of the join
      cascade spills — asserting the zero-overflow contract with the
      runtime ratio recorded unguarded (re-streaming nearly every probe
      through disk is the documented price of that scarcity).
    """
    counters = kernel_counters()
    label, query, relation = next(iter(_blowup_instances((clause_count,))))
    bound = {name: relation for name in query.operand_names()}

    serial = EngineEvaluator()
    serial_result, serial_trace = serial.evaluate(query, bound)

    def budgeted_run(rows: int):
        budget = MemoryBudget(rows=rows, min_partition_rows=2)
        evaluator = EngineEvaluator(PlannerConfig(budget=budget))
        before = counters.snapshot()
        result, trace = evaluator.evaluate(query, bound)
        activity = _spill_activity(counters.delta_since(before))
        if result != serial_result:
            raise AssertionError(f"budget={rows} engine disagreement on {label}")
        return evaluator, trace, activity

    gated, gated_trace, gated_activity = budgeted_run(gate_budget_rows)
    unbudgeted_seconds, gated_seconds = _best_of_interleaved(
        lambda: serial.evaluate(query, bound),
        lambda: gated.evaluate(query, bound),
    )
    gated_leg = {
        "budget_rows": gate_budget_rows,
        "peak_live_rows": gated_trace.peak_live_rows,
        "unbudgeted_peak_live_rows": serial_trace.peak_live_rows,
        "unbudgeted_seconds": round(unbudgeted_seconds, 6),
        "budgeted_seconds": round(gated_seconds, 6),
        "runtime_ratio": round(gated_seconds / unbudgeted_seconds, 3),
        **gated_activity,
    }

    tiny, tiny_trace, tiny_activity = budgeted_run(tiny_budget_rows)
    tiny_serial_seconds, tiny_seconds = _best_of_interleaved(
        lambda: serial.evaluate(query, bound),
        lambda: tiny.evaluate(query, bound),
        rounds=3,
    )
    tiny_leg = {
        "budget_rows": tiny_budget_rows,
        "peak_live_rows": tiny_trace.peak_live_rows,
        "runtime_ratio": round(tiny_seconds / tiny_serial_seconds, 3),
        **tiny_activity,
    }

    section = {
        "description": (
            "total-spill memory model on the R_G m=12 workload: gated "
            "runtime at the spill budget, zero-overflow contract down to "
            "a sixth of the engine's natural footprint (the differential "
            "fuzz grid extends the same contract to 4-row budgets)"
        ),
        "case": label,
        "max_runtime_ratio": MAX_ROBUSTNESS_RUNTIME_RATIO,
        "gated": gated_leg,
        "tiny": tiny_leg,
    }
    for name, leg in (("gated", gated_leg), ("tiny", tiny_leg)):
        ratio = leg.get("runtime_ratio")
        print(
            f"{label:>14}  {name:>5} budget {leg['budget_rows']:>4}: "
            f"live {leg['peak_live_rows']:>4}, "
            f"{leg['join_spills']} join / {leg['dedup_spills']} dedup spills, "
            f"{leg['spill_overflows']} overflows"
            + (f", runtime {ratio:.2f}x" if ratio is not None else "")
        )
    _merge_into_document({"robustness": section})
    print(f"robustness section -> {OUTPUT_PATH}")
    return section


def _check_robustness(section: Dict) -> None:
    """The robustness gate shared by pytest and the standalone sweep."""
    for name in ("gated", "tiny"):
        leg = section[name]
        assert leg["spill_overflows"] == 0, (
            f"robustness {name} leg counted {leg['spill_overflows']} "
            "spill overflows — the total-spill contract is broken"
        )
    gated = section["gated"]
    assert gated["join_spills"] > 0 and gated["spill_rows"] > 0
    assert gated["dedup_spills"] >= 1, (
        "the gated leg must exercise the spilling dedup path"
    )
    assert gated["runtime_ratio"] <= section["max_runtime_ratio"], (
        f"total-spill runtime {gated['runtime_ratio']}x exceeds "
        f"{section['max_runtime_ratio']}x of the unbudgeted engine at "
        f"budget {gated['budget_rows']}"
    )
    tiny = section["tiny"]
    assert tiny["join_spills"] >= 5, (
        "the tiny budget must force most of the join cascade to spill"
    )


def _serving_workload(num_queries: int = SERVING_QUERIES):
    """A shared 3-relation database plus ``num_queries`` distinct queries.

    Sized so one execute costs on the order of a millisecond: small enough
    for a tight measurement loop, large enough that the timing reflects the
    engine's work rather than call dispatch alone.
    """
    r = Relation.from_rows(
        "A B", [(i % 40, i % 17) for i in range(600)], name="R"
    )
    s = Relation.from_rows(
        "B C", [(i % 17, i % 23) for i in range(600)], name="S"
    )
    t = Relation.from_rows(
        "C D", [(i % 23, i % 9) for i in range(600)], name="T"
    )
    relations = {"R": r, "S": s, "T": t}
    r_op, s_op, t_op = (
        Operand("R", r.scheme),
        Operand("S", s.scheme),
        Operand("T", t.scheme),
    )
    queries = [
        Projection(["A"], Join((r_op, s_op))),
        Projection(["A", "C"], Join((r_op, s_op))),
        Projection(["B", "D"], Join((s_op, t_op))),
        Projection(["A", "D"], Join((r_op, s_op, t_op))),
        Projection(["D"], Join((r_op, s_op, t_op))),
        Projection(["C"], Join((s_op, t_op))),
        Projection(["A", "B"], Join((r_op, Projection(["B"], s_op)))),
        Projection(["A", "C", "D"], Join((r_op, s_op, t_op))),
    ]
    assert len(queries) >= num_queries
    return relations, queries[:num_queries]


def run_serving_benchmark(num_queries: int = SERVING_QUERIES) -> Dict:
    """Mixed-traffic serving through one Session vs the pinned backend.

    ``num_queries`` prepared queries are executed round-robin through one
    :class:`repro.api.Session` (the serving steady state) and compared with
    calling each query's own pinned ``EngineEvaluator`` directly — the
    facade's per-execute overhead (binding-version check, unified trace,
    counters) must stay within ``SERVING_MAX_OVERHEAD``.  Appends a
    ``serving`` section to ``BENCH_algebra.json`` (the perf trajectory
    anchor is extended, never replaced).
    """
    relations, queries = _serving_workload(num_queries)

    session = Session(relations, backend="engine")
    try:
        prepared = [session.prepare(query) for query in queries]
        direct = []
        for query in queries:
            evaluator = EngineEvaluator()
            bound = {name: relations[name] for name in query.operand_names()}
            evaluator.plan_for(query, bound)  # pin, as the session does
            direct.append((evaluator, query, bound))

        def session_round():
            for query in prepared:
                query.execute()

        def direct_round():
            for evaluator, query, bound in direct:
                evaluator.evaluate(query, bound)

        # Cross-check once before timing anything.
        for query, (evaluator, _, bound) in zip(prepared, direct):
            facade_result = query.execute()
            direct_result, _ = evaluator.evaluate(query.expression, bound)
            if not facade_result.set_equal(direct_result):
                raise AssertionError("facade result diverged from direct backend")

        before = session.stats()
        session_seconds, direct_seconds = _best_of_interleaved(
            session_round, direct_round, rounds=7
        )
        after = session.stats()
    finally:
        session.close()

    overhead = session_seconds / direct_seconds
    executes = after["executes"] - before["executes"]
    section = {
        "description": (
            "N prepared queries round-robin through one Session (engine "
            "backend) vs each query's own pinned evaluator called directly; "
            "overhead is facade cost per execute"
        ),
        "queries": num_queries,
        "session_round_seconds": round(session_seconds, 6),
        "direct_round_seconds": round(direct_seconds, 6),
        "overhead_ratio": round(overhead, 4),
        "max_overhead_ratio": SERVING_MAX_OVERHEAD,
        "plan_builds": after["plan_builds"],
        "plan_cache_hits_delta": after["plan_cache_hits"] - before["plan_cache_hits"],
        "executes_delta": executes,
    }
    print(
        f"serving x{num_queries}: session round {session_seconds * 1e3:,.2f}ms vs "
        f"direct {direct_seconds * 1e3:,.2f}ms ({overhead:.3f}x), "
        f"{after['plan_builds']} plan build(s) for "
        f"{after['executes']} execute(s)"
    )
    _merge_into_document({"serving": section})
    print(f"serving section -> {OUTPUT_PATH}")
    return section


def _hol_fast_p99(relations, queries, concurrency: int) -> float:
    """Fast-query p99 (ms) while one worker runs a budget-64 spill.

    Boots a one-worker, cache-disabled server at the given
    ``worker_concurrency``, warms the fast and heavy-override sessions
    off the clock, launches the heavy three-way join under the
    ``SERVER_OVERRIDE_BUDGET_ROWS`` budget (~1s of Grace spilling at the
    default workload size) on a background connection, waits until the
    pool reports it in flight, then times ``SERVER_HOL_FAST_QUERIES``
    sequential fast queries on a second connection.  At
    ``concurrency=1`` the pipe is the pre-multiplex serialized protocol
    and the first fast query queues behind the whole spill; at the
    default concurrency the dispatcher answers it mid-spill.
    """
    import http.client

    from repro.server import ReproServer
    from repro.server.loadgen import percentile

    fast_query, heavy_query = queries[0], queries[-1]

    def post(connection, payload):
        connection.request(
            "POST",
            "/query",
            body=json.dumps(payload),
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        body = response.read()
        if response.status != 200:
            raise AssertionError(
                f"HOL probe got HTTP {response.status}: {body!r}"
            )

    heavy_payload = {
        "query": heavy_query,
        "count_only": True,
        "budget": SERVER_OVERRIDE_BUDGET_ROWS,
    }
    fast_payload = {"query": fast_query, "count_only": True}
    with ReproServer(
        relations,
        pool_size=1,
        worker_concurrency=concurrency,
        result_cache_size=0,
    ) as server:
        connection = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=120
        )
        slow_connection = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=120
        )
        try:
            # Warm both sessions (and their pinned plans) off the clock.
            post(connection, fast_payload)
            post(connection, heavy_payload)

            import threading

            def slow():
                post(slow_connection, heavy_payload)

            spill_thread = threading.Thread(target=slow, daemon=True)
            spill_thread.start()
            deadline = time.perf_counter() + 30
            while time.perf_counter() < deadline:
                if sum(server.stats()["pool"]["inflight"]) >= 1:
                    break
                time.sleep(0.002)
            else:
                raise AssertionError("spilling execute never went in flight")

            latencies = []
            for _ in range(SERVER_HOL_FAST_QUERIES):
                start = time.perf_counter()
                post(connection, fast_payload)
                latencies.append((time.perf_counter() - start) * 1000.0)
            spill_thread.join(timeout=120)
        finally:
            connection.close()
            slow_connection.close()
    return percentile(latencies, 99)


def run_server_benchmark(
    clients: int = SERVER_CLIENTS,
    requests_per_client: int = SERVER_REQUESTS_PER_CLIENT,
) -> Dict:
    """The networked serving tier under concurrent mixed load.

    Drives ``clients`` keep-alive HTTP clients through the load generator
    against a :class:`repro.server.ReproServer` worker fleet serving the
    shared mixed-query workload, records exact p50/p99 request latency and
    throughput, and compares end-to-end throughput against the same total
    traffic executed directly on one warm in-process Session (the
    ``SERVER_MAX_OVERHEAD`` gate).  A second load leg attaches a
    ``SERVER_OVERRIDE_BUDGET_ROWS`` per-request budget override to every
    request — the heavy join must spill under it with zero overflows — and
    a third leg replays the mix Zipf(``SERVER_ZIPF_SKEW``)-skewed (the hot
    query dominates, as real serving traffic does) and records its own
    p50/p99; a final ``/metrics`` scrape asserts the merged exposition
    still reports ``repro_spill_overflows_total 0`` across the fleet.
    Those legs run with the result cache disabled so every request pays
    the lease+dispatch path the overhead gate prices.

    Two scale-out legs follow.  ``zipf_cached`` replays the skewed mix
    against a cache-enabled front after a warm pass filled every key:
    hit rate (from the ``/stats`` cache counter deltas) must reach
    ``SERVER_CACHE_MIN_HIT_RATE``, its p99 must beat the uncached zipf
    leg's, and the ``cache_stale_served`` tripwire must read zero.
    ``hol`` prices head-of-line blocking on the worker pipe: fast-query
    p99 while a budget-64 spill is in flight, serialized
    (``worker_concurrency=1``) vs multiplexed, gated at
    ``SERVER_HOL_MAX_P99_RATIO``.  Appends a ``server`` section to
    ``BENCH_algebra.json``.
    """
    import http.client

    from repro.server import ReproServer, ServerConfig, run_load
    from repro.workloads import serving_queries, serving_relations

    relations = serving_relations()
    queries = serving_queries()
    total = clients * requests_per_client

    # Direct baseline: the same number of executes, round-robin over the
    # same prepared queries, on one warm in-process session.
    with Session(relations, backend="engine") as session:
        prepared = [session.prepare(query) for query in queries]
        for query in prepared:
            query.execute()  # warm the pinned plans
        executed = 0
        start = time.perf_counter()
        while executed < total:
            for query in prepared:
                query.execute()
                executed += 1
                if executed >= total:
                    break
        direct_seconds = time.perf_counter() - start
    direct_rps = total / direct_seconds

    # Cache disabled: these legs price the lease+dispatch path itself,
    # and the overhead gate must keep meaning "worker round trip".
    with ReproServer(
        relations, pool_size=SERVER_POOL_SIZE, result_cache_size=0
    ) as server:
        # Warm every worker's sessions and pinned plans off the clock.
        run_load(
            "127.0.0.1", server.port, queries,
            clients=clients, requests_per_client=3,
        )
        report = run_load(
            "127.0.0.1", server.port, queries,
            clients=clients, requests_per_client=requests_per_client,
        )
        override_report = run_load(
            "127.0.0.1", server.port, queries,
            clients=clients,
            requests_per_client=max(2, requests_per_client // 5),
            budget=SERVER_OVERRIDE_BUDGET_ROWS,
        )
        zipf_report = run_load(
            "127.0.0.1", server.port, queries,
            clients=clients, requests_per_client=requests_per_client,
            zipf=SERVER_ZIPF_SKEW,
        )
        # Probe the override's engine behaviour and scrape the fleet.
        connection = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=60
        )
        try:
            connection.request(
                "POST",
                "/query",
                body=json.dumps(
                    {
                        "query": queries[-1],
                        "budget": SERVER_OVERRIDE_BUDGET_ROWS,
                        "count_only": True,
                    }
                ),
                headers={"Content-Type": "application/json"},
            )
            probe = json.loads(connection.getresponse().read())
            connection.request("GET", "/metrics")
            exposition = connection.getresponse().read().decode("utf-8")
        finally:
            connection.close()

    # Cached zipf leg: same skewed mix, cache-enabled front.  The
    # round-robin warm pass touches every (query, budget, count_only)
    # key once, so the measured window is served from the cache.
    with ReproServer(relations, pool_size=SERVER_POOL_SIZE) as server:
        run_load(
            "127.0.0.1", server.port, queries,
            clients=clients, requests_per_client=3,
        )
        cache_before = server.stats()["cache"]
        zipf_cached_report = run_load(
            "127.0.0.1", server.port, queries,
            clients=clients, requests_per_client=requests_per_client,
            zipf=SERVER_ZIPF_SKEW,
        )
        cache_after = server.stats()["cache"]
    cache_hits = cache_after["cache_hits"] - cache_before["cache_hits"]
    cache_misses = cache_after["cache_misses"] - cache_before["cache_misses"]
    cache_hit_rate = cache_hits / max(1, cache_hits + cache_misses)

    # Head-of-line leg: serialized pipe vs multiplexed pipe, one worker.
    serialized_fast_p99 = _hol_fast_p99(relations, queries, concurrency=1)
    mux_fast_p99 = _hol_fast_p99(
        relations, queries, concurrency=ServerConfig().worker_concurrency
    )

    overflow_samples = [
        int(line.rsplit(" ", 1)[1])
        for line in exposition.splitlines()
        if line.startswith("repro_spill_overflows_total ")
    ]
    overhead = direct_rps / report.throughput_rps
    summary = report.summary()
    override_summary = override_report.summary()
    zipf_summary = zipf_report.summary()
    zipf_cached_summary = zipf_cached_report.summary()
    section = {
        "description": (
            "concurrent keep-alive clients through the HTTP serving tier "
            "(admission + shared-budget lease + worker-process dispatch) "
            "vs the same mixed traffic on one warm in-process Session; "
            "the override leg forces Grace spilling via a per-request "
            "engine budget"
        ),
        "clients": clients,
        "requests": summary["requests"],
        "pool_size": SERVER_POOL_SIZE,
        "queries": len(queries),
        "ok": summary["ok"],
        "errors": summary["errors"],
        "p50_ms": summary["p50_ms"],
        "p99_ms": summary["p99_ms"],
        "throughput_rps": summary["throughput_rps"],
        "direct_rps": round(direct_rps, 2),
        "overhead_ratio": round(overhead, 4),
        "max_overhead_ratio": SERVER_MAX_OVERHEAD,
        "budget_override": {
            "budget_rows": SERVER_OVERRIDE_BUDGET_ROWS,
            "requests": override_summary["requests"],
            "ok": override_summary["ok"],
            "p50_ms": override_summary["p50_ms"],
            "p99_ms": override_summary["p99_ms"],
            "probe_spilled_rows": probe.get("spilled_rows", 0),
            "probe_spill_overflows": probe.get("spill_overflows", 0),
        },
        "zipf": {
            "skew": SERVER_ZIPF_SKEW,
            "requests": zipf_summary["requests"],
            "ok": zipf_summary["ok"],
            "p50_ms": zipf_summary["p50_ms"],
            "p99_ms": zipf_summary["p99_ms"],
            "throughput_rps": zipf_summary["throughput_rps"],
        },
        "zipf_cached": {
            "skew": SERVER_ZIPF_SKEW,
            "requests": zipf_cached_summary["requests"],
            "ok": zipf_cached_summary["ok"],
            "p50_ms": zipf_cached_summary["p50_ms"],
            "p99_ms": zipf_cached_summary["p99_ms"],
            "throughput_rps": zipf_cached_summary["throughput_rps"],
            "cache_hits": cache_hits,
            "cache_misses": cache_misses,
            "cache_hit_rate": round(cache_hit_rate, 4),
            "min_hit_rate": SERVER_CACHE_MIN_HIT_RATE,
            "uncached_p99_ms": zipf_summary["p99_ms"],
            "stale_served": cache_after["cache_stale_served"],
        },
        "hol": {
            "budget_rows": SERVER_OVERRIDE_BUDGET_ROWS,
            "fast_queries": SERVER_HOL_FAST_QUERIES,
            "serialized_fast_p99_ms": round(serialized_fast_p99, 3),
            "mux_fast_p99_ms": round(mux_fast_p99, 3),
            "p99_ratio": round(mux_fast_p99 / serialized_fast_p99, 4),
            "max_p99_ratio": SERVER_HOL_MAX_P99_RATIO,
            "worker_concurrency": ServerConfig().worker_concurrency,
        },
        "metrics_spill_overflows_total": sum(overflow_samples),
    }
    print(
        f"server x{clients} clients: p50 {summary['p50_ms']:.1f}ms "
        f"p99 {summary['p99_ms']:.1f}ms, {summary['throughput_rps']:.1f} rps "
        f"vs direct {direct_rps:.1f} rps ({overhead:.2f}x); override "
        f"budget {SERVER_OVERRIDE_BUDGET_ROWS}: "
        f"{probe.get('spilled_rows', 0)} row(s) spilled, "
        f"{probe.get('spill_overflows', 0)} overflow(s); "
        f"zipf({SERVER_ZIPF_SKEW}) mix: p50 {zipf_summary['p50_ms']:.1f}ms "
        f"p99 {zipf_summary['p99_ms']:.1f}ms; cached zipf: "
        f"p99 {zipf_cached_summary['p99_ms']:.1f}ms "
        f"({cache_hit_rate:.0%} hit rate); HOL fast p99 "
        f"{mux_fast_p99:.1f}ms mux vs {serialized_fast_p99:.1f}ms serialized"
    )
    _merge_into_document({"server": section})
    print(f"server section -> {OUTPUT_PATH}")
    return section


def _check_server(section: Dict) -> None:
    """The serving-tier gate shared by pytest and the standalone sweep."""
    assert section["ok"] == section["requests"] and section["errors"] == 0, (
        f"load run must serve every request: {section['ok']} ok / "
        f"{section['errors']} error(s) of {section['requests']}"
    )
    assert section["clients"] >= 8, "the gate requires >= 8 concurrent clients"
    assert section["p50_ms"] > 0 and section["p99_ms"] >= section["p50_ms"]
    assert section["overhead_ratio"] <= section["max_overhead_ratio"], (
        f"serving-tier throughput cost {section['overhead_ratio']}x exceeds "
        f"{section['max_overhead_ratio']}x over direct in-process serving"
    )
    override = section["budget_override"]
    assert override["ok"] == override["requests"], (
        "every budget-override request must be served"
    )
    assert override["probe_spilled_rows"] > 0, (
        "the per-request budget override must actually constrain the "
        "engine (expected Grace spilling under the tiny budget)"
    )
    assert override["probe_spill_overflows"] == 0, "overflow tripwire fired"
    zipf = section["zipf"]
    assert zipf["ok"] == zipf["requests"], (
        "every request of the Zipf-skewed mix must be served"
    )
    assert zipf["p50_ms"] > 0 and zipf["p99_ms"] >= zipf["p50_ms"]
    cached = section["zipf_cached"]
    assert cached["ok"] == cached["requests"], (
        "every request of the cached Zipf mix must be served"
    )
    assert cached["cache_hit_rate"] >= cached["min_hit_rate"], (
        f"cached zipf leg hit rate {cached['cache_hit_rate']:.1%} below the "
        f"{cached['min_hit_rate']:.0%} gate"
    )
    assert cached["p99_ms"] < cached["uncached_p99_ms"], (
        f"cache-served p99 {cached['p99_ms']}ms must beat the uncached "
        f"zipf leg's {cached['uncached_p99_ms']}ms"
    )
    assert cached["stale_served"] == 0, (
        "the cache_stale_served tripwire fired during the cached zipf leg"
    )
    hol = section["hol"]
    assert hol["mux_fast_p99_ms"] <= (
        hol["max_p99_ratio"] * hol["serialized_fast_p99_ms"]
    ), (
        f"head-of-line gate: multiplexed fast-query p99 "
        f"{hol['mux_fast_p99_ms']}ms exceeds {hol['max_p99_ratio']}x the "
        f"serialized pipe's {hol['serialized_fast_p99_ms']}ms"
    )
    assert section["metrics_spill_overflows_total"] == 0, (
        "the merged /metrics exposition must report zero spill overflows"
    )


def _replan_demo() -> Dict:
    """A pinned plan whose estimates collapse must correct itself mid-stream."""
    query, big, tiny = _replan_workload()
    evaluator = EngineEvaluator(
        adaptive=AdaptiveConfig(replan_factor=2.0, replan_min_rows=8)
    )
    evaluator.plan_for(query, tiny)
    result, trace = evaluator.evaluate(query, big)
    if result != evaluate(query, big):
        raise AssertionError("adaptive re-plan changed the result")
    return {"replans": trace.replans, "result_cardinality": len(result)}


def run_adaptive_benchmark(clause_counts=ADAPTIVE_CLAUSES) -> Dict:
    """Sampling-quality, re-plan, and overhead numbers for adaptive mode.

    Appends an ``adaptive`` section to ``BENCH_algebra.json`` (the perf
    trajectory anchor is extended, never replaced) with, per clause count,
    the greedy-with-sampling ordering's peak intermediate against the
    actual-size greedy oracle's (the m=14 point is the one the
    exponential-backoff estimator loses); plus a mid-stream re-plan
    demonstration and the steady-state runtime ratio of adaptive over
    static execution on a well-estimated query.
    """
    cases = []
    for label, query, relation in _blowup_instances(clause_counts):
        parts = join_parts(query, relation)
        sampled_order = planner_join_order(
            query, relation, parts, evaluator=EngineEvaluator(adaptive=True)
        )
        sampled_peak = chain_peak(parts, sampled_order)
        actual_peak = chain_peak(parts, actual_greedy_order(parts))
        ratio = sampled_peak / max(actual_peak, 1)
        cases.append(
            {
                "case": label,
                "sampled_peak": sampled_peak,
                "actual_greedy_peak": actual_peak,
                "peak_ratio": round(ratio, 3),
            }
        )
        print(
            f"{label:>14}  sampled-order peak {sampled_peak:>7} vs "
            f"actual-greedy peak {actual_peak:>7}  ({ratio:.2f}x)"
        )

    demo = _replan_demo()
    print(
        f"   replan demo  {demo['replans']} mid-stream re-plan(s), "
        f"{demo['result_cardinality']} result tuples"
    )

    # Steady-state overhead of guards + sampling on a well-estimated query
    # (m=10: estimates hold, so adaptive execution never re-plans and the
    # measured delta is pure guard bookkeeping).
    label, query, relation = next(iter(_blowup_instances((10,))))
    static = EngineEvaluator()
    adaptive = EngineEvaluator(adaptive=True)
    static.evaluate(query, relation)
    adaptive_result, adaptive_trace = adaptive.evaluate(query, relation)
    if adaptive_trace.replans:
        raise AssertionError(f"well-estimated {label} should not re-plan")
    adaptive_seconds, static_seconds = _best_of_interleaved(
        lambda: adaptive.evaluate(query, relation),
        lambda: static.evaluate(query, relation),
    )
    runtime_ratio = adaptive_seconds / static_seconds
    print(
        f"{label:>14}  adaptive {adaptive_seconds * 1e3:,.1f}ms vs "
        f"static {static_seconds * 1e3:,.1f}ms  ({runtime_ratio:.2f}x)"
    )

    section = {
        "description": (
            "sampling-based estimation: greedy-with-sampling ordering peak vs "
            "the actual-size greedy oracle on the R_G family, the mid-stream "
            "re-plan demonstration, and adaptive-vs-static steady-state runtime "
            "on a well-estimated query"
        ),
        "sample_size": AdaptiveConfig().sample_size,
        "sample_join_cap": AdaptiveConfig().sample_join_cap,
        "max_peak_ratio": ADAPTIVE_MAX_PEAK_RATIO,
        "cases": cases,
        "replan_demo": demo,
        "well_estimated_case": label,
        "adaptive_seconds": round(adaptive_seconds, 6),
        "static_seconds": round(static_seconds, 6),
        "runtime_ratio": round(runtime_ratio, 3),
        "max_runtime_ratio": ADAPTIVE_MAX_RUNTIME_RATIO,
    }
    _merge_into_document({"adaptive": section})
    print(f"adaptive section -> {OUTPUT_PATH}")
    return section


def _check_adaptive(section: Dict) -> None:
    """The adaptive gate shared by pytest and the standalone sweep."""
    for case in section["cases"]:
        assert case["peak_ratio"] <= section["max_peak_ratio"], (
            f"{case['case']}: greedy-with-sampling peak {case['sampled_peak']} "
            f"exceeds {section['max_peak_ratio']}x the actual-size oracle's "
            f"{case['actual_greedy_peak']}"
        )
    assert section["replan_demo"]["replans"] >= 1, (
        "the collapsed-estimate demonstration must re-plan mid-stream"
    )
    assert section["runtime_ratio"] <= section["max_runtime_ratio"], (
        f"adaptive steady-state runtime {section['runtime_ratio']}x exceeds "
        f"{section['max_runtime_ratio']}x of static planning"
    )


def _replan_workload():
    """The collapsed-estimate instance shared by the re-plan legs."""
    import random as _random

    rng = _random.Random(20260730)
    big = {
        "R": Relation.from_rows(
            "A B", [(rng.randint(0, 20), rng.randint(0, 8)) for _ in range(300)]
        ),
        "S": Relation.from_rows(
            "B C", [(rng.randint(0, 8), rng.randint(0, 30)) for _ in range(300)]
        ),
        "T": Relation.from_rows(
            "C D", [(rng.randint(0, 30), rng.randint(0, 5)) for _ in range(300)]
        ),
    }
    tiny = {
        name: Relation.from_rows(rel.scheme, [tuple(1 for _ in rel.scheme.names)])
        for name, rel in big.items()
    }
    query = Projection(
        ["A", "D"],
        Operand("R", "A B").join(Operand("S", "B C")).join(Operand("T", "C D")),
    )
    return query, big, tiny


def run_planstore_benchmark(
    rounds: int = PLANSTORE_ROUNDS, rebuilds: int = PLANSTORE_REBUILDS
) -> Dict:
    """The plan store's learning loop, priced and gated.

    Two legs, appended as a ``planstore`` section to ``BENCH_algebra.json``:

    *Repin* — both evaluators pin the collapsed-estimate instance against
    one-row stand-ins.  The store-backed one corrects itself on the first
    execution (one mid-stream re-plan, written back as a ``repin``) and
    must then run ``rounds`` steady-state executions with **zero** further
    re-plans, at a best-of runtime within ``PLANSTORE_MAX_RUNTIME_RATIO``
    of the store-less evaluator — whose stale static pin re-plans
    mid-stream on *every* execution.

    *Warm samples* — ``rebuilds`` forget-then-replan rounds over three
    queries sharing unchanged relations: ``sample_builds`` must stop
    growing after the first round and the sample-cache hit rate must reach
    ``PLANSTORE_MIN_HIT_RATE``.
    """
    adaptive = AdaptiveConfig(replan_factor=2.0, replan_min_rows=8)
    query, big, tiny = _replan_workload()
    reference = evaluate(query, big)

    stale = EngineEvaluator(adaptive=adaptive)
    learned = EngineEvaluator(adaptive=adaptive, planstore=True)
    for evaluator in (stale, learned):
        evaluator.plan_for(query, tiny)
    corrective_result, corrective_trace = learned.evaluate(query, big)
    if corrective_result != reference:
        raise AssertionError("the corrective re-plan changed the result")
    store = learned.planstore
    steady_replans = 0
    for _ in range(rounds):
        result, trace = learned.evaluate(query, big)
        steady_replans += trace.replans
        if result != reference:
            raise AssertionError("a steady-state execution changed the result")
    stale_result, stale_trace = stale.evaluate(query, big)
    if stale_result != reference:
        raise AssertionError("the stale-pin baseline changed the result")
    steady_seconds, stale_seconds = _best_of_interleaved(
        lambda: learned.evaluate(query, big),
        lambda: stale.evaluate(query, big),
    )
    repin_leg = {
        "corrective_replans": corrective_trace.replans,
        "plan_repins": store.repins,
        "steady_rounds": rounds,
        "steady_replans": steady_replans,
        "stale_pin_replans_per_execute": stale_trace.replans,
        "steady_seconds": round(steady_seconds, 6),
        "stale_pin_seconds": round(stale_seconds, 6),
        "runtime_ratio": round(steady_seconds / stale_seconds, 3),
        "max_runtime_ratio": PLANSTORE_MAX_RUNTIME_RATIO,
    }

    warm = EngineEvaluator(adaptive=True, planstore=True)
    queries = [
        Operand("R", "A B").join(Operand("S", "B C")),
        Operand("S", "B C").join(Operand("T", "C D")),
        query,
    ]
    before = kernel_counters().snapshot()
    for expression in queries:
        warm.plan_for(expression, big)
    first_round = kernel_counters().delta_since(before)
    for _ in range(rebuilds):
        for expression in queries:
            warm.forget_plan(expression)
            warm.plan_for(expression, big)
    delta = kernel_counters().delta_since(before)
    lookups = delta["sample_cache_hits"] + delta["sample_cache_misses"]
    hit_rate = delta["sample_cache_hits"] / lookups if lookups else 0.0
    samples_leg = {
        "queries": len(queries),
        "rebuild_rounds": rebuilds,
        "first_round_sample_builds": first_round["sample_builds"],
        "total_sample_builds": delta["sample_builds"],
        "sample_cache_hits": delta["sample_cache_hits"],
        "sample_cache_misses": delta["sample_cache_misses"],
        "hit_rate": round(hit_rate, 4),
        "min_hit_rate": PLANSTORE_MIN_HIT_RATE,
    }

    section = {
        "description": (
            "plan-management learning loop: one corrective mid-stream "
            "re-plan is written back into the pinned plan (zero further "
            "re-plans steady-state, priced against the stale static pin "
            "that re-plans every execution) and repeated plan builds over "
            "unchanged relations run from warm reservoir samples"
        ),
        "repin": repin_leg,
        "warm_samples": samples_leg,
        "store_stats": store.stats(),
    }
    print(
        f"planstore repin: {repin_leg['corrective_replans']} corrective "
        f"re-plan(s), {steady_replans} in {rounds} steady round(s); "
        f"steady {steady_seconds * 1e3:,.2f}ms vs stale pin "
        f"{stale_seconds * 1e3:,.2f}ms ({repin_leg['runtime_ratio']:.2f}x)"
    )
    print(
        f"planstore samples: {delta['sample_builds']} build(s) across "
        f"{rebuilds + 1} round(s), hit rate {hit_rate:.1%}"
    )
    _merge_into_document({"planstore": section})
    print(f"planstore section -> {OUTPUT_PATH}")
    return section


def _check_planstore(section: Dict) -> None:
    """The plan-store gate shared by pytest and the standalone sweep."""
    repin = section["repin"]
    assert repin["corrective_replans"] >= 1, (
        "the collapsed-estimate instance must re-plan mid-stream once"
    )
    assert repin["plan_repins"] == 1, (
        f"exactly one repin expected, got {repin['plan_repins']}"
    )
    assert repin["steady_replans"] == 0, (
        f"the corrected pin must never re-plan again, got "
        f"{repin['steady_replans']} across {repin['steady_rounds']} rounds"
    )
    assert repin["stale_pin_replans_per_execute"] >= 1, (
        "the store-less baseline must keep re-planning mid-stream "
        "(otherwise the runtime comparison prices nothing)"
    )
    assert repin["runtime_ratio"] <= repin["max_runtime_ratio"], (
        f"corrected steady state runs {repin['runtime_ratio']}x the stale "
        f"static pin (gate <= {repin['max_runtime_ratio']}x)"
    )
    samples = section["warm_samples"]
    assert samples["total_sample_builds"] == samples["first_round_sample_builds"], (
        "sample_builds kept growing on rebuilds over unchanged relations"
    )
    assert samples["hit_rate"] >= samples["min_hit_rate"], (
        f"sample-cache hit rate {samples['hit_rate']:.1%} below "
        f"{samples['min_hit_rate']:.0%}"
    )


def run_observability_benchmark(clause_count: int = OBSERVABILITY_CLAUSE_COUNT) -> Dict:
    """Observability overhead + span attribution at m=12.

    Three evaluators run the same pinned plan in interleaved best-of
    rounds: a bare one, one with the observability layer attached but
    tracing off (the production default), and one under full span
    tracing.  A final traced run feeds ``explain_report`` to measure what
    fraction of wall time the operator spans explain.
    """
    from time import perf_counter

    from repro.obs import ObserveConfig, Tracer, explain_report

    label, query, relation = next(_blowup_instances((clause_count,)))
    plain = EngineEvaluator()
    disabled = EngineEvaluator(observe=ObserveConfig(events=True))
    traced = EngineEvaluator(observe=ObserveConfig(trace=True, events=True))

    base_result, _ = plain.evaluate(query, relation)
    for contender in (disabled, traced):
        result, _ = contender.evaluate(query, relation)
        if result != base_result:
            raise AssertionError(f"observed evaluator disagreement on {label}")

    plain_seconds, disabled_seconds = _best_of_interleaved(
        lambda: plain.evaluate(query, relation),
        lambda: disabled.evaluate(query, relation),
    )
    plain_again_seconds, traced_seconds = _best_of_interleaved(
        lambda: plain.evaluate(query, relation),
        lambda: traced.evaluate(query, relation),
    )

    tracer = Tracer()
    start = perf_counter()
    result, trace = plain.evaluate(query, relation, tracer=tracer)
    wall_seconds = perf_counter() - start
    report = explain_report(
        trace.spans, total_seconds=wall_seconds, result_rows=len(result)
    )

    section = {
        "description": (
            "pay-for-what-you-use observability: attached-but-off layer vs "
            "bare evaluator, full span tracing, and explain_analyze span "
            "attribution (R_G m=%d steady state)" % clause_count
        ),
        "case": label,
        "plain_seconds": round(plain_seconds, 6),
        "disabled_seconds": round(disabled_seconds, 6),
        "traced_seconds": round(traced_seconds, 6),
        "disabled_ratio": round(disabled_seconds / plain_seconds, 4),
        "tracing_ratio": round(traced_seconds / plain_again_seconds, 4),
        "max_disabled_ratio": MAX_DISABLED_OBSERVE_RATIO,
        "max_tracing_ratio": MAX_TRACING_OVERHEAD_RATIO,
        "span_count": len(trace.spans),
        "operator_span_count": len(report.operators),
        "attributed_fraction": round(report.attributed_fraction, 4),
        "min_attributed_fraction": MIN_ATTRIBUTED_FRACTION,
    }
    _merge_into_document({"observability": section})
    print(
        f"{label:>14}  plain {plain_seconds * 1e3:,.1f}ms  "
        f"observe-off {disabled_seconds * 1e3:,.1f}ms "
        f"({section['disabled_ratio']:.3f}x)  "
        f"traced {traced_seconds * 1e3:,.1f}ms "
        f"({section['tracing_ratio']:.3f}x)  "
        f"attribution {section['attributed_fraction']:.1%} "
        f"over {section['span_count']} spans"
    )
    print(f"observability section -> {OUTPUT_PATH}")
    return section


def _check_observability(section: Dict) -> None:
    """The observability gate shared by pytest and the standalone sweep."""
    assert section["disabled_ratio"] <= section["max_disabled_ratio"], (
        f"attached-but-off observability costs {section['disabled_ratio']}x, "
        f"exceeding the {section['max_disabled_ratio']}x pay-for-what-you-use "
        "gate"
    )
    assert section["tracing_ratio"] <= section["max_tracing_ratio"], (
        f"span tracing costs {section['tracing_ratio']}x, exceeding the "
        f"{section['max_tracing_ratio']}x gate"
    )
    assert section["attributed_fraction"] >= section["min_attributed_fraction"], (
        f"operator spans attribute only {section['attributed_fraction']:.1%} "
        f"of wall time (gate >= {section['min_attributed_fraction']:.0%}) — "
        "explain_analyze would be decorating, not explaining"
    )


def test_kernel_speedup_over_seed(emit_result):
    """The compiled kernel must beat the seed implementation by >= 5x overall."""
    document = run_benchmark()
    lines = [
        f"width={case['width']:>2} n={case['cardinality']:>5}  "
        f"join {case['join_speedup']:>6.1f}x  project {case['project_speedup']:>6.1f}x"
        for case in document["cases"]
    ]
    lines.append(f"geomean speedup: {document['geomean_speedup']}x")
    emit_result(
        "BENCH-algebra",
        "positional kernel vs seed implementation (join+project ops/sec)",
        "\n".join(lines),
    )
    assert document["geomean_speedup"] >= MIN_EXPECTED_SPEEDUP


def test_engine_streaming_beats_materialisation(emit_result):
    """The streaming engine must bound live rows below both materialised peaks.

    This is the CI smoke gate for the execution engine: on every blowup
    instance the peak number of rows resident in engine state stays strictly
    below the naive evaluator's peak (full materialisation) *and* the
    optimiser's peak, while steady-state runtime stays within
    ``MAX_ENGINE_RUNTIME_RATIO`` of the PR 1 kernel path.
    """
    section = run_engine_benchmark()
    lines = [
        f"{case['case']:>14}  live {case['engine_peak_live_rows']:>6}  "
        f"opt peak {case['optimized_peak_materialized']:>6}  "
        f"naive peak {case['naive_peak_materialized']:>6}  "
        f"runtime ratio {case['runtime_ratio']:>5.2f}x"
        for case in section["cases"]
    ]
    emit_result(
        "BENCH-engine",
        "streaming engine live rows vs materialised peaks (R_G blowup workload)",
        "\n".join(lines),
    )
    for case in section["cases"]:
        assert case["engine_peak_live_rows"] < case["naive_peak_materialized"]
        assert case["engine_peak_live_rows"] < case["optimized_peak_materialized"]
        assert case["runtime_ratio"] <= MAX_ENGINE_RUNTIME_RATIO


def _check_spill_parallel(sections: Dict) -> None:
    """The spill/parallel gate shared by pytest and the standalone sweep."""
    spill = sections["spill"]
    assert spill["join_spills"] > 0 and spill["spill_rows"] > 0
    assert spill["spill_overflows"] == 0
    assert spill["peak_build_rows"] <= spill["budget_rows"]
    assert spill["peak_live_rows"] < spill["unbudgeted_peak_live_rows"]
    parallel = sections["parallel"]
    if os.environ.get("REQUIRE_PARALLEL_GATE") == "1":
        # CI sets this so a too-small runner fails loudly instead of
        # letting the speedup criterion go silently vacuous.
        assert parallel["speedup_gate_active"], (
            f"REQUIRE_PARALLEL_GATE=1 but this host has "
            f"{parallel['cpu_count']} CPU(s) for {parallel['workers']} "
            "workers — the speedup gate would be vacuous; use a runner with "
            "at least one core per worker or unset REQUIRE_PARALLEL_GATE"
        )
    if parallel["speedup_gate_active"]:
        assert parallel["speedup"] >= parallel["min_expected_speedup"], (
            f"{parallel['workers']}-worker probe speedup {parallel['speedup']}x "
            f"below {parallel['min_expected_speedup']}x on "
            f"{parallel['cpu_count']} CPUs"
        )


def _check_serving(section: Dict) -> None:
    """The serving gate shared by pytest and the standalone sweep."""
    assert section["plan_builds"] == section["queries"], (
        "prepare() must compile each query exactly once; got "
        f"{section['plan_builds']} builds for {section['queries']} queries"
    )
    assert section["plan_cache_hits_delta"] == section["executes_delta"], (
        "every timed execute must be a plan-cache hit (no re-planning)"
    )
    assert section["overhead_ratio"] <= section["max_overhead_ratio"], (
        f"session serving overhead {section['overhead_ratio']}x exceeds "
        f"{section['max_overhead_ratio']}x over the pinned backend"
    )


def test_session_serving_overhead(emit_result):
    """One Session serving 8 prepared queries round-robin must stay within
    1.05x of calling each query's pinned evaluator directly, with the
    plan-cache counters proving no execute ever re-planned."""
    section = run_serving_benchmark()
    emit_result(
        "BENCH-serving",
        "prepared-query serving through one Session vs pinned backends",
        f"{section['queries']} queries round-robin  "
        f"session {section['session_round_seconds'] * 1e3:,.2f}ms  "
        f"direct {section['direct_round_seconds'] * 1e3:,.2f}ms  "
        f"overhead {section['overhead_ratio']:.3f}x  "
        f"(plan builds {section['plan_builds']}, "
        f"cache hits {section['plan_cache_hits_delta']}/"
        f"{section['executes_delta']} executes)",
    )
    _check_serving(section)


def test_server_tier_load(emit_result):
    """Eight concurrent clients through the networked serving tier must be
    served completely (p50/p99/throughput recorded) at an end-to-end
    throughput cost within 2x of direct in-process serving, with the
    per-request budget override spilling (zero overflows), the cached
    Zipf leg hitting the result cache at >= 50% with a p99 under the
    uncached leg's, the multiplexed fast-query p99 under a concurrent
    spill at <= 0.25x the serialized pipe's, and the merged /metrics
    exposition confirming both tripwires stayed zero."""
    section = run_server_benchmark()
    override = section["budget_override"]
    cached = section["zipf_cached"]
    hol = section["hol"]
    emit_result(
        "BENCH-server",
        "concurrent mixed load through the HTTP serving tier",
        f"{section['clients']} clients x {SERVER_REQUESTS_PER_CLIENT} reqs "
        f"over {section['pool_size']} workers  "
        f"p50 {section['p50_ms']:.1f}ms  p99 {section['p99_ms']:.1f}ms  "
        f"{section['throughput_rps']:.1f} rps "
        f"(direct {section['direct_rps']:.1f} rps, "
        f"{section['overhead_ratio']:.2f}x)\n"
        f"override budget {override['budget_rows']} rows: "
        f"{override['ok']}/{override['requests']} served, "
        f"p99 {override['p99_ms']:.1f}ms, "
        f"{override['probe_spilled_rows']} row(s) spilled, "
        f"{override['probe_spill_overflows']} overflow(s)\n"
        f"zipf({section['zipf']['skew']}) skewed mix: "
        f"{section['zipf']['ok']}/{section['zipf']['requests']} served, "
        f"p50 {section['zipf']['p50_ms']:.1f}ms  "
        f"p99 {section['zipf']['p99_ms']:.1f}ms  "
        f"{section['zipf']['throughput_rps']:.1f} rps\n"
        f"cached zipf: {cached['ok']}/{cached['requests']} served, "
        f"hit rate {cached['cache_hit_rate']:.0%} "
        f"(gate >= {cached['min_hit_rate']:.0%}), "
        f"p99 {cached['p99_ms']:.2f}ms vs uncached "
        f"{cached['uncached_p99_ms']:.1f}ms, stale served "
        f"{cached['stale_served']}\n"
        f"head-of-line: fast p99 {hol['mux_fast_p99_ms']:.1f}ms multiplexed "
        f"vs {hol['serialized_fast_p99_ms']:.1f}ms serialized "
        f"({hol['p99_ratio']:.3f}x, gate <= {hol['max_p99_ratio']}x); "
        f"fleet spill_overflows_total="
        f"{section['metrics_spill_overflows_total']}",
    )
    _check_server(section)


def test_engine_spill_and_parallel_probe(emit_result):
    """Budget + parallel smoke: at m=12 a 256-row budget must spill while
    matching the unbudgeted output with every build table inside the budget,
    and the 4-worker probe must hit the speedup gate wherever every worker
    has a CPU to run on (the measured number is recorded either way)."""
    sections = run_spill_parallel_benchmark()
    spill, parallel = sections["spill"], sections["parallel"]
    gate = "active" if parallel["speedup_gate_active"] else "inactive (1 cpu)"
    emit_result(
        "BENCH-spill-parallel",
        "memory-budgeted Grace-hash spill + parallel probe (R_G m=12)",
        "\n".join(
            [
                f"{spill['case']:>14}  budget {spill['budget_rows']:>5}  "
                f"live {spill['peak_live_rows']:>6}  build peak "
                f"{spill['peak_build_rows']:>4}  spills {spill['join_spills']:>3}  "
                f"spilled rows {spill['spill_rows']:>6}  "
                f"runtime ratio {spill['spill_runtime_ratio']:>5.2f}x",
                f"{parallel['case']:>14}  probe x{parallel['workers']} "
                f"[{parallel['backend']}]  speedup {parallel['speedup']:>5.2f}x  "
                f"(gate {gate}, {parallel['cpu_count']} cpu)",
            ]
        ),
    )
    _check_spill_parallel(sections)


def test_engine_robustness_total_spill(emit_result):
    """The robustness gate: at m=12 every leg of the total-spill memory
    model — Grace joins + spilling dedup at the gate budget, and the whole
    cascade at a sixth of the engine's natural footprint — stays set-equal
    with zero
    ``spill_overflows``, and the gated leg's runtime stays within 1.5x of
    the unbudgeted engine."""
    section = run_robustness_benchmark()
    lines = []
    for name in ("gated", "tiny"):
        leg = section[name]
        ratio = leg.get("runtime_ratio")
        lines.append(
            f"{name:>13}  budget {leg['budget_rows']:>4}  "
            f"live {leg['peak_live_rows']:>4}  "
            f"spills j{leg['join_spills']}/d{leg['dedup_spills']}  "
            f"overflows {leg['spill_overflows']}"
            + (f"  runtime {ratio:>5.2f}x" if ratio is not None else "")
        )
    emit_result(
        "BENCH-robustness",
        "total-spill memory model: zero overflows + priced runtime (R_G m=12)",
        "\n".join(lines),
    )
    _check_robustness(section)


def test_observability_overhead(emit_result):
    """The observability gate: at m=12 the attached-but-trace-off layer
    stays within 1.05x of a bare evaluator (tracing is pay-for-what-you-
    use), full span tracing within 1.25x, and the traced run's operator
    spans attribute >= 95% of the measured wall time."""
    section = run_observability_benchmark()
    emit_result(
        "BENCH-observability",
        "span tracing overhead + explain_analyze attribution (R_G m=12)",
        f"{section['case']:>14}  plain {section['plain_seconds'] * 1e3:,.1f}ms  "
        f"observe-off {section['disabled_ratio']:.3f}x "
        f"(gate <= {section['max_disabled_ratio']}x)  "
        f"traced {section['tracing_ratio']:.3f}x "
        f"(gate <= {section['max_tracing_ratio']}x)\n"
        f"{'':>14}  attribution {section['attributed_fraction']:.1%} of wall "
        f"time over {section['operator_span_count']} operator spans "
        f"(gate >= {section['min_attributed_fraction']:.0%})",
    )
    _check_observability(section)


def test_adaptive_estimation_quality(emit_result):
    """The adaptive gate: greedy-with-sampling ordering stays within 3.5x of
    the actual-size oracle at m=12 and m=14 (the instance the backoff
    estimator loses), the collapsed-estimate demonstration re-plans
    mid-stream, and adaptive steady-state execution of a well-estimated
    query stays within 1.1x of static planning."""
    section = run_adaptive_benchmark()
    lines = [
        f"{case['case']:>14}  sampled peak {case['sampled_peak']:>7}  "
        f"oracle peak {case['actual_greedy_peak']:>7}  "
        f"ratio {case['peak_ratio']:>5.2f}x (gate <= {section['max_peak_ratio']}x)"
        for case in section["cases"]
    ]
    lines.append(
        f"   replan demo  {section['replan_demo']['replans']} re-plan(s) "
        f"on the collapsed-estimate instance"
    )
    lines.append(
        f"{section['well_estimated_case']:>14}  adaptive/static runtime "
        f"{section['runtime_ratio']:.3f}x (gate <= {section['max_runtime_ratio']}x)"
    )
    emit_result(
        "BENCH-adaptive",
        "sampling-based estimation + mid-stream re-planning (R_G family)",
        "\n".join(lines),
    )
    _check_adaptive(section)


def test_planstore_learning(emit_result):
    """The plan-store gate: the collapsed-estimate instance corrects itself
    once (the repin), then runs 20 steady-state executions with zero
    further re-plans at <= 1.0x the stale static pin's runtime, and
    repeated plan builds over unchanged relations run from warm samples
    (>= 90% hit rate, sample_builds stops growing)."""
    section = run_planstore_benchmark()
    repin = section["repin"]
    samples = section["warm_samples"]
    emit_result(
        "BENCH-planstore",
        "plan & statistics store: repin steady state + warm sample cache",
        f"repin: {repin['corrective_replans']} corrective re-plan(s), then "
        f"{repin['steady_replans']} in {repin['steady_rounds']} rounds  "
        f"steady {repin['steady_seconds'] * 1e3:,.2f}ms vs stale pin "
        f"{repin['stale_pin_seconds'] * 1e3:,.2f}ms "
        f"({repin['runtime_ratio']:.2f}x, gate <= "
        f"{repin['max_runtime_ratio']}x)\n"
        f"samples: {samples['total_sample_builds']} build(s) across "
        f"{samples['rebuild_rounds'] + 1} rounds of "
        f"{samples['queries']} queries  hit rate {samples['hit_rate']:.1%} "
        f"(gate >= {samples['min_hit_rate']:.0%})",
    )
    _check_planstore(section)


if __name__ == "__main__":
    result = run_benchmark(cardinalities=FULL_CARDINALITIES)
    engine_section = run_engine_benchmark()
    engine_ok = all(
        case["engine_peak_live_rows"] < case["optimized_peak_materialized"]
        and case["engine_peak_live_rows"] < case["naive_peak_materialized"]
        and case["runtime_ratio"] <= MAX_ENGINE_RUNTIME_RATIO
        for case in engine_section["cases"]
    )
    spill_parallel = run_spill_parallel_benchmark()
    try:
        _check_spill_parallel(spill_parallel)
    except AssertionError as failure:
        print(f"spill/parallel gate failed: {failure}")
        engine_ok = False
    robustness_section = run_robustness_benchmark()
    try:
        _check_robustness(robustness_section)
    except AssertionError as failure:
        print(f"robustness gate failed: {failure}")
        engine_ok = False
    serving_section = run_serving_benchmark()
    try:
        _check_serving(serving_section)
    except AssertionError as failure:
        print(f"serving gate failed: {failure}")
        engine_ok = False
    server_section = run_server_benchmark()
    try:
        _check_server(server_section)
    except AssertionError as failure:
        print(f"server gate failed: {failure}")
        engine_ok = False
    adaptive_section = run_adaptive_benchmark()
    try:
        _check_adaptive(adaptive_section)
    except AssertionError as failure:
        print(f"adaptive gate failed: {failure}")
        engine_ok = False
    planstore_section = run_planstore_benchmark()
    try:
        _check_planstore(planstore_section)
    except AssertionError as failure:
        print(f"planstore gate failed: {failure}")
        engine_ok = False
    observability_section = run_observability_benchmark()
    try:
        _check_observability(observability_section)
    except AssertionError as failure:
        print(f"observability gate failed: {failure}")
        engine_ok = False
    sys.exit(0 if result["geomean_speedup"] >= MIN_EXPECTED_SPEEDUP and engine_ok else 1)
