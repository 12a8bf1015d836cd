"""Command-line interface: ``python -m repro <command>``.

The CLI exposes the paper's pipeline for quick experimentation without writing
Python:

``python -m repro example``
    Print the paper's worked example table (R_G for the p. 106 formula) and
    the expression φ_G.

``python -m repro sat "(x1|x2|x3) & (~x1|~x2|x3)"``
    Decide satisfiability of a CNF formula through the relational reduction
    and cross-check with the DPLL solver.

``python -m repro count "(x1|x2|x3) & (~x1|~x2|x3)"``
    Count satisfying assignments via the Theorem 3 identity and via the SAT
    counter.

``python -m repro construct "(x1|x2|x3) & ..." [--show-relation]``
    Build R_G / φ_G for a formula and print its dimensions (optionally the
    full table).

``python -m repro blowup --clauses 3 4 5``
    Print the intermediate-result blow-up table for the R_G family,
    including the streaming engine's peak live-row count (``--no-engine``
    to skip it).  ``--memory-budget ROWS`` runs the engine budgeted (hash
    joins spill to Grace partitions), still cross-checked against the naive
    result.

``python -m repro engine-explain "project[A](R * S)" --scheme "R=A B" --scheme "S=B C"``
    Lower an expression through the cost-based planner and print the chosen
    physical plan with per-node cardinality/cost estimates.  Statistics are
    assumed from ``--cardinality NAME=N`` declarations (default 100 rows per
    operand); ``--memory-budget ROWS`` shows the budget-aware plan (Grace
    joins with partition estimates); ``--paper`` explains and runs the
    paper's worked example, φ_G on its real relation, instead, and reports
    per join node where the estimate came from: a row sample or the backoff
    formula.  (Not ``project[S](φ_G)``: the planner minimizes that to one
    scan of ``R``, which has no join to report on.)

``python -m repro trace [--memory-budget ROWS] [--events PATH]``
    Execute the paper's worked example (φ_G) under a span tracer and print the
    ``EXPLAIN ANALYZE`` report — per-operator wall time (inclusive/self),
    rows produced, and the plan/spill overhead spans — followed by
    the structured event log (``--events PATH`` additionally appends the
    events as JSON Lines).

``python -m repro metrics [--executes N] [--memory-budget ROWS]``
    Execute the worked example ``N`` times in one observed session and
    print the session's metrics registry — latency histogram, execute and
    row counters, peak-memory gauge — in Prometheus text format.

``python -m repro serve [--port 8080] [--pool-size 2]``
    Start the networked serving tier over the demo serving database
    (``repro.workloads.serving_relations``): an asyncio HTTP front with
    admission control, a shared memory-budget scheduler, and a result
    cache keyed on relation contents (``--cache-size``, 0 disables),
    dispatching to worker processes that each answer their requests one
    at a time, in order.  ``POST /query``
    serves JSON query requests (per-request ``budget`` override,
    ``--request-timeout`` deadline → 504), ``POST /mutate``
    replaces a relation's rows and switches which cached results are
    current, ``GET /metrics`` exposes
    the merged front+worker Prometheus exposition, ``GET /stats`` and
    ``GET /healthz`` report state.  Stop with Ctrl-C.

Formulas are written in the textual syntax of
:func:`repro.sat.parse_formula` (``|`` or ``+`` inside clauses, ``&`` between
clauses, ``~`` for negation).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from .analysis import analyze_blowup, format_table
from .api import Session
from .expressions import Projection
from .reductions import RGConstruction, Theorem3Reduction
from .sat import count_models, is_satisfiable, parse_formula, to_strict_three_cnf
from .sat.transforms import ensure_minimum_clauses
from .workloads import paper_example_construction

__all__ = ["main", "build_parser"]


def _prepare(text: str):
    """Parse a formula and normalise it to the construction's requirements."""
    formula = parse_formula(text)
    formula = to_strict_three_cnf(formula)
    return ensure_minimum_clauses(formula, 3)


def _command_example(_arguments: argparse.Namespace) -> int:
    construction = paper_example_construction()
    print("G =", construction.formula)
    print()
    print(construction.relation.to_table())
    print()
    print("phi_G =", construction.expression.to_text())
    with Session(construction.relation) as session:
        result = session.execute(construction.expression)
    print(f"|phi_G(R_G)| = {len(result)}  (= 22 + #SAT(G) = 22 + 20)")
    return 0


def _command_sat(arguments: argparse.Namespace) -> int:
    formula = _prepare(arguments.formula)
    construction = RGConstruction(formula)
    with Session(construction.relation) as session:
        # The engine-backed prepared query streams with early exit, so the
        # membership check touches a fraction of phi_G(R_G) on SAT inputs.
        member = session.prepare(construction.pair_projection_expression()).contains(
            construction.u_g_tuple()
        )
    solver_answer = is_satisfiable(formula)
    print(f"formula (normalised): {formula}")
    print(f"relational answer (u_G in pi_Y phi_G(R_G)): {'SAT' if member else 'UNSAT'}")
    print(f"DPLL answer:                                {'SAT' if solver_answer else 'UNSAT'}")
    if member != solver_answer:
        print("MISMATCH — this indicates a bug; please report it.", file=sys.stderr)
        return 1
    return 0


def _command_count(arguments: argparse.Namespace) -> int:
    formula = _prepare(arguments.formula)
    reduction = Theorem3Reduction(formula)
    instance = reduction.instance()
    with Session(instance.relation) as session:
        tuple_count = len(session.execute(instance.expression))
    via_query = reduction.models_from_tuple_count(tuple_count)
    via_sat = count_models(reduction.construction.formula)
    print(f"formula (normalised): {formula}")
    print(f"|phi_G(R_G)| = {tuple_count}  (offset 7m+1 = {reduction.offset()})")
    print(f"#SAT via Theorem 3 identity: {via_query}")
    print(f"#SAT via DPLL counter:       {via_sat}")
    return 0 if via_query == via_sat else 1


def _command_construct(arguments: argparse.Namespace) -> int:
    formula = _prepare(arguments.formula)
    construction = RGConstruction(formula)
    print(f"formula (normalised): {formula}")
    print(
        f"R_G: {len(construction.relation)} tuples x {len(construction.scheme)} columns "
        f"(7m+1 = {construction.predicted_relation_size()}, "
        f"m+n+m(m-1)/2+1 = {construction.predicted_column_count()})"
    )
    print(f"phi_G: {construction.expression.to_text()}")
    if arguments.show_relation:
        print()
        print(construction.relation.to_table(max_rows=arguments.max_rows))
    return 0


def _command_blowup(arguments: argparse.Namespace) -> int:
    from .workloads import growing_construction_family

    if arguments.memory_budget is not None and arguments.memory_budget <= 0:
        raise SystemExit("--memory-budget must be a positive row count")
    from .perf import kernel_counters

    before_sweep = kernel_counters().snapshot()
    rows = []
    for case in growing_construction_family(clause_counts=tuple(arguments.clauses)):
        construction = RGConstruction(case.formula)
        query = Projection([construction.s_attribute], construction.expression)
        measurement = analyze_blowup(
            query,
            construction.relation,
            label=case.label,
            compare_engine=not arguments.no_engine,
            engine_budget=arguments.memory_budget,
        )
        rows.append({"case": case.label, **measurement.as_row()})
    print(format_table(rows))
    if not arguments.no_engine and arguments.memory_budget is not None:
        spills = kernel_counters().delta_since(before_sweep)
        print(
            f"\nengine ran budgeted at {arguments.memory_budget} rows:"
            f" {spills['join_spills']} join spill(s),"
            f" {spills['spill_rows']} row(s) spilled,"
            f" {spills['spill_recursions']} partition re-split(s),"
            f" {spills['spill_overflows']} overflow(s)"
        )
    return 0


def _parse_named_values(pairs: List[str], option: str) -> dict:
    values = {}
    for pair in pairs:
        name, separator, value = pair.partition("=")
        if not separator or not name or not value:
            raise SystemExit(f"{option} expects NAME=VALUE, got {pair!r}")
        values[name] = value
    return values


def _validated_cardinality(value, option: str) -> int:
    try:
        cardinality = int(value)
    except ValueError:
        raise SystemExit(f"{option}={value!r}: not an integer")
    if not 0 <= cardinality <= 10**15:
        raise SystemExit(f"{option}={value}: must be between 0 and 10^15")
    return cardinality


def _join_provenance_lines(plan) -> List[str]:
    """One line per join node: its estimate and where that estimate came from.

    Provenance is what the planner recorded on the node when it costed the
    join (``PlanNode.provenance``): the samples an estimate was measured on
    are dropped before a plan is pinned, so nothing here re-derives it.
    Every join that heads a run — a lone one included — is followed by the
    source of the kernel generated for the run (nested loop, then key-join
    loop) and what it emits: the folded projection's columns, or every
    column.
    """
    lines: List[str] = []

    def walk(node) -> None:
        for child in node.children:
            walk(child)
        if node.kind == "hash-join":
            on = ", ".join(node.join_plan.common_names) or "x (product)"
            lines.append(
                f"join on ({on}): est {node.est_rows:.0f} rows [{node.provenance}]"
            )
            kernel = node.chain
            if kernel is not None:
                emits = "every column"
                if node.emit_scheme is not None:
                    emits = f"[{', '.join(node.emit_scheme.names)}]"
                run = f", running the last {kernel.depth} joins," if kernel.depth > 1 else ""
                lines.append(f"  emits {emits}{run} through:")
                lines.extend(f"    {line}" for line in kernel.source.splitlines())

    walk(plan.root)
    return lines


def _command_engine_explain(arguments: argparse.Namespace) -> int:
    from .engine import RelationStats, plan_expression
    from .engine.physical import MemoryBudget
    from .expressions import parse_expression

    if arguments.memory_budget is not None and arguments.memory_budget <= 0:
        raise SystemExit("--memory-budget must be a positive row count")
    if arguments.paper:
        if arguments.expression or arguments.scheme or arguments.cardinality:
            raise SystemExit(
                "--paper explains the worked example and cannot be combined "
                "with an expression, --scheme, or --cardinality"
            )
        construction = paper_example_construction()
        expression = construction.expression
        with Session(construction.relation, budget=arguments.memory_budget) as session:
            prepared = session.prepare(expression)
            print("phi_G =", expression.to_text())
            print()
            print(prepared.explain())
            trace = prepared.execute().trace
        print()
        print(
            f"executed: {trace.result_cardinality} result tuples, "
            f"peak live rows {trace.peak_live_rows} "
            f"(input {trace.input_cardinality})"
        )
        live = session._engine.pinned_plan(expression)
        if live is not None:
            print("per-join estimate provenance:")
            for line in _join_provenance_lines(live):
                print(f"  {line}")
        if arguments.memory_budget is not None:
            print(
                f"budget {arguments.memory_budget} rows: "
                f"peak build rows {trace.peak_build_rows}, "
                f"{trace.counters.get('join_spills', 0)} join spill(s), "
                f"{trace.counters.get('spill_rows', 0)} row(s) spilled"
            )
        return 0
    if not arguments.expression:
        raise SystemExit("an expression is required unless --paper is given")
    schemes = _parse_named_values(arguments.scheme, "--scheme")
    if not schemes:
        raise SystemExit("engine-explain needs at least one --scheme NAME=\"A B ...\"")
    expression = parse_expression(arguments.expression, schemes)
    default_cardinality = _validated_cardinality(
        arguments.default_cardinality, "--default-cardinality"
    )
    cardinalities = {
        name: _validated_cardinality(value, f"--cardinality {name}")
        for name, value in _parse_named_values(
            arguments.cardinality, "--cardinality"
        ).items()
    }
    operand_schemes = expression.operand_schemes()
    # A typo'd name would otherwise silently fall back to the default
    # cardinality and explain a plan for the wrong statistics.
    for option, names in (("--scheme", schemes), ("--cardinality", cardinalities)):
        unknown = sorted(set(names) - set(operand_schemes))
        if unknown:
            raise SystemExit(
                f"{option} names {unknown} do not appear in the expression "
                f"(operands: {sorted(operand_schemes)})"
            )
    stats = {}
    for name, operand_scheme in operand_schemes.items():
        cardinality = cardinalities.get(name, default_cardinality)
        stats[name] = RelationStats.assumed(operand_scheme.names, cardinality)
    plan = plan_expression(
        expression, stats, budget=MemoryBudget.coerce(arguments.memory_budget)
    )
    print(f"expression: {expression.to_text()}")
    print(f"estimated result rows: {plan.est_rows:.1f}   estimated cost: {plan.est_cost:.1f}")
    print()
    print(plan.explain())
    return 0


def _observed_paper_session(arguments: argparse.Namespace, observe):
    """Open a session over the worked example with the observability layer on."""
    if arguments.memory_budget is not None and arguments.memory_budget <= 0:
        raise SystemExit("--memory-budget must be a positive row count")
    construction = paper_example_construction()
    expression = construction.expression
    session = Session(
        construction.relation,
        budget=arguments.memory_budget,
        observe=observe,
    )
    return session, expression


def _command_trace(arguments: argparse.Namespace) -> int:
    from .obs import ObserveConfig, events_to_jsonl

    observe = ObserveConfig(trace=True, events=True)
    session, expression = _observed_paper_session(arguments, observe)
    with session:
        prepared = session.prepare(expression)
        report = prepared.explain_analyze()
    print("phi_G =", expression.to_text())
    print()
    print(report)
    events = session.events()
    if len(events):
        print()
        print(f"events ({len(events)}):")
        for kind, count in sorted(events.counts().items()):
            print(f"  {kind}: {count}")
    if arguments.events:
        with open(arguments.events, "a", encoding="utf-8") as handle:
            handle.write(events_to_jsonl(events.events()))
        print(f"\nwrote {len(events)} event(s) to {arguments.events}")
    return 0


def _command_metrics(arguments: argparse.Namespace) -> int:
    from .obs import render_prometheus

    if arguments.executes < 1:
        raise SystemExit("--executes must be >= 1")
    session, expression = _observed_paper_session(arguments, True)
    with session:
        prepared = session.prepare(expression)
        for _ in range(arguments.executes):
            prepared.execute()
        print(render_prometheus(session.metrics()), end="")
    return 0


def _command_serve(arguments: argparse.Namespace) -> int:
    import threading

    from .server import ReproServer
    from .workloads import serving_queries, serving_relations

    if arguments.rows < 1:
        raise SystemExit("--rows must be >= 1")
    if arguments.session_budget is not None and arguments.session_budget <= 0:
        raise SystemExit("--session-budget must be a positive row count")
    if arguments.total_budget_rows is not None and arguments.total_budget_rows <= 0:
        raise SystemExit("--total-budget-rows must be a positive row count")
    if arguments.cache_size < 0:
        raise SystemExit("--cache-size must be >= 0 (0 disables the cache)")
    if arguments.request_timeout is not None and arguments.request_timeout <= 0:
        raise SystemExit("--request-timeout must be a positive number of seconds")
    relations = serving_relations(rows=arguments.rows)
    server = ReproServer(
        relations,
        host=arguments.host,
        port=arguments.port,
        pool_size=arguments.pool_size,
        max_inflight=arguments.max_inflight,
        total_budget_rows=arguments.total_budget_rows,
        session_budget=arguments.session_budget,
        result_cache_size=arguments.cache_size,
        request_timeout_seconds=arguments.request_timeout,
        events_dir=arguments.events_dir,
        trace=arguments.trace,
    )
    try:
        server.start()
        shapes = ", ".join(
            f"{name}({', '.join(rel.scheme.names)})"
            for name, rel in sorted(relations.items())
        )
        print(f"serving {shapes} on {server.url}")
        print(f"  {len(serving_queries())} demo queries, e.g. "
              f"curl -d '{{\"query\": \"project[A](R * S)\"}}' {server.url}/query")
        print(f"  metrics: {server.url}/metrics   stats: {server.url}/stats")
        threading.Event().wait()  # serve until interrupted
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        server.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse parser for the ``repro`` CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of Cosmadakis (1983): the complexity of evaluating relational queries.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("example", help="print the paper's worked example").set_defaults(
        handler=_command_example
    )

    sat_parser = subparsers.add_parser(
        "sat", help="decide satisfiability through the relational reduction"
    )
    sat_parser.add_argument("formula", help="CNF formula, e.g. '(x|y|z) & (~x|y|~z)'")
    sat_parser.set_defaults(handler=_command_sat)

    count_parser = subparsers.add_parser(
        "count", help="count satisfying assignments via the Theorem 3 identity"
    )
    count_parser.add_argument("formula", help="CNF formula")
    count_parser.set_defaults(handler=_command_count)

    construct_parser = subparsers.add_parser(
        "construct", help="build R_G / phi_G for a formula and print its dimensions"
    )
    construct_parser.add_argument("formula", help="CNF formula")
    construct_parser.add_argument(
        "--show-relation", action="store_true", help="print the full R_G table"
    )
    construct_parser.add_argument(
        "--max-rows", type=int, default=60, help="row cap when printing R_G"
    )
    construct_parser.set_defaults(handler=_command_construct)

    blowup_parser = subparsers.add_parser(
        "blowup", help="print the intermediate-result blow-up table for the R_G family"
    )
    blowup_parser.add_argument(
        "--clauses", type=int, nargs="+", default=[3, 4, 5], help="clause counts to sweep"
    )
    blowup_parser.add_argument(
        "--no-engine",
        action="store_true",
        help="skip the streaming engine's peak-live-rows comparison",
    )
    blowup_parser.add_argument(
        "--memory-budget",
        type=int,
        default=None,
        metavar="ROWS",
        help="row budget for the engine run (hash joins spill to Grace partitions)",
    )
    blowup_parser.set_defaults(handler=_command_blowup)

    explain_parser = subparsers.add_parser(
        "engine-explain",
        help="print the cost-based physical plan the streaming engine would run",
    )
    explain_parser.add_argument(
        "expression",
        nargs="?",
        help="expression text, e.g. 'project[A](R * S)' (omit with --paper)",
    )
    explain_parser.add_argument(
        "--scheme",
        action="append",
        default=[],
        metavar="NAME=ATTRS",
        help="operand scheme, e.g. --scheme 'R=A B C' (repeatable)",
    )
    explain_parser.add_argument(
        "--cardinality",
        action="append",
        default=[],
        metavar="NAME=N",
        help="assumed operand cardinality for the cost model (repeatable)",
    )
    explain_parser.add_argument(
        "--default-cardinality",
        type=int,
        default=100,
        help="assumed cardinality for operands without --cardinality (default 100)",
    )
    explain_parser.add_argument(
        "--memory-budget",
        type=int,
        default=None,
        metavar="ROWS",
        help="row budget: hash joins become Grace (spill-to-disk) joins",
    )
    explain_parser.add_argument(
        "--paper",
        action="store_true",
        help="explain and execute the paper's worked example on its real relation",
    )
    explain_parser.set_defaults(handler=_command_engine_explain)

    trace_parser = subparsers.add_parser(
        "trace",
        help="run the worked example under a span tracer and print EXPLAIN ANALYZE",
    )
    trace_parser.add_argument(
        "--memory-budget",
        type=int,
        default=None,
        metavar="ROWS",
        help="row budget for the engine run (spill spans appear in the report)",
    )
    trace_parser.add_argument(
        "--events",
        default=None,
        metavar="PATH",
        help="append the structured event log to PATH as JSON Lines",
    )
    trace_parser.set_defaults(handler=_command_trace)

    metrics_parser = subparsers.add_parser(
        "metrics",
        help="run the worked example repeatedly and print Prometheus-format metrics",
    )
    metrics_parser.add_argument(
        "--executes",
        type=int,
        default=5,
        help="how many times to execute the prepared query (default 5)",
    )
    metrics_parser.add_argument(
        "--memory-budget",
        type=int,
        default=None,
        metavar="ROWS",
        help="row budget for the engine runs",
    )
    metrics_parser.set_defaults(handler=_command_metrics)

    serve_parser = subparsers.add_parser(
        "serve",
        help="start the networked serving tier over the demo serving database",
    )
    serve_parser.add_argument("--host", default="127.0.0.1", help="bind address")
    serve_parser.add_argument(
        "--port", type=int, default=8080, help="bind port (0 = pick a free port)"
    )
    serve_parser.add_argument(
        "--pool-size", type=int, default=2, help="worker processes (default 2)"
    )
    serve_parser.add_argument(
        "--max-inflight",
        type=int,
        default=16,
        help="admission bound: concurrent requests beyond this are shed with 503",
    )
    serve_parser.add_argument(
        "--total-budget-rows",
        type=int,
        default=None,
        metavar="ROWS",
        help="shared memory-budget pool leased across all requests (default unlimited)",
    )
    serve_parser.add_argument(
        "--session-budget",
        type=int,
        default=None,
        metavar="ROWS",
        help="default per-session engine budget (overridable per request)",
    )
    serve_parser.add_argument(
        "--rows",
        type=int,
        default=600,
        help="rows per relation of the demo serving database (default 600)",
    )
    serve_parser.add_argument(
        "--cache-size",
        type=int,
        default=256,
        metavar="ENTRIES",
        help="result-cache capacity in entries (default 256; 0 disables it)",
    )
    serve_parser.add_argument(
        "--request-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-request worker deadline; past it the request fails 504 "
        "and its budget lease is released (default: no deadline)",
    )
    serve_parser.add_argument(
        "--events-dir",
        default=None,
        metavar="DIR",
        help="mirror each worker's event log to DIR/worker-i.jsonl",
    )
    serve_parser.add_argument(
        "--trace",
        action="store_true",
        help="span-trace every execution in the workers",
    )
    serve_parser.set_defaults(handler=_command_serve)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    arguments = parser.parse_args(argv)
    return arguments.handler(arguments)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
