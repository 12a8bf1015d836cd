"""repro — reproduction of Cosmadakis (1983), "The Complexity of Evaluating Relational Queries".

The package implements the relational-algebra substrate (projection/join
queries over finite relations), the Boolean-satisfiability substrate, the
paper's R_G / φ_G constructions and every reduction of Theorems 1-5, plus the
decision procedures, analysis tooling and workload generators used by the
benchmark harness.

The supported entry point is the :mod:`repro.api` facade, re-exported here:
``repro.connect(database)`` (or ``repro.Session``) opens a session over named
relations, ``session.prepare(query)`` parses/validates/compiles once, and the
returned ``PreparedQuery`` executes on the streaming engine behind one
``QueryResult`` / ``EvaluationTrace`` shape — see ``docs/API.md``.  The
materialising evaluators (``repro.expressions.evaluate``,
``InstrumentedEvaluator``, ``OptimizedEvaluator``) are library code that
callers run directly.

Subpackages
-----------
``repro.api``
    The unified Session / PreparedQuery facade over the streaming engine.
``repro.algebra``
    Relational model: schemes, tuples, relations, databases, operations.
``repro.expressions``
    Projection-join expression AST, parser, evaluators, optimiser.
``repro.engine``
    Streaming query-execution engine: statistics catalog, physical
    operators, cost-based planner, ``EngineEvaluator``.
``repro.obs``
    Observability: span tracing, the metrics registry (histograms /
    gauges / counters), the structured event log, and the JSONL /
    Prometheus exporters behind ``BackendConfig(observe=...)``.
``repro.server``
    The networked serving tier: an asyncio HTTP front with admission
    control and a cross-session memory-budget scheduler, dispatching to
    worker processes holding warm sessions (``repro serve``,
    ``docs/SERVER.md``).
``repro.tableaux``
    Tableaux, homomorphisms, conjunctive-query containment (Proposition 2).
``repro.sat``
    CNF formulas, DPLL solving, model counting, generators.
``repro.qbf``
    Q-3SAT (∀∃) instances and evaluators (Theorems 4-5).
``repro.reductions``
    The paper's constructions: R_G, φ_G, Theorems 1-5 reductions.
``repro.decision``
    Decision procedures and certificate verifiers for the studied problems.
``repro.complexity``
    Problem/reduction framework and complexity-class registry.
``repro.analysis``
    Instrumentation and intermediate-result blow-up analysis.
``repro.workloads``
    Benchmark workload generators, including the paper's worked example.
"""

__version__ = "12.2.0"

from .api import (
    BackendConfig,
    EvaluationTrace,
    ObserveConfig,
    PreparedQuery,
    QueryResult,
    Session,
    SessionClosedError,
    SessionError,
    connect,
)

__all__ = [
    "__version__",
    "BackendConfig",
    "ObserveConfig",
    "Session",
    "connect",
    "PreparedQuery",
    "QueryResult",
    "EvaluationTrace",
    "SessionError",
    "SessionClosedError",
]
