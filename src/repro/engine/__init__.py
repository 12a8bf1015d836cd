"""Streaming query-execution engine: statistics, physical operators, planner.

The engine is the production-facing execution layer on top of the positional
algebra kernel (PR 1):

``repro.engine.stats``
    Per-relation statistics catalog (cardinality, per-column distinct counts
    and bounds), cached on :meth:`repro.algebra.relation.Relation.stats`.
``repro.engine.physical``
    Iterator/generator physical operators — table scan, streaming
    projection with dedup, hash join
    with stats-chosen build side (budget-aware Grace-hash spilling to disk
    partitions when configured) — that stream blocks of raw positional rows
    without materialising intermediates, metering the rows resident in
    engine state against an optional :class:`MemoryBudget` — and the one
    drain that runs a tree into a result set.
``repro.engine.spill``
    The one way rows get to disk and back: :class:`SpillFile` (retried,
    fault-aware, read-back-checked frame I/O) and ``PartitionedSpill`` (one
    execution's registered temp directory, fan-outs and salted routing),
    which the Grace join and the dedup seen-set are thin clients of.
``repro.engine.planner``
    A cost model lowering :mod:`repro.expressions.ast` trees into physical
    plans: beam-searched join ordering, build-side choice, budget-aware
    Grace lowering with partition-count estimates, with every compiled
    scheme-level artifact resolved at plan time.
``repro.engine.sampling``
    Sampling-based cardinality estimation for the joins the per-column
    formula gets wrong (composite keys, skewed keys): lazy reservoir
    samples over relation rows, sample-join size estimates with no
    cross-column independence assumption.
``repro.engine.faults``
    Deterministic fault injection: :class:`FaultPlan` schedules spill I/O
    failures; :class:`FaultInjector` fires them per evaluation.  Every
    operator either recovers (bounded spill retries) or raises a typed
    :class:`EngineFaultError` with full cleanup — never a silent wrong
    answer.
``repro.engine.evaluator``
    :class:`EngineEvaluator` — the streaming counterpart of
    :class:`~repro.expressions.optimizer.OptimizedEvaluator`, pinning one
    plan per expression and reporting ``peak_live_rows`` /
    ``peak_build_rows`` in its trace; ``budget=`` switches on the spill
    path.  Every execution runs in the calling process.

See ``docs/ENGINE.md`` for the operator contract and invariants.
"""

from .evaluator import EngineEvaluator
from .faults import EngineFaultError, FaultInjector, FaultPlan, InjectedFaultError
from .physical import (
    BLOCK_ROWS,
    GraceHashJoin,
    HashJoin,
    MemoryBudget,
    MemoryMeter,
    PhysicalOperator,
    SpillingSeenSet,
    StreamingProject,
    TableScan,
)
from .planner import PhysicalPlan, PlanNode, Planner, plan_expression
from .spill import SPILL_BLOCK_ROWS, SPILL_IO_RETRIES, SpillFile
from .sampling import Sample, q_error, reservoir_sample
from .stats import (
    ColumnStats,
    RelationStats,
    SampledRelationStats,
    estimate_join_cardinality,
    estimate_partition_count,
    join_estimate_provenance,
    join_stats,
    project_stats,
)

__all__ = [
    "EngineEvaluator",
    "EngineFaultError",
    "FaultInjector",
    "FaultPlan",
    "InjectedFaultError",
    "BLOCK_ROWS",
    "SPILL_BLOCK_ROWS",
    "SPILL_IO_RETRIES",
    "MemoryBudget",
    "MemoryMeter",
    "Sample",
    "SampledRelationStats",
    "SpillFile",
    "SpillingSeenSet",
    "PhysicalOperator",
    "TableScan",
    "StreamingProject",
    "HashJoin",
    "GraceHashJoin",
    "Planner",
    "PlanNode",
    "PhysicalPlan",
    "plan_expression",
    "ColumnStats",
    "RelationStats",
    "estimate_join_cardinality",
    "estimate_partition_count",
    "join_estimate_provenance",
    "join_stats",
    "project_stats",
    "q_error",
    "reservoir_sample",
]
