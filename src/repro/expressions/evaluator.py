"""Evaluation of projection-join expressions over databases.

One recursion, :func:`walk`, materialises every intermediate relation of an
expression.  Run as written (:func:`left_fold_join`) it is precisely the
regime the paper analyses: intermediate results can be exponentially larger
than both the input and the output.  :func:`evaluate` is that walk untraced;
:class:`InstrumentedEvaluator` is the same walk recording the size of every
intermediate relation in an :class:`EvaluationTrace`, so the blow-up
experiment (E9, ``benchmarks/results/E9.txt``) can report the peak; the optimiser
(:mod:`repro.expressions.optimizer`) swaps in a greedy join order.

Every entry point accepts either a :class:`~repro.algebra.database.Database` or a
plain mapping from operand name to relation; the common single-relation case
can also pass a bare relation, which is bound to every operand name whose
scheme it matches.

Every pairwise join inside an expression goes through the positional kernel's
plan cache (:mod:`repro.perf`), so the scheme-level work of an expression's
repeated sub-joins — key positions, output permutations, output schemes — is
compiled once and reused across all of its intermediates; the instrumented
evaluator reports the cache traffic in ``trace.counters``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

from ..algebra.database import Database
from ..algebra.relation import Relation
from ..perf.counters import kernel_counters
from .ast import Expression, ExpressionError, Join, Operand, Projection

__all__ = [
    "evaluate",
    "bind_arguments",
    "walk",
    "left_fold_join",
    "traced_walk",
    "EvaluationTrace",
    "InstrumentedEvaluator",
    "TraceStep",
]

ArgumentLike = Union[Relation, Mapping[str, Relation], Database]


def bind_arguments(expression: Expression, arguments: ArgumentLike) -> Dict[str, Relation]:
    """Resolve the operand relations an expression needs from ``arguments``.

    * A mapping / :class:`Database` must provide every operand name, with a
      matching scheme.
    * A bare :class:`Relation` is bound to every operand whose declared scheme
      equals the relation's scheme (the paper's single-relation databases).
    """
    schemes = expression.operand_schemes()
    bound: Dict[str, Relation] = {}
    if isinstance(arguments, Relation):
        for name, scheme in schemes.items():
            if arguments.scheme != scheme:
                raise ExpressionError(
                    f"single relation over {arguments.scheme} cannot serve operand "
                    f"{name!r} which requires scheme {scheme}"
                )
            bound[name] = arguments
        return bound

    mapping: Mapping[str, Relation]
    if isinstance(arguments, Database):
        mapping = arguments
    else:
        mapping = arguments
    for name, scheme in schemes.items():
        if name not in mapping:
            raise ExpressionError(f"no relation bound for operand {name!r}")
        relation = mapping[name]
        if relation.scheme != scheme:
            raise ExpressionError(
                f"operand {name!r} requires scheme {scheme}, "
                f"got a relation over {relation.scheme}"
            )
        bound[name] = relation
    return bound


def evaluate(expression: Expression, arguments: ArgumentLike) -> Relation:
    """Evaluate ``expression`` on ``arguments``, materialising intermediates naively."""
    return walk(expression, bind_arguments(expression, arguments), left_fold_join, None)


JoinParts = Callable[[List[Relation], Optional["EvaluationTrace"]], Relation]


def _record(
    trace: Optional[EvaluationTrace], description: str, node_kind: str, relation: Relation
) -> None:
    if trace is not None:
        trace.record(TraceStep.from_relation(description, node_kind, relation))


def left_fold_join(parts: List[Relation], trace: Optional[EvaluationTrace]) -> Relation:
    """Join ``parts`` left to right, exactly as the expression is written."""
    accumulated = parts[0]
    for index, part in enumerate(parts[1:], start=2):
        accumulated = accumulated.natural_join(part)
        _record(trace, f"join of first {index} operands", "join", accumulated)
    return accumulated


def walk(
    node: Expression,
    bound: Mapping[str, Relation],
    join_parts: JoinParts,
    trace: Optional[EvaluationTrace],
) -> Relation:
    """Materialise ``node`` bottom-up: the one recursion over the expression tree.

    ``join_parts(parts, trace)`` combines an n-ary join's materialised
    operands (:func:`left_fold_join`, or the optimiser's greedy order);
    ``trace=None`` records nothing.
    """
    if isinstance(node, Operand):
        relation = bound[node.name]
        _record(trace, f"operand {node.name}", "operand", relation)
        return relation
    if isinstance(node, Projection):
        projected = walk(node.child, bound, join_parts, trace).project(node.target)
        _record(trace, f"project[{', '.join(node.target.names)}]", "projection", projected)
        return projected
    if isinstance(node, Join):
        parts = [walk(part, bound, join_parts, trace) for part in node.parts]
        return join_parts(parts, trace)
    raise ExpressionError(f"unknown expression node {node!r}")


@dataclass
class TraceStep:
    """One materialised intermediate relation during evaluation."""

    description: str
    node_kind: str
    cardinality: int
    scheme_width: int
    cell_count: int

    @classmethod
    def from_relation(cls, description: str, node_kind: str, relation: Relation) -> "TraceStep":
        width = len(relation.scheme)
        return cls(
            description=description,
            node_kind=node_kind,
            cardinality=len(relation),
            scheme_width=width,
            cell_count=len(relation) * width,
        )


@dataclass
class EvaluationTrace:
    """The one description of an evaluation, identical in shape for every evaluator.

    ``steps`` are materialised intermediates for the materialising
    evaluators and per-operator *streamed* cardinalities for the engine
    (the engine materialises nothing).
    """

    steps: List[TraceStep] = field(default_factory=list)
    result_cardinality: int = 0
    input_cardinality: int = 0
    #: The evaluator that produced the trace (``instrumented`` /
    #: ``optimized`` / ``engine``), stamped by that evaluator.
    backend: str = ""
    #: Kernel counter deltas accumulated during the evaluation (plan cache
    #: hits/misses, trusted tuples built, join probes, spill activity).
    counters: Dict[str, int] = field(default_factory=dict)
    #: Peak number of rows simultaneously resident in engine state (hash
    #: tables, dedup sets, the result accumulator) — populated
    #: by the streaming :class:`~repro.engine.evaluator.EngineEvaluator`; the
    #: materialising evaluators leave it 0.  This is the streaming analogue
    #: of :attr:`peak_intermediate_cardinality` and deliberately a *stricter*
    #: accounting: it sums everything live at once rather than taking the
    #: largest single relation.
    peak_live_rows: int = 0
    #: Largest number of rows resident in any single hash-join build table
    #: during the evaluation — what a memory budget's Grace-hash spilling
    #: bounds (see ``docs/ENGINE.md``).  Populated by the engine evaluator;
    #: 0 elsewhere.
    peak_build_rows: int = 0
    #: Always 0: no evaluator re-plans mid-stream, and every execution runs
    #: in one process, so none falls back to another.  Kept only because the
    #: benchmark ladder still reads both as tripwires; nothing writes them.
    replans: int = 0
    serial_fallbacks: int = 0
    #: Execution spans recorded by a :class:`repro.obs.Tracer` when tracing
    #: was enabled for the evaluation (``ObserveConfig(trace=True)`` or
    #: ``explain_analyze()``); empty on untraced runs (the engine evaluator
    #: populates it, the materialising evaluators leave it empty).  Feed them
    #: to :func:`repro.obs.span_tree` / :func:`repro.obs.explain_report`.
    spans: List = field(default_factory=list)

    def record(self, step: TraceStep) -> None:
        """Append one step to the trace."""
        self.steps.append(step)

    @property
    def peak_intermediate_cardinality(self) -> int:
        """The largest number of tuples in any intermediate relation."""
        if not self.steps:
            return 0
        return max(step.cardinality for step in self.steps)

    @property
    def peak_memory_rows(self) -> int:
        """Rows resident at the worst moment, in the evaluator's own accounting.

        The streaming engine meters residency directly (``peak_live_rows``);
        the materialising evaluators' analogue is their largest materialised
        intermediate.  This is the one number the blow-up analyses compare
        across evaluators.

        The dispatch branches on :attr:`backend`, not on truthiness: an
        engine evaluation whose residency peak really was 0 (e.g. empty
        inputs) must report 0, not silently fall through to the streamed
        step cardinalities, which measure throughput rather than residency.
        """
        if self.backend == "engine":
            return self.peak_live_rows
        return self.peak_intermediate_cardinality

    @property
    def peak_intermediate_cells(self) -> int:
        """The largest tuple-count x width product of any intermediate relation."""
        if not self.steps:
            return 0
        return max(step.cell_count for step in self.steps)

    @property
    def total_intermediate_tuples(self) -> int:
        """Total tuples materialised across all steps (a proxy for total work)."""
        return sum(step.cardinality for step in self.steps)

    def blowup_versus_input(self) -> float:
        """Peak intermediate size relative to the input size."""
        if self.input_cardinality == 0:
            return float("inf") if self.peak_intermediate_cardinality else 0.0
        return self.peak_intermediate_cardinality / self.input_cardinality

    def blowup_versus_output(self) -> float:
        """Peak intermediate size relative to the final result size."""
        if self.result_cardinality == 0:
            return float("inf") if self.peak_intermediate_cardinality else 0.0
        return self.peak_intermediate_cardinality / self.result_cardinality

    def summary(self) -> Dict[str, float]:
        """A flat dictionary of the headline statistics (used by benchmarks)."""
        return {
            "steps": float(len(self.steps)),
            "input_cardinality": float(self.input_cardinality),
            "result_cardinality": float(self.result_cardinality),
            "peak_memory_rows": float(self.peak_memory_rows),
            "peak_intermediate_cardinality": float(self.peak_intermediate_cardinality),
            "peak_intermediate_cells": float(self.peak_intermediate_cells),
            "total_intermediate_tuples": float(self.total_intermediate_tuples),
            "blowup_vs_input": self.blowup_versus_input(),
            "blowup_vs_output": self.blowup_versus_output(),
            "peak_live_rows": float(self.peak_live_rows),
            "peak_build_rows": float(self.peak_build_rows),
        }


def traced_walk(
    backend: str,
    expression: Expression,
    arguments: ArgumentLike,
    join_parts: JoinParts,
    rewritten: Optional[Expression] = None,
) -> Tuple[Relation, EvaluationTrace]:
    """Bind, :func:`walk` (``rewritten`` if given), and trace every intermediate.

    The trace carries ``backend``, every step, the cardinalities and the
    kernel counter delta.
    """
    bound = bind_arguments(expression, arguments)
    trace = EvaluationTrace(backend=backend)
    trace.input_cardinality = sum(len(rel) for rel in bound.values())
    counters = kernel_counters()
    before = counters.snapshot()
    node = expression if rewritten is None else rewritten
    result = walk(node, bound, join_parts, trace)
    trace.counters = counters.delta_since(before)
    trace.result_cardinality = len(result)
    return result, trace


class InstrumentedEvaluator:
    """Naive evaluator that records every intermediate relation's size."""

    def evaluate(self, expression: Expression, arguments: ArgumentLike) -> Tuple[Relation, EvaluationTrace]:
        """Evaluate and return ``(result, trace)``."""
        return traced_walk("instrumented", expression, arguments, left_fold_join)
