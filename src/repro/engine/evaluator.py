"""The streaming query evaluator: pinned plans, bounded live rows, budgets.

:class:`EngineEvaluator` sits alongside the materialising evaluators of
:mod:`repro.expressions` with the same ``evaluate(expression, arguments) ->
(relation, trace)`` contract, but it executes a cost-based *physical plan*
(:mod:`repro.engine.planner`) of streaming operators
(:mod:`repro.engine.physical`) instead of materialising every intermediate
relation.  On the paper's blow-up constructions this bounds peak memory by
the *inputs* (hash-table build sides, dedup sets) while the naive regime's
peak grows exponentially — the trace's ``peak_live_rows`` field makes the
difference measurable against the materialising evaluators'
``peak_intermediate_cardinality``.

One execution knob, ``budget`` (row count or
:class:`~repro.engine.physical.MemoryBudget`), caps the rows resident in
operator state.  Hash joins lower to
:class:`~repro.engine.physical.GraceHashJoin` nodes that spill their build
side to disk partitions when the meter would overflow, recursing on
oversized partitions — the output stays set-equal, the spill activity is
visible in ``trace.counters`` (``join_spills``, ``spill_rows``, ...), and
``trace.peak_build_rows`` reports the largest build table that was actually
resident.  Every execution is one drain of one operator tree in the calling
process.

Plans are **pinned per expression**: the first evaluation plans against the
bound relations' statistics catalog and stores the plan (with every compiled
join/projection artifact resolved) in a per-evaluator dictionary keyed by the
expression, so repeated evaluation neither re-plans nor touches the
process-global LRU plan caches.  Pinning is lock-guarded, so one evaluator
may be shared by concurrent threads (each evaluation still gets its own
meter and operator tree).  Call :meth:`EngineEvaluator.clear_plans` (or use
a fresh evaluator) after the data distribution shifts enough that a replan
is worth it; a pinned plan stays *correct* for any conforming database
either way.
"""

from __future__ import annotations

import threading
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

from ..algebra.relation import Relation
from ..expressions.ast import Expression
from ..expressions.evaluator import (
    ArgumentLike,
    EvaluationTrace,
    TraceStep,
    bind_arguments,
)
from ..perf.counters import counter_delta, counter_values, kernel_counters
from .faults import FaultInjector, FaultPlan
from ..obs.config import Observer, ObserveConfig
from ..obs.metrics import DEFAULT_QERROR_BUCKETS
from .physical import (
    GraceHashJoin,
    MemoryBudget,
    MemoryMeter,
    PhysicalOperator,
    StreamingProject,
    drain_metered,
)
from .planner import PhysicalPlan, Planner
from .sampling import q_error

__all__ = ["Binding", "EngineEvaluator"]

_COUNTERS = kernel_counters()

_NODE_KINDS = {
    "TableScan": "operand",
    "StreamingProject": "projection",
    "HashJoin": "join",
    "GraceHashJoin": "join",
}

_build_peak = attrgetter("build_peak_rows")


class Binding:
    """An expression's operands bound to relations, validated once by
    :meth:`EngineEvaluator.bind` (a prepared query pins one), with what
    every execution over them reads: ``shape``, what an operator tree
    varies with beyond its plan (each operand's presented column order: a
    reordered one adds a realignment over its scan), and ``input_rows``."""

    __slots__ = ("relations", "shape", "input_rows")

    def __init__(self, relations: Dict[str, Relation]):
        self.relations = relations
        self.shape = tuple(
            sorted((name, relation.scheme.names) for name, relation in relations.items())
        )
        self.input_rows = sum(len(relation) for relation in relations.values())


def _live_label(operator: PhysicalOperator) -> bool:
    """Whether ``operator``'s label says how its execution went: a Grace
    join's reports the spill mode, and a projection's embeds its child's."""
    if isinstance(operator, StreamingProject):
        operator = operator.children()[0]
    return isinstance(operator, GraceHashJoin)


class EngineEvaluator:
    """Evaluate projection-join expressions on the streaming engine."""

    def __init__(
        self,
        budget: "MemoryBudget | int | None" = None,
        faults: Optional[FaultPlan] = None,
        observe: "Observer | ObserveConfig | bool | None" = None,
    ):
        """Create an evaluator.

        A row ``budget`` triggers Grace-hash spilling.

        ``faults`` is an optional
        :class:`~repro.engine.faults.FaultPlan`: each evaluation then runs
        with a fresh deterministic
        :class:`~repro.engine.faults.FaultInjector` that fails spill I/O at
        the scheduled points — the chaos harness for the engine's recovery
        contracts.

        ``observe`` (an :class:`~repro.obs.ObserveConfig`, an existing
        :class:`~repro.obs.Observer`, or ``True``) attaches the
        observability layer: span tracing per evaluation (surfaced on
        the trace's ``spans``), a structured event log of every spill and
        injected fault, and a metrics registry.
        Tracing is pay-for-what-you-use — with ``observe=None`` (the
        default) or ``trace=False`` the hot path sees no tracer at all.
        """
        self.budget = MemoryBudget.coerce(budget)
        self._budget_rows = self.budget.rows if self.budget is not None else None
        if faults is not None and not isinstance(faults, FaultPlan):
            raise TypeError(f"faults must be a FaultPlan or None, got {faults!r}")
        self.faults = faults
        self.observer = Observer.coerce(observe)
        self._planner = Planner(self.budget)
        self._plans: Dict[Expression, PhysicalPlan] = {}
        self._plans_lock = threading.Lock()

    def close(self) -> None:
        """Nothing to release: kept because the benchmark ladder still calls
        it (ROADMAP 1(d) removes it with the ladder's probe rung)."""

    def plan_for(self, expression: Expression, arguments: ArgumentLike) -> PhysicalPlan:
        """Return the (pinned) physical plan for ``expression``.

        The plan is built on first use from the bound relations' own cached
        :meth:`~repro.algebra.relation.Relation.stats` — exact counts, plus
        the handle of a row sample that is drawn, once per relation, only if
        the planner meets a join the formula gets wrong (a replaced relation
        is a new object with fresh counts and an undrawn handle:
        construction is invalidation) — and reused verbatim afterwards.
        Pinning is race-free: concurrent first calls may both compute a
        candidate, but exactly one is stored and returned to everyone.
        """
        plan = self._plans.get(expression)
        if plan is not None:
            return plan
        bound = bind_arguments(expression, arguments)
        stats = {name: relation.stats() for name, relation in bound.items()}
        with self._plans_lock:
            plan = self._plans.get(expression)
            if plan is None:
                plan = self._plans[expression] = self._planner.plan(expression, stats)
        return plan

    def pinned_plan(self, expression: Expression) -> Optional[PhysicalPlan]:
        """The currently pinned plan for ``expression``, if any (no build).

        Unlike :meth:`plan_for` this never plans — it is the introspection
        hook (``engine-explain``) for seeing exactly what the next execution
        would reuse.
        """
        with self._plans_lock:
            return self._plans.get(expression)

    def clear_plans(self) -> None:
        """Drop every pinned plan (e.g. after a data-distribution shift)."""
        with self._plans_lock:
            self._plans.clear()

    def forget_plan(self, expression: Expression) -> None:
        """Drop one expression's pinned plan so its next use re-plans.

        The serving facade calls this when a relation the expression reads
        is replaced: the fresh relation carries a fresh statistics catalog
        (construction is invalidation), so the next :meth:`plan_for` plans
        against the new distribution.
        """
        with self._plans_lock:
            self._plans.pop(expression, None)

    def bind(self, expression: Expression, arguments: ArgumentLike) -> Binding:
        """Validate ``arguments`` against ``expression``'s operands, once."""
        return Binding(bind_arguments(expression, arguments))

    def evaluate(
        self,
        expression: Expression,
        arguments: ArgumentLike,
        tracer: Optional[object] = None,
    ) -> Tuple[Relation, EvaluationTrace]:
        """Evaluate and return ``(result, trace)``: :meth:`bind`, then :meth:`run`.

        The trace's ``steps`` record each physical operator's *streamed*
        output cardinality (nothing was materialised); ``peak_live_rows``
        reports the high-water mark of rows resident in engine state, and
        ``peak_build_rows`` the largest single hash-join build table.

        ``tracer`` optionally forces span tracing for this one call (the
        ``explain_analyze`` path); by default a tracer is minted per
        evaluation only when the evaluator was built with an ``observe``
        config that enables tracing.  When a tracer runs, the finished
        span tree is surfaced on the trace's ``spans``.
        """
        return self.run(expression, self.bind(expression, arguments), tracer)

    def run(
        self,
        expression: Expression,
        binding: Binding,
        tracer: Optional[object] = None,
    ) -> Tuple[Relation, EvaluationTrace]:
        """The one run path: look the pinned plan up, instantiate and drain
        it over a validated ``binding`` (:meth:`evaluate` binds first; a
        prepared query passes the one it pinned)."""
        observer = self.observer
        events = None
        if observer is not None:
            events = observer.events
            if tracer is None:
                tracer = observer.tracer()
        if tracer is None or not tracer.enabled:
            plan = self.plan_for(expression, binding.relations)
            return self._execute(plan, binding, None, events)
        with tracer.span("execute", "evaluate"):
            with tracer.span("plan", "plan_for"):
                plan = self.plan_for(expression, binding.relations)
            result, trace = self._execute(plan, binding, tracer, events)
        trace.spans = tracer.finish()
        return result, trace

    def _execute(
        self,
        plan: PhysicalPlan,
        binding: Binding,
        tracer: Optional[object],
        events: Optional[object],
    ) -> Tuple[Relation, EvaluationTrace]:
        trace = EvaluationTrace(backend="engine")
        trace.input_cardinality = binding.input_rows
        before = counter_values(_COUNTERS)

        faults = self.faults
        injector = (
            FaultInjector(faults, events=events)
            if faults is not None and faults.injects_anything
            else None
        )
        meter = MemoryMeter(
            self._budget_rows, faults=injector, tracer=tracer, events=events
        )
        operators: List[PhysicalOperator] = []
        root = plan.executor(binding.relations, meter, operators)
        rows = drain_metered(root, meter, span=True)
        result = Relation._from_trusted(root.scheme, frozenset(rows))
        self._record_steps(plan, binding, operators, trace)
        trace.peak_live_rows = meter.peak
        trace.peak_build_rows = max(map(_build_peak, operators))

        trace.counters = counter_delta(before)
        trace.result_cardinality = len(rows)
        observer = self.observer
        if observer is not None:
            self._observe_q_errors(observer.metrics, operators)
        return result, trace

    @staticmethod
    def _observe_q_errors(metrics, operators: List[PhysicalOperator]) -> None:
        """Feed per-operator estimate q-errors into the observer's histogram
        (per-window p50/p95 of the planner's accuracy)."""
        histogram = metrics.histogram(
            "repro_qerror",
            DEFAULT_QERROR_BUCKETS,
            help="per-operator cardinality estimate q-error",
        )
        for operator in operators:
            histogram.observe(q_error(operator.est_rows, operator.rows_out))

    @staticmethod
    def _record_steps(
        plan: PhysicalPlan,
        binding: Binding,
        operators: List[PhysicalOperator],
        trace: EvaluationTrace,
    ) -> None:
        """Record per-operator streamed cardinalities, children first.

        Labels, kinds and widths are fixed by the plan and the tree's shape
        (see :class:`Binding`), so the first execution caches them on the
        plan; only a label that reports how the run went — a Grace join's,
        and a projection's that embeds one — is read live.
        """
        meta = plan.step_meta.get(binding.shape)
        if meta is None:
            meta = plan.step_meta[binding.shape] = [
                (
                    None if _live_label(operator) else operator.label(),
                    _NODE_KINDS.get(type(operator).__name__, "operator"),
                    len(operator.scheme),
                )
                for operator in operators
            ]
        steps = trace.steps
        for operator, (label, node_kind, width) in zip(operators, meta):
            rows_out = operator.rows_out
            steps.append(
                # description, node_kind, cardinality, scheme_width, cell_count
                TraceStep(
                    operator.label() if label is None else label,
                    node_kind,
                    rows_out,
                    width,
                    rows_out * width,
                )
            )
