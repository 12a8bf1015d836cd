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

Two execution knobs:

* ``budget`` (row count or :class:`~repro.engine.physical.MemoryBudget`)
  caps the rows resident in engine state.  Hash joins lower to
  :class:`~repro.engine.physical.GraceHashJoin` nodes that spill their
  build side to disk partitions when the meter would overflow, recursing on
  oversized partitions — the output stays set-equal, the spill activity is
  visible in ``trace.counters`` (``join_spills``, ``spill_rows``,
  ...), and ``trace.peak_build_rows`` reports the largest build table that
  was actually resident.
* ``workers`` partitions the plan's driving probe scan across a worker
  pool (:mod:`repro.engine.parallel`), executing one pinned plan
  concurrently.  The merged output is set-equal to serial execution; if
  the pool cannot deliver (unpicklable rows, a dead worker, a failed fork)
  the evaluator rebuilds the pool once (``pool_recoveries``), and beyond
  that evaluation falls back to serial — always correct, and never silent:
  the fallback is counted (``serial_fallbacks``), warned
  (``RuntimeWarning``), and recorded on the trace's ``degradations``.  A
  platform without :func:`os.fork` runs every plan serially, uncounted,
  the way a plan too small to slice does.

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
import warnings
from collections import OrderedDict
from operator import attrgetter
from typing import Dict, List, Mapping, Optional, Tuple

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
from ..obs.tracer import NULL_TRACER
from . import parallel
from .parallel import (
    ForkProbePool,
    ParallelExecutionError,
    ParallelResult,
    drain_metered,
)
from .physical import (
    GraceHashJoin,
    MemoryBudget,
    MemoryMeter,
    PhysicalOperator,
    StreamingProject,
)
from .planner import PhysicalPlan, Planner
from .sampling import q_error

__all__ = ["Binding", "EngineEvaluator"]

_COUNTERS = kernel_counters()

_NODE_KINDS = {
    "TableScan": "operand",
    "PartitionedScan": "operand",
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
        workers: int = 1,
        max_pools: int = 1,
        faults: Optional[FaultPlan] = None,
        observe: "Observer | ObserveConfig | bool | None" = None,
    ):
        """Create an evaluator.

        A row ``budget`` triggers Grace-hash spilling; a ``workers`` count
        > 1 enables the parallel probe stage.
        ``max_pools`` caps the persistent fork-probe pools kept warm at
        once (one per bound plan, LRU-evicted beyond the cap) — a serving
        session raises it so mixed query traffic does not thrash re-forks.

        ``faults`` is an optional
        :class:`~repro.engine.faults.FaultPlan`: each evaluation then runs
        with a fresh deterministic
        :class:`~repro.engine.faults.FaultInjector` that fails spill I/O or
        kills parallel workers at the scheduled points — the chaos harness
        for the engine's recovery contracts.

        ``observe`` (an :class:`~repro.obs.ObserveConfig`, an existing
        :class:`~repro.obs.Observer`, or ``True``) attaches the
        observability layer: span tracing per evaluation (surfaced on
        the trace's ``spans``), a structured event log of every spill /
        degradation / injected fault, and a metrics registry.
        Tracing is pay-for-what-you-use — with ``observe=None`` (the
        default) or ``trace=False`` the hot path sees no tracer at all.
        """
        self.budget = MemoryBudget.coerce(budget)
        self._budget_rows = self.budget.rows if self.budget is not None else None
        self.workers = max(int(workers), 1)
        if faults is not None and not isinstance(faults, FaultPlan):
            raise TypeError(f"faults must be a FaultPlan or None, got {faults!r}")
        self.faults = faults
        self.observer = Observer.coerce(observe)
        self._planner = Planner(self.budget)
        self._plans: Dict[Expression, PhysicalPlan] = {}
        self._plans_lock = threading.Lock()
        # Persistent fork pools, one per bound plan, LRU-capped: forking is
        # the parallel stage's fixed cost, so repeated evaluation of a bound
        # plan — the serving steady state — forks once and re-runs its
        # pool.  Keys carry object ids, but every entry keeps strong
        # references to the keyed plan and relations, so a live key's ids
        # cannot be recycled under us.
        self._pools: "OrderedDict[tuple, tuple]" = OrderedDict()
        self._max_pools = max(int(max_pools), 1)
        self._pool_lock = threading.Lock()
        self._closed = False

    def close(self) -> None:
        """Shut down every persistent worker pool, for good.  Idempotent.

        An evaluation that reaches the fork stage afterwards still
        completes, on a pool of its own that it closes itself: nothing is
        cached once nobody is left to close it.
        """
        with self._pool_lock:
            self._closed = True
            pools = list(self._pools.values())
            self._pools.clear()
        for entry in pools:
            entry[-1].close()

    @property
    def open_pools(self) -> int:
        """How many persistent fork-probe pools are currently warm."""
        with self._pool_lock:
            return len(self._pools)

    def __del__(self):  # pragma: no cover - interpreter-dependent timing
        try:
            self.close()
        except Exception:
            pass

    @staticmethod
    def _pool_key(
        plan: PhysicalPlan,
        bound: Mapping[str, Relation],
        workers: int,
        budget_rows: Optional[int],
    ) -> tuple:
        """The identity of one *bound* plan: plan object + exact relations.

        Identity (not equality) is deliberate: relations are immutable, so
        the same objects mean a pool's forked children hold inherited copies
        that are still the truth; any rebinding — even to an equal relation
        — must fork a fresh pool.  Entries keep strong references to the
        keyed objects, so a live key's ids cannot be recycled.
        """
        return (
            id(plan),
            workers,
            budget_rows,
            tuple(sorted((name, id(relation)) for name, relation in bound.items())),
        )

    def _pool_for(
        self,
        plan: PhysicalPlan,
        bound: Mapping[str, Relation],
        workers: int,
        budget_rows: Optional[int],
        faults: Optional[FaultPlan] = None,
    ) -> ForkProbePool:
        """The cached pool for this exact bound plan, forked on first use.

        Pools are keyed per bound plan (see :meth:`_pool_key`) and kept in
        LRU order with at most ``max_pools`` warm: serving mixed query
        traffic keeps each query's pool alive between its executions, while
        plan churn beyond the cap closes the coldest pool instead of leaking
        its forked children.  ``faults`` is only threaded into a *freshly*
        forked pool (a cached pool keeps the injection state it was born
        with — rebuilding after an injected death must not re-inject).
        """
        key = self._pool_key(plan, bound, workers, budget_rows)
        entry = self._pools.get(key)
        if entry is not None:
            self._pools.move_to_end(key)
            return entry[-1]
        pool = ForkProbePool(plan, dict(bound), workers, budget_rows, faults=faults)
        if self._closed:
            return pool  # the caller's to close: see close()
        self._pools[key] = (plan, tuple(bound.items()), workers, budget_rows, pool)
        while len(self._pools) > self._max_pools:
            _, evicted = self._pools.popitem(last=False)
            evicted[-1].close()
        return pool

    def _drop_pool(
        self,
        plan: PhysicalPlan,
        bound: Mapping[str, Relation],
        workers: int,
        budget_rows: Optional[int],
    ) -> None:
        """Close and forget the pool for one bound plan (after a failure)."""
        key = self._pool_key(plan, bound, workers, budget_rows)
        entry = self._pools.pop(key, None)
        if entry is not None:
            entry[-1].close()

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
        against the new distribution.  Warm pools keyed by the dropped plan
        are closed eagerly — their keys could never be hit again, so left
        in the LRU they would strand forked children (and a full copy of
        the replaced relations) until enough *other* plans churned them
        out.
        """
        with self._plans_lock:
            plan = self._plans.pop(expression, None)
        if plan is not None:
            self._evict_pools_for(plan)

    def _evict_pools_for(self, plan: PhysicalPlan) -> None:
        """Close and drop every warm pool keyed by one (dropped) plan."""
        with self._pool_lock:
            stale = [
                key for key, entry in self._pools.items() if entry[0] is plan
            ]
            evicted = [self._pools.pop(key) for key in stale]
        for entry in evicted:
            entry[-1].close()

    def _effective_workers(
        self, plan: PhysicalPlan, bound: Mapping[str, Relation]
    ) -> int:
        """Degrade the configured parallelism for plans it cannot help.

        Parallelism slices the driving probe scan, so it needs one, with at
        least one row per worker — tiny inputs run serial rather than paying
        the pool spin-up for empty slices — and a platform that can fork.
        """
        workers = self.workers
        if workers <= 1 or not parallel.fork_available():
            return 1
        name = plan.driving_scan_name()
        if name is None:
            return 1
        if len(bound[name]) < workers:
            return 1
        return workers

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
        output cardinality (nothing was materialised; under parallel
        execution they are summed across workers); ``peak_live_rows``
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

        budget_rows = self._budget_rows
        faults = self.faults
        injector = (
            FaultInjector(faults, events=events)
            if faults is not None and faults.injects_anything
            else None
        )
        meter = MemoryMeter(
            budget_rows, faults=injector, tracer=tracer, events=events
        )
        pooled = operators = None
        if self.workers > 1:
            workers = self._effective_workers(plan, binding.relations)
            if workers > 1:
                with (tracer or NULL_TRACER).span("parallel", "fork"):
                    pooled = self._run_pool(
                        plan, binding, workers, budget_rows, events, trace
                    )

        if pooled is not None:
            rows = pooled.rows
            result = Relation._from_trusted(plan.root.scheme, frozenset(rows))
            self._record_parallel_steps(plan, binding, pooled, trace)
            # Workers metered their result accumulation themselves (see
            # parallel.drain_metered), so their peaks are comparable with the
            # serial path's state+result accounting.
            trace.peak_live_rows = pooled.peak_live_rows
            trace.peak_build_rows = pooled.build_peak_rows
        else:
            operators = []
            root = plan.executor(binding.relations, meter, None, operators)
            rows = drain_metered(root, meter, span=True)
            result = Relation._from_trusted(root.scheme, frozenset(rows))
            self._record_serial_steps(plan, binding, operators, trace)
            trace.peak_live_rows = meter.peak
            trace.peak_build_rows = max(map(_build_peak, operators))

        trace.counters = counter_delta(before)
        trace.result_cardinality = len(rows)
        observer = self.observer
        if observer is not None and operators is not None:
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

    def _run_pool(
        self,
        plan: PhysicalPlan,
        binding: Binding,
        workers: int,
        budget_rows: Optional[int],
        events: Optional[object],
        trace: EvaluationTrace,
    ) -> Optional[ParallelResult]:
        """Run the parallel probe stage, recovering or degrading *loudly*.

        Returns the merged result, or ``None`` when the caller must run
        serially.  A failed pool is dropped and rebuilt exactly once — a
        worker death is usually a process-level accident (OOM kill, injected
        fault), and a fresh fork of the same pinned plan recovers it
        (``pool_recoveries``).  If the rebuilt pool fails too, execution
        degrades to serial — always correct, but never silent: the
        ``serial_fallbacks`` counter records it, a ``RuntimeWarning`` names
        the exception, and the trace carries a degradation event that
        ``Session.stats()`` surfaces too.  The workers meter themselves, so
        the caller's meter is untouched and its serial run can still use it.
        """
        bound = binding.relations
        rebuilt = False
        while True:
            try:
                # Serialised on the pool lock: each pool is one pinned set of
                # workers, not a queue (concurrent evaluations take turns).
                with self._pool_lock:
                    pool = self._pool_for(
                        plan,
                        bound,
                        workers,
                        budget_rows,
                        # A rebuilt pool must not re-inject the worker kill
                        # that just destroyed its predecessor.
                        faults=None if rebuilt else self.faults,
                    )
                    try:
                        result = pool.run()
                    finally:
                        if self._closed:
                            pool.close()
                if rebuilt:
                    _COUNTERS.add(pool_recoveries=1)
                return result
            except (ParallelExecutionError, OSError) as error:
                # OSError covers fork itself failing (EAGAIN/ENOMEM under
                # pressure — exactly the regime a budgeted engine targets).
                with self._pool_lock:
                    self._drop_pool(plan, bound, workers, budget_rows)
                if not rebuilt:
                    rebuilt = True
                    if events is not None:
                        events.emit(
                            "pool-rebuild",
                            backend="fork",
                            error=f"{type(error).__name__}: {error}",
                        )
                    continue
                _COUNTERS.add(serial_fallbacks=1)
                reason = f"{type(error).__name__}: {error}"
                trace.serial_fallbacks += 1
                trace.degradations.append(f"serial-fallback: {reason}")
                if events is not None:
                    events.emit("serial-fallback", backend="fork", reason=reason)
                warnings.warn(
                    f"parallel execution degraded to serial ({reason})",
                    RuntimeWarning,
                    stacklevel=4,
                )
                return None

    @staticmethod
    def _record_serial_steps(
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

    @staticmethod
    def _record_parallel_steps(
        plan: PhysicalPlan,
        binding: Binding,
        parallel,
        trace: EvaluationTrace,
    ) -> None:
        """Record per-operator cardinalities against a template tree.

        Every worker instantiates the same plan, so the trees are identical
        in shape and traversal order; a never-executed template provides the
        labels while the workers' ``rows_out`` provide the counts.  Counts
        are combined **spine-aware**: operators on the sliced probe spine
        (the slice consumer and its ancestors) see partitioned data, so
        their per-worker counts sum to the true streamed total; every other
        operator (build-side subtrees, scans under the driving projection)
        re-streams identical full data in each worker and is reported once
        (the max).  Dedup operators on the spine can still count a row in
        two workers' streams — the documented set-equal caveat.

        The (label, kind, width, on-spine) tuples are invariant per plan
        shape, so they are computed once and cached on the plan — the
        steady-state serving path must not rebuild an operator tree per
        evaluation.
        """
        cache = plan.step_meta
        key = (parallel.workers, binding.shape)
        meta = cache.get(key)
        if meta is None:
            operators = []
            plan.executor(
                binding.relations, MemoryMeter(), (0, parallel.workers), operators
            )
            # The slice consumer and its ancestors see partitioned streams
            # (children come first, so a parent follows its child in); with
            # no consumer, every operator counts as sliced (sum everywhere).
            spine = set()
            for operator in operators:
                if operator.consumes_probe_slice or any(
                    id(child) in spine for child in operator.children()
                ):
                    spine.add(id(operator))
            spine = spine or {id(operator) for operator in operators}
            meta = [
                (
                    operator.label(),
                    _NODE_KINDS.get(type(operator).__name__, "operator"),
                    len(operator.scheme),
                    id(operator) in spine,
                )
                for operator in operators
            ]
            if len(meta) == len(parallel.step_rows):
                cache[key] = meta
        for position, (description, node_kind, width, on_spine) in enumerate(meta):
            per_worker = [steps[position] for steps in parallel.worker_step_rows]
            rows_out = sum(per_worker) if on_spine else max(per_worker, default=0)
            trace.record(
                TraceStep(
                    description=description,
                    node_kind=node_kind,
                    cardinality=rows_out,
                    scheme_width=width,
                    cell_count=rows_out * width,
                )
            )
