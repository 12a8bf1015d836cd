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
  the pool cannot deliver (fork unavailable, unpicklable rows, a dead
  worker) the fork backend rebuilds the pool once (``pool_recoveries``),
  and beyond that evaluation falls back to serial — always correct, and
  never silent: the fallback is counted (``serial_fallbacks``), warned
  (``RuntimeWarning``), and recorded on the trace's ``degradations``.

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
from dataclasses import replace
from typing import Dict, List, Mapping, Optional, Set, Tuple

from ..algebra.relation import Relation
from ..algebra.tuples import _project_plan
from ..expressions.ast import Expression
from ..expressions.evaluator import (
    ArgumentLike,
    EvaluationTrace,
    TraceStep,
    bind_arguments,
)
from ..perf.counters import kernel_counters
from .faults import FaultInjector, FaultPlan
from ..obs.config import Observer, ObserveConfig
from ..obs.metrics import DEFAULT_QERROR_BUCKETS
from ..obs.tracer import NULL_TRACER
from .parallel import (
    ForkProbePool,
    ParallelExecutionError,
    default_backend,
    drain_metered,
    execute_parallel,
    operators_in_order,
)
from .physical import (
    AdaptiveGuard,
    HashJoin,
    MemoryBudget,
    MemoryMeter,
    PhysicalOperator,
    ReplanTriggered,
    SpilledCheckpoint,
    TableScan,
)
from .planner import PhysicalPlan, PlanNode, Planner, fold_projection
from .planstore import LedgerBackedStats, PlanStore
from .sampling import AdaptiveConfig, q_error, sampled_stats
from .stats import join_stats, project_stats

__all__ = ["EngineEvaluator"]

_NODE_KINDS = {
    "TableScan": "operand",
    "PartitionedScan": "operand",
    "StreamingProject": "projection",
    "HashJoin": "join",
    "GraceHashJoin": "join",
    "AdaptiveGuard": "guard",
}

#: How a pinned plan gets replaced, by plan-history kind:
#: (PlanStore field, kernel counter, event, metric, metric help).
_PIN_SWAPS = {
    "repin": (
        "repins", "plan_repins", "plan_repin", "repro_plan_repins_total",
        "pinned plans rewritten with a corrected join order",
    ),
    "drift_replan": (
        "drift_replans", "drift_replans", "drift_replan", "repro_drift_replans_total",
        "pinned plans proactively re-planned on ledger drift",
    ),
}


class EngineEvaluator:
    """Evaluate projection-join expressions on the streaming engine."""

    def __init__(
        self,
        budget: "MemoryBudget | int | None" = None,
        workers: int = 1,
        parallel_backend: Optional[str] = None,
        max_pools: int = 1,
        adaptive: "AdaptiveConfig | bool | None" = None,
        faults: Optional[FaultPlan] = None,
        observe: "Observer | ObserveConfig | bool | None" = None,
        planstore: "PlanStore | bool | None" = None,
    ):
        """Create an evaluator.

        A row ``budget`` triggers Grace-hash spilling; a ``workers`` count
        > 1 enables the parallel probe stage.
        ``parallel_backend`` forces ``"fork"`` or ``"thread"`` (default:
        fork where available).
        ``max_pools`` caps the persistent fork-probe pools kept warm at
        once (one per bound plan, LRU-evicted beyond the cap) — a serving
        session raises it so mixed query traffic does not thrash re-forks.

        ``adaptive`` (``True`` or an
        :class:`~repro.engine.sampling.AdaptiveConfig`) measures *every*
        estimate on reservoir samples of the bound relations — the default
        planner already measures composite join keys; this adds
        single-column keys and projections, on freshly drawn samples of a
        configurable size — plus **mid-stream re-planning**: serial executions
        run with :class:`~repro.engine.physical.AdaptiveGuard` operators on
        the join chain, and an observed cardinality exceeding its estimate
        by ``replan_factor`` checkpoints the accumulated intermediate,
        re-costs the remaining join order against the observed sizes, and
        resumes on the revised plan (``trace.replans`` counts it).
        Parallel executions use the sampled-statistics plan but never
        re-plan mid-stream (the pool pins one plan per fork).

        ``faults`` is an optional
        :class:`~repro.engine.faults.FaultPlan`: each evaluation then runs
        with a fresh deterministic
        :class:`~repro.engine.faults.FaultInjector` that fails spill I/O,
        kills parallel workers, or forces checkpoint-cap pressure at the
        scheduled points — the chaos harness for the engine's recovery
        contracts.

        ``observe`` (an :class:`~repro.obs.ObserveConfig`, an existing
        :class:`~repro.obs.Observer`, or ``True``) attaches the
        observability layer: span tracing per evaluation (surfaced on
        the trace's ``spans``), a structured event log of every spill /
        re-plan / degradation / injected fault, and a metrics registry.
        Tracing is pay-for-what-you-use — with ``observe=None`` (the
        default) or ``trace=False`` the hot path sees no tracer at all.

        ``planstore`` (``True``, a
        :class:`~repro.engine.planstore.PlanStoreConfig`, or an existing
        :class:`~repro.engine.planstore.PlanStore`) attaches the
        plan-management layer: warm reservoir samples per relation
        identity (plan builds over unchanged relations stop re-sampling),
        an observed-cardinality ledger harvested after every serial
        execution and consulted by plan costing before any estimator, a
        re-pin of the revised join order after a successful mid-stream
        re-plan (``plan_repin``), and a pre-execution drift check that
        proactively re-plans when the ledger's accumulated q-errors
        against a pinned plan's estimates cross the configured threshold
        (``drift_replan``).
        """
        self.budget = MemoryBudget.coerce(budget)
        self.workers = max(int(workers), 1)
        self.adaptive = AdaptiveConfig.coerce(adaptive)
        if faults is not None and not isinstance(faults, FaultPlan):
            raise TypeError(f"faults must be a FaultPlan or None, got {faults!r}")
        self.faults = faults
        self.observer = Observer.coerce(observe)
        self.planstore = PlanStore.coerce(planstore)
        self._planner = Planner(self.budget)
        self._plans: Dict[Expression, PhysicalPlan] = {}
        self._plans_lock = threading.Lock()
        self._parallel_backend = parallel_backend
        # Persistent fork pools, one per bound plan, LRU-capped: forking is
        # the fork backend's fixed cost, so repeated evaluation of a bound
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

        The plan is built from the bound relations' statistics on first use
        and reused verbatim afterwards.  Pinning is race-free: concurrent
        first calls may both compute a candidate, but exactly one is stored
        and returned to everyone.

        With a plan store attached, a pinned hit additionally passes the
        **drift check**: when the observed-cardinality ledger has moved
        past the plan's estimates by more than the configured q-error
        threshold, the plan is rebuilt against current (ledger-backed)
        statistics *before* execution rather than correcting mid-stream
        (``drift_replans``).  The check is O(1) in the steady state — a
        plan validated against ledger version N re-checks only when the
        ledger materially changes.
        """
        plan = self._plans.get(expression)
        if plan is not None:
            if self.planstore is not None:
                plan = self._drift_check(expression, plan, arguments)
            return plan
        bound = bind_arguments(expression, arguments)
        stats = self._catalog_for(bound)
        with self._plans_lock:
            plan = self._plans.get(expression)
            pinned = plan is None
            if pinned:
                plan = self._plans[expression] = self._planner.plan(expression, stats)
        if pinned and self.planstore is not None:
            plan._ledger_version = self.planstore.ledger.version
            self.planstore.record(expression, "pinned", plan.root.scan_order())
        return plan

    def _catalog_for(self, bound: Mapping[str, Relation]) -> Dict[str, object]:
        """One catalog entry per bound operand: exact, or sampled (adaptive).

        The default entry is the relation's own cached
        :meth:`~repro.algebra.relation.Relation.stats`: exact counts, plus
        the handle of a row sample that is drawn — once per relation — only
        if the planner meets a composite join key (a replaced relation is a
        new object with an undrawn handle: construction is invalidation).

        Adaptive mode samples the *current* relations every time a plan is
        built, so an invalidation replan (the serving facade's
        ``forget_plan``) re-samples the fresh relations rather than reusing
        estimates from data that no longer exists.  A plan store keeps that
        contract while eliding the re-sampling cost: samples are cached per
        relation *identity*, so an unchanged relation hits its warm sample
        (``sample_cache_hits``) and a rebound one — a new object — misses
        and re-samples.  Ledger-backed wrapping makes every entry consult
        the observed-cardinality ledger during plan costing.

        Either way the entries are planning scratch: the planner hands back
        nodes holding bare numbers (no sample, no ledger handle).
        """
        adaptive = self.adaptive
        store = self.planstore
        if adaptive is None:
            entries = {name: relation.stats() for name, relation in bound.items()}
        elif store is None:
            entries = {
                name: self._sample_entry(name, relation)
                for name, relation in bound.items()
            }
        else:
            entries = {
                name: store.sample_for(
                    name,
                    relation,
                    lambda name=name, relation=relation: self._sample_entry(
                        name, relation
                    ),
                )
                for name, relation in bound.items()
            }
        if store is None:
            return entries
        return {
            name: store.ledger_backed(entry, name)
            for name, entry in entries.items()
        }

    def _sample_entry(self, name: str, relation: Relation):
        """Build one sampled catalog entry under the adaptive config."""
        adaptive = self.adaptive
        return sampled_stats(
            relation,
            adaptive.sample_size,
            seed=adaptive.seed,
            name=name,
            join_cap=adaptive.sample_join_cap,
        )

    def pinned_plan(self, expression: Expression) -> Optional[PhysicalPlan]:
        """The currently pinned plan for ``expression``, if any (no build).

        Unlike :meth:`plan_for` this never plans and never drift-checks —
        it is the introspection hook (``PreparedQuery.explain``,
        ``engine-explain``) for seeing exactly what the next execution
        would reuse, including a re-pinned plan.
        """
        with self._plans_lock:
            return self._plans.get(expression)

    def clear_plans(self) -> None:
        """Drop every pinned plan (e.g. after a data-distribution shift)."""
        with self._plans_lock:
            self._plans.clear()

    def forget_plan(
        self, expression: Expression, forget_learned: bool = True
    ) -> None:
        """Drop one expression's pinned plan so its next use re-plans.

        The serving facade calls this when a relation the expression reads
        is replaced: the fresh relation carries a fresh statistics catalog
        (construction is invalidation), so the next :meth:`plan_for` plans
        against the new distribution.  Warm pools keyed by the dropped plan
        are closed eagerly — their keys could never be hit again, so left
        in the LRU they would strand forked children (and a full copy of
        the replaced relations) until enough *other* plans churned them
        out.

        A plan store forgets alongside: the expression's plan history
        records the drop, and with ``forget_learned`` (the default) the
        ledger observations over this plan's operand sets are invalidated
        too, so the next pin starts from fresh samples instead of learned
        truth.  The facade's *invalidation-replan* path passes
        ``forget_learned=False``: there the changed relation's learned
        state was already dropped — scoped — by
        :meth:`~repro.engine.planstore.PlanStore.invalidate_relation`, and
        wiping this plan's whole operand set would destroy observations
        over *unchanged* relations that other queries still rely on.
        """
        with self._plans_lock:
            plan = self._plans.pop(expression, None)
        if plan is None:
            return
        self._evict_pools_for(plan)
        if self.planstore is not None:
            names = (
                frozenset(self._scan_names(plan.root)) if forget_learned else None
            )
            self.planstore.forget_expression(expression, names)

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
        the pool spin-up for empty slices.
        """
        workers = self.workers
        if workers <= 1:
            return 1
        name = plan.driving_scan_name()
        if name is None:
            return 1
        if len(bound[name]) < workers:
            return 1
        return workers

    def evaluate(
        self,
        expression: Expression,
        arguments: ArgumentLike,
        tracer: Optional[object] = None,
    ) -> Tuple[Relation, EvaluationTrace]:
        """Evaluate and return ``(result, trace)``.

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
        observer = self.observer
        if tracer is None and observer is not None:
            tracer = observer.tracer()
        events = observer.events if observer is not None else None
        if tracer is None or not tracer.enabled:
            return self._evaluate(expression, arguments, None, events)
        with tracer.span("execute", "evaluate"):
            result, trace = self._evaluate(expression, arguments, tracer, events)
        trace.spans = tracer.finish()
        return result, trace

    def _evaluate(
        self,
        expression: Expression,
        arguments: ArgumentLike,
        tracer: Optional[object],
        events: Optional[object],
    ) -> Tuple[Relation, EvaluationTrace]:
        bound = bind_arguments(expression, arguments)
        spans = tracer or NULL_TRACER
        with spans.span("plan", "plan_for"):
            plan = self.plan_for(expression, bound)
        trace = EvaluationTrace(backend="engine")
        trace.input_cardinality = sum(len(relation) for relation in bound.values())
        counters = kernel_counters()
        before = counters.snapshot()

        budget = self.budget
        budget_rows = budget.rows if budget is not None else None
        faults = self.faults
        injector = (
            FaultInjector(faults, events=events)
            if faults is not None and faults.injects_anything
            else None
        )
        meter = MemoryMeter(
            budget_rows, faults=injector, tracer=tracer, events=events
        )
        workers = self._effective_workers(plan, bound)
        parallel = None
        root = None
        if workers > 1:
            backend = self._parallel_backend or default_backend()
            with spans.span("parallel", backend):
                parallel, meter = self._execute_parallel(
                    plan, bound, workers, budget_rows, backend, meter, injector,
                    trace, counters,
                )

        if parallel is not None:
            rows: Set[Tuple] = parallel.rows
            result = Relation._from_trusted(plan.root.scheme, frozenset(rows))
            self._record_parallel_steps(plan, bound, parallel, trace)
            # Workers metered their result accumulation themselves (see
            # parallel._drain), so their peaks are comparable with the
            # serial path's state+result accounting.
            trace.peak_live_rows = max(parallel.peak_live_rows, meter.peak)
            trace.peak_build_rows = parallel.build_peak_rows
        elif self.adaptive is not None:
            (
                rows,
                root,
                replans,
                aborted_build_peak,
                checkpoint_names,
            ) = self._adaptive_execute(plan, bound, meter)
            # A revised chain may present the same result scheme in a
            # different column order; the drained rows align with the final
            # attempt's root, not the pinned plan's.
            result = Relation._from_trusted(root.scheme, frozenset(rows))
            self._record_steps(root, trace)
            trace.replans = replans
            trace.peak_live_rows = meter.peak
            # Build tables of attempts aborted by a re-plan were just as
            # resident as the final attempt's.
            trace.peak_build_rows = max(
                aborted_build_peak,
                max(
                    operator.build_peak_rows
                    for operator in operators_in_order(root)
                ),
            )
            self._record_q_errors(root, counters)
            if self.planstore is not None:
                self._harvest(root, checkpoint_names)
                if replans and self.planstore.config.repin:
                    # The ledger now holds the true prefix and output
                    # cardinalities, so a re-plan reproduces the corrected
                    # join order: pin it and the steady state re-plans no more.
                    self._replace_pin(
                        expression, plan, bound, "repin",
                        f"after {replans} mid-stream re-plan(s)", replans=replans,
                    )
        else:
            root = plan.executor(bound, meter)
            rows = drain_metered(root, meter, span=True)
            result = Relation._from_trusted(root.scheme, frozenset(rows))
            self._record_steps(root, trace)
            trace.peak_live_rows = meter.peak
            trace.peak_build_rows = max(
                operator.build_peak_rows for operator in operators_in_order(root)
            )
            if self.planstore is not None:
                self._harvest(root, None)

        trace.counters = counters.delta_since(before)
        trace.result_cardinality = len(result)
        observer = self.observer
        if observer is not None and root is not None:
            self._observe_q_errors(observer.metrics, root)
        return result, trace

    @staticmethod
    def _observe_q_errors(metrics, root: PhysicalOperator) -> None:
        """Feed per-operator q-errors into the observer's histogram.

        The counter-based mean/max in :mod:`repro.perf.counters` stays the
        always-on cheap signal; this histogram adds per-window p50/p95
        when an observer is attached.
        """
        histogram = metrics.histogram(
            "repro_qerror",
            DEFAULT_QERROR_BUCKETS,
            help="per-operator cardinality estimate q-error",
        )
        for operator in operators_in_order(root):
            if isinstance(operator, AdaptiveGuard):
                continue
            histogram.observe(q_error(operator.est_rows, operator.rows_out))

    def _execute_parallel(
        self,
        plan: PhysicalPlan,
        bound: Mapping[str, Relation],
        workers: int,
        budget_rows: Optional[int],
        backend: str,
        meter: MemoryMeter,
        injector: Optional[FaultInjector],
        trace: EvaluationTrace,
        counters,
    ):
        """Run the parallel probe stage, recovering or degrading *loudly*.

        Returns ``(parallel_result_or_None, meter)``.  On the fork backend a
        failed pool is dropped and rebuilt exactly once — a worker death is
        usually a process-level accident (OOM kill, injected fault), and a
        fresh fork of the same pinned plan recovers it
        (``pool_recoveries``).  If the rebuilt pool fails too, or the thread
        backend fails at all, execution degrades to serial — always
        correct, but never silent: the ``serial_fallbacks`` counter records
        it, a ``RuntimeWarning`` names the exception, and the trace carries
        a degradation event that ``Session.stats()`` surfaces too.
        """
        rebuilt = False
        while True:
            try:
                if backend == "fork":
                    # Serialised on the pool lock: each pool is one pinned
                    # set of workers, not a queue (concurrent fork-backend
                    # evaluations take turns; the thread backend does not).
                    with self._pool_lock:
                        pool = self._pool_for(
                            plan,
                            bound,
                            workers,
                            budget_rows,
                            # A rebuilt pool must not re-inject the worker
                            # kill that just destroyed its predecessor.
                            faults=None if rebuilt else self.faults,
                        )
                        try:
                            result = pool.run()
                        finally:
                            if self._closed:
                                pool.close()
                else:
                    result = execute_parallel(
                        plan,
                        bound,
                        workers,
                        meter,
                        budget_rows=budget_rows,
                        backend=backend,
                        faults=None if rebuilt else self.faults,
                    )
                if rebuilt:
                    counters.add(pool_recoveries=1)
                return result, meter
            except (ParallelExecutionError, OSError) as error:
                # OSError covers fork itself failing (EAGAIN/ENOMEM under
                # pressure — exactly the regime a budgeted engine targets).
                if backend == "fork":
                    with self._pool_lock:
                        self._drop_pool(plan, bound, workers, budget_rows)
                    if not rebuilt:
                        rebuilt = True
                        if meter.events is not None:
                            meter.events.emit(
                                "pool-rebuild",
                                backend=backend,
                                error=f"{type(error).__name__}: {error}",
                            )
                        continue
                counters.add(serial_fallbacks=1)
                reason = f"{type(error).__name__}: {error}"
                trace.serial_fallbacks += 1
                trace.degradations.append(f"serial-fallback: {reason}")
                if meter.events is not None:
                    meter.events.emit(
                        "serial-fallback", backend=backend, reason=reason
                    )
                warnings.warn(
                    f"parallel execution degraded to serial ({reason})",
                    RuntimeWarning,
                    stacklevel=4,
                )
                # An aborted thread-backend attempt may have left its
                # acquisitions on the meter; the serial run gets a fresh one
                # so phantom rows cannot eat the budget or inflate the peak.
                return None, MemoryMeter(
                    budget_rows,
                    faults=injector,
                    tracer=meter.tracer,
                    events=meter.events,
                )

    # -- adaptive execution (sampled stats + mid-stream re-planning) ----

    @staticmethod
    def _spine(root: PlanNode) -> "Tuple[List[PlanNode], List[PlanNode]]":
        """Split a plan into its projection stack and hash-join chain.

        Returns ``(stack, chain)``: the projection nodes above the top
        join (outermost first) and the left-deep hash-join chain below it
        (top join first, following the probe side down, *through* the
        planner's pushed projections — a re-plan re-derives those — and
        never through a written one: see :meth:`PlanNode.chain_join`).
        ``chain`` is empty when the plan has no join to guard (a projected
        scan).
        """
        stack: List[PlanNode] = []
        node = root
        while node.kind == "project":
            stack.append(node)
            node = node.children[0]
        if node.kind != "hash-join":
            return stack, []
        chain: List[PlanNode] = []
        while True:
            chain.append(node)
            node = node.children[node.probe_child_index()].chain_join()
            if node is None:
                return stack, chain

    def _guard_hook(self, plan: PhysicalPlan):
        """The ``guard_for`` callback wrapping this plan's chain joins."""
        adaptive = self.adaptive
        _, chain = self._spine(plan.root)
        if not chain:
            return None
        chain_ids = {id(node) for node in chain}

        def guard_for(
            node: PlanNode, operator: PhysicalOperator
        ) -> Optional[PhysicalOperator]:
            if id(node) not in chain_ids:
                return None
            return AdaptiveGuard(
                operator,
                operator.meter,
                est_rows=node.est_rows,
                factor=adaptive.replan_factor,
                min_rows=adaptive.replan_min_rows,
                node=node,
            )

        return guard_for

    def _adaptive_execute(
        self,
        plan: PhysicalPlan,
        bound: Mapping[str, Relation],
        meter: MemoryMeter,
    ) -> "Tuple[Set[Tuple], PhysicalOperator, int, int, Dict[str, frozenset]]":
        """Run ``plan`` serially with re-plan guards.

        Returns ``(rows, final_root, replans, aborted_build_peak,
        checkpoint_names)`` — the drained result rows, the operator tree of
        the completing attempt, the number of mid-stream re-plans, the
        largest hash-join build table resident during any *aborted* attempt
        (the final attempt's peaks are read off ``final_root`` by the
        caller), and the mapping from ``__checkpoint_N__`` binding names to
        the base operand sets they materialised (the plan store's ledger
        harvest translates through it).

        Guarded executions raise
        :class:`~repro.engine.physical.ReplanTriggered` when an operator's
        observed cardinality crosses its threshold; the handler materialises
        the accumulated chain up to the triggering join as a **checkpoint**
        relation (metered while it lives), re-costs the remaining join
        order against the checkpoint's exact statistics plus fresh samples
        of the current bindings, and re-executes on the revised plan — the
        checkpoint scan replaces the already-joined prefix, so that work is
        never redone.  After ``max_replans`` re-plans (or a checkpoint
        exceeding its row cap) the current plan runs to completion
        unguarded, which is always correct.
        """
        adaptive = self.adaptive
        counters = kernel_counters()
        current = plan
        checkpoints: Dict[str, object] = {}
        checkpoint_names: Dict[str, frozenset] = {}
        replans = 0
        aborted_build_peak = 0
        give_up = False
        try:
            while True:
                bindings = dict(bound)
                bindings.update(checkpoints)
                guard_for = None
                if not give_up and replans < adaptive.max_replans:
                    guard_for = self._guard_hook(current)
                root = current.executor(bindings, meter, guard_for=guard_for)
                try:
                    rows = drain_metered(root, meter, span=True)
                    return rows, root, replans, aborted_build_peak, checkpoint_names
                except ReplanTriggered as trigger:
                    # Partial result rows are discarded (the revised plan
                    # re-derives them) and the drain released their metered
                    # residency.  Build tables resident during this aborted
                    # attempt still count towards the evaluation's build peak.
                    aborted_build_peak = max(
                        aborted_build_peak,
                        max(
                            operator.build_peak_rows
                            for operator in operators_in_order(root)
                        ),
                    )
                    trigger_label = (
                        trigger.guard.node.kind
                        if trigger.guard.node is not None
                        else "unknown"
                    )
                    with (meter.tracer or NULL_TRACER).span("replan", trigger_label):
                        revised = self._revise_plan(
                            current, trigger.guard.node, bindings, checkpoints,
                            meter, checkpoint_names,
                        )
                    if revised is None:
                        give_up = True
                        counters.add(adaptive_giveups=1)
                        if meter.events is not None:
                            meter.events.emit(
                                "degradation",
                                what="adaptive-giveup",
                                trigger=trigger_label,
                                replans=replans,
                            )
                        continue
                    current = revised
                    replans += 1
                    counters.add(adaptive_replans=1)
                    if meter.events is not None:
                        meter.events.emit(
                            "replan", trigger=trigger_label, attempt=replans
                        )
        finally:
            for ckpt in checkpoints.values():
                if isinstance(ckpt, SpilledCheckpoint):
                    ckpt.close()  # on disk, never metered
                else:
                    meter.release(len(ckpt))

    def _revise_plan(
        self,
        plan: PhysicalPlan,
        trigger_node: Optional[PlanNode],
        bindings: Mapping[str, Relation],
        checkpoints: Dict[str, object],
        meter: MemoryMeter,
        checkpoint_names: Optional[Dict[str, frozenset]] = None,
    ) -> Optional[PhysicalPlan]:
        """Checkpoint at the triggering join and re-cost the remaining order.

        Returns the revised plan, or ``None`` when the re-plan cannot be
        carried out (trigger outside the current chain, or — unbudgeted —
        a checkpoint past its row cap) — the caller then completes the
        current plan unguarded.  On success the materialised checkpoint is
        added to ``checkpoints`` under a fresh ``__checkpoint_N__`` binding
        that the revised plan's chain starts from: in metered memory when
        it fits the budget and the row cap, and as a disk-backed
        :class:`~repro.engine.physical.SpilledCheckpoint` otherwise
        (``checkpoint_spills``) — under a budget, cap pressure spills
        instead of giving up or overrunning the meter.
        """
        adaptive = self.adaptive
        budget = self.budget
        cap = adaptive.checkpoint_cap_rows
        if self.faults is not None and self.faults.checkpoint_cap_rows is not None:
            cap = self.faults.checkpoint_cap_rows
            kernel_counters().add(fault_injected=1)
            if meter.events is not None:
                meter.events.emit("fault", site="checkpoint-cap", cap=cap)
        stack, chain = self._spine(plan.root)
        if trigger_node is None or all(node is not trigger_node for node in chain):
            return None
        parts: List[PlanNode] = []
        for node in chain:
            parts.append(node.children[1 - node.probe_child_index()])
            if node is trigger_node:
                break
        probe_node = trigger_node.children[trigger_node.probe_child_index()]
        spans = meter.tracer or NULL_TRACER
        with spans.span("checkpoint", "materialize-prefix") as span:
            rows = self._materialize(
                probe_node, bindings, meter, None if budget is not None else cap
            )
            span.rows = len(rows) if rows is not None else 0
        if rows is None:
            return None
        name = f"__checkpoint_{len(checkpoints) + 1}__"
        if budget is not None and (len(rows) > cap or not meter.try_acquire(len(rows))):
            checkpoint: object = SpilledCheckpoint(
                probe_node.scheme, name, rows, meter, budget
            )
            kernel_counters().add(checkpoint_spills=1)
            if meter.events is not None:
                meter.events.emit("checkpoint-spill", name=name, rows=len(rows))
        else:
            if budget is None:
                meter.acquire(len(rows))
            checkpoint = Relation._from_trusted(probe_node.scheme, frozenset(rows))
        checkpoints[name] = checkpoint
        if meter.events is not None:
            meter.events.emit(
                "checkpoint",
                name=name,
                rows=len(rows),
                spilled=isinstance(checkpoint, SpilledCheckpoint),
            )
        checkpoint_stats = sampled_stats(
            checkpoint,
            adaptive.sample_size,
            seed=adaptive.seed,
            name=name,
            join_cap=adaptive.sample_join_cap,
        )
        store = self.planstore
        if store is not None:
            # The checkpoint *measured* the prefix join's true size — feed
            # it to the ledger under the base operand set it covers (earlier
            # checkpoints translate through), and keep the checkpoint's
            # catalog entry ledger-backed so the re-ordering below sees
            # observed truth for every candidate involving the prefix.
            translation = checkpoint_names if checkpoint_names is not None else {}
            prefix_names = frozenset().union(
                *(
                    translation.get(scan, frozenset((scan,)))
                    for scan in self._scan_names(probe_node)
                )
            )
            if checkpoint_names is not None:
                checkpoint_names[name] = prefix_names
            store.ledger.observe(
                prefix_names, frozenset(probe_node.scheme.names), len(rows)
            )
            checkpoint_stats = LedgerBackedStats.wrap(
                checkpoint_stats, store.ledger, prefix_names
            )
        checkpoint_node = PlanNode(
            kind="scan",
            scheme=checkpoint.scheme,
            stats=checkpoint_stats,
            cost=float(len(checkpoint)),
            operand_name=name,
        )
        base_stats = self._catalog_for(
            {
                op_name: bindings[op_name]
                for part in parts
                for op_name in self._scan_names(part)
            }
        )
        refreshed = [self._refresh_node_stats(part, base_stats) for part in parts]
        needed = frozenset(stack[-1].scheme.names) if stack else None
        node = self._planner.order_join_nodes([checkpoint_node] + refreshed, needed)
        for projection in reversed(stack):
            node = self._reproject(projection, node)
        return PhysicalPlan(root=node, expression=plan.expression)

    @staticmethod
    def _scan_names(node: PlanNode) -> Set[str]:
        """Operand names read by a plan subtree."""
        return set(node.scan_order())

    # -- plan store integration (ledger harvest, re-pin, drift check) ----

    @staticmethod
    def _operator_scan_names(operator: PhysicalOperator) -> Set[str]:
        """Relation names read by an executed operator subtree."""
        if isinstance(operator, TableScan):  # PartitionedScan is one
            return {operator._name}
        names: Set[str] = set()
        for child in operator.children():
            names |= EngineEvaluator._operator_scan_names(child)
        return names

    def _harvest(
        self,
        root: PhysicalOperator,
        checkpoint_names: "Optional[Dict[str, frozenset]]",
    ) -> None:
        """Feed the executed tree's per-join actuals into the ledger.

        Every completed hash join contributes its streamed output
        cardinality under the set of base operands its subtree covered
        (checkpoint scans translate back through ``checkpoint_names``), so
        the next plan build — of this query or any query over the same
        operand sets — is costed against measured truth.
        """
        translation = checkpoint_names or {}
        observations = []
        for operator in operators_in_order(root):
            if not isinstance(operator, HashJoin):
                continue
            names = frozenset().union(
                *(
                    translation.get(scan, frozenset((scan,)))
                    for scan in self._operator_scan_names(operator)
                )
            )
            # Under the joined scheme the planner asks with, not a folded join's.
            joined = operator._plan.joined_scheme
            observations.append((names, frozenset(joined.names), operator.rows_out))
        self.planstore.harvest(observations)

    def _replace_pin(
        self,
        expression: Expression,
        old_plan: PhysicalPlan,
        bound: Mapping[str, Relation],
        kind: str,
        detail: str,
        **event_fields,
    ) -> PhysicalPlan:
        """Re-plan against current statistics and pin that over ``old_plan``.

        The one way a pinned plan is replaced (``kind`` is the plan-history
        kind, a :data:`_PIN_SWAPS` key): the fresh plan is a *clean* one
        over the base operands, costed against the ledger's observed truth.
        Returns the plan now in effect — when ``old_plan`` is no longer the
        pin (somebody else swapped or forgot it) that is theirs, and nothing
        is recorded.
        """
        store = self.planstore
        revised = self._planner.plan(expression, self._catalog_for(bound))
        with self._plans_lock:
            if self._plans.get(expression) is not old_plan:
                return self._plans.get(expression, revised)
            self._plans[expression] = revised
        self._evict_pools_for(old_plan)
        revised._ledger_version = store.ledger.version
        field, counter, event, metric, metric_help = _PIN_SWAPS[kind]
        setattr(store, field, getattr(store, field) + 1)
        kernel_counters().add(**{counter: 1})
        order = revised.root.scan_order()
        store.record(expression, kind, order, detail=detail)
        observer = self.observer
        if observer is not None:
            if observer.events is not None:
                observer.events.emit(event, order=list(order), **event_fields)
            observer.metrics.counter(metric, help=metric_help).inc()
        return revised

    def _drift_check(
        self,
        expression: Expression,
        plan: PhysicalPlan,
        arguments: ArgumentLike,
    ) -> PhysicalPlan:
        """Re-plan *before* execution when the ledger drifted past the plan.

        Compares each chain join's estimated cardinality against the
        ledger's observed actual for the same operand set; a q-error at or
        above ``drift_threshold`` rebuilds the plan against current
        (ledger-backed) statistics (``drift_replans``; ``drift_replan``
        event + metric).  Plans are stamped with the ledger version they
        were validated against, so the steady state pays one integer
        comparison.
        """
        store = self.planstore
        threshold = store.config.drift_threshold
        if threshold is None:
            return plan
        ledger = store.ledger
        version = ledger.version
        if getattr(plan, "_ledger_version", None) == version:
            return plan
        drift = 1.0
        worst = ""
        for node in self._join_nodes(plan.root):
            names = frozenset(self._scan_names(node))
            observed = ledger.lookup(names, frozenset(node.scheme.names))
            if observed is None:
                continue
            q = q_error(node.est_rows, observed)
            if q > drift:
                drift = q
                worst = (
                    f"{sorted(names)} est {node.est_rows:.0f}"
                    f" vs observed {observed}"
                )
        if drift < threshold:
            plan._ledger_version = version
            return plan
        return self._replace_pin(
            expression, plan, bind_arguments(expression, arguments), "drift_replan",
            f"q-error {drift:.1f} ({worst})", q_error=round(drift, 2),
        )

    @staticmethod
    def _join_nodes(node: PlanNode) -> "List[PlanNode]":
        """Every join node of a plan subtree (any order)."""
        found: List[PlanNode] = []
        if node.kind == "hash-join":
            found.append(node)
        for child in node.children:
            found.extend(EngineEvaluator._join_nodes(child))
        return found

    @staticmethod
    def _materialize(
        node: PlanNode,
        bindings: Mapping[str, Relation],
        meter: MemoryMeter,
        cap: Optional[int],
    ) -> "Optional[Set[Tuple]]":
        """Drain a plan subtree into a row set (metered), or ``None`` past ``cap``.

        ``cap=None`` never aborts — the budgeted checkpoint path drains the
        whole subtree and decides afterwards whether the result lives in
        metered memory or spills to disk; the rows are metered only while
        this drain is in flight.
        """
        rows = drain_metered(node.instantiate(bindings, meter), meter, cap=cap)
        if rows is not None:
            # The caller re-acquires the checkpoint relation's residency.
            meter.release(len(rows))
        return rows

    def _refresh_node_stats(
        self, node: PlanNode, base_stats: Mapping[str, object]
    ) -> PlanNode:
        """Re-propagate a subtree's statistics from fresh base-relation entries.

        The pinned plan's node statistics reflect the relations it was
        planned against; after a mid-stream trigger the re-ordering must
        score the *current* bindings, so scans pick up freshly sampled
        entries and every derived node re-propagates.  Compiled picks and
        join plans are scheme-level artifacts and are reused untouched.
        """
        if node.kind == "scan":
            entry = base_stats.get(node.operand_name)
            if entry is None:
                return node
            return replace(node, stats=entry, cost=float(entry.cardinality))
        children = tuple(
            self._refresh_node_stats(child, base_stats) for child in node.children
        )
        if node.kind == "project":
            child = children[0]
            out_stats = project_stats(child.stats, node.scheme.names)
            cost = child.cost + child.est_rows + out_stats.cardinality
            return replace(node, stats=out_stats, cost=cost, children=children)
        out_stats = join_stats(
            children[0].stats,
            children[1].stats,
            node.scheme.names,
            node.join_plan.common_names,
        )
        return replace(node, stats=out_stats, children=children)

    @staticmethod
    def _reproject(projection: PlanNode, child: PlanNode) -> PlanNode:
        """Re-apply one projection of the original stack over a revised chain.

        The revised chain presents the same attributes in a (possibly)
        different column order, so the projection's pick list is recompiled
        against the new child scheme; target scheme, dedup behaviour and
        budget are inherited from the original node.
        """
        pick_plan = _project_plan(child.scheme, projection.scheme)
        out_stats = project_stats(child.stats, pick_plan.target_scheme.names)
        child, pick = fold_projection(child, pick_plan)  # same cost and estimates
        return replace(
            projection,
            scheme=pick_plan.target_scheme,
            stats=out_stats,
            cost=child.cost + child.est_rows + out_stats.cardinality,
            children=(child,),
            pick=pick,
        )

    @staticmethod
    def _record_q_errors(root: PhysicalOperator, counters) -> None:
        """Feed per-operator estimate-vs-observed q-errors into the counters.

        Guards are skipped (their estimate duplicates the operator they
        wrap); every other operator contributes one observation per
        evaluation, so the counters' mean/max q-error track the estimator's
        live accuracy (``qerror_*`` in :mod:`repro.perf.counters`).
        """
        for operator in operators_in_order(root):
            if isinstance(operator, AdaptiveGuard):
                continue
            counters.record_q_error(q_error(operator.est_rows, operator.rows_out))

    @staticmethod
    def _record_steps(root: PhysicalOperator, trace: EvaluationTrace) -> None:
        """Record per-operator streamed cardinalities, children first.

        Adaptive guards are pass-throughs — recording them would count every
        guarded join's cardinality twice and inflate
        ``total_intermediate_tuples`` against a static run of the same plan.
        """
        for operator in operators_in_order(root):
            if isinstance(operator, AdaptiveGuard):
                continue
            width = len(operator.scheme)
            trace.record(
                TraceStep(
                    description=operator.label(),
                    node_kind=_NODE_KINDS.get(type(operator).__name__, "operator"),
                    cardinality=operator.rows_out,
                    scheme_width=width,
                    cell_count=operator.rows_out * width,
                )
            )

    @staticmethod
    def _record_parallel_steps(
        plan: PhysicalPlan,
        bound: Mapping[str, Relation],
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
        evaluation.  The shape varies only with the bindings' scheme
        *presentation* (a reordered presentation adds a realignment wrapper
        over its scan), so the cache key is the workers count plus each
        operand's presented column order.
        """
        cache = getattr(plan, "_parallel_step_meta", None)
        if cache is None:
            cache = {}
            plan._parallel_step_meta = cache
        key = (
            parallel.workers,
            tuple(
                sorted(
                    (name, relation.scheme.names) for name, relation in bound.items()
                )
            ),
        )
        meta = cache.get(key)
        if meta is None:
            template = plan.executor(
                bound, MemoryMeter(), probe_slice=(0, parallel.workers)
            )
            operators = operators_in_order(template)
            spine = EngineEvaluator._slice_spine(template)
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

    @staticmethod
    def _slice_spine(template: PhysicalOperator) -> "set[int]":
        """Ids of the slice consumer and its ancestors in the template tree.

        These are the operators whose streams are partitioned across the
        pool; everything else runs identically in every worker.  Falls back
        to the whole tree (sum everywhere — the old, conservative
        behaviour) if no consumer is found.
        """
        path: List[PhysicalOperator] = []

        def find(operator: PhysicalOperator) -> bool:
            path.append(operator)
            if operator.consumes_probe_slice:
                return True
            for child in operator.children():
                if find(child):
                    return True
            path.pop()
            return False

        if find(template):
            return {id(operator) for operator in path}
        return {id(operator) for operator in operators_in_order(template)}
