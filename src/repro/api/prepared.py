"""Prepared queries: parse/validate/plan once, execute many times.

A :class:`PreparedQuery` is created by :meth:`repro.api.session.Session.prepare`
and pins everything that does not change between executions of one query:

* the validated expression (parsed once if it arrived as text);
* the binding of operand names to the session's relations, validated
  once (:class:`~repro.engine.evaluator.Binding`) and pinned with the
  session epoch it was read at: an execute at the same epoch runs it as
  is, and only the first one after a mutation re-resolves the names it
  reads (re-binding and re-planning if one of them was replaced);
* the engine's :class:`~repro.engine.planner.PhysicalPlan`, pinned in the
  session's evaluator, its single holder, with the operator trees the
  pinned binding's finished executes left for the next ones.

``execute()`` then runs the pinned plan; the session's counters record a
plan-cache hit for every execution that re-planned nothing, which is how the
serving benchmark proves steady-state executes never touch the planner.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Mapping, Optional, Tuple

from ..algebra.relation import Relation
from ..expressions.ast import Expression
from ..expressions.evaluator import EvaluationTrace
from .errors import SessionError
from .result import QueryResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.evaluator import Binding
    from .session import Session

__all__ = ["PreparedQuery"]


class PreparedQuery:
    """One query, prepared against one session's relations.

    Instances are created by :meth:`Session.prepare` (the constructor is not
    public API) and stay valid for the session's lifetime: executing after a
    relation mutation transparently re-binds and re-plans once, executing
    after :meth:`Session.close` raises.
    """

    def __init__(self, session: "Session", expression: Expression):
        self._session = session
        self.expression = expression
        self._lock = threading.Lock()
        self._pinned: Tuple[int, "Binding"]  # (epoch it is current at, binding)
        self._last_trace: Optional[EvaluationTrace] = None
        self._compile()

    # -- pinning -------------------------------------------------------

    def _compile(self) -> None:
        """(Re)bind against the session's current relations, re-plan and
        re-pin: at preparation, and after a relation the query reads was
        replaced (:meth:`_current_binding` notices)."""
        session = self._session
        mapping, epoch = session._resolve_bindings(self.expression)
        engine = session._engine
        binding = engine.bind(self.expression, mapping)
        binding.pinned = True  # executes reuse its operator trees
        engine.plan_for(self.expression, binding.relations)
        self._pinned = (epoch, binding)
        session._count("plan_builds")

    def _current_binding(self) -> Tuple["Binding", bool]:
        """The pinned binding, and whether it was reused (a plan-cache hit).

        It is current at the epoch it was pinned at.  After a mutation its
        names are resolved again: if one maps to another relation object it
        is re-bound and re-planned (``False``), else re-pinned as it is.
        """
        session = self._session
        session._ensure_open()
        epoch, binding = self._pinned
        if epoch == session._epoch:
            return binding, True
        with self._lock:
            mapping, epoch = session._resolve_bindings(self.expression)
            binding = self._pinned[1]
            if all(mapping[name] is held for name, held in binding.relations.items()):
                self._pinned = (epoch, binding)
                return binding, True
            session._count("invalidation_replans")
            # The re-compile plans against the *new* relations' statistics.
            session._forget_engine_plan(self.expression)
            self._compile()
            return self._pinned[1], False

    def _merge_overrides(
        self, binding: "Binding", bindings: Mapping[str, Relation]
    ) -> "Binding":
        """Apply per-call relation overrides to the pinned binding, validated."""
        if not bindings:
            return binding
        unknown = sorted(set(bindings) - set(binding.relations))
        if unknown:
            raise SessionError(
                f"got relations for {unknown} but the query's "
                f"operands are {sorted(binding.relations)}"
            )
        merged = dict(binding.relations)
        merged.update(bindings)
        return self._session._engine.bind(self.expression, merged)

    def _binding_for_read(self) -> "Binding":
        """:meth:`_current_binding`, counting a reuse (not an execute)."""
        binding, reused = self._current_binding()
        if reused:
            self._session._count("plan_cache_hits")
        return binding

    # -- the unified verbs ---------------------------------------------

    def execute(self, **bindings: Relation) -> QueryResult:
        """Run the pinned plan and return a :class:`QueryResult`.

        Keyword arguments override the session's relation for that operand
        name *for this execution only* (the pinned plan is reused — a plan
        stays correct for any conforming database; only the statistics it
        was costed with age).  Unknown names raise, mismatched schemes raise
        through the usual binding validation.
        """
        binding, reused = self._current_binding()
        if bindings:
            binding = self._merge_overrides(binding, bindings)
        relation, trace = self._session._run(self.expression, binding, reused)
        self._last_trace = trace
        return QueryResult(relation=relation, trace=trace)

    def count(self, **bindings: Relation) -> int:
        """Run the pinned plan and return how many rows its result has.

        The answer is ``len(execute(**bindings))``, reached without the
        result relation: a plan whose rows are distinct by construction
        (``explain()`` marks its root ``[distinct: no dedup]``) streams its
        rows as empty tuples and counts block lengths, holding none; any
        other plan drains into the deduplicating set and reads its length.
        The execution is accounted and traced as an :meth:`execute` is
        (:meth:`last_trace`); its ``peak_live_rows`` holds no result row on
        a distinct root.
        """
        binding, reused = self._current_binding()
        if bindings:
            binding = self._merge_overrides(binding, bindings)
        rows, trace = self._session._run(self.expression, binding, reused, count=True)
        self._last_trace = trace
        return rows

    @property
    def columns(self) -> Tuple[str, ...]:
        """The result's column names, in the order :meth:`execute` presents
        them (the engine's output order follows its plan)."""
        binding = self._current_binding()[0]
        return self._session._engine.plan_for(self.expression, binding.relations).root.scheme.names

    def trace(self, **bindings: Relation) -> EvaluationTrace:
        """Execute and return the engine's :class:`EvaluationTrace`.

        The same object ``execute().trace`` carries: its ``steps`` are the
        per-operator streamed cardinalities.  The paper's as-written
        intermediates are
        :class:`~repro.expressions.evaluator.InstrumentedEvaluator`'s, called
        directly.
        """
        return self.execute(**bindings).trace

    def last_trace(self) -> Optional[EvaluationTrace]:
        """The most recent execution's trace (``None`` before any execution)."""
        return self._last_trace

    def explain_analyze(self, **bindings: Relation):
        """Execute once under a span tracer and return the runtime report.

        The engine analogue of SQL ``EXPLAIN ANALYZE``: the pinned plan runs
        with a fresh :class:`repro.obs.Tracer` attached (regardless of the
        session's ``observe`` config), and the recorded spans are folded into
        an :class:`repro.obs.ExplainAnalyzeReport` — per-operator wall time
        (inclusive and self), rows produced, kernel-counter deltas, plus the
        plan/spill overhead spans.

        The traced execution also updates :meth:`last_trace`, whose ``spans``
        carry the raw span list for custom analysis.
        """
        from time import perf_counter

        from ..obs import Tracer, explain_report

        binding, reused = self._current_binding()
        binding = self._merge_overrides(binding, bindings)
        tracer = Tracer()
        start = perf_counter()
        relation, trace = self._session._run(
            self.expression, binding, reused, tracer=tracer
        )
        total = perf_counter() - start
        self._last_trace = trace
        spans = trace.spans or tracer.finish()
        return explain_report(spans, total_seconds=total, result_rows=len(relation))

    def explain(self) -> str:
        """A human-readable account of the engine plan that runs the query."""
        binding = self._binding_for_read()
        # The pinned plan, or — forgotten since the last compile — the one
        # execute() would build.
        plan = self._session._engine.plan_for(self.expression, binding.relations)
        return (
            f"engine (streaming physical plan)\n"
            f"expression: {self.expression.to_text()}\n"
            f"estimated result rows: {plan.est_rows:.1f}   "
            f"estimated cost: {plan.est_cost:.1f}\n"
            f"{plan.explain()}"
        )

    def contains(self, candidate) -> bool:
        """Decide ``candidate ∈ result`` without asking for the full result.

        Streams the pinned plan and stops at the candidate's first
        occurrence (:class:`~repro.decision.membership.EngineMembershipDecider`).
        """
        from ..decision.membership import EngineMembershipDecider

        binding, reused = self._current_binding()
        decider = EngineMembershipDecider(evaluator=self._session._engine)
        verdict = decider.decide(candidate, self.expression, binding.relations)
        self._session._record(reused)
        return verdict

    # -- introspection -------------------------------------------------

    @property
    def operand_names(self) -> Tuple[str, ...]:
        """The operand names this query reads, sorted."""
        return tuple(sorted(self._pinned[1].relations))

    def __repr__(self) -> str:
        return f"PreparedQuery({self.expression.to_text()!r})"
