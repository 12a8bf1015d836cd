"""Prepared queries: parse/validate/plan once, execute many times.

A :class:`PreparedQuery` is created by :meth:`repro.api.session.Session.prepare`
and pins everything that does not change between executions of one query:

* the validated expression (parsed once if it arrived as text);
* the binding of operand names to the session's relations (re-validated
  lazily only after the session mutates a relation the query reads);
* the engine's :class:`~repro.engine.planner.PhysicalPlan`, pinned in the
  session's evaluator, its single holder.

``execute()`` then runs the pinned plan; the session's counters record a
plan-cache hit for every execution that re-planned nothing, which is how the
serving benchmark proves steady-state executes never touch the planner.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Tuple

from ..algebra.relation import Relation
from ..expressions.ast import Expression
from ..expressions.evaluator import EvaluationTrace, bind_arguments
from .errors import SessionError
from .result import QueryResult

if TYPE_CHECKING:  # pragma: no cover - typing only
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
        self._bound: Dict[str, Relation] = {}
        self._versions: Dict[str, int] = {}
        self._last_trace: Optional[EvaluationTrace] = None
        self._compile(count_build=True)

    # -- pinning -------------------------------------------------------

    def _compile(self, count_build: bool) -> None:
        """(Re)bind against the session's current relations and re-pin.

        Called at preparation and again after a relation this query reads is
        replaced (the session bumps that name's version; the stale check in
        :meth:`_current_binding` notices).  ``count_build`` is False only
        for the no-op path.
        """
        session = self._session
        mapping, versions = session._resolve_bindings(self.expression)
        bound = bind_arguments(self.expression, mapping)
        session._engine.plan_for(self.expression, bound)
        self._bound = bound
        self._versions = versions
        if count_build:
            session._count("plan_builds")

    def _current_binding(self) -> Dict[str, Relation]:
        """The pinned binding, re-pinned first if the session mutated under it."""
        session = self._session
        session._ensure_open()
        with self._lock:
            if session._versions_changed(self._versions):
                session._count("invalidation_replans")
                # Drop the engine's pinned plan for this expression so the
                # re-compile plans against the *new* relations' statistics
                # (construction-is-invalidation: fresh relations carry fresh
                # stats catalogs).
                session._forget_engine_plan(self.expression)
                self._compile(count_build=True)
            else:
                session._count("plan_cache_hits")
            return self._bound

    def _merge_overrides(
        self, bound: Mapping[str, Relation], bindings: Mapping[str, Relation]
    ) -> Mapping[str, Relation]:
        """Apply per-call relation overrides to the pinned binding, validated."""
        if not bindings:
            return bound
        unknown = sorted(set(bindings) - set(bound))
        if unknown:
            raise SessionError(
                f"got relations for {unknown} but the query's "
                f"operands are {sorted(bound)}"
            )
        merged = dict(bound)
        merged.update(bindings)
        return bind_arguments(self.expression, merged)

    # -- the unified verbs ---------------------------------------------

    def execute(self, **bindings: Relation) -> QueryResult:
        """Run the pinned plan and return a :class:`QueryResult`.

        Keyword arguments override the session's relation for that operand
        name *for this execution only* (the pinned plan is reused — a plan
        stays correct for any conforming database; only the statistics it
        was costed with age).  Unknown names raise, mismatched schemes raise
        through the usual binding validation.
        """
        bound = self._merge_overrides(self._current_binding(), bindings)
        relation, trace = self._session._execute_engine(self.expression, bound)
        self._last_trace = trace
        self._session._count("executes")
        return QueryResult(relation=relation, trace=trace)

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

        bound = self._merge_overrides(self._current_binding(), bindings)
        tracer = Tracer()
        start = perf_counter()
        relation, trace = self._session._execute_engine(
            self.expression, bound, tracer=tracer
        )
        total = perf_counter() - start
        self._last_trace = trace
        self._session._count("executes")
        spans = trace.spans or tracer.finish()
        return explain_report(spans, total_seconds=total, result_rows=len(relation))

    def explain(self) -> str:
        """A human-readable account of the engine plan that runs the query."""
        bound = self._current_binding()
        # The pinned plan, or — forgotten since the last compile — the one
        # execute() would build.
        plan = self._session._engine.plan_for(self.expression, bound)
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

        bound = self._current_binding()
        decider = EngineMembershipDecider(evaluator=self._session._engine)
        verdict = decider.decide(candidate, self.expression, bound)
        self._session._count("executes")
        return verdict

    # -- introspection -------------------------------------------------

    @property
    def operand_names(self) -> Tuple[str, ...]:
        """The operand names this query reads, sorted."""
        return tuple(sorted(self._bound))

    def __repr__(self) -> str:
        return f"PreparedQuery({self.expression.to_text()!r})"
