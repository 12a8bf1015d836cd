"""The session: one database, one config, many prepared queries.

Cosmadakis' results make evaluation complexity a property of the *(query,
database)* pair, and the facade's shape follows: a :class:`Session` owns the
database side (named relations or the paper's single-relation databases) plus
one :class:`~repro.api.config.BackendConfig`, and
:meth:`Session.prepare` fixes the query side — parsing, validating, and
compiling once into a :class:`~repro.api.prepared.PreparedQuery` that is then
executed many times.  All prepared queries of a session share its serving
state: the engine evaluator's pinned-plan dictionary and its memory budget.

Mutation follows the statistics catalog's construction-is-invalidation
contract: :meth:`Session.set_relation` installs a *new* relation object
(relations are immutable, so its stats slot starts empty) and bumps the
session's *epoch*.  A prepared query whose binding was pinned at the
current epoch runs it unchecked; the first execute after a mutation
re-resolves its names, and re-binds and re-plans — against the fresh
statistics — only if one of them now maps to another relation object, so
queries over untouched relations keep their plans and their plan-cache hits.

Counters (:meth:`Session.stats`) make the serving behaviour auditable:
``plan_builds`` counts actual compilations, ``plan_cache_hits`` counts
executions that reused a pinned plan, so "prepare once, execute many" is a
measurable property rather than a promise.
"""

from __future__ import annotations

import threading
import warnings
from time import perf_counter
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Tuple, Union

from ..algebra.database import Database
from ..algebra.relation import Relation
from ..expressions.ast import Expression
from ..expressions.evaluator import EvaluationTrace
from ..expressions.parser import parse_expression
from ..obs.config import Observer
from ..obs.events import EventLog
from ..obs.metrics import MetricsRegistry, process_metrics, record
from .config import BackendConfig
from .errors import SessionClosedError, SessionError
from .prepared import PreparedQuery
from .result import QueryResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.evaluator import Binding

__all__ = ["Session", "connect"]

DatabaseLike = Union[Database, Mapping[str, Relation], Relation]

_COUNTER_NAMES = (
    "prepares",
    "registry_hits",
    "executes",
    "plan_builds",
    "plan_cache_hits",
    "invalidations",
    "invalidation_replans",
)


class Session:
    """Serve prepared queries over one database from the streaming engine.

    ``database`` is a :class:`~repro.algebra.database.Database`, a plain
    ``{name: relation}`` mapping, or a bare :class:`Relation` (bound to every
    operand whose scheme it matches — the paper's single-relation
    databases).  ``config`` carries the engine's knobs; keyword overrides
    (``budget=``, ``faults=``, ``observe=``) are applied on top of it, so
    ``Session(db, budget=64)`` needs no explicit config object.  A
    ``workers=`` keyword is accepted, ignored and warned about
    (``DeprecationWarning``): every execute runs in the calling process.

    Sessions are context managers; :meth:`close` (idempotent) refuses any
    further prepare or execute.
    """

    def __init__(
        self,
        database: DatabaseLike,
        config: Optional[BackendConfig] = None,
        **overrides,
    ):
        base = config or BackendConfig()
        if "workers" in overrides:
            # The benchmark's probe rung still passes it (ROADMAP 1(d)).
            overrides.pop("workers")
            warnings.warn(
                "Session(workers=) is ignored: the parallel probe stage was "
                "removed in 11.0.0 and every execute runs in one process "
                "(ROADMAP 1(d) removes the keyword)",
                DeprecationWarning,
                stacklevel=2,
            )
        if overrides:
            base = base.override(**overrides)
        self.config = base
        self._state_lock = threading.Lock()
        self._relations: Dict[str, Relation] = {}
        self._default: Optional[Relation] = None
        # Bumped (under the state lock) by every relation replacement.
        self._epoch = 0
        if isinstance(database, Relation):
            self._default = database
        elif isinstance(database, (Database, Mapping)):
            self._relations = dict(database.items())
        else:
            raise SessionError(
                f"database must be a Database, a name->relation mapping, or "
                f"a bare Relation, got {type(database).__name__}"
            )
        self._registry: Dict[Expression, PreparedQuery] = {}
        # Each text prepared, with the epoch it was parsed at.
        self._texts: Dict[str, Tuple[int, PreparedQuery]] = {}
        self._counters: Dict[str, int] = {name: 0 for name in _COUNTER_NAMES}
        self._closed = False
        # The engine evaluator, created lazily and shared by every prepared
        # query of this session (it carries the shared budget and the
        # pinned-plan dictionary).
        self._engine_evaluator = None
        # Observability: the observer owns the event log and the metrics
        # registry; an unobserved session still keeps a registry so
        # Session.metrics() always has latency/throughput to show.
        self._observer = Observer.coerce(base.observe)
        if self._observer is not None:
            self._metrics = self._observer.metrics
        else:
            self._metrics = MetricsRegistry(parent=process_metrics())
        # The four instruments every execution feeds, resolved by the first.
        self._instruments = None

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Refuse further prepares and executes.  Idempotent."""
        self._closed = True

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *_exc_info) -> None:
        self.close()

    def _ensure_open(self) -> None:
        if self._closed:
            raise SessionClosedError("this session is closed")

    # -- the database side ---------------------------------------------

    @property
    def relations(self) -> Dict[str, Relation]:
        """A snapshot of the session's named relations."""
        with self._state_lock:
            return dict(self._relations)

    @property
    def default_relation(self) -> Optional[Relation]:
        """The bare relation of a single-relation session, if any."""
        return self._default

    def set_relation(self, name: str, relation: Relation) -> None:
        """Install ``relation`` under ``name`` (replacing any previous one).

        Relations are immutable, so this is the only mutation a session
        knows: a *new* object whose statistics catalog starts empty
        (construction is invalidation).  Prepared queries reading ``name``
        re-bind and re-plan on their next execution; others are untouched.
        """
        if not isinstance(relation, Relation):
            raise SessionError(
                f"set_relation expects a Relation, got {type(relation).__name__}"
            )
        self._ensure_open()
        with self._state_lock:
            self._relations[name] = relation
            self._epoch += 1
            self._counters["invalidations"] += 1

    def set_default_relation(self, relation: Relation) -> None:
        """Replace a single-relation session's bare relation."""
        if not isinstance(relation, Relation):
            raise SessionError(
                f"set_default_relation expects a Relation, got {type(relation).__name__}"
            )
        self._ensure_open()
        with self._state_lock:
            if self._default is None:
                raise SessionError(
                    "this session was not created from a bare relation; "
                    "use set_relation(name, relation)"
                )
            self._default = relation
            self._epoch += 1
            self._counters["invalidations"] += 1

    def _resolve_bindings(
        self, expression: Expression
    ) -> Tuple[Dict[str, Relation], int]:
        """Map the expression's operands onto the session's relations (a
        name it holds, else the bare default relation), with the epoch the
        mapping was read at."""
        mapping: Dict[str, Relation] = {}
        with self._state_lock:
            for name in expression.operand_schemes():
                if name in self._relations:
                    mapping[name] = self._relations[name]
                elif self._default is not None:
                    mapping[name] = self._default
                else:
                    raise SessionError(
                        f"no relation named {name!r} in this session "
                        f"(have: {sorted(self._relations) or 'none'})"
                    )
            return mapping, self._epoch

    # -- preparing -----------------------------------------------------

    def prepare(self, expression: Union[Expression, str]) -> PreparedQuery:
        """Parse/validate/plan once; return the pinned prepared query.

        ``expression`` is an AST or the textual syntax of
        :func:`repro.expressions.parse_expression` (operand schemes are
        taken from the session's relations).  Preparing a structurally
        identical expression again returns the *same* prepared query (a
        registry hit, not a re-plan); so does a text already parsed at the
        current epoch, without parsing it again (a relation replacement may
        change the operand schemes a parse reads, so after one the text is
        parsed anew).
        """
        self._ensure_open()
        if not isinstance(expression, str):
            return self._registered(expression)
        with self._state_lock:
            epoch, prepared = self._texts.get(expression, (None, None))
            if epoch == self._epoch:
                self._counters["registry_hits"] += 1
                return prepared
        parsed, epoch = self._parse(expression)
        prepared = self._registered(parsed)
        with self._state_lock:
            self._texts[expression] = (epoch, prepared)
        return prepared

    def _registered(self, expression: Expression) -> PreparedQuery:
        """The registry's prepared query for ``expression``, prepared now if
        there is none."""
        with self._state_lock:
            existing = self._registry.get(expression)
            if existing is not None:
                self._counters["registry_hits"] += 1
                return existing
        prepared = PreparedQuery(self, expression)
        with self._state_lock:
            raced = self._registry.get(expression)
            if raced is not None:
                self._counters["registry_hits"] += 1
                return raced
            self._registry[expression] = prepared
            self._counters["prepares"] += 1
        return prepared

    def execute(
        self, expression: Union[Expression, str], **bindings: Relation
    ) -> QueryResult:
        """Prepare (registry-cached) and execute in one call."""
        return self.prepare(expression).execute(**bindings)

    def _parse(self, source: str) -> Tuple[Expression, int]:
        """Parse ``source`` against the session's operand schemes, with the
        epoch they were read at."""
        with self._state_lock:
            schemes = {name: rel.scheme for name, rel in self._relations.items()}
            if self._default is not None and self._default.name:
                schemes.setdefault(self._default.name, self._default.scheme)
            epoch = self._epoch
        if not schemes:
            raise SessionError(
                "cannot parse a textual query: the session holds no named "
                "relations (bare-relation sessions need the relation to "
                "carry a name)"
            )
        return parse_expression(source, schemes), epoch

    @property
    def prepared_queries(self) -> Tuple[PreparedQuery, ...]:
        """Every distinct prepared query registered with this session."""
        with self._state_lock:
            return tuple(self._registry.values())

    # -- execution -----------------------------------------------------

    @property
    def _engine(self):
        """The session's shared engine evaluator (created on first use)."""
        engine = self._engine_evaluator
        if engine is None:
            from ..engine.evaluator import EngineEvaluator

            with self._state_lock:
                engine = self._engine_evaluator
                if engine is None:
                    engine = EngineEvaluator(
                        budget=self.config.budget,
                        faults=self.config.faults,
                        observe=self._observer,
                    )
                    self._engine_evaluator = engine
        return engine

    def _forget_engine_plan(self, expression: Expression) -> None:
        """Drop a stale pinned plan so the next compile re-plans."""
        if self._engine_evaluator is not None:
            self._engine_evaluator.forget_plan(expression)

    def forget_plan(self, expression: Union[Expression, str]) -> None:
        """Drop the pinned plan: the next execution of a prepared query over
        ``expression`` re-plans from scratch."""
        self._ensure_open()
        if isinstance(expression, str):
            expression = self._parse(expression)[0]
        self._forget_engine_plan(expression)

    def _run(
        self,
        expression: Expression,
        binding: "Binding",
        reused: bool,
        tracer=None,
        count: bool = False,
    ) -> Tuple[Union[Relation, int], EvaluationTrace]:
        """Run a prepared query's binding and account for it (:meth:`_record`):
        the relation, or with ``count`` its row count.  The trace is
        returned uncopied."""
        start = perf_counter()
        # The prepared query compiled through ``_engine``: the evaluator exists.
        result, trace = self._engine_evaluator.run(expression, binding, tracer, count)
        self._record(reused, trace, perf_counter() - start)
        return result, trace

    def _record(
        self, reused: bool, trace: Optional[EvaluationTrace] = None, seconds: float = 0.0
    ) -> None:
        """Account for one execute: its counters under one acquisition of
        the state lock (``reused`` is a plan-cache hit), its metrics under
        one of the metrics lock.  A membership decision has no ``trace``: it
        counts as an execute, in ``stats()`` and ``repro_executes_total``
        alike, and observes nothing else."""
        with self._state_lock:
            counters = self._counters
            counters["executes"] += 1
            if reused:
                counters["plan_cache_hits"] += 1
        # The four instruments every execution feeds are looked up by the
        # first one (so ``/metrics`` names them from then on); the spill
        # counter appears with its first nonzero count.
        instruments = self._instruments
        if instruments is None:
            metrics = self._metrics
            instruments = self._instruments = (
                metrics.histogram(
                    "repro_query_seconds", help="end-to-end prepared-query latency"
                ),
                metrics.counter("repro_executes_total", help="queries executed"),
                metrics.counter("repro_rows_total", help="result rows returned"),
                metrics.gauge(
                    "repro_last_peak_memory_rows",
                    help="peak resident rows of the most recent execution",
                ),
            )
        latency, executes, rows, peak = instruments
        if trace is None:
            record(increments=((executes, 1),))
            return
        increments = [(executes, 1), (rows, trace.result_cardinality)]
        spilled = trace.counters.get("spill_rows", 0)
        if spilled:
            increments.append(
                (self._metrics.counter("repro_spill_rows_total", help="rows spilled"), spilled)
            )
        record(
            observations=((latency, seconds),),
            increments=increments,
            assignments=((peak, trace.peak_live_rows),),  # the trace's peak_memory_rows
        )

    # -- counters ------------------------------------------------------

    def _count(self, name: str) -> None:
        with self._state_lock:
            self._counters[name] += 1

    def stats(self) -> Dict[str, int]:
        """A snapshot of the session's serving counters.

        ``plan_builds`` counts compilations (one per prepared query, plus
        one per invalidation replan); ``plan_cache_hits`` counts executions
        that reused a pinned plan; ``registry_hits`` counts ``prepare``
        calls answered from the registry.
        """
        with self._state_lock:
            return dict(self._counters)

    def metrics(self) -> "MetricsRegistry":
        """The session's metrics registry (latency, throughput, q-error...).

        Every session keeps one — executions are observed into it and
        aggregated upward into :func:`repro.obs.process_metrics`.  Render
        it with :func:`repro.obs.render_prometheus`.
        """
        return self._metrics

    def events(self) -> Optional["EventLog"]:
        """The session's structured event log, or ``None`` when not observed.

        Present only when the config's ``observe`` enables events — the
        log records every spill and injected fault as
        a timestamped dict (mirrored to JSON-Lines when ``events_path`` is
        set).
        """
        if self._observer is None:
            return None
        return self._observer.events

    def __repr__(self) -> str:
        if self._default is not None:
            held = f"1 bare relation [{len(self._default)} tuples]"
        else:
            held = f"{len(self._relations)} relation(s)"
        return (
            f"Session({held}, "
            f"{len(self._registry)} prepared quer"
            f"{'y' if len(self._registry) == 1 else 'ies'})"
        )


def connect(database: DatabaseLike, **overrides) -> Session:
    """Open a :class:`Session` on ``database`` (keyword config overrides).

    The one-line entry point the docs use::

        with repro.connect({"R": r, "S": s}, budget=10_000) as db:
            rows = db.execute("project[A](R * S)")
    """
    return Session(database, **overrides)
