"""The unified public API: sessions, prepared queries, one trace.

Four generations of evaluation APIs grew alongside the paper reproduction —
:func:`repro.expressions.evaluate`, the instrumented and optimising
evaluators, and the streaming :class:`~repro.engine.evaluator.EngineEvaluator`
with its budget/worker knobs — each with its own constructor, trace dialect,
and caching story.  This package is the one front door over all of them:

>>> import repro
>>> from repro.algebra import Relation
>>> r = Relation.from_rows("A B", [(1, "x"), (2, "y")], name="R")
>>> with repro.connect({"R": r}) as session:
...     query = session.prepare("project[A](R)")
...     len(query.execute())
2

* :class:`Session` owns the database side (named relations or a bare
  single relation), the :class:`BackendConfig`, and the serving state every
  prepared query shares (pinned plans, memory budget, persistent worker
  pools, counters);
* :meth:`Session.prepare` parses/validates/compiles **once** into a
  :class:`PreparedQuery`; ``execute()`` / ``explain()`` / ``trace()`` then
  behave identically on every backend;
* :class:`QueryResult` and :class:`EvaluationTrace` (re-exported from
  :mod:`repro.expressions`) are the backend-agnostic result and trace types;
* :class:`ObserveConfig` (re-exported from :mod:`repro.obs`) switches on
  the observability layer — span tracing, the structured event log, and
  the session metrics registry (``BackendConfig(observe=...)``).

``docs/API.md`` documents the facade, the backend matrix, and the
prepared-plan/invalidation contract.
"""

from ..expressions.evaluator import EvaluationTrace
from ..obs.config import ObserveConfig
from .config import BACKENDS, BackendConfig
from .errors import SessionClosedError, SessionError, UnknownBackendError
from .prepared import PreparedQuery
from .result import QueryResult
from .session import Session, connect

__all__ = [
    "BACKENDS",
    "BackendConfig",
    "ObserveConfig",
    "Session",
    "connect",
    "PreparedQuery",
    "QueryResult",
    "EvaluationTrace",
    "SessionError",
    "SessionClosedError",
    "UnknownBackendError",
]
