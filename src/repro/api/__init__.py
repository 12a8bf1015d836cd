"""The unified public API: sessions, prepared queries, one trace.

Four evaluators grew alongside the paper reproduction —
:func:`repro.expressions.evaluate`, the instrumented and optimising
evaluators, and the streaming :class:`~repro.engine.evaluator.EngineEvaluator`
with its budget knob.  The first three are library code a caller
runs directly; this package is the one front door that serves queries, and
it serves them all from the engine:

>>> import repro
>>> from repro.algebra import Relation
>>> r = Relation.from_rows("A B", [(1, "x"), (2, "y")], name="R")
>>> with repro.connect({"R": r}) as session:
...     query = session.prepare("project[A](R)")
...     len(query.execute())
2

* :class:`Session` owns the database side (named relations or a bare
  single relation), the :class:`BackendConfig`, and the serving state every
  prepared query shares (pinned plans, memory budget, counters);
* :meth:`Session.prepare` parses/validates/plans **once** into a
  :class:`PreparedQuery`; ``execute()`` / ``explain()`` / ``trace()`` then
  run the pinned plan;
* :class:`QueryResult` and :class:`EvaluationTrace` (re-exported from
  :mod:`repro.expressions`) are the result and trace types, the trace
  shared with the materialising evaluators;
* :class:`ObserveConfig` (re-exported from :mod:`repro.obs`) switches on
  the observability layer — span tracing, the structured event log, and
  the session metrics registry (``BackendConfig(observe=...)``).

``docs/API.md`` documents the facade, the library evaluators, and the
prepared-plan/invalidation contract.
"""

from ..expressions.evaluator import EvaluationTrace
from ..obs.config import ObserveConfig
from .config import BackendConfig
from .errors import SessionClosedError, SessionError
from .prepared import PreparedQuery
from .result import QueryResult
from .session import Session, connect

__all__ = [
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
