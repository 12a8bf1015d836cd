"""The suite's four evaluators of one query, behind one call.

A :class:`repro.api.Session` serves every query from the streaming engine;
the three materialising evaluators (``evaluate``, ``InstrumentedEvaluator``,
``OptimizedEvaluator``) are library code, called directly.  Differential
tests run a query on each through :func:`run_evaluator` and compare the
results with ``algebra/reference.py``.
"""

from repro.expressions import (
    InstrumentedEvaluator,
    OptimizedEvaluator,
    evaluate,
    parse_expression,
)

#: Evaluator names, in generation order; the materialising ones name the
#: ``EvaluationTrace.backend`` their traces carry.
EVALUATORS = ("naive", "instrumented", "optimized", "engine")

#: The evaluators that hand back an ``EvaluationTrace``.
TRACED_EVALUATORS = EVALUATORS[1:]


def run_evaluator(name, session, expression, **bindings):
    """``(relation, trace)`` of ``expression`` on evaluator ``name``.

    The engine runs through ``session.prepare(expression).execute()``; the
    others are called on the session's relations, with ``bindings``
    overriding them as ``execute(**bindings)`` does.  ``naive`` is
    :func:`repro.expressions.evaluate`, which returns no trace (``None``).
    """
    if name == "engine":
        result = session.prepare(expression).execute(**bindings)
        return result.relation, result.trace
    relations = {**session.relations, **bindings}
    if isinstance(expression, str):
        expression = parse_expression(
            expression, {key: relation.scheme for key, relation in relations.items()}
        )
    if name == "naive":
        return evaluate(expression, relations), None
    evaluator = InstrumentedEvaluator() if name == "instrumented" else OptimizedEvaluator()
    return evaluator.evaluate(expression, relations)
