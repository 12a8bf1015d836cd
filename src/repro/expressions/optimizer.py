"""Heuristic optimisation of projection-join expressions.

The paper's central observation is that *naive* evaluation of projection-join
expressions can materialise intermediates exponentially larger than both the
input and the output, and that this blow-up is inherent in the worst case
(because the decision problems are DP-/Π₂ᵖ-complete).  In practice, however,
two standard rewrites mitigate the blow-up on benign instances, and the
ablation benchmark compares them against the naive evaluator:

* **Projection push-down** — only the attributes needed above a join need to
  be carried through it, so a projection can be pushed onto each join operand
  (keeping the join attributes).
* **Greedy join ordering** — joining the pair with the smallest estimated
  result first.

These rewrites never change the result (classical algebraic identities of the
relational algebra); the tests verify this equivalence on random instances.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..algebra.operations import estimate_join_size, greedy_join
from ..algebra.relation import Relation
from ..algebra.schema import RelationScheme
from .ast import Expression, ExpressionError, Join, Operand, Projection
from .evaluator import ArgumentLike, EvaluationTrace, TraceStep, traced_walk

__all__ = ["push_down_projections", "OptimizedEvaluator"]

SizeEstimator = Callable[[Relation, Relation], float]


def push_down_projections(expression: Expression) -> Expression:
    """Rewrite the expression so projections are applied as early as possible.

    The rewrite preserves the target scheme and the value of the expression on
    every database.  The top-level scheme is used as the initial set of
    "needed" attributes.
    """
    return _push(expression, expression.target_scheme())


def _push(node: Expression, needed: RelationScheme) -> Expression:
    node_scheme = node.target_scheme()
    needed = node_scheme.intersection(needed)

    if isinstance(node, Operand):
        if needed == node_scheme:
            return node
        return Projection(needed, node)

    if isinstance(node, Projection):
        # Collapse nested projections: only the outermost needed set matters.
        inner_needed = node.target.intersection(needed)
        return _push(node.child, inner_needed)

    if isinstance(node, Join):
        # An attribute must be kept below the join if it is needed above, or
        # if it is a join attribute (appears in more than one operand).
        appearance_count: Dict[str, int] = {}
        for part in node.parts:
            for name in part.target_scheme().names:
                appearance_count[name] = appearance_count.get(name, 0) + 1
        join_attributes = {name for name, count in appearance_count.items() if count > 1}
        keep = set(needed.names) | join_attributes

        new_parts: List[Expression] = []
        for part in node.parts:
            part_scheme = part.target_scheme()
            part_keep = RelationScheme(
                [a for a in part_scheme.attributes if a.name in keep]
            )
            new_parts.append(_push(part, part_keep))
        joined: Expression = Join(new_parts)
        if joined.target_scheme() == needed:
            return joined
        return Projection(needed, joined)

    raise ExpressionError(f"unknown expression node {node!r}")


class OptimizedEvaluator:
    """Evaluate with projection push-down and greedy join ordering.

    The evaluator first rewrites the expression with
    :func:`push_down_projections`, then evaluates it, ordering each n-ary join
    greedily by estimated intermediate cardinality.  An
    :class:`~repro.expressions.evaluator.EvaluationTrace` is returned so the
    blow-up benchmark can compare peak intermediate sizes against the naive
    evaluator.

    The join ordering is driven by a pluggable *size estimator*: a callable
    ``(left, right) -> float`` scoring candidate pairwise joins.  The default
    is :func:`repro.algebra.operations.estimate_join_size`; benchmarks pass
    alternative estimators (e.g. a constant) to contrast orderings while
    keeping every other part of the pipeline identical.
    """

    def __init__(self, estimator: Optional[SizeEstimator] = None):
        """Create an evaluator, optionally overriding the join size estimator."""
        self._estimator: SizeEstimator = estimator or estimate_join_size

    def evaluate(
        self, expression: Expression, arguments: ArgumentLike
    ) -> Tuple[Relation, EvaluationTrace]:
        """Evaluate and return ``(result, trace)``."""
        return traced_walk(
            "optimized",
            expression,
            arguments,
            self._join_greedily,
            push_down_projections(expression),
        )

    def _join_greedily(
        self, parts: List[Relation], trace: Optional[EvaluationTrace]
    ) -> Relation:
        """Join relations pairwise, picking the cheapest estimated pair each time."""

        def record(joined: Relation, remaining: int) -> None:
            trace.record(
                TraceStep.from_relation(
                    f"greedy join ({remaining} operands remaining)", "join", joined
                )
            )

        return greedy_join(
            parts, self._estimator, observe=record if trace is not None else None
        )
