"""Build ``EXPLAIN ANALYZE`` reports from a traced execution's spans.

:func:`explain_report` turns the flat span list on ``EvaluationTrace.spans``
plus the measured wall-time of the execution into a per-operator runtime
report: an operator tree annotated with inclusive and self seconds, row
counts, and the fraction of wall-time attributed to named operator spans
(the engine's acceptance gate holds this at >= 95% on the m=12 blowup
workload).
"""

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .tracer import Span, span_tree

__all__ = ["ExplainAnalyzeReport", "OperatorTiming", "explain_report"]


@dataclass
class OperatorTiming:
    """One operator's measured runtime within an execution.

    ``seconds`` is inclusive (covers everything the operator pulled
    from); ``self_seconds`` subtracts directly nested operator spans.
    """

    label: str
    seconds: float
    self_seconds: float
    rows: int
    depth: int
    counters: Dict[str, int] = field(default_factory=dict)


@dataclass
class ExplainAnalyzeReport:
    """The ``PreparedQuery.explain_analyze()`` result.

    ``attributed_fraction`` is the share of ``total_seconds`` covered by
    root operator spans — the headline "do the spans explain the time?"
    number.  ``str(report)`` renders the human-readable tree.
    """

    total_seconds: float
    attributed_seconds: float
    result_rows: int
    operators: List[OperatorTiming] = field(default_factory=list)
    others: Dict[str, Dict[str, float]] = field(default_factory=dict)
    spans: List[Span] = field(default_factory=list)

    @property
    def attributed_fraction(self) -> float:
        """Operator-span seconds over measured wall seconds (0..1)."""
        if self.total_seconds <= 0.0:
            return 0.0
        return min(1.0, self.attributed_seconds / self.total_seconds)

    def __str__(self) -> str:
        lines = [
            "EXPLAIN ANALYZE (engine)",
            "total %.6fs · operators %.6fs (%.1f%% attributed) · %d rows out"
            % (
                self.total_seconds,
                self.attributed_seconds,
                100.0 * self.attributed_fraction,
                self.result_rows,
            ),
        ]
        if self.operators:
            lines.append("operator tree (inclusive / self seconds · rows):")
            for timing in self.operators:
                lines.append(
                    "  %s%-48s %.6f / %.6f · %d"
                    % (
                        "  " * timing.depth,
                        timing.label,
                        timing.seconds,
                        timing.self_seconds,
                        timing.rows,
                    )
                )
        if self.others:
            parts = [
                "%s ×%d %.6fs" % (kind, stats["count"], stats["seconds"])
                for kind, stats in sorted(self.others.items())
            ]
            lines.append("other spans: " + " · ".join(parts))
        return "\n".join(lines)


def explain_report(
    spans: List[Span],
    total_seconds: float,
    result_rows: int = 0,
) -> ExplainAnalyzeReport:
    """Assemble an :class:`ExplainAnalyzeReport` from spans + wall time."""
    roots, children = span_tree(spans)
    operators: List[OperatorTiming] = []

    def walk(span: Span, depth: int) -> None:
        kids = children.get(span.span_id, [])
        if span.kind == "operator":
            nested = sum(kid.seconds for kid in kids if kid.kind == "operator")
            operators.append(
                OperatorTiming(
                    label=span.label,
                    seconds=span.seconds,
                    self_seconds=max(0.0, span.seconds - nested),
                    rows=span.rows,
                    depth=depth,
                    counters=dict(span.counters),
                )
            )
            depth += 1
        for kid in kids:
            walk(kid, depth)

    operator_roots = 0.0
    for root in roots:
        walk(root, 0)

    def root_operator_seconds(span: Span) -> float:
        if span.kind == "operator":
            return span.seconds
        return sum(
            root_operator_seconds(kid) for kid in children.get(span.span_id, [])
        )

    operator_roots = sum(root_operator_seconds(root) for root in roots)

    others: Dict[str, Dict[str, float]] = {}
    for span in spans:
        if span.kind == "operator":
            continue
        stats = others.setdefault(span.kind, {"count": 0, "seconds": 0.0})
        stats["count"] += 1
        stats["seconds"] += span.seconds
    return ExplainAnalyzeReport(
        total_seconds=total_seconds,
        attributed_seconds=operator_roots,
        result_rows=result_rows,
        operators=operators,
        others=others,
        spans=list(spans),
    )
