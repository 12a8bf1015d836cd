"""Intermediate-result blow-up analysis (the introduction's headline claim).

The paper's framing result is that, unlike ordinary integer algebra,
relational algebra admits expressions whose *intermediate* results are
inherently much larger than both the input and the (polynomially bounded)
output.  :func:`analyze_blowup` measures exactly that on a concrete
relation/expression pair by running the instrumented evaluator, and
optionally the optimising evaluator and the streaming engine for comparison;
:func:`blowup_sweep` repeats the measurement over a family and tabulates
growth.

The materialising evaluators are called directly; the engine runs through
a :class:`~repro.api.Session`, which carries its budget/worker configuration
and tears its pools down.  Each evaluator's
:class:`~repro.api.EvaluationTrace` supplies the peaks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..api import Session
from ..expressions.ast import Expression
from ..expressions.evaluator import ArgumentLike, InstrumentedEvaluator
from ..expressions.optimizer import OptimizedEvaluator

__all__ = ["BlowupMeasurement", "analyze_blowup", "blowup_sweep"]


@dataclass(frozen=True)
class BlowupMeasurement:
    """Peak intermediate sizes of one evaluation, naive vs optimised.

    ``label`` identifies the instance (e.g. "m=4, n=6"); the remaining fields
    are tuple counts.
    """

    label: str
    input_cardinality: int
    output_cardinality: int
    naive_peak: int
    naive_total: int
    optimized_peak: Optional[int]
    optimized_total: Optional[int]
    #: Peak rows simultaneously resident in the streaming engine's state
    #: (hash tables, dedup sets, result accumulator) — ``None`` when the
    #: engine comparison was not requested.
    engine_peak_live: Optional[int] = None

    @property
    def naive_blowup_vs_input(self) -> float:
        """Peak naive intermediate size divided by input size."""
        return self.naive_peak / self.input_cardinality if self.input_cardinality else 0.0

    @property
    def naive_blowup_vs_output(self) -> float:
        """Peak naive intermediate size divided by output size."""
        return self.naive_peak / self.output_cardinality if self.output_cardinality else 0.0

    @property
    def optimizer_gain(self) -> Optional[float]:
        """How much smaller the optimised peak is (naive_peak / optimized_peak)."""
        if self.optimized_peak in (None, 0):
            return None
        return self.naive_peak / self.optimized_peak

    @property
    def engine_gain(self) -> Optional[float]:
        """How much smaller the engine's live peak is (naive_peak / engine_peak_live)."""
        if self.engine_peak_live in (None, 0):
            return None
        return self.naive_peak / self.engine_peak_live

    def as_row(self) -> Dict[str, float]:
        """A flat dict for tabular output."""
        row: Dict[str, float] = {
            "input": float(self.input_cardinality),
            "output": float(self.output_cardinality),
            "naive_peak": float(self.naive_peak),
            "naive_total": float(self.naive_total),
            "blowup_vs_input": self.naive_blowup_vs_input,
            "blowup_vs_output": self.naive_blowup_vs_output,
        }
        if self.optimized_peak is not None:
            row["optimized_peak"] = float(self.optimized_peak)
            row["optimizer_gain"] = float(self.optimizer_gain or 0.0)
        if self.engine_peak_live is not None:
            row["engine_peak_live"] = float(self.engine_peak_live)
            row["engine_gain"] = float(self.engine_gain or 0.0)
        return row


def analyze_blowup(
    expression: Expression,
    arguments: ArgumentLike,
    label: str = "",
    compare_optimizer: bool = True,
    compare_engine: bool = False,
    engine_budget: "int | None" = None,
    engine_workers: int = 1,
) -> BlowupMeasurement:
    """Measure peak intermediate sizes for one evaluation.

    With ``compare_engine`` the streaming engine also runs the query; its
    result is checked against the naive evaluation and its peak *live* row
    count — the streaming analogue of peak materialised cardinality — is
    recorded in :attr:`BlowupMeasurement.engine_peak_live`.
    ``engine_budget`` (rows) makes that run memory-budgeted (Grace-hash
    spilling) and ``engine_workers`` > 1 runs the parallel probe stage —
    the cross-check against the naive result still applies, so the CLI's
    ``--memory-budget``/``--workers`` sweeps double as correctness checks.

    The engine runs in a :class:`~repro.api.Session` of its own, so its
    pools/budget are torn down with the measurement.
    """
    naive, naive_trace = InstrumentedEvaluator().evaluate(expression, arguments)
    optimized_peak: Optional[int] = None
    optimized_total: Optional[int] = None
    if compare_optimizer:
        optimized, optimized_trace = OptimizedEvaluator().evaluate(
            expression, arguments
        )
        if optimized != naive:
            raise AssertionError(
                "optimised evaluation disagreed with naive evaluation; "
                "this indicates a bug in the optimiser rewrites"
            )
        optimized_peak = optimized_trace.peak_intermediate_cardinality
        optimized_total = optimized_trace.total_intermediate_tuples
    engine_peak_live: Optional[int] = None
    if compare_engine:
        with Session(
            arguments, budget=engine_budget, workers=engine_workers
        ) as session:
            engine = session.prepare(expression).execute()
        if engine.relation != naive:
            raise AssertionError(
                "engine evaluation disagreed with naive evaluation; "
                "this indicates a bug in the streaming operators or planner"
            )
        engine_peak_live = engine.trace.peak_live_rows
    return BlowupMeasurement(
        label=label,
        input_cardinality=naive_trace.input_cardinality,
        output_cardinality=naive_trace.result_cardinality,
        naive_peak=naive_trace.peak_intermediate_cardinality,
        naive_total=naive_trace.total_intermediate_tuples,
        optimized_peak=optimized_peak,
        optimized_total=optimized_total,
        engine_peak_live=engine_peak_live,
    )


def blowup_sweep(
    instances: Sequence[Tuple[str, Expression, ArgumentLike]],
    compare_optimizer: bool = True,
    compare_engine: bool = False,
    engine_budget: "int | None" = None,
    engine_workers: int = 1,
) -> List[BlowupMeasurement]:
    """Measure a family of (label, expression, arguments) instances."""
    return [
        analyze_blowup(
            expression,
            arguments,
            label=label,
            compare_optimizer=compare_optimizer,
            compare_engine=compare_engine,
            engine_budget=engine_budget,
            engine_workers=engine_workers,
        )
        for label, expression, arguments in instances
    ]
