"""Tests for the analysis tooling (blow-up measurement and statistics helpers)."""

import math

import pytest

from repro.algebra import Relation
from repro.analysis import (
    analyze_blowup,
    blowup_sweep,
    fit_exponential_growth,
    format_table,
    geometric_mean,
)
from repro.expressions import Join, Operand, Projection

R = Relation.from_rows("A B C", [(1, 2, 3), (1, 2, 4), (2, 5, 3)], name="R")
BASE = Operand("R", "A B C")
QUERY = Projection("A", Join([Projection("A B", BASE), Projection("B C", BASE)]))


class TestBlowupMeasurement:
    def test_basic_fields(self):
        measurement = analyze_blowup(QUERY, R, label="toy")
        assert measurement.label == "toy"
        assert measurement.input_cardinality == len(R)
        assert measurement.naive_peak >= measurement.output_cardinality
        assert measurement.optimized_peak is not None

    def test_ratios_and_row(self):
        measurement = analyze_blowup(QUERY, R)
        row = measurement.as_row()
        assert row["naive_peak"] == float(measurement.naive_peak)
        assert measurement.naive_blowup_vs_input == pytest.approx(
            measurement.naive_peak / measurement.input_cardinality
        )
        assert "optimizer_gain" in row

    def test_without_optimizer(self):
        measurement = analyze_blowup(QUERY, R, compare_optimizer=False)
        assert measurement.optimized_peak is None
        assert measurement.optimizer_gain is None
        assert "optimized_peak" not in measurement.as_row()

    def test_sweep(self):
        measurements = blowup_sweep(
            [("a", QUERY, R), ("b", Projection("A B", BASE), R)],
            compare_optimizer=False,
        )
        assert [m.label for m in measurements] == ["a", "b"]

    def test_blowup_is_real_on_the_construction(self):
        # The R_G construction with a tiny output projection: the peak
        # intermediate must exceed both input and output.
        from repro.reductions import RGConstruction
        from repro.sat import paper_example_formula

        construction = RGConstruction(paper_example_formula())
        query = Projection([construction.s_attribute], construction.expression)
        measurement = analyze_blowup(query, construction.relation)
        assert measurement.output_cardinality <= 2
        assert measurement.naive_peak > measurement.output_cardinality
        assert measurement.naive_peak > measurement.input_cardinality

    def test_e9_rows_are_pinned(self):
        """``benchmarks/results/E9.txt``'s table, exactly: input, output,
        naive peak, optimized peak and engine live rows of ``project[S](φ_G)``
        on the growing family, m = 3..6."""
        from repro.reductions import RGConstruction
        from repro.workloads import growing_construction_family

        rows = []
        for case in growing_construction_family(clause_counts=(3, 4, 5, 6)):
            construction = RGConstruction(case.formula)
            query = Projection([construction.s_attribute], construction.expression)
            measurement = analyze_blowup(
                query, construction.relation, label=case.label, compare_engine=True
            )
            rows.append(
                (
                    measurement.input_cardinality,
                    measurement.output_cardinality,
                    measurement.naive_peak,
                    measurement.optimized_peak,
                    measurement.engine_peak_live,
                )
            )
        assert rows == [
            (22, 2, 111, 22, 2),
            (29, 2, 107, 37, 2),
            (36, 2, 188, 64, 2),
            (43, 2, 183, 108, 2),
        ]


class TestStatistics:
    def test_geometric_mean(self):
        assert geometric_mean([1, 100]) == pytest.approx(10.0)
        assert geometric_mean([]) == 0.0
        assert geometric_mean([5]) == pytest.approx(5.0)

    def test_geometric_mean_ignores_non_positive(self):
        assert geometric_mean([0, 10, 10]) == pytest.approx(10.0)

    def test_fit_exponential_growth_recovers_base(self):
        points = [(m, 3.0 * (2.0 ** m)) for m in range(1, 7)]
        fit = fit_exponential_growth(points)
        assert fit is not None
        assert fit.base == pytest.approx(2.0, rel=1e-6)
        assert fit.prefactor == pytest.approx(3.0, rel=1e-6)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-9)
        assert fit.predict(8) == pytest.approx(3.0 * 256.0, rel=1e-6)

    def test_fit_needs_two_points(self):
        assert fit_exponential_growth([(1, 5.0)]) is None
        assert fit_exponential_growth([]) is None
        assert fit_exponential_growth([(1, 5.0), (1, 7.0)]) is None

    def test_fit_ignores_non_positive_values(self):
        points = [(1, 0.0), (2, 4.0), (3, 8.0)]
        fit = fit_exponential_growth(points)
        assert fit is not None
        assert fit.base == pytest.approx(2.0, rel=1e-6)

    def test_format_table(self):
        rows = [{"m": 3, "peak": 42.0}, {"m": 4, "peak": 99.5}]
        table = format_table(rows)
        assert "m" in table and "peak" in table
        assert "42.000" in table
        assert format_table([]) == "(no rows)"

    def test_format_table_with_explicit_columns(self):
        rows = [{"a": 1, "b": 2}]
        table = format_table(rows, columns=["b"])
        assert "b" in table and "a" not in table.splitlines()[0]
