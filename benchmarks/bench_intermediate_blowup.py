"""E9 — intermediate-result blow-up (the introduction's framing claim).

Measures, for the R_G family with growing clause counts and the output kept a
single column wide, the peak intermediate relation size under naive evaluation
versus the projection-push-down + greedy-ordering optimiser, and contrasts the
same measurement on benign random project-join instances.  The paper's claim
is that on the construction the intermediates dwarf both input and output; the
fitted growth base quantifies it.

Since PR 2 each row also reports the streaming engine's peak *live* row count
(:mod:`repro.engine`) — the rows resident in hash tables / dedup sets while
the same query streams — which on the construction must stay below the naive
evaluator's materialised peak.  Since 6.1.0 the engine plans the minimized
query: ``project[S](φ_G)`` is one scan of ``R``, so its column reads the
2 result rows; the naive and optimized columns still evaluate the query as
written.
"""

from repro.analysis import analyze_blowup, fit_exponential_growth, format_table
from repro.expressions import Projection
from repro.reductions import RGConstruction
from repro.workloads import growing_construction_family, random_instance


def _construction_rows():
    rows = []
    points = []
    for case in growing_construction_family(clause_counts=(3, 4, 5, 6)):
        construction = RGConstruction(case.formula)
        query = Projection([construction.s_attribute], construction.expression)
        measurement = analyze_blowup(
            query, construction.relation, label=case.label, compare_engine=True
        )
        rows.append(
            {
                "case": case.label,
                "input": measurement.input_cardinality,
                "output": measurement.output_cardinality,
                "naive peak": measurement.naive_peak,
                "optimized peak": measurement.optimized_peak,
                "engine live": measurement.engine_peak_live,
                "peak/input": round(measurement.naive_blowup_vs_input, 2),
                "peak/output": round(measurement.naive_blowup_vs_output, 2),
            }
        )
        points.append((case.num_clauses, float(measurement.naive_peak)))
    return rows, points


def _random_rows():
    rows = []
    for seed in range(3):
        relation, query = random_instance(
            num_attributes=5, num_tuples=20, domain_size=3, num_factors=3, seed=seed
        )
        measurement = analyze_blowup(
            query, relation, label=f"random #{seed}", compare_engine=True
        )
        rows.append(
            {
                "case": f"random #{seed}",
                "input": measurement.input_cardinality,
                "output": measurement.output_cardinality,
                "naive peak": measurement.naive_peak,
                "optimized peak": measurement.optimized_peak,
                "engine live": measurement.engine_peak_live,
                "peak/input": round(measurement.naive_blowup_vs_input, 2),
                "peak/output": round(measurement.naive_blowup_vs_output, 2),
            }
        )
    return rows


def test_e9_blowup_on_construction(benchmark, emit_result):
    (rows, points) = benchmark.pedantic(_construction_rows, rounds=1, iterations=1)
    fit = fit_exponential_growth(points)
    table = format_table(rows)
    if fit is not None:
        table += (
            f"\nfitted naive peak ~ {fit.prefactor:.2f} * {fit.base:.2f}^m"
            f" (R^2 = {fit.r_squared:.3f})"
        )
    emit_result("E9", "intermediate blow-up on the R_G family (output = 1 column)", table)
    # The headline shape: peak intermediate exceeds both input and output on
    # every construction instance, and the trend grows with m (the individual
    # values wobble with each random formula's model count, so only the
    # end-to-end increase is asserted).
    assert all(row["naive peak"] > row["input"] for row in rows)
    assert all(row["naive peak"] > row["output"] for row in rows)
    peaks = [row["naive peak"] for row in rows]
    assert peaks[-1] > peaks[0]
    # The streaming engine holds fewer rows live than the naive evaluator
    # materialises at its peak, on every construction instance.
    assert all(row["engine live"] < row["naive peak"] for row in rows)


def test_e9_blowup_on_random_instances(benchmark, emit_result):
    rows = benchmark.pedantic(_random_rows, rounds=1, iterations=1)
    emit_result("E9-random", "the same measurement on benign random instances", format_table(rows))
    # Benign instances stay within a small constant of their input size.
    assert all(row["naive peak"] <= 10 * max(row["input"], 1) for row in rows)
