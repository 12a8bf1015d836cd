"""End-to-end integration tests across the whole pipeline.

Each test exercises a full path: SAT/QBF instance -> paper construction ->
relational evaluation -> decision procedure -> comparison against the
independent solver, mirroring the paper experiments E1–E10
(``benchmarks/bench_*.py``, tables in ``benchmarks/results/E*.txt``) at a size
small enough for the unit-test suite.
"""

import pytest

from repro.complexity import ReductionCheck, verify_reduction
from repro.decision import (
    CardinalityDecider,
    ContainmentDecider,
    QueryResultEqualityDecider,
    TupleCounter,
)
from repro.expressions import evaluate, parse_expression
from repro.qbf import canonical_false_q3sat, evaluate_by_expansion, planted_true_q3sat
from repro.reductions import (
    SatUnsatPair,
    Theorem1Reduction,
    Theorem2TwoSidedReduction,
    Theorem3Reduction,
    Theorem4Reduction,
    Theorem5Reduction,
)
from repro.sat import count_models, is_satisfiable
from repro.workloads import (
    mixed_family,
    qbf_family,
    sat_unsat_pairs,
    satisfiable_family,
    unsatisfiable_family,
)


class TestTheorem1EndToEnd:
    def test_reduction_agrees_with_solver_on_all_pair_kinds(self):
        check = ReductionCheck(
            name="Theorem 1",
            source_answer=lambda pair: pair.is_yes_instance(),
            target_answer=lambda pair: QueryResultEqualityDecider().equal(
                *_reorder(Theorem1Reduction(pair).instance())
            ),
        )
        report = verify_reduction(check, [pair for _, pair in sat_unsat_pairs()])
        assert report.all_agree
        assert report.yes_instances == 1


def _reorder(instance):
    relation, expression, conjectured = instance
    return expression, relation, conjectured


class TestTheorem2EndToEnd:
    def test_exact_and_window_instances_agree_with_solver(self):
        decider = CardinalityDecider()
        for _, pair in sat_unsat_pairs():
            reduction = Theorem2TwoSidedReduction(pair)
            for instance in (reduction.exact_instance(), reduction.window_instance()):
                verdict = decider.check_bounds(
                    instance.expression, instance.relation, instance.lower, instance.upper
                )
                assert verdict.holds == reduction.expected_yes()


class TestTheorem3EndToEnd:
    def test_counting_matches_sat_counter_across_families(self):
        counter = TupleCounter()
        cases = satisfiable_family(clause_counts=(3, 4)) + unsatisfiable_family(
            extra_clause_counts=(0,)
        )
        for case in cases:
            reduction = Theorem3Reduction(case.formula)
            instance = reduction.instance()
            tuple_count = counter.count(instance.expression, instance.relation)
            assert reduction.models_from_tuple_count(tuple_count) == count_models(
                reduction.construction.formula
            )


class TestTheorems4And5EndToEnd:
    def test_containment_tracks_qbf_truth(self):
        decider = ContainmentDecider()
        for label, instance, planted_truth in qbf_family(universal_counts=(3,)):
            four = Theorem4Reduction(instance)
            comparison4 = four.containment_instance()
            answer4 = decider.compare_queries(
                comparison4.first, comparison4.second, comparison4.relation
            ).left_in_right
            five = Theorem5Reduction(instance)
            comparison5 = five.containment_instance()
            answer5 = decider.compare_databases(
                comparison5.expression, comparison5.first, comparison5.second
            ).left_in_right
            assert answer4 == answer5 == planted_truth == evaluate_by_expansion(instance)


class TestTextualRoundTrips:
    def test_constructed_expressions_survive_parsing(self):
        from repro.workloads import paper_example_construction

        construction = paper_example_construction()
        for expression in (
            construction.expression,
            construction.pair_projection_expression(),
            construction.phi_one_expression(),
            construction.phi_two_expression(),
        ):
            schemes = expression.operand_schemes()
            parsed = parse_expression(expression.to_text(), schemes)
            assert parsed == expression

    def test_reduction_expressions_survive_parsing(self):
        pair = [pair for _, pair in sat_unsat_pairs()][0]
        reduction = Theorem1Reduction(pair)
        expression = reduction.expression()
        parsed = parse_expression(expression.to_text(), expression.operand_schemes())
        assert parsed == expression


class TestSolverRelationalAgreementOnRandomFormulas:
    def test_relational_satisfiability_matches_dpll_on_mixed_family(self):
        from repro.reductions import MembershipReduction
        from repro.decision import tuple_in_result

        # The clause/variable ratio is kept low: naive evaluation of φ_G is
        # exponential in the clause count, and this test only needs agreement,
        # not a hard instance.
        for case in mixed_family(count=4, num_variables=5, clause_ratio=1.6):
            reduction = MembershipReduction(case.formula)
            instance = reduction.instance()
            relational_answer = tuple_in_result(
                instance.tuple, reduction.expression(), instance.relation
            )
            assert relational_answer == is_satisfiable(reduction.construction.formula)
