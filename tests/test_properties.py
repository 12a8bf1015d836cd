"""Property-based tests (hypothesis) for the core data structures and invariants.

These cover the algebraic identities the rest of the reproduction leans on:
projection/join laws, evaluator agreement (naive vs optimised vs tableau),
Lemma 1 as a property of random 3CNF formulas, and the Theorem 3 counting
identity against the independent SAT-side counters.
"""

from typing import List

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algebra import Relation, RelationScheme, project_join
from repro.expressions import InstrumentedEvaluator, Join, Operand, Projection, evaluate
from repro.expressions.optimizer import OptimizedEvaluator, push_down_projections
from repro.sat import (
    Assignment,
    CNFFormula,
    Clause,
    Literal,
    count_models,
    count_models_bruteforce,
    is_satisfiable,
    to_strict_three_cnf,
)
from repro.tableaux import tableau_of_expression

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

ATTRIBUTES = ["A", "B", "C", "D"]

values = st.integers(min_value=0, max_value=3)


@st.composite
def relations(draw, attributes=tuple(ATTRIBUTES), max_tuples=8):
    """A small random relation over a fixed scheme."""
    scheme = RelationScheme(attributes)
    rows = draw(
        st.lists(
            st.tuples(*[values for _ in attributes]),
            min_size=0,
            max_size=max_tuples,
        )
    )
    return Relation.from_rows(scheme, rows)


@st.composite
def projection_schemes(draw, attributes=tuple(ATTRIBUTES)):
    subset = draw(
        st.lists(st.sampled_from(list(attributes)), min_size=1, max_size=len(attributes), unique=True)
    )
    return RelationScheme(subset)


@st.composite
def project_join_queries(draw, attributes=tuple(ATTRIBUTES)):
    base = Operand("R", RelationScheme(attributes))
    factor_count = draw(st.integers(min_value=1, max_value=3))
    factors = [Projection(draw(projection_schemes(attributes)), base) for _ in range(factor_count)]
    query = factors[0] if len(factors) == 1 else Join(factors)
    if draw(st.booleans()):
        target = query.target_scheme()
        keep = draw(
            st.lists(
                st.sampled_from(list(target.names)),
                min_size=1,
                max_size=len(target),
                unique=True,
            )
        )
        query = Projection(RelationScheme(keep), query)
    return query


@st.composite
def three_cnf_formulas(draw, variable_pool=("x1", "x2", "x3", "x4", "x5"), max_clauses=5):
    clause_count = draw(st.integers(min_value=3, max_value=max_clauses))
    clauses = []
    for _ in range(clause_count):
        chosen = draw(
            st.lists(
                st.sampled_from(list(variable_pool)), min_size=3, max_size=3, unique=True
            )
        )
        signs = draw(st.tuples(st.booleans(), st.booleans(), st.booleans()))
        clauses.append(Clause(Literal(v, s) for v, s in zip(chosen, signs)))
    return CNFFormula(clauses)


COMMON_SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# ---------------------------------------------------------------------------
# Relational algebra laws
# ---------------------------------------------------------------------------


class TestAlgebraProperties:
    @COMMON_SETTINGS
    @given(relations(), projection_schemes())
    def test_projection_is_idempotent(self, relation, scheme):
        once = relation.project(scheme)
        assert once.project(scheme) == once

    @COMMON_SETTINGS
    @given(relations(), projection_schemes(), projection_schemes())
    def test_nested_projection_collapses_to_intersection(self, relation, outer, inner):
        combined = inner.intersection(outer)
        if len(combined) == 0:
            return
        assert relation.project(outer).project(combined) == relation.project(combined)

    @COMMON_SETTINGS
    @given(relations(), relations())
    def test_join_is_commutative(self, left, right):
        assert left.natural_join(right) == right.natural_join(left)

    @COMMON_SETTINGS
    @given(relations(), relations(), relations())
    def test_join_is_associative(self, first, second, third):
        left_first = first.natural_join(second).natural_join(third)
        right_first = first.natural_join(second.natural_join(third))
        assert left_first == right_first

    @COMMON_SETTINGS
    @given(relations())
    def test_join_with_itself_is_identity(self, relation):
        assert relation.natural_join(relation) == relation

    @COMMON_SETTINGS
    @given(relations(), projection_schemes(), projection_schemes())
    def test_project_join_contains_original_when_schemes_cover(self, relation, first, second):
        union = first.union(second)
        if union != relation.scheme:
            return
        joined = project_join(relation, [first, second])
        assert relation.is_subset_of(joined)

    @COMMON_SETTINGS
    @given(relations(), relations())
    def test_join_tuples_restrict_into_operands(self, left, right):
        joined = left.natural_join(right)
        for tup in joined:
            assert tup.project(left.scheme) in left
            assert tup.project(right.scheme) in right


# ---------------------------------------------------------------------------
# Evaluator agreement
# ---------------------------------------------------------------------------


class TestEvaluatorProperties:
    @COMMON_SETTINGS
    @given(relations(), project_join_queries())
    def test_push_down_preserves_value(self, relation, query):
        rewritten = push_down_projections(query)
        assert evaluate(rewritten, relation) == evaluate(query, relation)

    @COMMON_SETTINGS
    @given(relations(), project_join_queries())
    def test_optimized_evaluator_matches_naive(self, relation, query):
        naive = evaluate(query, relation)
        optimized, _ = OptimizedEvaluator().evaluate(query, relation)
        assert optimized == naive
        # The other entry points over the same walk: a constant estimator
        # (ties broken by position) and the as-written order, traced.
        constant, _ = OptimizedEvaluator(estimator=lambda left, right: 1.0).evaluate(
            query, relation
        )
        instrumented, trace = InstrumentedEvaluator().evaluate(query, relation)
        assert constant == naive
        assert instrumented == naive
        assert trace.steps[-1].cardinality == trace.result_cardinality == len(naive)

    @COMMON_SETTINGS
    @given(relations(max_tuples=6), project_join_queries())
    def test_tableau_evaluation_matches_expression(self, relation, query):
        tableau = tableau_of_expression(query)
        assert tableau.evaluate({"R": relation}) == evaluate(query, relation)

    @COMMON_SETTINGS
    @given(relations(), project_join_queries())
    def test_result_scheme_is_target_scheme(self, relation, query):
        assert evaluate(query, relation).scheme == query.target_scheme()

    @COMMON_SETTINGS
    @given(relations(), relations(), project_join_queries())
    def test_monotonicity_of_project_join_queries(self, small, extra, query):
        large = small.union(extra)
        assert evaluate(query, small).is_subset_of(evaluate(query, large))


# ---------------------------------------------------------------------------
# SAT substrate invariants
# ---------------------------------------------------------------------------


class TestSatProperties:
    @COMMON_SETTINGS
    @given(three_cnf_formulas())
    def test_dpll_agrees_with_bruteforce(self, formula):
        assert is_satisfiable(formula) == (count_models_bruteforce(formula) > 0)

    @COMMON_SETTINGS
    @given(three_cnf_formulas())
    def test_counting_dpll_agrees_with_bruteforce(self, formula):
        assert count_models(formula) == count_models_bruteforce(formula)

    @COMMON_SETTINGS
    @given(three_cnf_formulas())
    def test_strict_three_cnf_conversion_is_identity_on_strict_input(self, formula):
        assert to_strict_three_cnf(formula) == formula

    @COMMON_SETTINGS
    @given(st.lists(st.tuples(st.sampled_from(["p", "q", "r", "s"]), st.booleans()), min_size=1, max_size=4))
    def test_clause_satisfying_assignments_are_exactly_the_models(self, raw_literals):
        clause = Clause(Literal(v, s) for v, s in raw_literals)
        if not clause.has_distinct_variables():
            return
        satisfying = clause.satisfying_assignments()
        assert len(satisfying) == 2 ** len(clause.variable_tuple()) - 1
        for assignment in satisfying:
            assert clause.evaluate(assignment)


# ---------------------------------------------------------------------------
# Paper-level invariants (Lemma 1 and Theorem 3 as properties)
# ---------------------------------------------------------------------------


class TestConstructionProperties:
    @settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(three_cnf_formulas(max_clauses=4))
    def test_lemma1_holds_for_random_formulas(self, formula):
        from repro.reductions import RGConstruction

        construction = RGConstruction(formula)
        result = evaluate(construction.expression, construction.relation)
        assert result == construction.expected_result()

    @settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(three_cnf_formulas(max_clauses=4))
    def test_theorem3_identity_holds_for_random_formulas(self, formula):
        from repro.reductions import Theorem3Reduction

        reduction = Theorem3Reduction(formula)
        instance = reduction.instance()
        tuple_count = len(evaluate(instance.expression, instance.relation))
        assert reduction.models_from_tuple_count(tuple_count) == count_models(
            reduction.construction.formula
        )

    @settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(three_cnf_formulas(max_clauses=4))
    def test_proposition1_membership_iff_satisfiable(self, formula):
        from repro.reductions import MembershipReduction
        from repro.decision import tuple_in_result

        reduction = MembershipReduction(formula)
        instance = reduction.instance()
        member = tuple_in_result(instance.tuple, reduction.expression(), instance.relation)
        assert member == is_satisfiable(reduction.construction.formula)
