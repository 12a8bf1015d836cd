"""Minimize before planning: ``tableaux.minimize_expression`` and the planner.

The planner's first step drops the join operands an expression's minimal
tableau does not need (Aho–Sagiv–Ullman 1979; Chandra–Merlin 1977).  Pinned
here:

* **the rewrite is sound** — on random project-join expressions with
  repeated operands the output is ``query_equivalent`` to the input, set-equal
  to it under ``algebra/reference.py`` on random databases, names the same
  operands and never has more of them;
* **the search is the old search** — ``minimize_tableau``'s precheck skips
  only rows that cannot fold, so it keeps exactly the rows the unfiltered
  loop (kept below as the reference) keeps, constants included;
* **the paper's query** — ``project[S](φ_G)`` plans as one scan and one
  projection at m = 3, 12 and 14, and ``explain()`` says so;
* **no search where nothing folds** — ``φ_G``, ``π_Y(φ_G)``, the serving
  queries and the ``join_100k`` queries come back as the very object passed
  in, without one homomorphism search;
* **as written elsewhere** — ``InstrumentedEvaluator`` and
  ``OptimizedEvaluator`` still evaluate the written expression (E9's sizes);
* **AST hashes are computed once** — and equal the recursive hash.
"""

import pickle
import random

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.algebra import Relation, RelationScheme, naive_project
from repro.api import Session
from repro.expressions import (
    InstrumentedEvaluator,
    Join,
    Operand,
    OptimizedEvaluator,
    Projection,
    parse_expression,
)
from repro.reductions.rg import RGConstruction
from repro.tableaux import (
    Constant,
    Tableau,
    TableauRow,
    find_homomorphism,
    minimize_expression,
    minimize_tableau,
    query_equivalent,
    tableau_of_expression,
)
from repro.tableaux import homomorphism
from repro.workloads import growing_construction_family, serving_queries, serving_relations

from test_engine_ordering import JOIN_100K_QUERIES, _join_100k_slice
from test_engine_pruning import _reference

#: Two operands over overlapping schemes, so a drawn expression repeats one.
SCHEMES = {"R": RelationScheme.of("A", "B", "C"), "S": RelationScheme.of("B", "C", "D")}


def _leaves(expression):
    return [node for node in expression.walk() if isinstance(node, Operand)]


@st.composite
def expressions(draw, depth=2):
    """A project-join expression over :data:`SCHEMES`: joins of 2-4 parts,
    each an operand, a projection, or (while ``depth`` lasts) a smaller
    expression, under an optional projection."""
    if depth == 0 or draw(st.integers(0, 2)) == 0:
        name = draw(st.sampled_from(sorted(SCHEMES)))
        node = Operand(name, SCHEMES[name])
    else:
        parts = draw(st.lists(expressions(depth=depth - 1), min_size=2, max_size=4))
        node = Join(parts)
    if draw(st.booleans()):
        names = list(node.target_scheme().names)
        kept = draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
        node = Projection(kept, node)
    return node


def _database(seed):
    rng = random.Random(seed)
    return {
        name: Relation.from_rows(
            scheme,
            sorted({tuple(rng.randrange(3) for _ in scheme.names) for _ in range(rng.randint(0, 9))}),
            name=name,
        )
        for name, scheme in SCHEMES.items()
    }


# -- the rewrite is sound ---------------------------------------------------


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(expressions(), st.integers(0, 2**32 - 1))
def test_minimized_expressions_are_equivalent_and_never_larger(expression, seed):
    smaller = minimize_expression(expression)
    assert smaller.operand_names() == expression.operand_names()
    assert smaller.target_scheme().names == expression.target_scheme().names
    if smaller is not expression:
        assert len(_leaves(smaller)) < len(_leaves(expression))
        assert query_equivalent(smaller, expression), (expression, smaller)
    for offset in range(2):
        database = _database(seed + offset)
        assert _reference(smaller, database) == _reference(expression, database)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(expressions(), st.integers(0, 2**32 - 1))
def test_the_engine_answers_the_written_query(expression, seed):
    database = _database(seed)
    with Session(database) as session:
        result = session.execute(expression)
        plan = session._engine.pinned_plan(expression)
    reference = _reference(expression, database)
    assert result.relation.project(reference.scheme.names) == reference
    assert plan.expression is expression
    assert (plan.minimized is None) == (minimize_expression(expression) is expression)


def test_repeated_leaves_fold_away():
    r = Operand("R", SCHEMES["R"])
    query = Projection(["A"], Join([Projection(["A", "B"], r), Projection(["B", "C"], r)]))
    assert minimize_expression(query) == Projection(["A"], Projection(["A", "B"], r))
    # A join of an operand with its own projection is the operand.
    assert minimize_expression(Join([r, Projection(["B"], r)])) == r


def test_a_cut_that_would_change_the_query_keeps_it_as_written():
    r, t = Operand("R", "A B"), Operand("T", "A C")
    # Cutting the inner R would leave project[A, B] over T, which has no B.
    stranded = Join([Projection(["A", "B"], Join([r, t])), r])
    # Cutting project[B](R) would turn the columns (B, A) into (A, B).
    reordered = Join([Projection(["B"], r), r])
    for query in (stranded, reordered):
        assert len(minimize_tableau(tableau_of_expression(query)).rows) < len(_leaves(query))
        assert minimize_expression(query) is query


# -- the search is the old search ---------------------------------------------


def _unfiltered_minimize(tableau):
    """``minimize_tableau`` as it was before its precheck: every row tried."""
    current_rows = list(tableau.rows)
    changed = True
    while changed and len(current_rows) > 1:
        changed = False
        full = Tableau(tableau.summary, current_rows, tableau.target_scheme)
        for index in range(len(current_rows)):
            candidate_rows = current_rows[:index] + current_rows[index + 1:]
            candidate = Tableau(tableau.summary, candidate_rows, tableau.target_scheme)
            if find_homomorphism(full, candidate) is not None:
                current_rows = candidate_rows
                changed = True
                break
    return Tableau(tableau.summary, current_rows, tableau.target_scheme)


def _with_constants(tableau, rng):
    """``tableau`` with some of its variables, summary ones included, each
    replaced by one constant everywhere it occurs."""
    cells = {cell for row in tableau.rows for _, cell in row.cells}
    cells |= set(tableau.summary.values())
    swap = {cell: Constant(rng.randrange(2)) for cell in cells if rng.random() < 0.25}
    summary = {name: swap.get(cell, cell) for name, cell in tableau.summary.items()}
    rows = [
        TableauRow(row.operand, tuple((name, swap.get(cell, cell)) for name, cell in row.cells))
        for row in tableau.rows
    ]
    return Tableau(summary, rows, tableau.target_scheme)


#: A variable whose image another row also holds: the precheck may not
#: require every row sharing it to fold onto the same target.
SHARED_IMAGE = Projection(["A"], Join([
    Operand("R", SCHEMES["R"]),
    Operand("R", SCHEMES["R"]),
    Operand("S", SCHEMES["S"]),
    Projection(["A"], Join([
        Operand("R", SCHEMES["R"]), Operand("R", SCHEMES["R"]), Operand("S", SCHEMES["S"]),
    ])),
]))


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(expressions(), st.integers(0, 2**32 - 1), st.booleans())
@example(SHARED_IMAGE, 0, False)
def test_the_precheck_keeps_the_rows_the_unfiltered_loop_keeps(expression, seed, constants):
    tableau = tableau_of_expression(expression)
    if constants:
        tableau = _with_constants(tableau, random.Random(seed))
    kept = minimize_tableau(tableau).rows
    reference = _unfiltered_minimize(tableau).rows
    assert len(kept) == len(reference)
    assert all(mine is theirs for mine, theirs in zip(kept, reference))


# -- the paper's query ------------------------------------------------------


def _construction(m, seed=13):
    return RGConstruction(growing_construction_family(clause_counts=(m,), seed=seed)[0].formula)


@pytest.mark.parametrize("m", [3, 12, 14])
def test_project_s_of_phi_g_plans_as_one_scan(m):
    construction = _construction(m)
    query = Projection([construction.s_attribute], construction.expression)
    with Session({"R": construction.relation}) as session:
        prepared = session.prepare(query)
        result = prepared.execute()
        plan = session._engine.pinned_plan(query)
        explained = prepared.explain()
    assert plan.expression is query
    assert (plan.root.kind, [child.kind for child in plan.root.children]) == ("project", ["scan"])
    assert f"minimized: {m + 1} → 1 operands" in explained
    # Lemma 1's answer, projected onto S.
    expected = naive_project(construction.expected_result(), [construction.s_attribute])
    assert result.relation == expected and len(result) == 2
    # One scan of R_G and the two result rows: nothing else is streamed.
    assert [step.cardinality for step in result.trace.steps] == [len(construction.relation), 2]


# -- no search where nothing folds --------------------------------------------


def _unfoldable_queries():
    for m in (3, 12, 14):
        construction = _construction(m)
        yield construction.expression
        yield construction.pair_projection_expression()
    for relations, texts in (
        (serving_relations(), serving_queries()),
        (_join_100k_slice(), JOIN_100K_QUERIES),
    ):
        schemes = {name: relation.scheme for name, relation in relations.items()}
        for text in texts:
            yield parse_expression(text, schemes)


def test_queries_that_keep_every_row_run_no_search(monkeypatch):
    def refuse(*_):
        raise AssertionError("a homomorphism search ran")

    monkeypatch.setattr(homomorphism, "find_homomorphism", refuse)
    for query in _unfoldable_queries():
        assert minimize_expression(query) is query, query.to_text()


# -- as written elsewhere -------------------------------------------------------

#: E9's naive and optimizer peaks for ``project[S](φ_G)`` on its family,
#: m = 3..6 (``benchmarks/results/E9.txt``): the written query's.
E9_PEAKS = {3: (111, 22), 4: (107, 37), 5: (188, 64), 6: (183, 108)}


@pytest.mark.parametrize("m", sorted(E9_PEAKS))
def test_materialising_backends_evaluate_the_query_as_written(m):
    family = growing_construction_family(clause_counts=tuple(sorted(E9_PEAKS)))
    construction = RGConstruction(family[m - 3].formula)
    query = Projection([construction.s_attribute], construction.expression)
    database = {"R": construction.relation}
    reference = _reference(query, database)
    peaks = []
    for evaluator in (InstrumentedEvaluator(), OptimizedEvaluator()):
        relation, trace = evaluator.evaluate(query, database)
        assert relation == reference, trace.backend
        peaks.append(trace.peak_intermediate_cardinality)
    with Session(database) as session:
        engine = session.prepare(query).execute()
    assert engine.relation == reference
    assert tuple(peaks) == E9_PEAKS[m]
    assert engine.trace.peak_live_rows < peaks[1]


# -- AST hashes are computed once -------------------------------------------


class _Hashed:
    """Hashes as ``value``: stands in for a child inside a node's hash tuple."""

    def __init__(self, value):
        self.value = value

    def __hash__(self):
        return self.value


def _recursive_hash(node):
    """The hash each node computed on every call before it was cached."""
    if isinstance(node, Operand):
        return hash((node.name, node.scheme))
    if isinstance(node, Projection):
        return hash(("project", node.target, _Hashed(_recursive_hash(node.child))))
    return hash(("join", tuple(_Hashed(_recursive_hash(part)) for part in node.parts)))


@settings(max_examples=50, deadline=None)
@given(expressions())
@example(Projection(["S"], _construction(12).expression))
def test_a_cached_hash_is_the_recursive_hash(expression):
    assert all(hash(node) == _recursive_hash(node) for node in expression.walk())
    rebuilt = pickle.loads(pickle.dumps(expression))
    assert rebuilt == expression and hash(rebuilt) == hash(expression)
    assert rebuilt is not expression
    other = Projection(list(expression.target_scheme().names)[:1], expression)
    assert other != expression
