"""Quickstart: relations, projection-join queries, and the paper's questions.

Run with ``python examples/quickstart.py``.

The walk-through builds a small relation, writes a projection-join query in
three equivalent ways (fluent API, builder functions, textual syntax),
evaluates it through the unified ``repro.connect`` facade (prepare once,
execute and introspect on the streaming engine — see ``docs/API.md``), and
then asks
the questions whose complexity the paper characterises: membership of a
tuple, equality against a conjectured result, cardinality bounds, and
containment of two queries on a fixed database.
"""

from __future__ import annotations

import repro
from repro.algebra import Relation
from repro.decision import (
    CardinalityDecider,
    ContainmentDecider,
    QueryResultEqualityDecider,
)
from repro.expressions import join, operand, parse_expression, project
from repro.algebra.tuples import RelationTuple


def main() -> None:
    # A small "enrollment" relation over (Student, Course, Teacher).
    enrollment = Relation.from_rows(
        "Student Course Teacher",
        [
            ("ann", "db", "codd"),
            ("ann", "logic", "tarski"),
            ("bob", "db", "codd"),
            ("carol", "logic", "tarski"),
            ("carol", "db", "codd"),
        ],
        name="Enrollment",
    )
    print("input relation:")
    print(enrollment.to_table())
    print()

    # The same query three ways: "who could be in the same course as whom?"
    base = operand("Enrollment", enrollment.scheme)
    query_fluent = base.project("Student Course").join(base.project("Course Teacher"))
    query_builder = join(
        project("Student Course", base), project("Course Teacher", base)
    )
    query_text = parse_expression(
        "project[Student, Course](Enrollment) * project[Course, Teacher](Enrollment)",
        {"Enrollment": enrollment.scheme},
    )
    assert query_fluent == query_builder == query_text

    # Evaluation goes through the unified facade: a Session owns the
    # database, prepare() parses/validates/plans exactly once, and the
    # prepared query executes on the streaming engine (the materialising
    # evaluators in repro.expressions are called directly).
    session = repro.connect({"Enrollment": enrollment})
    prepared = session.prepare(query_fluent)
    result = prepared.execute()
    print(f"query: {query_fluent.to_text()}")
    print("result:")
    print(result.to_table())
    print()
    print("how the engine runs it:")
    print(prepared.explain())
    trace = prepared.trace()
    print(
        f"executed on {trace.backend!r}: {trace.result_cardinality} tuples, "
        f"peak {trace.peak_memory_rows} rows resident"
    )
    print()

    # Question 1 (Proposition 2 / NP): is a given tuple in the result?
    # contains() streams the pinned plan with early exit on the engine.
    candidate = RelationTuple(
        result.scheme, {"Student": "bob", "Course": "db", "Teacher": "codd"}
    )
    print("tuple membership (bob, db, codd):", prepared.contains(candidate))

    # Question 2 (Theorem 1 / DP): does the query equal a conjectured result?
    conjectured = result.relation  # conjecture the right answer first ...
    verdict = QueryResultEqualityDecider().decide(
        query_fluent, {"Enrollment": enrollment}, conjectured
    )
    print("equality against the correct conjecture:", verdict.equal)
    # ... then a wrong one (drop a tuple): the verdict carries the witness.
    wrong = conjectured.remove(candidate)
    verdict = QueryResultEqualityDecider().decide(
        query_fluent, {"Enrollment": enrollment}, wrong
    )
    print(
        "equality against a conjecture missing one tuple:",
        verdict.equal,
        "- extra tuple produced by the query:",
        dict(verdict.extra_tuple) if verdict.extra_tuple else None,
    )

    # Question 3 (Theorem 2 / DP): cardinality bounds.
    bounds = CardinalityDecider().check_bounds(
        query_fluent, {"Enrollment": enrollment}, lower=4, upper=8
    )
    print(
        f"cardinality |phi(R)| = {bounds.cardinality}; bounds 4..8 hold:",
        bounds.holds,
    )

    # Question 4 (Theorem 4 / Pi2p): containment of two queries on this database.
    narrower = project("Student Course", base).join(
        project("Course Teacher", base)
    ).project("Student Teacher")
    broader = join(project("Student", base), project("Teacher", base))
    verdict = ContainmentDecider().compare_queries(
        narrower, broader, {"Enrollment": enrollment}
    )
    print(
        "narrower(R) contained in broader(R):",
        verdict.left_in_right,
        "| equivalent:",
        verdict.equivalent,
    )

    session.close()


if __name__ == "__main__":
    main()
