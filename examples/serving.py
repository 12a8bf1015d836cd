"""Serving mixed query traffic from one Session (the `repro.api` facade).

Run with ``python examples/serving.py``.

A long-lived service evaluates *many different queries, many times each*
against one database.  The facade's shape fits that exactly: prepare each
query once (parse + validate + cost-based plan, pinned), then execute on
every request — the session's counters prove the steady state never
re-plans.  The example serves eight queries round-robin from one session,
checks one answer against the three materialising evaluators called
directly, mutates a relation (construction-is-invalidation: exactly the
queries reading it re-plan, once), and reads an execution's trace, all
through the same prepared handles.
"""

from __future__ import annotations

import repro
from repro.algebra import Relation
from repro.expressions import InstrumentedEvaluator, OptimizedEvaluator, evaluate


def build_database():
    """A small star: users, their enrollments, and course assignments."""
    users = Relation.from_rows(
        "UserId Region",
        [(i, ("eu", "us", "apac")[i % 3]) for i in range(60)],
        name="Users",
    )
    enrollments = Relation.from_rows(
        "UserId Course",
        [(i % 60, f"c{i % 7}") for i in range(120)],
        name="Enrollments",
    )
    courses = Relation.from_rows(
        "Course Teacher",
        [(f"c{i}", f"t{i % 3}") for i in range(7)],
        name="Courses",
    )
    return {"Users": users, "Enrollments": enrollments, "Courses": courses}


QUERIES = [
    "project[Region](Users)",
    "project[UserId, Course](Users * Enrollments)",
    "project[Region, Course](Users * Enrollments)",
    "project[Teacher](Enrollments * Courses)",
    "project[UserId, Teacher](Enrollments * Courses)",
    "project[Region, Teacher](Users * Enrollments * Courses)",
    "project[UserId](Users * Enrollments * Courses)",
    "project[Course](Enrollments)",
]


def main() -> None:
    relations = build_database()

    with repro.connect(relations, workers=1) as session:
        # Prepare once per query: each gets a pinned physical plan.
        prepared = [session.prepare(text) for text in QUERIES]
        print(f"prepared {len(prepared)} queries on {session!r}")
        print()
        print("one plan, for example:")
        print(prepared[5].explain())
        print()

        # Steady-state traffic: round-robin executes, zero re-planning.
        for _ in range(25):
            for query in prepared:
                query.execute()
        stats = session.stats()
        print(
            f"served {stats['executes']} executes with "
            f"{stats['plan_builds']} plan builds "
            f"({stats['plan_cache_hits']} plan-cache hits)"
        )

        # The materialising evaluators, called directly, answer the same
        # set as the engine (differentially tested), just with other traces.
        served = prepared[2].execute()
        expression = prepared[2].expression
        assert served.set_equal(evaluate(expression, relations))
        for evaluator in (InstrumentedEvaluator(), OptimizedEvaluator()):
            relation, trace = evaluator.evaluate(expression, relations)
            assert served.set_equal(relation), trace.backend
        print("the engine and all three evaluators agree on", QUERIES[2])

        # Mutation: a new enrollments relation arrives.  Only the queries
        # reading it re-plan (against its freshly computed statistics).
        session.set_relation(
            "Enrollments",
            Relation.from_rows(
                "UserId Course",
                [(i % 60, f"c{i % 5}") for i in range(200)],
                name="Enrollments",
            ),
        )
        for query in prepared:
            query.execute()
        after = session.stats()
        print(
            f"after mutation: {after['invalidation_replans']} of "
            f"{len(prepared)} queries re-planned "
            f"(the rest kept their pinned plans)"
        )

        # Traces show the engine's residency per execute.
        trace = prepared[6].trace()
        print(
            f"{QUERIES[6]}: {trace.result_cardinality} rows, "
            f"peak {trace.peak_live_rows} live rows "
            f"(input {trace.input_cardinality})"
        )

    assert session.closed
    print("session closed; worker pools torn down")


if __name__ == "__main__":
    main()
