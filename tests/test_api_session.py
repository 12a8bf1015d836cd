"""Tests of the unified Session / PreparedQuery facade (`repro.api`).

Four layers:

* **Contract** — prepare parses/validates/plans once (registry hits on
  re-prepare, plan-cache hits on re-execute), the engine session and the
  three materialising evaluators called directly return the same results,
  and the config/binding error paths fail loudly.
* **Invalidation** — replacing a relation (construction-is-invalidation)
  makes exactly the prepared queries that read it re-bind and re-plan on
  their next execution; everything else keeps its pinned plan.
* **Serving** — one session serves >= 8 distinct prepared queries
  concurrently across a shared budget/worker configuration, with per-query
  results pinned to the seed reference implementation and the counters
  proving no re-planning happened in the steady state.
* **Traces** — every traced evaluator hands back its own
  ``EvaluationTrace``, uncopied, and it survives deepcopy and pickle.
"""

import copy
import pickle
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro
from repro.algebra import Relation, naive_natural_join, naive_project
from repro.algebra.database import Database
from repro.api import (
    BackendConfig,
    EvaluationTrace,
    PreparedQuery,
    QueryResult,
    Session,
    SessionClosedError,
    SessionError,
    connect,
)
from repro.engine.spill import MemoryBudget
from repro.expressions import InstrumentedEvaluator
from repro.expressions.ast import ExpressionError, Join, Operand, Projection

from evaluators import EVALUATORS, TRACED_EVALUATORS, run_evaluator


def _reference(expression, bound):
    """Evaluate with the retained seed implementations (the ground truth)."""
    if isinstance(expression, Operand):
        return bound[expression.name]
    if isinstance(expression, Projection):
        return naive_project(_reference(expression.child, bound), expression.target)
    parts = [_reference(part, bound) for part in expression.parts]
    result = parts[0]
    for part in parts[1:]:
        result = naive_natural_join(result, part)
    return result


@pytest.fixture
def relations():
    r = Relation.from_rows(
        "A B", [(1, "x"), (2, "y"), (2, "z"), (3, "x")], name="R"
    )
    s = Relation.from_rows("B C", [("x", 10), ("y", 20), ("z", 20)], name="S")
    return {"R": r, "S": s}


@pytest.fixture
def session(relations):
    with Session(relations) as active:
        yield active


QUERY_TEXT = "project[A, C](R * S)"


class TestSessionContract:
    def test_prepare_from_text_and_ast_hit_the_same_registry_entry(self, session, relations):
        from_text = session.prepare(QUERY_TEXT)
        ast = Projection(
            ["A", "C"],
            Join(
                (
                    Operand("R", relations["R"].scheme),
                    Operand("S", relations["S"].scheme),
                )
            ),
        )
        assert session.prepare(ast) is from_text
        assert session.stats()["prepares"] == 1
        assert session.stats()["registry_hits"] == 1

    @pytest.mark.parametrize("backend", EVALUATORS)
    def test_every_backend_matches_the_seed_reference(self, session, relations, backend):
        relation, _trace = run_evaluator(backend, session, QUERY_TEXT)
        expression = session.prepare(QUERY_TEXT).expression
        reference = _reference(expression, relations)
        assert relation == reference
        assert len(relation) == len(reference)

    def test_execute_returns_a_query_result(self, session, relations):
        result = session.prepare(QUERY_TEXT).execute()
        assert isinstance(result, QueryResult)
        assert result.trace.backend == "engine"

    def test_an_operand_named_backend_binds_through_execute(self):
        relation = Relation.from_rows("A B", [(1, "x"), (2, "y")], name="backend")
        with Session({"backend": relation}) as session:
            override = Relation.from_rows("A B", [(7, "z")], name="backend")
            result = session.execute("project[A](backend)", backend=override)
        assert sorted(result.relation.rows) == [(7,)]

    def test_repeated_execute_hits_the_plan_cache(self, session):
        prepared = session.prepare(QUERY_TEXT)
        for _ in range(5):
            prepared.execute()
        stats = session.stats()
        assert stats["plan_builds"] == 1
        assert stats["plan_cache_hits"] == 5
        assert stats["executes"] == 5

    def test_execute_convenience_prepares_once(self, session):
        first = session.execute(QUERY_TEXT)
        second = session.execute(QUERY_TEXT)
        assert first == second
        assert session.stats()["prepares"] == 1
        assert session.stats()["registry_hits"] == 1

    def test_per_execute_binding_overrides_do_not_touch_the_pin(self, session, relations):
        prepared = session.prepare(QUERY_TEXT)
        baseline = prepared.execute()
        shrunk = Relation.from_rows("A B", [(1, "x")], name="R")
        overridden = prepared.execute(R=shrunk)
        assert overridden.set_equal(
            _reference(prepared.expression, {"R": shrunk, "S": relations["S"]})
        )
        # The override was this execution only; the pinned binding is intact.
        assert prepared.execute() == baseline
        assert session.stats()["plan_builds"] == 1

    def test_execute_rejects_unknown_override_names(self, session, relations):
        prepared = session.prepare(QUERY_TEXT)
        with pytest.raises(SessionError, match="operands"):
            prepared.execute(T=relations["R"])

    def test_execute_rejects_mismatched_override_scheme(self, session):
        prepared = session.prepare(QUERY_TEXT)
        wrong = Relation.from_rows("A D", [(1, 2)])
        with pytest.raises(ExpressionError):
            prepared.execute(R=wrong)

    def test_prepare_rejects_unknown_operands(self, session):
        with pytest.raises(SessionError, match="no relation named"):
            session.prepare(
                Projection(["Z"], Operand("T", Relation.from_rows("Z", [(1,)]).scheme))
            )

    def test_explain_shows_the_engine_plan(self, session):
        text = session.prepare(QUERY_TEXT).explain()
        assert text.startswith("engine (streaming physical plan)")
        assert "project[A, C](R * S)" in text
        assert "hash join" in text

    @pytest.mark.parametrize("backend", EVALUATORS)
    def test_contains_is_backend_agnostic(self, session, relations, backend):
        prepared = session.prepare(QUERY_TEXT)
        reference = _reference(prepared.expression, relations)
        inside = next(iter(reference))
        if backend == "engine":
            assert prepared.contains(inside)
            assert not prepared.contains(("no-such", "tuple"))
        else:
            relation, _trace = run_evaluator(backend, session, QUERY_TEXT)
            assert inside in relation
            assert ("no-such", "tuple") not in relation

    def test_closed_session_refuses_everything(self, relations):
        session = Session(relations)
        prepared = session.prepare(QUERY_TEXT)
        session.close()
        session.close()  # idempotent
        assert session.closed
        with pytest.raises(SessionClosedError):
            prepared.execute()
        with pytest.raises(SessionClosedError):
            session.prepare("project[A](R)")
        with pytest.raises(SessionClosedError):
            session.set_relation("R", relations["R"])

    def test_database_and_bare_relation_constructors(self, relations):
        with Session(Database(relations)) as from_database:
            assert len(from_database.execute(QUERY_TEXT)) > 0
        bare = Relation.from_rows("A B", [(1, 1), (2, 1)], name="T")
        with connect(bare) as single:
            assert len(single.execute("project[A](T)")) == 2
            # Unnamed operands fall back to the bare relation by scheme.
            expr = Projection(["B"], Operand("Anything", bare.scheme))
            assert len(single.execute(expr)) == 1
        with pytest.raises(SessionError):
            Session(42)

    def test_bare_relation_without_a_name_cannot_parse_text(self):
        anonymous = Relation.from_rows("A B", [(1, 1)])
        with Session(anonymous) as session:
            with pytest.raises(SessionError, match="carry a name"):
                session.prepare("project[A](T)")

    def test_config_validation(self):
        config = BackendConfig(budget=64)
        assert isinstance(config.budget, MemoryBudget)
        assert config.override(budget=8).budget == MemoryBudget(rows=8)
        with pytest.raises(TypeError):
            BackendConfig(workers=2)  # removed in 11.0.0

    def test_a_workers_keyword_is_ignored_with_a_warning(self, relations):
        """``Session(db, workers=2)`` warns and runs exactly what
        ``Session(db)`` runs: the same rows and the same trace counts."""
        with Session(relations) as plain:
            expected = plain.prepare(QUERY_TEXT).execute()
        with pytest.warns(DeprecationWarning, match="ROADMAP 1\\(d\\)"):
            session = Session(relations, workers=2)
        with session:
            result = session.prepare(QUERY_TEXT).execute()
        assert result.set_equal(expected.relation)
        for field in ("steps", "counters", "peak_live_rows", "peak_build_rows"):
            assert getattr(result.trace, field) == getattr(expected.trace, field), field
        assert result.trace.serial_fallbacks == 0
        assert "workers" not in session.stats()

    def test_a_workers_keyword_leaves_the_other_overrides_applied(self, relations):
        with pytest.warns(DeprecationWarning):
            session = Session(relations, workers=1, budget=8)
        with session:
            assert session.config == BackendConfig(budget=8)
            prepared = session.prepare(QUERY_TEXT)
            result = prepared.execute()
        assert result.set_equal(_reference(prepared.expression, relations))

    def test_the_workers_warning_points_at_the_caller(self, relations):
        with pytest.warns(DeprecationWarning) as record:
            Session(relations, workers=2).close()
        assert [warning.filename for warning in record] == [__file__]

    @pytest.mark.parametrize("knob", ["workers", "max_pools"])
    def test_override_refuses_the_removed_pool_knobs(self, knob):
        with pytest.raises(TypeError):
            BackendConfig().override(**{knob: 2})

    def test_only_the_workers_keyword_is_tolerated(self, relations):
        """``max_pools`` never reached the benchmark ladder: it is refused
        like any unknown knob, not ignored."""
        with pytest.raises(TypeError):
            Session(relations, max_pools=2)

    def test_stats_are_exactly_the_serving_counters(self, session):
        session.execute(QUERY_TEXT)
        assert sorted(session.stats()) == sorted(
            [
                "prepares",
                "registry_hits",
                "executes",
                "plan_builds",
                "plan_cache_hits",
                "invalidations",
                "invalidation_replans",
            ]
        )


class TestInvalidation:
    def test_mutation_replans_only_the_affected_queries(self, session, relations):
        reads_both = session.prepare(QUERY_TEXT)
        reads_s = session.prepare("project[C](S)")
        reads_both.execute()
        reads_s.execute()
        assert session.stats()["plan_builds"] == 2

        replacement = Relation.from_rows("A B", [(9, "x"), (8, "w")], name="R")
        session.set_relation("R", replacement)
        after_both = reads_both.execute()
        after_s = reads_s.execute()

        assert after_both.set_equal(
            _reference(reads_both.expression, {"R": replacement, "S": relations["S"]})
        )
        assert after_s.set_equal(_reference(reads_s.expression, relations))
        stats = session.stats()
        assert stats["invalidations"] == 1
        # Only the query reading R re-planned; S's query kept its plan.
        assert stats["invalidation_replans"] == 1
        assert stats["plan_builds"] == 3

    def test_mutation_installs_fresh_statistics(self, session):
        prepared = session.prepare(QUERY_TEXT)
        prepared.execute()
        replacement = Relation.from_rows(
            "A B", [(i, "x") for i in range(50)], name="R"
        )
        session.set_relation("R", replacement)
        trace = prepared.execute().trace
        # The replan saw the new cardinalities (construction-is-invalidation:
        # the fresh relation's stats slot was computed from the new rows).
        assert trace.input_cardinality == 50 + 3

    def test_default_relation_mutation(self):
        bare = Relation.from_rows("A B", [(1, 1), (2, 2)], name="T")
        with Session(bare) as session:
            prepared = session.prepare("project[A](T)")
            assert len(prepared.execute()) == 2
            session.set_default_relation(
                Relation.from_rows("A B", [(5, 5)], name="T")
            )
            assert len(prepared.execute()) == 1
            assert session.stats()["invalidation_replans"] == 1

    def test_set_default_relation_requires_bare_mode(self, session, relations):
        with pytest.raises(SessionError, match="bare relation"):
            session.set_default_relation(relations["R"])

    def test_set_relation_type_checks(self, session):
        with pytest.raises(SessionError, match="Relation"):
            session.set_relation("R", "not a relation")


def _serving_workload():
    """A shared database plus 10 distinct queries over it."""
    r = Relation.from_rows(
        "A B", [(i % 5, i % 3) for i in range(30)], name="R"
    )
    s = Relation.from_rows(
        "B C", [(i % 3, i % 7) for i in range(30)], name="S"
    )
    t = Relation.from_rows(
        "C D", [(i % 7, i % 2) for i in range(30)], name="T"
    )
    relations = {"R": r, "S": s, "T": t}
    r_op = Operand("R", r.scheme)
    s_op = Operand("S", s.scheme)
    t_op = Operand("T", t.scheme)
    queries = [
        Projection(["A"], Join((r_op, s_op))),
        Projection(["A", "C"], Join((r_op, s_op))),
        Projection(["B", "D"], Join((s_op, t_op))),
        Projection(["A", "D"], Join((r_op, s_op, t_op))),
        Projection(["D"], Join((r_op, s_op, t_op))),
        Projection(["C"], Join((s_op, t_op))),
        Projection(["B"], r_op),
        Projection(["A", "B"], Join((r_op, Projection(["B"], s_op)))),
        Projection(["C", "D"], t_op),
        Projection(["A", "C", "D"], Join((r_op, s_op, t_op))),
    ]
    return relations, queries


class TestConcurrentServing:
    def test_one_session_serves_many_prepared_queries_concurrently(self, tmp_path):
        """The acceptance scenario: >= 8 distinct PreparedQuerys on one
        Session, concurrent executes sharing one budget config, every
        result set-equal to the seed reference, prepare() exactly once per
        query (all steady-state executes are plan-cache hits)."""
        relations, queries = _serving_workload()
        references = {
            query: _reference(query, relations) for query in queries
        }
        budget = MemoryBudget(
            rows=64, spill_fanout=2, spill_dir=str(tmp_path)
        )
        rounds = 3
        with Session(relations, budget=budget) as session:
            prepared = [session.prepare(query) for query in queries]
            assert len(prepared) >= 8
            failures = []

            def serve(query_index, _round):
                try:
                    result = prepared[query_index].execute()
                    if not result.set_equal(references[queries[query_index]]):
                        failures.append((query_index, "result mismatch"))
                except BaseException as exc:
                    failures.append((query_index, repr(exc)))

            with ThreadPoolExecutor(max_workers=8) as pool:
                for round_index in range(rounds):
                    list(
                        pool.map(
                            lambda index: serve(index, round_index),
                            range(len(prepared)),
                        )
                    )
            assert failures == []
            stats = session.stats()
            assert stats["prepares"] == len(queries)
            # prepare() compiled each query exactly once ...
            assert stats["plan_builds"] == len(queries)
            # ... and every execute reused its pinned plan.
            assert stats["executes"] == rounds * len(queries)
            assert stats["plan_cache_hits"] == rounds * len(queries)
            assert stats["invalidation_replans"] == 0
        assert not any(tmp_path.iterdir()), "budget spill files leaked"

    def test_mixed_backend_traffic_on_one_session(self):
        relations, queries = _serving_workload()
        with Session(relations) as session:
            for index, query in enumerate(queries[:8]):
                backend = EVALUATORS[index % len(EVALUATORS)]
                relation, _trace = run_evaluator(backend, session, query)
                assert relation == _reference(query, relations), backend


class TestOneTrace:
    def test_every_verb_returns_the_evaluators_own_trace(self, session):
        prepared = session.prepare(QUERY_TEXT)
        result = prepared.execute()
        assert prepared.last_trace() is result.trace
        traced = prepared.trace()
        assert prepared.last_trace() is traced
        for trace in (result.trace, traced):
            self._assert_trace_shape(trace, "engine", len(result))

    @pytest.mark.parametrize("backend", TRACED_EVALUATORS)
    def test_every_traced_evaluator_describes_its_run(self, session, backend):
        relation, trace = run_evaluator(backend, session, QUERY_TEXT)
        self._assert_trace_shape(trace, backend, len(relation))

    @staticmethod
    def _assert_trace_shape(trace, backend, result_rows):
        assert type(trace) is EvaluationTrace
        assert trace.backend == backend
        assert trace.result_cardinality == result_rows
        assert trace.input_cardinality == 7
        assert isinstance(trace.counters, dict)
        assert trace.steps
        assert trace.peak_memory_rows > 0
        assert trace.summary()["peak_memory_rows"] == float(trace.peak_memory_rows)

    def test_the_engine_trace_is_the_object_the_evaluator_returned(self, session):
        engine = session._engine
        returned = []
        run = engine.run  # what a prepared query calls with its pinned binding

        def spy(*args, **kwargs):
            outcome = run(*args, **kwargs)
            returned.append(outcome[1])
            return outcome

        engine.run = spy
        result = session.prepare(QUERY_TEXT).execute()
        assert [result.trace] == returned
        assert result.trace is returned[0]

    @pytest.mark.parametrize("backend", TRACED_EVALUATORS)
    def test_deepcopy_and_pickle_preserve_every_field(self, session, backend):
        _relation, trace = run_evaluator(backend, session, QUERY_TEXT)
        for clone in (copy.deepcopy(trace), pickle.loads(pickle.dumps(trace))):
            assert clone is not trace
            assert clone == trace  # dataclass equality: every field
            assert clone.steps is not trace.steps
            assert clone.summary() == trace.summary()

    def test_engine_trace_reports_live_rows_not_materialised_peaks(self, session):
        engine = session.prepare(QUERY_TEXT).trace()
        _relation, materialising = InstrumentedEvaluator().evaluate(
            session.prepare(QUERY_TEXT).expression, session.relations
        )
        assert engine.peak_live_rows > 0
        assert materialising.peak_live_rows == 0
        assert materialising.peak_memory_rows == (
            materialising.peak_intermediate_cardinality
        )

    def test_last_trace_tracks_the_most_recent_execution(self, session):
        prepared = session.prepare(QUERY_TEXT)
        assert prepared.last_trace() is None
        result = prepared.execute()
        assert prepared.last_trace() is result.trace


class TestQueryResult:
    def test_result_behaves_like_its_relation(self, session, relations):
        prepared = session.prepare(QUERY_TEXT)
        result = prepared.execute()
        reference = _reference(prepared.expression, relations)
        assert len(result) == len(reference)
        assert set(result) == set(reference)
        assert next(iter(reference)) in result
        assert result == prepared.execute()
        assert result.set_equal(reference)
        assert "QueryResult" in repr(result)
        assert result.scheme.name_set == {"A", "C"}
        assert "A" in result.to_table()

    def test_facade_is_exported_from_the_package_root(self):
        assert repro.Session is Session
        assert repro.PreparedQuery is PreparedQuery
        with repro.connect({"R": Relation.from_rows("A", [(1,)], name="R")}) as db:
            assert len(db.execute("project[A](R)")) == 1


class TestReviewRegressions:
    """Pins for defects found in review: default-binding invalidation,
    budgeted membership probes, stale-pool teardown, trace() validation."""

    def test_set_relation_invalidates_default_bound_queries(self):
        """A named relation installed *after* prepare shadows the bare
        default for that operand — the prepared query must notice."""
        bare = Relation.from_rows("A B", [(1, 1), (2, 2)], name="R")
        with Session(bare) as session:
            prepared = session.prepare("project[A](R)")
            assert len(prepared.execute()) == 2
            session.set_relation("R", Relation.from_rows("A B", [(9, 9)], name="R"))
            result = prepared.execute()
            assert sorted(tuple(row) for row in result.relation.rows) == [(9,)]
            assert session.stats()["invalidation_replans"] == 1

    def test_contains_honours_the_session_budget(self, tmp_path):
        """An engine-backed membership probe on a budgeted session must
        spill like an execute, not build unbounded hash tables."""
        from repro.perf import kernel_counters

        heavy = Relation.from_rows(
            "A B", [(i % 3, i) for i in range(40)], name="R"
        )
        wide = Relation.from_rows(
            "B C", [(i, i % 5) for i in range(40)], name="S"
        )
        budget = MemoryBudget(
            rows=8, spill_fanout=2, spill_dir=str(tmp_path)
        )
        with Session({"R": heavy, "S": wide}, budget=budget) as session:
            prepared = session.prepare("project[A, C](R * S)")
            reference = _reference(
                prepared.expression, {"R": heavy, "S": wide}
            )
            inside = next(iter(reference))
            counters = kernel_counters()
            before = counters.snapshot()
            assert prepared.contains(inside)
            delta = counters.delta_since(before)
            assert delta["join_spills"] > 0, (
                "membership probe ignored the session budget (no spill)"
            )
            assert session.stats()["executes"] == 1
        assert not any(tmp_path.iterdir())

    def test_trace_rejects_unknown_override_names(self, session, relations):
        prepared = session.prepare(QUERY_TEXT)
        with pytest.raises(SessionError, match="operands"):
            prepared.trace(Enrolment=relations["R"])


class TestOneExecuteCount:
    """Every execute is counted once, in ``stats()`` and in ``/metrics``."""

    def test_a_membership_decision_counts_in_stats_and_metrics_alike(self, session):
        prepared = session.prepare(QUERY_TEXT)
        inside = next(iter(prepared.execute().relation.rows))
        assert prepared.contains(inside)
        assert session.stats()["executes"] == 2
        assert session.metrics().counter("repro_executes_total").value == 2
        assert session.stats()["plan_cache_hits"] == 2


def test_a_spilling_observed_session_feeds_exactly_the_documented_instruments():
    """docs/OBSERVABILITY.md's per-execution instruments, and no other: a
    spilling execute reaches the spill counter, an observed one the q-error
    histogram."""
    relations = {
        "R": Relation.from_rows("A B", [(i, i % 10) for i in range(200)], name="R"),
        "S": Relation.from_rows("B C", [(c % 10, c) for c in range(50)], name="S"),
    }
    with Session(relations, budget=16, observe=True) as session:
        result = session.execute(QUERY_TEXT)
        assert result.trace.counters["spill_rows"] > 0
        assert sorted(session.metrics().collect()) == [
            "repro_executes_total",
            "repro_last_peak_memory_rows",
            "repro_qerror",
            "repro_query_seconds",
            "repro_rows_total",
            "repro_spill_rows_total",
        ]


class TestTextCache:
    """A text is parsed once per epoch: the registry answers it after that."""

    @staticmethod
    def _counting_parser(monkeypatch):
        from repro.api import session as session_module

        parses = []
        real = session_module.parse_expression

        def parse(source, schemes):
            parses.append(source)
            return real(source, schemes)

        monkeypatch.setattr(session_module, "parse_expression", parse)
        return parses

    def test_executes_of_one_text_parse_it_once(self, session, relations, monkeypatch):
        parses = self._counting_parser(monkeypatch)
        results = [session.execute(QUERY_TEXT) for _ in range(5)]
        assert parses == [QUERY_TEXT]
        assert all(result.set_equal(results[0]) for result in results)
        stats = session.stats()
        assert stats["prepares"] == 1
        assert stats["registry_hits"] == 4
        assert stats["executes"] == 5

    def test_a_replacement_that_changes_a_scheme_parses_the_text_again(
        self, session, relations, monkeypatch
    ):
        parses = self._counting_parser(monkeypatch)
        text = "project[A](R * S)"
        before = session.execute(text)
        assert before.set_equal(_reference(session.prepare(text).expression, relations))
        # ``R`` gains a column: the parsed operand scheme is no longer the one held.
        widened = Relation.from_rows(
            "A B D", [(7, "x", 0), (8, "q", 1), (9, "z", 2)], name="R"
        )
        session.set_relation("R", widened)
        after = session.execute(text)
        assert parses == [text, text]
        prepared = session.prepare(text)
        assert prepared.expression.operand_schemes()["R"].names == ("A", "B", "D")
        assert after.set_equal(
            _reference(prepared.expression, {"R": widened, "S": relations["S"]})
        )
        assert sorted(row[0] for row in after.relation.rows) == [7, 9]
        assert len(parses) == 2
