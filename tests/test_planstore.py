"""Tests for :mod:`repro.engine.planstore`: the plan & statistics store.

Pins the learning loop layer by layer — the sample cache's
identity-keyed warmth (rebinding is invalidation), the observed-
cardinality ledger's material-change versioning and column-key
disambiguation, re-pinning after a mid-stream re-plan (zero further
replans steady-state), proactive drift re-planning, and the serving
facade's scoped invalidation: replacing one relation drops *that*
relation's learned state and nothing else (the stale-stats regression
contract), while the invalidation-replan path must not wipe truth
learned about unchanged relations.
"""

import pytest

from repro.algebra import Relation
from repro.api import Session, SessionError
from repro.engine import (
    AdaptiveConfig,
    CardinalityLedger,
    EngineEvaluator,
    PlanStore,
    PlanStoreConfig,
    SampleCache,
)
from repro.expressions.ast import Operand, Projection
from repro.perf import kernel_counters


def _relations(rows: int = 200):
    """Three chained relations whose joins fan out through small domains."""
    return {
        "R": Relation.from_rows(
            "A B", [(i % 40, i % 11) for i in range(rows)], name="R"
        ),
        "S": Relation.from_rows(
            "B C", [(i % 11, i % 17) for i in range(rows)], name="S"
        ),
        "T": Relation.from_rows(
            "C D", [(i % 17, i % 7) for i in range(rows)], name="T"
        ),
    }


def _tiny(relations):
    """One-row stand-ins over the same schemes (misleading statistics)."""
    return {
        name: Relation.from_rows(
            relation.scheme, [tuple(1 for _ in relation.scheme.names)]
        )
        for name, relation in relations.items()
    }


R_JOIN_S = Operand("R", "A B").join(Operand("S", "B C"))
S_JOIN_T = Operand("S", "B C").join(Operand("T", "C D"))
THREE_WAY = Projection(
    ["A", "D"],
    Operand("R", "A B").join(Operand("S", "B C")).join(Operand("T", "C D")),
)

#: Adaptive sampling without mid-stream re-planning: the guard factor is
#: set far beyond any estimate error these instances produce, so tests
#: that target the drift path see no mid-stream corrections.
NO_REPLAN = AdaptiveConfig(replan_factor=1e9)


class TestPlanStoreConfig:
    def test_coerce_none_and_false_disable(self):
        assert PlanStoreConfig.coerce(None) is None
        assert PlanStoreConfig.coerce(False) is None
        assert PlanStore.coerce(None) is None
        assert PlanStore.coerce(False) is None

    def test_coerce_true_and_instances_pass_through(self):
        assert PlanStoreConfig.coerce(True) == PlanStoreConfig()
        config = PlanStoreConfig(max_samples=3)
        assert PlanStoreConfig.coerce(config) is config
        store = PlanStore()
        assert PlanStore.coerce(store) is store
        assert PlanStore.coerce(True).config == PlanStoreConfig()

    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            PlanStoreConfig(max_samples=0)
        with pytest.raises(ValueError):
            PlanStoreConfig(max_observations=0)
        with pytest.raises(ValueError):
            PlanStoreConfig(drift_threshold=1.0)
        with pytest.raises(ValueError):
            PlanStoreConfig(max_history=0)
        with pytest.raises(TypeError):
            PlanStoreConfig.coerce("yes")

    def test_session_config_rejects_bad_planstore(self):
        with pytest.raises(SessionError):
            Session(_relations(20), planstore="yes")


class TestSampleCache:
    def test_same_identity_hits_equal_relation_misses(self):
        cache = SampleCache()
        relation = Relation.from_rows("A", [(1,)])
        twin = Relation.from_rows("A", [(1,)])
        builds = []
        builder = lambda: builds.append(1) or object()
        first = cache.get_or_build("R", relation, builder)
        assert cache.get_or_build("R", relation, builder) is first
        # An equal-but-rebound relation is a new object: a natural miss.
        cache.get_or_build("R", twin, builder)
        assert (cache.hits, cache.misses) == (1, 2)
        assert len(builds) == 2

    def test_invalidate_name_is_scoped(self):
        cache = SampleCache()
        r, s = Relation.from_rows("A", [(1,)]), Relation.from_rows("B", [(2,)])
        cache.get_or_build("R", r, object)
        cache.get_or_build("S", s, object)
        assert cache.invalidate_name("R") == 1
        assert len(cache) == 1
        cache.get_or_build("S", s, object)
        assert cache.hits == 1  # S stayed warm

    def test_lru_eviction_respects_the_cap(self):
        cache = SampleCache(max_samples=2)
        relations = [Relation.from_rows("A", [(i,)]) for i in range(3)]
        for index, relation in enumerate(relations):
            cache.get_or_build(f"R{index}", relation, object)
        assert len(cache) == 2
        cache.get_or_build("R0", relations[0], object)
        assert cache.misses == 4  # the oldest entry was evicted


class TestCardinalityLedger:
    def test_observe_lookup_roundtrip(self):
        ledger = CardinalityLedger()
        assert ledger.observe(("R", "S"), ("A", "B"), 42)
        assert ledger.lookup(("S", "R"), ("B", "A")) == 42
        assert ledger.lookup(("R", "T"), ("A", "B")) is None

    def test_version_advances_only_on_material_change(self):
        ledger = CardinalityLedger()
        ledger.observe(("R", "S"), ("A",), 100)
        version = ledger.version
        # Identical and near-identical re-observations are immaterial.
        assert not ledger.observe(("R", "S"), ("A",), 100)
        assert not ledger.observe(("R", "S"), ("A",), 110)
        assert ledger.version == version
        assert ledger.observe(("R", "S"), ("A",), 500)
        assert ledger.version == version + 1

    def test_column_key_disambiguates_same_operand_subtrees(self):
        # R ⋈ S and R ⋈ project[B](S) both cover {R, S} but compute
        # different schemes; conflating them would make the ledger
        # oscillate between their cardinalities forever.
        ledger = CardinalityLedger()
        ledger.observe(("R", "S"), ("A", "B", "C"), 5000)
        ledger.observe(("R", "S"), ("A", "B"), 200)
        assert ledger.lookup(("R", "S"), ("A", "B", "C")) == 5000
        assert ledger.lookup(("R", "S"), ("A", "B")) == 200
        version = ledger.version
        ledger.observe(("R", "S"), ("A", "B", "C"), 5000)
        ledger.observe(("R", "S"), ("A", "B"), 200)
        assert ledger.version == version  # steady state stays quiet

    def test_invalidate_name_drops_only_entries_involving_it(self):
        ledger = CardinalityLedger()
        ledger.observe(("R", "S"), ("A",), 10)
        ledger.observe(("S", "T"), ("B",), 20)
        assert ledger.invalidate_name("R") == 1
        assert ledger.lookup(("S", "T"), ("B",)) == 20
        assert ledger.lookup(("R", "S"), ("A",)) is None

    def test_invalidate_subsets_keeps_overlapping_supersets(self):
        ledger = CardinalityLedger()
        ledger.observe(("R", "S"), ("A",), 10)
        ledger.observe(("S", "T"), ("B",), 20)
        ledger.observe(("R", "S", "T"), ("C",), 30)
        assert ledger.invalidate_subsets(frozenset(("R", "S"))) == 1
        assert ledger.lookup(("S", "T"), ("B",)) == 20
        assert ledger.lookup(("R", "S", "T"), ("C",)) == 30

    def test_lru_bound_holds(self):
        ledger = CardinalityLedger(max_observations=2)
        ledger.observe(("A", "B"), ("X",), 1)
        ledger.observe(("B", "C"), ("X",), 2)
        ledger.observe(("C", "D"), ("X",), 3)
        assert len(ledger) == 2
        assert ledger.lookup(("A", "B"), ("X",)) is None


class TestHistory:
    def test_history_is_bounded_by_max_history(self):
        store = PlanStore(PlanStoreConfig(max_history=2))
        for index in range(5):
            store.record("expr", "pinned", ("R",), detail=str(index))
        history = store.history("expr")
        assert len(history) == 2
        assert [record.detail for record in history] == ["3", "4"]

    def test_forget_expression_records_and_scopes(self):
        store = PlanStore()
        store.ledger.observe(("R", "S"), ("A",), 10)
        store.ledger.observe(("S", "T"), ("B",), 20)
        store.forget_expression("expr", frozenset(("R", "S")))
        assert [record.kind for record in store.history("expr")] == ["forgotten"]
        assert store.ledger.lookup(("R", "S"), ("A",)) is None
        assert store.ledger.lookup(("S", "T"), ("B",)) == 20


class TestWarmSamples:
    def test_repeated_builds_stop_resampling(self):
        relations = _relations()
        evaluator = EngineEvaluator(adaptive=NO_REPLAN, planstore=True)
        before = kernel_counters().snapshot()
        evaluator.plan_for(R_JOIN_S, relations)
        first = kernel_counters().delta_since(before)
        assert first["sample_builds"] > 0
        assert first["sample_cache_misses"] > 0
        # A different expression sharing S: only the never-seen T samples.
        evaluator.plan_for(S_JOIN_T, relations)
        mid = kernel_counters().delta_since(before)
        assert mid["sample_builds"] == first["sample_builds"] + 1
        # Forget-then-replan rebuilds the plans from entirely warm samples,
        # round after round.
        for _ in range(10):
            for expression in (R_JOIN_S, S_JOIN_T):
                evaluator.forget_plan(expression)
                evaluator.plan_for(expression, relations)
            delta = kernel_counters().delta_since(before)
            assert delta["sample_builds"] == mid["sample_builds"]
        hits, misses = delta["sample_cache_hits"], delta["sample_cache_misses"]
        assert hits / (hits + misses) >= 0.9
        store = evaluator.planstore
        assert store.stats()["cached_samples"] == 3

    def test_without_a_store_every_build_resamples(self):
        relations = _relations()
        evaluator = EngineEvaluator(adaptive=NO_REPLAN)
        before = kernel_counters().snapshot()
        evaluator.plan_for(R_JOIN_S, relations)
        first = kernel_counters().delta_since(before)["sample_builds"]
        evaluator.forget_plan(R_JOIN_S)
        evaluator.plan_for(R_JOIN_S, relations)
        assert kernel_counters().delta_since(before)["sample_builds"] == 2 * first


class TestRepin:
    def test_mid_stream_replan_is_written_back(self):
        relations = _relations()
        evaluator = EngineEvaluator(
            adaptive=AdaptiveConfig(replan_factor=2.0, replan_min_rows=8),
            planstore=True,
        )
        # Pin against one-row stand-ins: every estimate is catastrophically
        # low, so the first real execution re-plans mid-stream.
        pinned = evaluator.plan_for(THREE_WAY, _tiny(relations))
        result, trace = evaluator.evaluate(THREE_WAY, relations)
        assert trace.replans >= 1
        store = evaluator.planstore
        assert store.repins == 1
        kinds = [record.kind for record in store.history(THREE_WAY)]
        assert kinds[0] == "pinned" and "repin" in kinds
        assert evaluator.pinned_plan(THREE_WAY) is not pinned
        # Steady state: the corrected plan executes with zero further
        # replans and the same answer, every time.
        for _ in range(20):
            again, steady = evaluator.evaluate(THREE_WAY, relations)
            assert steady.replans == 0
            assert again == result
            assert store.repins == 1

    def test_prepared_explain_shows_the_repinned_plan(self):
        relations = _relations(300)
        with Session(
            _tiny(relations),
            backend="engine",
            adaptive=AdaptiveConfig(replan_factor=2.0, replan_min_rows=8),
            planstore=True,
        ) as session:
            prepared = session.prepare(THREE_WAY)
            before = prepared.explain()
            prepared.execute(**relations)
            assert session._planstore.repins == 1
            # The evaluator's pin is what the next execution runs, so it is
            # what explain() must print — not the plan prepare() compiled.
            live = session._engine.pinned_plan(THREE_WAY).explain()
            assert live not in before
            assert prepared.explain().endswith(live)
            # Forgetting drops the pin; explain() re-plans like execute() would.
            session.forget_plan(THREE_WAY)
            assert session._engine.pinned_plan(THREE_WAY) is None
            assert "hash join" in prepared.explain()

    def test_repin_can_be_disabled(self):
        relations = _relations()
        evaluator = EngineEvaluator(
            adaptive=AdaptiveConfig(replan_factor=2.0, replan_min_rows=8),
            planstore=PlanStoreConfig(repin=False, drift_threshold=None),
        )
        pinned = evaluator.plan_for(THREE_WAY, _tiny(relations))
        _result, trace = evaluator.evaluate(THREE_WAY, relations)
        assert trace.replans >= 1
        assert evaluator.planstore.repins == 0
        assert evaluator.pinned_plan(THREE_WAY) is pinned


class TestDriftReplan:
    def test_ledger_drift_replans_before_execution(self):
        relations = _relations()
        evaluator = EngineEvaluator(adaptive=NO_REPLAN, planstore=True)
        # Pin against misleading one-row stand-ins, then execute the real
        # relations once: the ledger learns the true cardinalities (far
        # beyond the pinned estimates), so the *next* plan_for re-plans
        # proactively instead of correcting mid-stream.
        evaluator.plan_for(R_JOIN_S, _tiny(relations))
        evaluator.evaluate(R_JOIN_S, relations)
        store = evaluator.planstore
        assert store.stats()["ledger_entries"] > 0
        revised = evaluator.plan_for(R_JOIN_S, relations)
        assert store.drift_replans == 1
        kinds = [record.kind for record in store.history(R_JOIN_S)]
        assert kinds == ["pinned", "drift_replan"]
        # O(1) steady state: the revised plan is stamped with the ledger
        # version it was validated against, so nothing re-plans again.
        assert evaluator.plan_for(R_JOIN_S, relations) is revised
        assert store.drift_replans == 1

    def test_drift_check_can_be_disabled(self):
        relations = _relations()
        evaluator = EngineEvaluator(
            adaptive=NO_REPLAN,
            planstore=PlanStoreConfig(drift_threshold=None),
        )
        pinned = evaluator.plan_for(R_JOIN_S, _tiny(relations))
        evaluator.evaluate(R_JOIN_S, relations)
        assert evaluator.plan_for(R_JOIN_S, relations) is pinned
        assert evaluator.planstore.drift_replans == 0


class TestSessionScopedInvalidation:
    """The stale-stats regression contract: changed relation only."""

    def test_set_relation_drops_only_that_relations_learned_state(self):
        relations = _relations()
        with Session(
            relations, backend="engine", adaptive=NO_REPLAN, planstore=True
        ) as session:
            for expression in (R_JOIN_S, S_JOIN_T):
                session.prepare(expression).execute()
            store = session._planstore
            assert store.ledger.lookup(("R", "S"), ("A", "B", "C")) is not None
            assert store.ledger.lookup(("S", "T"), ("B", "C", "D")) is not None
            replacement = Relation.from_rows(
                "A B", [(i % 5, i % 11) for i in range(40)], name="R"
            )
            session.set_relation("R", replacement)
            # Only R's learned state is gone; S and T stay warm.
            assert store.ledger.lookup(("R", "S"), ("A", "B", "C")) is None
            assert store.ledger.lookup(("S", "T"), ("B", "C", "D")) is not None
            misses_before = store.samples.misses
            result = session.execute(R_JOIN_S)
            assert store.samples.misses == misses_before + 1  # R only
            naive = session.execute(R_JOIN_S, backend="naive")
            assert result.set_equal(naive.relation)

    def test_invalidation_replan_keeps_unchanged_relations_truth(self):
        # The prepared-query invalidation path passes forget_learned=False:
        # re-planning R ⋈ S ⋈ T after R changed must not wipe what was
        # learned about {S, T} (other queries still rely on it).
        relations = _relations()
        with Session(
            relations, backend="engine", adaptive=NO_REPLAN, planstore=True
        ) as session:
            three_way = session.prepare(THREE_WAY)
            three_way.execute()
            session.prepare(S_JOIN_T).execute()
            store = session._planstore
            st_key = (frozenset(("S", "T")), frozenset(("B", "C", "D")))
            assert st_key in store.ledger.snapshot()
            session.set_relation(
                "R",
                Relation.from_rows(
                    "A B", [(i % 3, i % 11) for i in range(30)], name="R"
                ),
            )
            three_way.execute()  # invalidation replan, scoped forget
            assert st_key in store.ledger.snapshot()
            kinds = [record.kind for record in three_way.plan_history()]
            assert "forgotten" in kinds
            assert kinds[-1] == "pinned"  # re-pinned after the replan

    def test_public_forget_plan_drops_learned_state(self):
        relations = _relations()
        with Session(
            relations, backend="engine", adaptive=NO_REPLAN, planstore=True
        ) as session:
            prepared = session.prepare(R_JOIN_S)
            prepared.execute()
            session.prepare(S_JOIN_T).execute()
            store = session._planstore
            assert store.ledger.lookup(("R", "S"), ("A", "B", "C")) is not None
            session.forget_plan(R_JOIN_S)
            # An explicit forget is a full forget for this plan's operands,
            # scoped to subsets: {S, T} is no subset of {R, S} and stays.
            assert store.ledger.lookup(("R", "S"), ("A", "B", "C")) is None
            assert store.ledger.lookup(("S", "T"), ("B", "C", "D")) is not None
            assert prepared.plan_history()[-1].kind == "forgotten"

    def test_set_default_relation_forgets_everything(self):
        # A bare relation binds *any* operand name, so no per-name scoping
        # is possible: replacing it must drop all learned state.
        bare = Relation.from_rows(
            "A B", [(i % 5, i % 7) for i in range(40)], name="R"
        )
        with Session(
            bare, backend="engine", adaptive=NO_REPLAN, planstore=True
        ) as session:
            session.execute(Operand("X", "A B").join(Operand("Y", "A B")))
            store = session._planstore
            assert store.stats()["cached_samples"] > 0
            session.set_default_relation(
                Relation.from_rows("A B", [(1, 2)], name="R")
            )
            stats = store.stats()
            assert stats["ledger_entries"] == 0
            assert stats["cached_samples"] == 0

    def test_session_stats_surface_the_store(self):
        relations = _relations()
        with Session(
            relations, backend="engine", adaptive=NO_REPLAN, planstore=True
        ) as session:
            prepared = session.prepare(R_JOIN_S)
            prepared.execute()
            prepared.execute()
            snapshot = session.stats()["planstore"]
            for key in (
                "sample_cache_hits",
                "sample_cache_misses",
                "cached_samples",
                "ledger_entries",
                "ledger_version",
                "plan_repins",
                "drift_replans",
            ):
                assert key in snapshot
            assert snapshot["cached_samples"] == 2
            assert snapshot["ledger_entries"] >= 1

    def test_sessions_without_a_store_report_none(self):
        with Session(_relations(20), backend="engine") as session:
            assert "planstore" not in session.stats()
            prepared = session.prepare(R_JOIN_S)
            assert prepared.plan_history() == ()
