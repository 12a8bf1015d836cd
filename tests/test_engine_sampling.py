"""Sampling-estimator accuracy and propagation.

Two layers of pinning for ``repro.engine.sampling`` (that a relation's
sample is drawn at most once lives with the ordering tests):

* **Estimator accuracy** — property tests over seeded random relations
  bound the q-error of sampled distinct counts (the GEE scale-up a
  projected sample's size is read with) and of sample-join size estimates
  against the exact join, on a heavy-hitter key too; whole-relation samples
  must be exact.
* **Propagation** — the sample-aware branches of
  :func:`repro.engine.stats.join_stats` / ``project_stats`` carry joined /
  projected samples along derived entries, lazily, and degrade to the
  backoff formulas when either side has no data behind it.
"""

import random

import pytest

from repro.algebra.relation import Relation
from repro.engine import (
    RelationStats,
    SampledRelationStats,
    estimate_join_cardinality,
    join_estimate_provenance,
    join_stats,
    project_stats,
    q_error,
    reservoir_sample,
)
from repro.engine.sampling import SAMPLE_ROWS
from repro.engine.stats import _backoff_cardinality
from repro.perf import kernel_counters

#: Calibrated on seeds 0..7 (worst observed 1.90, on the 200- and
#: 2,000-value column ``B``): a regression in the GEE scale-up shows up as a
#: blown distinct-count ratio.
MAX_DISTINCT_Q = 3.0

#: Calibrated on seeds 0..11 (worst observed 1.05; 1.41 on the heavy-hitter
#: keys of seeds 0..15): sample joins measure overlap directly, so their
#: error is far tighter than selectivity guesses.
MAX_JOIN_Q = 1.5

#: The formula's q-error on those heavy-hitter keys is at least this (25.7
#: to 239 measured): it prices the hot value at the column's mean.
MIN_FORMULA_Q_ON_SKEW = 10.0


def _random_skewed_relation(seed: int, name: str) -> Relation:
    rng = random.Random(seed)
    count = rng.randint(800, 3000)
    rows = [
        (
            rng.randint(0, 50),
            rng.randint(0, rng.choice((5, 200, 2000))),
            rng.choice("abcdef"),
        )
        for _ in range(count)
    ]
    return Relation.from_rows("A B C", rows, name=name)


def _heavy_hitter_relation(rng: random.Random, names: str, name: str) -> Relation:
    """1,000-3,000 rows whose first column is ``0`` on 10-50 % of them and
    drawn from 200-2,000 other values elsewhere."""
    count = rng.randint(1000, 3000)
    share = rng.uniform(0.1, 0.5)
    tail = rng.randint(200, 2000)
    rows = [
        (0 if rng.random() < share else rng.randint(1, tail), index)
        for index in range(count)
    ]
    return Relation.from_rows(names, rows, name=name)


class TestReservoirSample:
    def test_small_inputs_are_returned_whole(self):
        rows = [(i,) for i in range(5)]
        assert reservoir_sample(rows, 10, random.Random(0)) == rows

    def test_sample_size_and_membership(self):
        rows = [(i,) for i in range(1000)]
        sample = reservoir_sample(rows, 64, random.Random(1))
        assert len(sample) == 64
        assert set(sample) <= set(rows)

    def test_deterministic_for_a_seed(self):
        rows = [(i, i % 7) for i in range(500)]
        first = reservoir_sample(rows, 32, random.Random(42))
        second = reservoir_sample(rows, 32, random.Random(42))
        assert first == second

    def test_every_position_reachable(self):
        """Algorithm R must not bias against late rows: across seeds, rows
        from the back half of the input appear regularly."""
        rows = [(i,) for i in range(100)]
        seen_late = 0
        for seed in range(50):
            sample = reservoir_sample(rows, 10, random.Random(seed))
            seen_late += sum(1 for (value,) in sample if value >= 50)
        # Expectation is 250 of 500 draws; anything above 150 rules out the
        # classic "only the first k rows" failure mode.
        assert seen_late > 150

    def test_zero_and_negative_k(self):
        assert reservoir_sample([(1,)], 0, random.Random(0)) == []


class TestQError:
    def test_symmetry_and_floor(self):
        assert q_error(10, 100) == pytest.approx(10.0)
        assert q_error(100, 10) == pytest.approx(10.0)
        assert q_error(0, 0) == 1.0
        assert q_error(0.2, 0) == 1.0
        assert q_error(7, 7) == 1.0


class TestSampledDistinctCounts:
    @pytest.mark.parametrize("seed", range(8))
    def test_gee_estimate_within_bound(self, seed):
        """A one-column projection of the relation's sample is sized by the
        GEE scale-up of its distinct values; the catalog entry's own counts
        stay exact."""
        relation = _random_skewed_relation(seed, "R")
        exact = RelationStats.from_relation(relation)
        sample = relation.stats().sample
        assert len(sample.rows) == SAMPLE_ROWS < len(relation)
        for column in relation.scheme.names:
            assert relation.stats().column(column) == exact.column(column)
            guess = sample.project((column,)).est_cardinality
            q = q_error(guess, exact.distinct(column))
            assert q <= MAX_DISTINCT_Q, (
                f"seed={seed} column={column}: sampled {guess:.0f} "
                f"vs exact {exact.distinct(column)} (q={q:.2f})"
            )

    def test_full_sample_is_exact(self):
        relation = Relation.from_rows(
            "A B", [(i % 5, i % 3) for i in range(40)], name="R"
        )
        sample = relation.stats().sample
        assert sample.est_cardinality == len(relation) == len(sample.rows)
        for column in ("A", "B"):
            projected = sample.project((column,))
            assert projected.est_cardinality == relation.stats().distinct(column)
            assert sorted(projected.rows) == sorted(relation.project((column,)).rows)

    def test_each_build_counts_once(self):
        """A draw is counted when it happens: reading a sample again, or
        deriving projections from it, draws nothing; an equal relation built
        anew is a new relation and draws its own."""
        rows = [(i,) for i in range(300)]
        relation = Relation.from_rows("A", rows)
        before = kernel_counters().snapshot()
        relation.stats().sample.rows
        relation.stats().sample.rows
        relation.stats().sample.project(("A",)).rows
        assert kernel_counters().delta_since(before)["sample_builds"] == 1
        Relation.from_rows("A", rows).stats().sample.rows
        assert kernel_counters().delta_since(before)["sample_builds"] == 2


class TestSampleJoinEstimates:
    @pytest.mark.parametrize("seed", range(8))
    def test_join_size_within_bound(self, seed):
        rng = random.Random(seed * 7 + 3)
        left = _random_skewed_relation(seed, "L")
        right = Relation.from_rows(
            "A D",
            [
                (rng.randint(0, 50), rng.randint(0, 30))
                for _ in range(rng.randint(800, 3000))
            ],
            name="R",
        )
        actual = len(left.natural_join(right))
        estimate = left.stats().sample.join_size(right.stats().sample, ["A"])
        q = q_error(estimate, actual)
        assert q <= MAX_JOIN_Q, (
            f"seed={seed}: estimated {estimate:.0f} vs actual {actual} (q={q:.2f})"
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_a_heavy_hitter_key_is_measured_within_bound(self, seed):
        """A one-column key with a hot value on both sides: the catalog
        measures it on the two 256-row samples (each a fraction of its
        relation), and the estimate lands where the formula cannot."""
        rng = random.Random(seed)
        left = _heavy_hitter_relation(rng, "A B", "L")
        right = _heavy_hitter_relation(rng, "A C", "R")
        actual = len(left.natural_join(right))
        entries = left.stats(), right.stats()
        assert join_estimate_provenance(*entries, ("A",)) == "sampled"
        q = q_error(estimate_join_cardinality(*entries, ("A",)), actual)
        assert q <= MAX_JOIN_Q, f"seed={seed}: q={q:.2f} on {actual} rows"
        formula_q = q_error(_backoff_cardinality(*entries, ("A",)), actual)
        assert formula_q >= MIN_FORMULA_Q_ON_SKEW, f"seed={seed}: {formula_q:.1f}"

    def test_full_samples_estimate_exactly(self):
        left = Relation.from_rows("A B", [(i % 4, i) for i in range(30)], name="L")
        right = Relation.from_rows("B C", [(i, i % 3) for i in range(30)], name="R")
        actual = len(left.natural_join(right))
        estimate = left.stats().sample.join_size(right.stats().sample, ["B"])
        assert estimate == pytest.approx(actual)

    def test_disjoint_schemes_estimate_the_product(self):
        left = Relation.from_rows("A", [(i,) for i in range(7)], name="L")
        right = Relation.from_rows("B", [(i,) for i in range(11)], name="R")
        estimate = left.stats().sample.join_size(right.stats().sample, [])
        assert estimate == pytest.approx(77.0)


class TestSampledPropagation:
    def test_join_stats_carries_the_joined_sample(self):
        left = Relation.from_rows(
            "A B C", [(i, i % 4, i % 3) for i in range(30)], name="L"
        )
        right = Relation.from_rows(
            "B C D", [(i % 4, i % 3, i) for i in range(30)], name="R"
        )
        joined = join_stats(
            left.stats(), right.stats(), ("A", "B", "C", "D"), ("B", "C")
        )
        assert isinstance(joined, SampledRelationStats)
        assert joined.sample is not None and not joined.sample.drawn
        # A composite key is measured, and on whole-relation samples exactly.
        assert joined.cardinality == len(left.natural_join(right))

    def test_project_stats_carries_the_projected_sample(self):
        relation = Relation.from_rows(
            "A B", [(i % 4, i % 6) for i in range(40)], name="R"
        )
        projected = project_stats(relation.stats(), ("A",))
        assert isinstance(projected, SampledRelationStats)
        assert not projected.sample.drawn
        # The formula answers for the projection: 4 distinct values of A.
        assert projected.cardinality == len(relation.project(("A",))) == 4

    def test_mixed_entries_degrade_to_backoff(self):
        left = Relation.from_rows(
            "A B C", [(i % 4, i, i % 3) for i in range(30)], name="L"
        )
        plain = RelationStats.assumed(("B", "C", "D"), 100)
        joined = join_stats(left.stats(), plain, ("A", "B", "C", "D"), ("B", "C"))
        assert not isinstance(joined, SampledRelationStats)
        assert joined.cardinality >= 0

    def test_propagated_sample_respects_the_cap(self):
        rng = random.Random(5)
        left = Relation.from_rows(
            "A B C", [(rng.randint(0, 1), rng.randint(0, 1), i) for i in range(300)],
            name="L",
        )
        right = Relation.from_rows(
            "A B D", [(rng.randint(0, 1), rng.randint(0, 1), i) for i in range(300)],
            name="R",
        )
        joined = join_stats(
            left.stats(), right.stats(), ("A", "B", "C", "D"), ("A", "B")
        )
        assert len(joined.sample.rows) <= SAMPLE_ROWS
        # The estimate survives the subsample: it is the scaled match count,
        # not the capped row count.
        actual = len(left.natural_join(right))
        assert q_error(joined.cardinality, actual) <= MAX_JOIN_Q
