"""Unit tests for the Grace-hash spill path (``GraceHashJoin`` + budget).

Covers the spill lifecycle the differential fuzz cannot see directly:
partition fan-out, recursive re-partitioning of oversized partitions, the
chunked block-nested-loop fallback for unsplittable partitions (one heavy
key, keyless products), temp-file cleanup on normal exhaustion / abandonment
/ mid-stream
exceptions, and the budgeted m=12 smoke the CI gate runs (set-equal to the
unbudgeted run while spilling, build tables within the budget).
"""

import pytest

from repro.algebra import Relation, naive_natural_join
from repro.algebra.relation import _join_plan
from repro.engine import (
    EngineEvaluator,
    GraceHashJoin,
    MemoryBudget,
    MemoryMeter,
    PhysicalOperator,
    SpillFile,
    TableScan,
)
from repro.expressions import Projection
from repro.perf import kernel_counters
from repro.reductions import RGConstruction
from repro.workloads import growing_construction_family


def _drain(operator):
    rows = set()
    for block in operator.blocks():
        rows.update(block)
    return Relation._from_trusted(operator.scheme, frozenset(rows))


def _grace(build, probe, budget, meter=None):
    """A Grace join building on ``build`` (left side) and streaming ``probe``."""
    meter = meter or MemoryMeter(budget.rows)
    return (
        GraceHashJoin(
            TableScan(build, meter),
            TableScan(probe, meter),
            _join_plan(build.scheme, probe.scheme),
            meter,
            budget,
            build_side="left",
        ),
        meter,
    )


def _spill_delta(before):
    return {
        name: value
        for name, value in kernel_counters().delta_since(before).items()
        if name.startswith(("join_spills", "join_chunk", "spill_"))
    }


class TestSpillLifecycle:
    def test_spill_activates_with_expected_fanout(self, tmp_path):
        build = Relation.from_rows("K A", [(i, i) for i in range(100)])
        probe = Relation.from_rows("K B", [(i, -i) for i in range(100)])
        budget = MemoryBudget(rows=32, spill_fanout=8, spill_dir=str(tmp_path))
        operator, meter = _grace(build, probe, budget)
        before = kernel_counters().snapshot()
        result = _drain(operator)
        delta = _spill_delta(before)
        assert result == naive_natural_join(build, probe)
        assert operator.spilled == 1
        assert delta["join_spills"] == 1
        # 8 build partitions at the switch plus 8 (all non-empty) probe ones.
        assert delta["spill_partitions"] == 16
        assert delta["spill_rows"] >= len(build) + len(probe)
        assert delta["spill_recursions"] == 0
        assert delta["spill_overflows"] == 0
        # ~13-row partitions: one resident at a time, never the whole build.
        assert 0 < operator.build_peak_rows <= budget.rows
        assert meter.current == 0
        assert not any(tmp_path.iterdir())

    def test_fitting_build_never_spills(self, tmp_path):
        build = Relation.from_rows("K A", [(i, i) for i in range(10)])
        probe = Relation.from_rows("K B", [(i % 10, -i) for i in range(50)])
        budget = MemoryBudget(rows=64, spill_dir=str(tmp_path))
        operator, meter = _grace(build, probe, budget)
        before = kernel_counters().snapshot()
        result = _drain(operator)
        assert result == naive_natural_join(build, probe)
        assert operator.spilled == 0
        assert _spill_delta(before)["join_spills"] == 0
        assert not any(tmp_path.iterdir())
        assert meter.current == 0

    def test_oversized_partitions_recurse_until_they_fit(self, tmp_path):
        build = Relation.from_rows("K A", [(i, i) for i in range(400)])
        probe = Relation.from_rows("K B", [(i, -i) for i in range(400)])
        budget = MemoryBudget(
            rows=16,
            spill_fanout=2,
            max_recursion=6,
            min_partition_rows=2,
            spill_dir=str(tmp_path),
        )
        operator, meter = _grace(build, probe, budget)
        before = kernel_counters().snapshot()
        result = _drain(operator)
        delta = _spill_delta(before)
        assert result == naive_natural_join(build, probe)
        # 2-way splits from ~200-row partitions down to the ~12-row level:
        # several recursion levels, no overflow, budget respected.
        assert delta["spill_recursions"] >= 3
        assert delta["spill_overflows"] == 0
        assert 0 < operator.build_peak_rows <= budget.rows
        assert meter.current == 0
        assert not any(tmp_path.iterdir())

    def test_single_heavy_key_takes_the_chunked_path(self, tmp_path):
        # Every build row shares one key: no partitioning can split it, so
        # after a no-progress re-salt the partition is joined by the
        # block-nested-loop fallback — multiple probe passes, the budget
        # respected, and no overflow counted.
        build = Relation.from_rows("K A", [(0, i) for i in range(60)])
        probe = Relation.from_rows("K B", [(0, -i) for i in range(5)])
        budget = MemoryBudget(rows=8, spill_fanout=2, spill_dir=str(tmp_path))
        operator, meter = _grace(build, probe, budget)
        before = kernel_counters().snapshot()
        result = _drain(operator)
        delta = _spill_delta(before)
        assert result == naive_natural_join(build, probe)
        assert delta["join_spills"] == 1
        assert delta["spill_overflows"] == 0
        # 60 unsplittable build rows through an 8-row budget: several chunks,
        # each probing the whole partition again.
        assert delta["join_chunk_passes"] >= 60 // budget.rows
        assert 0 < operator.build_peak_rows <= budget.rows
        assert meter.current == 0
        assert not any(tmp_path.iterdir())

    def test_keyless_product_chunks_but_stays_correct(self, tmp_path):
        left = Relation.from_rows("A", [(i,) for i in range(40)])
        right = Relation.from_rows("B", [(i,) for i in range(15)])
        budget = MemoryBudget(rows=8, spill_fanout=2, spill_dir=str(tmp_path))
        operator, meter = _grace(left, right, budget)
        before = kernel_counters().snapshot()
        result = _drain(operator)
        delta = _spill_delta(before)
        assert result == naive_natural_join(left, right)
        assert delta["spill_overflows"] == 0
        assert delta["join_chunk_passes"] >= 1
        assert operator.build_peak_rows <= budget.rows
        assert meter.current == 0
        assert not any(tmp_path.iterdir())


class _ExplodingScan(PhysicalOperator):
    """A scan that yields one block and then raises (a failing producer)."""

    def __init__(self, relation, meter):
        super().__init__(meter)
        self._relation = relation
        self.scheme = relation.scheme

    def blocks(self):
        rows = list(self._relation.rows)
        yield rows[: max(len(rows) // 2, 1)]
        raise RuntimeError("probe side exploded mid-stream")


class TestSpillCleanup:
    def test_files_exist_mid_stream_and_vanish_on_abandonment(self, tmp_path):
        build = Relation.from_rows("K A", [(i, i) for i in range(100)])
        probe = Relation.from_rows("K B", [(i, -i) for i in range(100)])
        budget = MemoryBudget(rows=16, spill_dir=str(tmp_path))
        operator, meter = _grace(build, probe, budget)
        generator = operator.blocks()
        next(generator)
        # Mid-execution the spill directory is real (the test would be
        # vacuous otherwise) ...
        spill_dirs = list(tmp_path.glob("repro-grace-*"))
        assert spill_dirs and any(d.glob("*.spill") for d in spill_dirs)
        # ... and closing the generator (an early-exit consumer) removes it.
        generator.close()
        assert not any(tmp_path.iterdir())
        assert meter.current == 0

    def test_files_vanish_when_the_probe_child_raises(self, tmp_path):
        build = Relation.from_rows("K A", [(i, i) for i in range(100)])
        probe = Relation.from_rows("K B", [(i, -i) for i in range(100)])
        budget = MemoryBudget(rows=16, spill_dir=str(tmp_path))
        meter = MemoryMeter(budget.rows)
        operator = GraceHashJoin(
            TableScan(build, meter),
            _ExplodingScan(probe, meter),
            _join_plan(build.scheme, probe.scheme),
            meter,
            budget,
            build_side="left",
        )
        with pytest.raises(RuntimeError, match="exploded"):
            for _ in operator.blocks():
                pass
        assert not any(tmp_path.iterdir())
        assert meter.current == 0

    def test_spill_file_roundtrip_and_idempotent_delete(self, tmp_path):
        spill = SpillFile(str(tmp_path / "one.spill"))
        rows = [(i, str(i)) for i in range(300)]
        for row in rows:
            spill.append(row)
        spill.finish()
        assert spill.rows == len(rows)
        assert [row for block in spill.blocks() for row in block] == rows
        spill.delete()
        spill.delete()
        assert not any(tmp_path.iterdir())

    def test_empty_spill_file_streams_nothing_and_leaves_no_file(self, tmp_path):
        spill = SpillFile(str(tmp_path / "empty.spill"))
        spill.finish()
        assert list(spill.blocks()) == []
        spill.delete()
        assert not any(tmp_path.iterdir())


class TestBudgetedEngine:
    def _m12(self):
        case = [c for c in growing_construction_family(clause_counts=(12,))][0]
        construction = RGConstruction(case.formula)
        query = Projection([construction.s_attribute], construction.expression)
        return query, construction.relation

    def test_budgeted_m12_stays_under_budget_and_matches_unbudgeted(self):
        """The CI smoke gate: at m=12 a 256-row budget must spill, keep
        every build table within the budget, reduce the live peak, and
        produce output set-equal to the unbudgeted engine."""
        query, relation = self._m12()
        bound = {name: relation for name in query.operand_names()}
        unbudgeted, unbudgeted_trace = EngineEvaluator().evaluate(query, bound)
        before = kernel_counters().snapshot()
        budgeted, trace = EngineEvaluator(budget=256).evaluate(query, bound)
        delta = _spill_delta(before)
        assert budgeted == unbudgeted
        assert delta["join_spills"] > 0 and delta["spill_rows"] > 0
        assert delta["spill_overflows"] == 0
        # Build sides never exceed the budget; total metered state may add
        # the plan's non-spillable slack (dedup seen-sets bounded by the
        # input, the result accumulator bounded by the output).
        assert trace.peak_build_rows <= 256
        slack = trace.input_cardinality + trace.result_cardinality
        assert trace.peak_live_rows <= 256 + slack
        assert trace.peak_live_rows < unbudgeted_trace.peak_live_rows
        # The spill activity is visible in the trace itself.
        assert trace.counters["join_spills"] > 0
        assert any("grace hash join" in step.description for step in trace.steps)

