"""Unit tests for the Grace-hash spill path (``GraceHashJoin`` + budget).

Covers the spill lifecycle the differential fuzz cannot see directly:
partition fan-out, recursive re-partitioning of oversized partitions, the
chunked block-nested-loop fallback for unsplittable partitions (one heavy
key, keyless products), the re-read mode a small spilled build takes
instead (probe rows never on disk, the meter free again before every
yield), temp-file cleanup on normal exhaustion / abandonment / mid-stream
exceptions, and the budgeted m=12 smoke the CI gate runs on Proposition 1's
``π_Y(φ_G)`` (set-equal to the unbudgeted run while spilling, build tables
within the budget).
"""

import pytest

from repro.algebra import Relation, RelationScheme, naive_natural_join, naive_project
from repro.algebra.relation import _join_plan
from repro.engine import (
    EngineEvaluator,
    EngineFaultError,
    GraceHashJoin,
    MemoryBudget,
    MemoryMeter,
    PhysicalOperator,
    SpillFile,
    TableScan,
)
from repro.engine.physical import REREAD_MAX_PASSES, REREAD_SLICE_ROWS
from repro.engine.spill import _ACTIVE_SPILL_DIRS, SpillingSeenSet, partition_index
from repro.obs.events import EventLog
from repro.perf import kernel_counters
from repro.perf.plancache import make_chain_kernel
from repro.reductions import RGConstruction
from repro.workloads import growing_construction_family


def _drain(operator):
    rows = set()
    for block in operator.blocks():
        rows.update(block)
    return Relation._from_trusted(operator.scheme, frozenset(rows))


def _grace(build, probe, budget, meter=None, emit=None):
    """A Grace join building on ``build`` (left side) and streaming ``probe``,
    emitting the joined columns at positions ``emit`` (``None``: all)."""
    meter = meter or MemoryMeter(budget.rows)
    return _built(TableScan(build, meter), TableScan(probe, meter), meter, budget, emit), meter


def _built(build, probe, meter, budget, emit=None):
    """A Grace join of two operators building on the left, with its kernel."""
    plan = _join_plan(build.scheme, probe.scheme)
    join = GraceHashJoin(build, probe, plan, meter, budget, build_side="left")
    emit_scheme = None
    if emit is not None:
        emit_scheme = RelationScheme([plan.joined_scheme.names[p] for p in emit])
    join.fuse(make_chain_kernel([(True, plan)], emit), emit_scheme)
    return join


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
        # 100 build rows outgrow the re-read mode (two 32-row chunks).
        assert (operator.spilled, operator.spill_mode) == (1, "partitioned")
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
            spill_dir=str(tmp_path),
        )
        operator, meter = _grace(build, probe, budget)
        before = kernel_counters().snapshot()
        result = _drain(operator)
        delta = _spill_delta(before)
        assert result == naive_natural_join(build, probe)
        # 2-way splits from ~200-row partitions down to the ~12-row level:
        # several recursion levels, no overflow, budget respected.
        assert operator.spill_mode == "partitioned"
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


class TestSpillDriver:
    """The one recursion both spilling clients drain their partitions
    through (``spill._drain_spill``): load a partition that fits,
    re-split one larger than the budget while splitting makes progress,
    and hand the rest to the client's fallback."""

    def test_a_partition_within_the_budget_falls_back_without_a_split(self, tmp_path):
        # Other state pins the meter: no partition fits, but none is larger
        # than the budget, so splitting could not help — each is joined in
        # one-entry chunks at once.
        build = Relation.from_rows("K A", [(i, i) for i in range(100)])
        probe = Relation.from_rows("K B", [(i, -i) for i in range(100)])
        budget = MemoryBudget(rows=32, spill_dir=str(tmp_path))
        meter = MemoryMeter(budget.rows)
        meter.acquire(budget.rows)
        operator, _ = _grace(build, probe, budget, meter)
        before = kernel_counters().snapshot()
        result = _drain(operator)
        delta = _spill_delta(before)
        assert result == naive_natural_join(build, probe)
        assert (operator.resplits, operator.fallbacks) == (0, 8)
        assert delta["spill_recursions"] == 0
        assert delta["join_chunk_passes"] == len(build)
        assert meter.current == budget.rows
        assert not any(tmp_path.iterdir())

    def test_a_heavy_key_is_split_once_and_falls_back(self, tmp_path):
        # The split puts every row in one sub-partition and every key hashes
        # alike: no salt will ever split it, so the recursion ends there.
        build = Relation.from_rows("K A", [(0, i) for i in range(60)])
        probe = Relation.from_rows("K B", [(0, -i) for i in range(5)])
        budget = MemoryBudget(rows=8, spill_fanout=2, spill_dir=str(tmp_path))
        operator, meter = _grace(build, probe, budget)
        before = kernel_counters().snapshot()
        result = _drain(operator)
        delta = _spill_delta(before)
        assert result == naive_natural_join(build, probe)
        assert (operator.resplits, operator.fallbacks) == (1, 1)
        assert delta["spill_recursions"] == 1
        assert delta["join_chunk_passes"] >= 60 // budget.rows
        assert meter.current == 0
        assert not any(tmp_path.iterdir())

    @staticmethod
    def _seen_set(tmp_path, rows=4, events=None):
        meter = MemoryMeter(rows, events=events)
        budget = MemoryBudget(rows=rows, spill_fanout=2, spill_dir=str(tmp_path))
        return SpillingSeenSet(meter, budget), meter

    def test_an_unlucky_split_splits_again(self, tmp_path):
        # Sixteen distinct rows that share a partition under salts 0 and 1:
        # the first re-split makes no progress, yet their keys hash apart,
        # so the next salt splits them instead of an overflowing fallback.
        rows = [
            (k,)
            for k in range(500)
            if partition_index(0, (k,), 2) == partition_index(1, (k,), 2) == 0
        ][:16]
        seen, meter = self._seen_set(tmp_path)
        before = kernel_counters().snapshot()
        try:
            emitted = seen.filter_block(rows[:8])  # the switch
            assert seen.spilled and emitted == rows[:8]
            assert seen.filter_block(list(rows)) == []
            emitted += [row for block in seen.drain() for row in block]
        finally:
            seen.close()
        assert sorted(emitted) == rows
        assert seen.resplits >= 2 and seen.fallbacks == 0
        assert kernel_counters().delta_since(before)["spill_overflows"] == 0
        assert meter.current == 0 and not any(tmp_path.iterdir())

    def test_a_row_repeated_past_the_budget_falls_back_without_overflow(self, tmp_path):
        seen, meter = self._seen_set(tmp_path)
        before = kernel_counters().snapshot()
        try:
            emitted = seen.filter_block([(i,) for i in range(5)])  # the switch
            seen.filter_block([(99,)] * 20)
            meter.acquire(4)  # other state pins the meter: nothing loads
            emitted += [row for block in seen.drain() for row in block]
            meter.release(4)
        finally:
            seen.close()
        assert sorted(emitted) == [(i,) for i in range(5)] + [(99,)]
        assert seen.fallbacks >= 1
        assert kernel_counters().delta_since(before)["spill_overflows"] == 0
        assert meter.current == 0 and not any(tmp_path.iterdir())

    def test_both_clients_log_one_event_shape(self, tmp_path):
        events = EventLog()
        seen, meter = self._seen_set(tmp_path, events=events)
        try:
            seen.filter_block([(i,) for i in range(40)])
            seen.filter_block([(i,) for i in range(80)])
            list(seen.drain())
        finally:
            seen.close()
        build = Relation.from_rows("K A", [(i, i) for i in range(100)])
        probe = Relation.from_rows("K B", [(i, -i) for i in range(100)])
        budget = MemoryBudget(rows=4, spill_fanout=2, spill_dir=str(tmp_path))
        _drain(_grace(build, probe, budget, MemoryMeter(4, events=events))[0])
        dedup, join = events.events("spill")
        assert dedup.keys() == join.keys()
        assert (dedup["operator"], join["operator"]) == ("dedup", "grace-join")
        assert dedup["mode"] == join["mode"] == "partitioned"
        assert (dedup["rows"], join["rows"]) == (40 + 80, 100)
        assert dedup["resplits"] and join["resplits"]


class TestFoldedJoinSpills:
    """A join with a projection folded into it, through every spilled mode:
    re-read chunks, Grace partitions and the chunked fallback all emit
    through the same compiled kernel (``HashJoin._probe``)."""

    @pytest.mark.parametrize(
        "build_rows, probe_rows, budget_rows, mode, chunked",
        [
            ([(i, i) for i in range(40)], [(i % 45, -i) for i in range(600)], 32, "re-read", False),
            ([(i, i) for i in range(100)], [(i, -i) for i in range(100)], 32, "partitioned", False),
            ([(0, i) for i in range(60)], [(0, -i) for i in range(5)], 8, "partitioned", True),
        ],
    )
    def test_each_mode_emits_the_projection(
        self, tmp_path, build_rows, probe_rows, budget_rows, mode, chunked
    ):
        build = Relation.from_rows("K A", build_rows)
        probe = Relation.from_rows("K B", probe_rows)
        budget = MemoryBudget(rows=budget_rows, spill_fanout=2, spill_dir=str(tmp_path))
        operator, meter = _grace(build, probe, budget, emit=(2, 1))
        before = kernel_counters().snapshot()
        result = _drain(operator)
        delta = _spill_delta(before)
        assert result == naive_project(naive_natural_join(build, probe), ["B", "A"])
        assert operator.spill_mode == mode
        assert bool(delta["join_chunk_passes"]) == chunked
        assert operator.label().startswith(
            f"grace hash join [build=left, budget={budget_rows}] on (K) -> [B, A] [spilled: "
        )
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
        operator = _built(TableScan(build, meter), _ExplodingScan(probe, meter), meter, budget)
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


class TestRereadMode:
    """A small spilled build: the probe keeps streaming, the build is re-read."""

    BUDGET_ROWS = 32

    def _sides(self):
        build = Relation.from_rows("K A", [(i, i) for i in range(40)])
        probe = Relation.from_rows("K B", [(i % 45, -i) for i in range(600)])
        return build, probe

    def _budget(self, tmp_path):
        return MemoryBudget(rows=self.BUDGET_ROWS, spill_dir=str(tmp_path))

    def test_only_the_build_is_spilled_and_the_budget_holds(self, tmp_path):
        build, probe = self._sides()
        budget = self._budget(tmp_path)
        operator, meter = _grace(build, probe, budget)
        before = kernel_counters().snapshot()
        result = _drain(operator)
        delta = _spill_delta(before)
        assert result == naive_natural_join(build, probe)
        assert (operator.spilled, operator.spill_mode) == (1, "re-read")
        assert delta["join_spills"] == 1
        # One staged file holding the build and nothing else: no probe row
        # was written, no fan-out was opened, nothing recursed or chunked
        # over a probe partition.
        assert delta["spill_rows"] == len(build)
        assert delta["spill_partitions"] == 0
        assert delta["spill_recursions"] == delta["join_chunk_passes"] == 0
        assert delta["spill_overflows"] == 0
        # The probe scan's one block is joined slice by slice.
        assert operator.build_rereads == -(-len(probe) // REREAD_SLICE_ROWS)
        assert 0 < operator.build_peak_rows <= budget.rows
        assert meter.peak <= budget.rows
        assert meter.current == 0
        assert not any(tmp_path.iterdir())

    def test_the_rule_is_row_counts_against_the_budget_and_the_slice(self, tmp_path):
        def mode(build_rows, budget_rows):
            build = Relation.from_rows("K A", [(i, i) for i in range(build_rows)])
            probe = Relation.from_rows("K B", [(i, -i) for i in range(build_rows)])
            budget = MemoryBudget(rows=budget_rows, spill_dir=str(tmp_path))
            operator, _meter = _grace(build, probe, budget)
            assert _drain(operator) == naive_natural_join(build, probe)
            return operator.spill_mode

        edge = REREAD_MAX_PASSES * 8
        assert mode(8, 8) == ""  # fits: never spilled
        assert mode(edge, 8) == "re-read"
        assert mode(edge + 1, 8) == "partitioned"
        # Budget-sized chunks stop counting once the build outgrows a slice.
        assert mode(REREAD_SLICE_ROWS, 200) == "re-read"
        assert mode(REREAD_SLICE_ROWS + 1, 200) == "partitioned"

    def test_a_parent_join_never_finds_the_meter_pinned_by_its_child(self, tmp_path):
        # Two re-reading joins in one pipeline under a budget neither build
        # fits: the child's chunks are gone before its block reaches the
        # parent, so each loads into the whole headroom in turn.
        inner, probe = self._sides()
        outer = Relation.from_rows("A C", [(i, i * 7) for i in range(40)])
        budget = self._budget(tmp_path)
        meter = MemoryMeter(budget.rows)
        child = _built(TableScan(inner, meter), TableScan(probe, meter), meter, budget)
        parent = _built(TableScan(outer, meter), child, meter, budget)
        before = kernel_counters().snapshot()
        result = _drain(parent)
        expected = naive_natural_join(outer, naive_natural_join(inner, probe))
        assert result.project(expected.scheme.names) == expected
        assert child.spill_mode == parent.spill_mode == "re-read"
        assert child.build_peak_rows == parent.build_peak_rows == budget.rows
        assert meter.peak <= budget.rows
        assert _spill_delta(before)["spill_overflows"] == 0
        assert meter.current == 0

    @pytest.mark.parametrize(
        "build_rows, probe_rows",
        [
            ([(0, i) for i in range(40)], [(0, -i) for i in range(5)]),
            ([(i,) for i in range(40)], [(i,) for i in range(15)]),
        ],
        ids=["single-heavy-key", "keyless-product"],
    )
    def test_unsplittable_builds_need_no_partitioning(
        self, tmp_path, build_rows, probe_rows
    ):
        keyed = len(build_rows[0]) == 2
        build = Relation.from_rows("K A" if keyed else "A", build_rows)
        probe = Relation.from_rows("K B" if keyed else "B", probe_rows)
        budget = self._budget(tmp_path)
        operator, meter = _grace(build, probe, budget)
        before = kernel_counters().snapshot()
        result = _drain(operator)
        delta = _spill_delta(before)
        assert result == naive_natural_join(build, probe)
        assert len(result) == len(build) * len(probe)
        assert operator.spill_mode == "re-read"
        assert delta["spill_rows"] == len(build)
        assert delta["spill_overflows"] == 0
        assert operator.build_peak_rows <= budget.rows and meter.peak <= budget.rows
        assert meter.current == 0
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("ending", ["abandoned", "probe-child-raises"])
    def test_an_execution_cut_short_leaves_nothing_behind(self, tmp_path, ending):
        build, probe = self._sides()
        budget = self._budget(tmp_path)
        meter = MemoryMeter(budget.rows)
        probe_child = (TableScan if ending == "abandoned" else _ExplodingScan)(
            probe, meter
        )
        operator = _built(TableScan(build, meter), probe_child, meter, budget)
        stream = operator.blocks()
        assert next(stream)
        # Mid-execution the staged build is on disk and no chunk of it is
        # resident: the block just handed out left the meter free.
        (staged,) = tmp_path.glob("repro-grace-*/*.spill")
        assert staged.name.startswith("build-")
        assert operator.spill_mode == "re-read" and meter.current == 0
        if ending == "abandoned":
            stream.close()
        else:
            with pytest.raises(RuntimeError, match="exploded"):
                for _block in stream:
                    pass
        assert not any(tmp_path.iterdir())
        assert _ACTIVE_SPILL_DIRS == set()
        assert meter.current == 0

    def test_a_build_file_cut_between_two_rereads_fails_the_join(self, tmp_path):
        build, probe = self._sides()
        operator, meter = _grace(build, probe, self._budget(tmp_path))
        stream = operator.blocks()
        next(stream)  # the first slice was joined against the whole file
        (staged,) = tmp_path.glob("repro-grace-*/*.spill")
        with open(staged, "r+b") as build_file:
            build_file.truncate(staged.stat().st_size // 2)
        with pytest.raises(EngineFaultError, match="truncated"):
            for _block in stream:
                pass
        assert not any(tmp_path.iterdir())
        assert meter.current == 0


class TestBudgetedEngine:
    def _m12(self):
        case = [c for c in growing_construction_family(clause_counts=(12,))][0]
        construction = RGConstruction(case.formula)
        return construction.pair_projection_expression(), construction.relation

    def test_budgeted_m12_stays_under_budget_and_matches_unbudgeted(self):
        """The CI smoke gate: at m=12 a 256-row budget must spill, keep
        every build table within the budget, reduce the live peak, and
        produce output set-equal to the unbudgeted engine.  The query is
        ``π_Y(φ_G)``: its tableau keeps all 13 rows, so it plans the twelve
        joins ``project[S](φ_G)`` ran before minimization made that one
        scan."""
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

