"""Tests for the spill primitive (``repro.engine.spill``) and its two clients.

:class:`PartitionedSpill` is the one way engine rows get to disk and back;
the Grace join and the dedup seen-set are thin clients of it.  This module
pins the primitive's own contract — routing keeps every item and keeps equal keys together at any
salt, ``wanted=`` drops whole partitions without a file, ``close()`` leaves
nothing behind however the execution ended — and what lives in
:class:`SpillFile`: a file that reads back short is a typed error, never
a short answer; a retried write is logged and every frame write and read
stream is traced; and exhausted retries leave no reference cycle to pin a
suspended operator's cleanup on the garbage collector.
"""

import gc
import pickle
import weakref
from collections import Counter
from itertools import chain
from operator import itemgetter
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.algebra import Relation, RelationScheme
from repro.algebra.relation import _join_plan
from repro.algebra.tuples import _project_plan
from repro.engine import (
    EngineFaultError,
    FaultInjector,
    FaultPlan,
    GraceHashJoin,
    MemoryBudget,
    MemoryMeter,
    SpillFile,
    StreamingProject,
    TableScan,
    spill,
)
from repro.engine.spill import PartitionedSpill, partition_index
from repro.obs.events import EventLog
from repro.obs.tracer import Tracer
from repro.perf import kernel_counters
from repro.perf.plancache import make_chain_kernel

from test_engine_spill import _ExplodingScan

key_of = itemgetter(0)

#: ``(key, payload)`` items: few keys, so every key repeats.
ITEMS = st.lists(
    st.tuples(st.integers(min_value=0, max_value=9), st.integers()), max_size=60
)
FANOUTS = st.integers(min_value=2, max_value=5)
SALTS = st.integers(min_value=-3, max_value=6)


def _read(parts):
    """The items of each sealed partition (``None`` partitions hold none)."""
    return [
        list(chain.from_iterable(part.blocks())) if part is not None else []
        for part in parts
    ]


def _scatter(area, items, fanout, salt, wanted=None):
    parts = area.partitions(fanout, "part", wanted=wanted)
    area.route(parts, items, key_of, salt)
    area.seal(parts)
    return parts


class TestRouting:
    @settings(max_examples=60, deadline=None)
    @given(ITEMS, FANOUTS, SALTS, SALTS)
    def test_route_and_reroute_keep_the_multiset_of_items(
        self, items, fanout, salt, resalt
    ):
        area = PartitionedSpill(MemoryMeter(), "repro-test-")
        try:
            first = _read(_scatter(area, items, fanout, salt))
            assert Counter(chain.from_iterable(first)) == Counter(items)
            again = [
                held
                for partition in first
                for held in _read(_scatter(area, partition, fanout, resalt))
            ]
            assert Counter(chain.from_iterable(again)) == Counter(items)
        finally:
            area.close()
        assert not spill._ACTIVE_SPILL_DIRS

    @settings(max_examples=60, deadline=None)
    @given(ITEMS, FANOUTS, st.lists(SALTS, min_size=1, max_size=4, unique=True))
    def test_equal_keys_meet_in_one_partition_at_every_salt(
        self, items, fanout, salts
    ):
        area = PartitionedSpill(MemoryMeter(), "repro-test-")
        try:
            for salt in salts:
                homes = {}
                for index, held in enumerate(_read(_scatter(area, items, fanout, salt))):
                    for key, _payload in held:
                        assert homes.setdefault(key, index) == index
                        assert index == partition_index(salt, key, fanout)
        finally:
            area.close()

    @settings(max_examples=60, deadline=None)
    @given(ITEMS, FANOUTS, SALTS, st.data())
    def test_wanted_drops_exactly_the_unwanted_partitions_items(
        self, items, fanout, salt, data
    ):
        wanted = data.draw(st.lists(st.booleans(), min_size=fanout, max_size=fanout))
        area = PartitionedSpill(MemoryMeter(), "repro-test-")
        before = kernel_counters().snapshot()
        try:
            parts = _scatter(area, items, fanout, salt, wanted=wanted)
            assert [part is not None for part in parts] == wanted
            assert kernel_counters().delta_since(before)["spill_partitions"] == sum(wanted)
            kept = Counter(chain.from_iterable(_read(parts)))
            assert kept == Counter(
                item for item in items if wanted[partition_index(salt, item[0], fanout)]
            )
            # No file was made for a dropped partition: the area holds as
            # many files as partitions were wanted, and not one more.
            assert len(area._files) == sum(wanted)
        finally:
            area.close()


def _grace(child_of, meter, budget):
    build = Relation.from_rows("K A", [(i, i) for i in range(100)])
    probe = Relation.from_rows("K B", [(i, -i) for i in range(100)])
    plan = _join_plan(build.scheme, probe.scheme)
    join = GraceHashJoin(
        TableScan(build, meter), child_of(probe, meter), plan, meter, budget, build_side="left"
    )
    join.fuse(make_chain_kernel([(True, plan)]))
    return join


def _dedup(child_of, meter, budget):
    relation = Relation.from_rows("A B", [(i, i % 3) for i in range(100)])
    plan = _project_plan(relation.scheme, RelationScheme.of("A"))
    return StreamingProject(
        child_of(relation, meter), plan.pick, plan.target_scheme, meter, budget=budget
    )


def _drained(operator):
    for _block in operator.blocks():
        pass


def _closed_early(operator):
    stream = operator.blocks()
    next(stream)
    stream.close()


def _raising(operator):
    with pytest.raises((RuntimeError, EngineFaultError)):
        _drained(operator)


#: How an execution can end: (driver, child factory, fault plan).
ENDINGS = {
    "drained": (_drained, TableScan, None),
    "closed-early": (_closed_early, TableScan, None),
    "child-raises": (_raising, _ExplodingScan, None),
    "write-fault": (_raising, TableScan, FaultPlan(fail_spill_write_at=2, persistent=True)),
}


class TestLifecycle:
    @pytest.mark.parametrize("ending", sorted(ENDINGS))
    @pytest.mark.parametrize("client", [_grace, _dedup])
    def test_every_ending_leaves_no_directory_and_no_registry_entry(
        self, tmp_path, client, ending
    ):
        drive, child_of, plan = ENDINGS[ending]
        budget = MemoryBudget(rows=8, spill_dir=str(tmp_path))
        meter = MemoryMeter(
            budget.rows, faults=FaultInjector(plan) if plan is not None else None
        )
        before = kernel_counters().snapshot()
        drive(client(child_of, meter, budget))
        # The case is vacuous unless the client really went to disk.
        delta = kernel_counters().delta_since(before)
        assert delta["spill_partitions"]
        assert not any(tmp_path.iterdir())
        assert not spill._ACTIVE_SPILL_DIRS
        assert meter.current == 0

    def test_close_is_idempotent_and_the_directory_is_lazy(self, tmp_path):
        area = PartitionedSpill(MemoryMeter(), "repro-test-", str(tmp_path))
        area.close()
        assert not any(tmp_path.iterdir()), "no file asked for, no directory made"
        handed = area.file("run")
        handed.append((1,))  # buffered, never sealed: close() must cope
        (made,) = tmp_path.iterdir()
        assert str(made) in spill._ACTIVE_SPILL_DIRS
        area.close()
        area.close()
        assert not any(tmp_path.iterdir())
        assert not spill._ACTIVE_SPILL_DIRS


def _three_frame_file(tmp_path):
    handle = SpillFile(str(tmp_path / "cut.spill"))
    rows = [(i,) for i in range(3 * spill.SPILL_BLOCK_ROWS)]
    for row in rows:
        handle.append(row)
    handle.finish()
    with open(handle.path, "rb") as stream:
        pickle.load(stream)
        first_frame_end = stream.tell()
    return handle, rows, first_frame_end


class TestReadBackCheck:
    def test_a_file_cut_at_a_frame_boundary_is_an_error_not_a_short_read(
        self, tmp_path
    ):
        handle, rows, first_frame_end = _three_frame_file(tmp_path)
        with open(handle.path, "r+b") as stream:
            stream.truncate(first_frame_end)
        with pytest.raises(EngineFaultError) as caught:
            list(handle.blocks())
        message = str(caught.value)
        assert handle.path in message
        assert f"{len(rows) - spill.SPILL_BLOCK_ROWS} of {len(rows)} rows" in message

    def test_a_file_cut_inside_a_frame_is_the_same_typed_error(self, tmp_path):
        handle, rows, first_frame_end = _three_frame_file(tmp_path)
        with open(handle.path, "r+b") as stream:
            stream.truncate(first_frame_end + 10)
        got = []
        with pytest.raises(EngineFaultError, match="truncated"):
            for block in handle.blocks():
                got.extend(block)
        assert got == rows[: spill.SPILL_BLOCK_ROWS]

    def test_a_grace_partition_cut_before_its_replay_fails_the_join(self, tmp_path):
        budget = MemoryBudget(rows=16, spill_dir=str(tmp_path))
        meter = MemoryMeter(budget.rows)
        join = _grace(TableScan, meter, budget)
        stream = join.blocks()
        next(stream)  # both sides are routed; the first partition is joined
        assert join.spill_mode == "partitioned"
        cut = 0
        for path in tmp_path.glob("*/*.spill"):
            size = path.stat().st_size
            if size:
                with open(path, "r+b") as partition:
                    partition.truncate(size // 2)
                cut += 1
        assert cut, "some partition must still be waiting on disk"
        with pytest.raises(EngineFaultError, match="truncated"):
            for _block in stream:
                pass
        assert not any(tmp_path.iterdir())
        assert not spill._ACTIVE_SPILL_DIRS
        assert meter.current == 0


class TestRetryHelper:
    def test_spill_io_is_retried_traced_and_logged(self, tmp_path):
        meter = MemoryMeter(
            8,
            faults=FaultInjector(FaultPlan(fail_spill_write_at=1, spill_failures=1)),
            tracer=Tracer(),
            events=EventLog(),
        )
        area = PartitionedSpill(meter, "repro-test-", str(tmp_path))
        rows = [(i, i) for i in range(300)]
        try:
            handle = area.file("run")
            handle.extend(rows)
            handle.finish()
            assert list(chain.from_iterable(handle.blocks())) == rows
            assert list(chain.from_iterable(handle.blocks())) == rows
        finally:
            area.close()
        assert [event["op"] for event in meter.events.events("spill-retry")] == ["write"]
        kinds = Counter(span.kind for span in meter.tracer.finish())
        # 300 rows are three frames; each blocks() stream is one span.
        assert kinds["spill-write"] == 3 and kinds["spill-read"] == 2
        assert not any(tmp_path.iterdir())

    def test_exhausted_retries_leave_no_reference_cycle(self, tmp_path):
        """The stored ``OSError``'s traceback points at the retry frame, and
        a frame keeps its callers alive: with the cycle left in place, the
        caller's locals (in the engine: a suspended child operator and its
        spill directory) would survive until a cyclic GC pass."""

        class Canary:
            pass

        def fail_a_write():
            canary = Canary()
            handle = SpillFile(
                str(tmp_path / "fault.spill"),
                faults=FaultInjector(FaultPlan(fail_spill_write_at=1, persistent=True)),
            )
            try:
                for i in range(spill.SPILL_BLOCK_ROWS):
                    handle.append((i,))
            except EngineFaultError:
                pass
            else:
                pytest.fail("the persistent fault never fired")
            finally:
                handle.delete()
            return weakref.ref(canary)

        was_enabled = gc.isenabled()
        gc.disable()
        try:
            with mock.patch.object(spill, "_SPILL_RETRY_BACKOFF", 0.0):
                assert fail_a_write()() is None
        finally:
            if was_enabled:
                gc.enable()
