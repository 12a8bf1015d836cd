"""Tests for the block-at-a-time engine kernels (``repro.engine.physical``).

Every hash join — :class:`HashJoin`, and :class:`GraceHashJoin` in memory,
per spilled partition and per chunk — builds through ``_build_block`` and
probes through ``HashJoin._probe``; every drain ends in
``parallel.drain_metered``, which offers its result set to the plan root.
The property test drives the two kernels through the shapes a hand-written
loop gets wrong one at a time (either build side, multi-match buckets, rows
without a partner, a keyless product, a build child that repeats rows, a
consumer that walks away mid-stream) against the dict-based reference
algebra and the counters' arithmetic; the root-projection tests pin what
the sink changes (no seen-set, no dedup spill, the result resident once)
and what it must not (the answer, ``rows_out``).
"""

import contextlib
import pickle
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.algebra import (
    Relation,
    RelationScheme,
    naive_natural_join,
    naive_project,
)
from repro.algebra.relation import _join_plan
from repro.algebra.tuples import _project_plan
from repro.api import Session
from repro.engine import (
    GraceHashJoin,
    HashJoin,
    MemoryBudget,
    MemoryMeter,
    StreamingProject,
    TableScan,
)
from repro.engine import physical, spill
from repro.engine.parallel import drain_metered
from repro.perf import kernel_counters
from repro.workloads import serving_relations

#: (left scheme, right scheme): one shared attribute, two, none (a product).
SHAPES = (("A B", "B C"), ("A B C", "B C D"), ("A", "C"))
#: Three values per column: buckets with several entries and probe rows
#: without a partner are both the common case.
VALUES = st.integers(min_value=0, max_value=2)


@st.composite
def join_cases(draw):
    left_names, right_names = draw(st.sampled_from(SHAPES))

    def relation(names, name):
        width = len(names.split())
        rows = draw(st.lists(st.tuples(*[VALUES] * width), max_size=14))
        return Relation.from_rows(names, rows, name=name)

    return (
        relation(left_names, "L"),
        relation(right_names, "R"),
        draw(st.sampled_from(("left", "right"))),
        draw(st.sampled_from((None, 2, 4, 1_000))),
        draw(st.booleans()),
    )


@contextlib.contextmanager
def _small_blocks():
    """Four-row blocks (three-row spill frames), so a dozen rows cross
    several block boundaries.  Each name is patched in the module that
    *reads* it: a patch on a re-exported binding would change nothing."""
    with mock.patch.object(physical, "BLOCK_ROWS", 4), mock.patch.object(
        spill, "SPILL_BLOCK_ROWS", 3
    ):
        yield


def _join(left, right, build_side, budget_rows, repeat_build):
    """The join under test, its meter, and the build side's distinct rows.

    With ``repeat_build`` the build child is a dedup-free projection that
    drops the build relation's last column, so it streams repeated rows.
    """
    meter = MemoryMeter(budget_rows)
    children = {"left": TableScan(left, meter), "right": TableScan(right, meter)}
    relations = {"left": left, "right": right}
    build = relations[build_side]
    if repeat_build and len(build.scheme) > 1:
        narrowed = _project_plan(
            build.scheme, RelationScheme(build.scheme.names[:-1])
        )
        children[build_side] = StreamingProject(
            children[build_side], narrowed.pick, narrowed.target_scheme, meter, dedup=False
        )
        relations[build_side] = naive_project(build, narrowed.target_scheme.names)
    plan = _join_plan(relations["left"].scheme, relations["right"].scheme)
    if budget_rows is None:
        join = HashJoin(
            children["left"], children["right"], plan, meter, build_side=build_side
        )
    else:
        join = GraceHashJoin(
            children["left"],
            children["right"],
            plan,
            meter,
            MemoryBudget(rows=budget_rows, spill_fanout=2, min_partition_rows=2),
            build_side=build_side,
        )
    return join, meter, relations


class TestBuildAndProbeKernels:
    @settings(max_examples=150, deadline=None)
    @given(join_cases())
    def test_joins_match_the_reference_and_the_counters_add_up(self, case):
        left, right, build_side, budget_rows, repeat_build = case
        with _small_blocks():
            join, meter, relations = _join(*case)
            before = kernel_counters().snapshot()
            streamed = [row for block in join.blocks() for row in block]
            delta = kernel_counters().delta_since(before)
        expected = naive_natural_join(relations["left"], relations["right"])
        assert Relation._from_trusted(join.scheme, frozenset(streamed)) == expected
        assert join.rows_out == len(streamed)
        probe_side = "right" if build_side == "left" else "left"
        assert delta["join_probes"] == len(relations[probe_side])
        if not delta["join_spills"]:
            # Buckets are sets and the probe side is a relation, so the
            # stream carries no duplicates, and repeated build rows collapsed
            # in the table: the peak is the build side's distinct rows.
            assert join.rows_out == len(expected)
            assert join.build_peak_rows == len(relations[build_side])
        else:
            # The chunked fallback dedups per chunk, so a repeated build row
            # can straddle two chunks: set-equal, not bag-equal.
            assert join.rows_out >= len(expected)
            assert join.build_peak_rows <= budget_rows
        assert delta["spill_overflows"] == 0
        assert meter.current == 0
        assert not spill._ACTIVE_SPILL_DIRS

    @settings(max_examples=60, deadline=None)
    @given(join_cases())
    def test_closing_the_stream_early_releases_everything(self, case):
        with _small_blocks():
            join, meter, _relations = _join(*case)
            stream = join.blocks()
            next(stream, None)
            stream.close()
        assert meter.current == 0
        assert not spill._ACTIVE_SPILL_DIRS

    def test_the_small_block_patch_reaches_the_spill_writer(self, tmp_path):
        """A dozen rows per partition in three-row frames: a partition file
        with one frame would mean the patch hit a binding nobody reads."""
        left = Relation.from_rows("A B", [(i, i) for i in range(24)])
        right = Relation.from_rows("B C", [(i, -i) for i in range(24)])
        budget = MemoryBudget(
            rows=4, spill_fanout=2, min_partition_rows=2, spill_dir=str(tmp_path)
        )
        meter = MemoryMeter(budget.rows)
        join = GraceHashJoin(
            TableScan(left, meter),
            TableScan(right, meter),
            _join_plan(left.scheme, right.scheme),
            meter,
            budget,
        )

        def frames(path):
            with open(path, "rb") as stream:
                count = 0
                while True:
                    try:
                        pickle.load(stream)
                    except EOFError:
                        return count
                    count += 1

        with _small_blocks():
            stream = join.blocks()
            next(stream)
            most = max(frames(path) for path in tmp_path.glob("*/*.spill"))
            stream.close()
        assert most > 1
        assert not any(tmp_path.iterdir())

    def test_probe_consumes_the_build_table_it_is_given(self):
        left = Relation.from_rows("A B", [(1, 1), (2, 1), (3, 2)])
        right = Relation.from_rows("B C", [(1, "x"), (1, "y"), (3, "z")])
        meter = MemoryMeter()
        join = HashJoin(
            TableScan(left, meter),
            TableScan(right, meter),
            _join_plan(left.scheme, right.scheme),
            meter,
        )
        buckets = {}
        pairs = join._pairs_of(list(right.rows) * 2)
        assert physical._build_block(buckets, pairs) == 3
        out = [row for block in join._probe(buckets, iter([list(left.rows)])) for row in block]
        assert sorted(out) == [(1, 1, "x"), (1, 1, "y"), (2, 1, "x"), (2, 1, "y")]
        assert buckets == {}


HEAVY_QUERY = "project[A, C, D](R * S * T)"


class TestRootProjectionDedupsIntoTheResultSet:
    def test_the_drain_holds_the_only_copy_of_the_result(self):
        base = Relation.from_rows("A B", [(i % 7, i) for i in range(5_000)])
        plan = _project_plan(base.scheme, RelationScheme.of("A"))

        def root(meter):
            return StreamingProject(
                TableScan(base, meter), plan.pick, plan.target_scheme, meter
            )

        own_meter = MemoryMeter()
        own = root(own_meter)
        streamed = {row for block in own.blocks() for row in block}
        sink_meter = MemoryMeter()
        sunk = root(sink_meter)
        rows = drain_metered(sunk, sink_meter)
        assert rows == streamed == {(value,) for value in range(7)}
        assert sunk.rows_out == own.rows_out == 7
        # Without a sink the operator metered its own seen-set (and released
        # it); with one, the result rows are the drain's and stay metered.
        assert (own_meter.peak, own_meter.current) == (7, 0)
        assert (sink_meter.peak, sink_meter.current) == (7, 7)

    def test_a_capped_or_failing_drain_releases_its_partial_rows(self):
        base = Relation.from_rows("A", [(i,) for i in range(3_000)])
        meter = MemoryMeter()
        assert drain_metered(TableScan(base, meter), meter, cap=2_000) is None
        assert meter.current == 0

        class Boom(TableScan):
            def _blocks(self):
                yield from list(super()._blocks())[:1]
                raise RuntimeError("mid-stream")

        with pytest.raises(RuntimeError):
            drain_metered(Boom(base, meter), meter)
        assert meter.current == 0 and meter.peak >= physical.BLOCK_ROWS

    @pytest.mark.parametrize("budget", [64, 256])
    def test_budgeted_root_never_spills_a_seen_set(self, budget):
        relations = serving_relations(rows=200)
        with Session(relations, backend="engine") as roomy:
            expected = roomy.execute(HEAVY_QUERY)
        with Session(relations, backend="engine", budget=budget) as tight:
            result = tight.execute(HEAVY_QUERY)
        assert result.set_equal(expected) and len(result) == 5_978
        counters = result.trace.counters
        assert counters["join_spills"] > 0
        assert counters["dedup_spills"] == 0
        assert counters["spill_overflows"] == 0
        # The result accumulator plus at most a budget of operator state.
        assert result.trace.peak_live_rows <= len(result) + budget
        if budget == 64:
            # The commit before the sink peaked at 5,981 here (the result,
            # and a spilled seen-set replaying beside it).
            assert result.trace.peak_live_rows <= 5_981
        # The unbudgeted run no longer holds the result twice (it peaked at
        # 12,356: seen-set + result set + build tables).
        assert expected.trace.peak_live_rows < 2 * len(expected)
