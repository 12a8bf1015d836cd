"""Grouped emission: a lone join under a deduplicating projection builds no
duplicate it would drop.

A hash join whose projection was folded into it (``HashJoin.fuse`` with an
emit list) and whose emitted probe columns ``g`` do not cover the probe key
may emit a probe block grouped: each ``g`` takes the union of its matched
entries' emitted columns, and ``{g} x parts`` is emitted once
(``plancache.GroupedEmission``, ``physical._grouped_block``).  A block is
grouped only when its joined rows are at least ``GROUP_REPEATS`` times
(its distinct ``g``) x (the table's distinct parts), so only where most of
them are duplicates; every other block runs the ordinary kernel over the
same table.

The property draws probe and build relations with a controlled fan-out,
group count and part overlap — either build side, one- and two-column
``g``, parts and keys, the three emit orders and probe rows without a
bucket — and holds each run to the reference algebra and to the same tree
forced onto the ordinary kernel: every operator's ``rows_out``,
``join_probes`` and both peaks are equal, and the meter ends at zero.  The
path tests pin which plans group: the four serving queries whose joins
repeat, and none of ``join_100k``'s, the paper's query, any budgeted plan
or a join whose probe rows each carry their own ``g``.
"""

from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import event, given, settings, strategies as st

from repro.algebra import Relation, RelationScheme, naive_natural_join, naive_project
from repro.algebra.relation import _join_plan
from repro.engine import (
    EngineEvaluator,
    GraceHashJoin,
    HashJoin,
    MemoryBudget,
    MemoryMeter,
    StreamingProject,
    TableScan,
)
from repro.engine import physical
from repro.engine.physical import drain_metered
from repro.expressions import Projection, parse_expression
from repro.perf import kernel_counters
from repro.perf.plancache import make_chain_kernel
from repro.reductions.rg import RGConstruction
from repro.workloads import growing_construction_family, serving_queries, serving_relations
from test_scan_order_invariance import _join_100k_instance
from test_engine_ordering import JOIN_100K_QUERIES

#: The serving queries with a join whose output repeats: the ones
#: ``serve_mixed`` spends most of its engine time in.
GROUPING_QUERIES = (
    "project[A, C](R * S)",
    "project[B, D](S * T)",
    "project[A, D](R * S * T)",
    "project[A, C, D](R * S * T)",
)


@contextmanager
def _ordinary_kernel():
    """Every in-memory join emits every block through its kernel."""
    with mock.patch.object(HashJoin, "_grouping", False):
        yield


@contextmanager
def _blocks_of(rows):
    with mock.patch.object(physical, "BLOCK_ROWS", rows):
        yield


@st.composite
def grouped_cases(draw):
    """A probe and a build relation, which side each is, and an emit list.

    The probe relation holds the key columns ``K*``, the ``g`` columns
    ``G*`` (values below ``groups``) and one column ``X`` nothing emits;
    the build relation the key columns and the part columns ``Q*`` (values
    below ``overlap``: a small range makes buckets share parts).  Every
    key below ``keys`` has a bucket of ``fanout`` rows (fewer if parts repeat); probe keys
    reach one past it, so some probe rows meet no bucket.  With two key
    columns ``g`` may hold one of them.
    """
    key_width = draw(st.integers(1, 2))
    g_width = draw(st.integers(0, 2))
    part_width = draw(st.integers(0, 2))
    keys = draw(st.integers(1, 5))
    groups = draw(st.integers(1, 3))
    fanout = draw(st.integers(1, 8))
    overlap = draw(st.integers(1, 5))
    key_names = [f"K{i}" for i in range(key_width)]
    g_names = [f"G{i}" for i in range(g_width)]
    part_names = [f"Q{i}" for i in range(part_width)]
    if key_width == 2 and draw(st.booleans()):
        g_names.append("K1")  # the emitted probe columns cover one key column

    def key(k):
        return (k, k % 2)[:key_width]

    values = st.integers(0, overlap - 1)
    build_rows = [
        key(k) + draw(st.tuples(*[values] * part_width))
        for k in range(keys)
        for _ in range(fanout)
    ]
    probe_rows = [
        key(draw(st.integers(0, keys)))
        + draw(st.tuples(*[st.integers(0, groups - 1)] * g_width))
        + (draw(st.integers(0, 3)),)
        for _ in range(draw(st.integers(0, 60)))
    ]
    probe = Relation.from_rows(
        key_names + [name for name in g_names if name not in key_names] + ["X"],
        probe_rows,
        name="P",
    )
    build = Relation.from_rows(key_names + part_names, build_rows, name="B")
    probe_left = draw(st.booleans())
    order = draw(st.sampled_from(("probe first", "build first", "interleaved")))
    if order == "probe first":
        emit = g_names + part_names
    elif order == "build first":
        emit = part_names + g_names
    else:
        emit = [name for pair in zip(g_names, part_names) for name in pair]
        emit += g_names[len(part_names):] + part_names[len(g_names):]
    emit = emit or ["X"]
    block_rows = draw(st.sampled_from((8, 32, 1024)))
    return probe, build, probe_left, emit, block_rows


def _run(probe, build, probe_left, emit):
    """Drain ``project[emit](left * right)`` as the planner lays it out:
    the projection folded into a lone join under a deduplicating
    projection.  Returns the rows, the operators, the meter and the
    ``join_probes`` the run counted."""
    left, right = (probe, build) if probe_left else (build, probe)
    meter = MemoryMeter()
    scans = [TableScan(left, meter), TableScan(right, meter)]
    plan = _join_plan(left.scheme, right.scheme)
    join = HashJoin(*scans, plan, meter, build_side="right" if probe_left else "left")
    scheme = RelationScheme(emit)
    positions = tuple(plan.joined_scheme.names.index(name) for name in emit)
    join.fuse(make_chain_kernel([(join.build_side == "left", plan)], positions, True), scheme)
    project = StreamingProject(join, None, scheme, meter)
    counters = kernel_counters()
    before = counters.snapshot()
    rows = {row for block in project.blocks() for row in block}
    probes = counters.delta_since(before)["join_probes"]
    return rows, [*scans, join, project], meter, probes


class TestGroupedAgainstTheOrdinaryKernel:
    @settings(max_examples=400, deadline=None)
    @given(grouped_cases())
    def test_answers_counts_and_peaks_are_the_ordinary_kernels(self, case):
        probe, build, probe_left, emit, block_rows = case
        with _blocks_of(block_rows):
            rows, operators, meter, probes = _run(probe, build, probe_left, emit)
            with _ordinary_kernel():
                plain_rows, plain, plain_meter, plain_probes = _run(
                    probe, build, probe_left, emit
                )
        joined = naive_natural_join(probe, build)
        expected = naive_project(joined, emit)
        assert rows == set(expected.rows) == plain_rows
        join = operators[2]
        assert join.rows_out == len(joined)
        assert [op.rows_out for op in operators] == [op.rows_out for op in plain]
        assert join.build_peak_rows == plain[2].build_peak_rows == len(build)
        assert probes == plain_probes == len(probe)
        assert meter.peak == plain_meter.peak
        assert meter.current == plain_meter.current == 0
        assert plain[2].grouped_blocks == 0
        event(f"grouped blocks: {min(join.grouped_blocks, 2)}")

    @pytest.mark.parametrize("probe_left", [True, False], ids=["build right", "build left"])
    @pytest.mark.parametrize(
        "emit",
        [
            ["G0", "Q0"],
            ["Q0", "G0"],
            ["G0", "Q0", "G1", "Q1"],
            ["Q0", "Q1", "G0", "G1"],
            ["G0"],
            ["Q1"],
        ],
    )
    def test_a_block_whose_rows_repeat_is_grouped(self, probe_left, emit):
        # 60 probe rows over 3 keys and 2 groups meet buckets of 8 entries:
        # 480 joined rows, of which at most 2 x 8 are distinct.
        probe = Relation.from_rows(
            "K0 G0 G1 X", [(i % 3, i % 2, i % 2, i) for i in range(60)], name="P"
        )
        build = Relation.from_rows(
            "K0 Q0 Q1", [(k, j % 4, j // 4) for k in range(3) for j in range(8)], name="B"
        )
        rows, operators, meter, _ = _run(probe, build, probe_left, emit)
        expected = naive_project(naive_natural_join(probe, build), emit)
        assert rows == set(expected.rows)
        assert operators[2].grouped_blocks == 1
        assert operators[2].rows_out == 480
        assert meter.current == 0

    def test_the_full_block_decides_not_its_sample(self):
        # Buckets of 2 entries, 2 distinct parts: 100 probe rows join to 200
        # rows, so at most 25 distinct ``g`` may group.  Every third row
        # (the guard's spread sample) has ``g = 0``; the others bring their
        # own: 67 distinct, so the block must run the ordinary kernel.
        build = Relation.from_rows("K0 Q0", [(0, 0), (0, 1)], name="B")
        spread = Relation.from_rows(
            "K0 G0 X", [(0, 0 if i % 3 == 0 else i, i) for i in range(100)], name="P"
        )
        rows, operators, _, _ = _run(spread, build, True, ["G0", "Q0"])
        assert len(rows) == 2 * 67
        assert operators[2].grouped_blocks == 0
        repeated = Relation.from_rows("K0 G0 X", [(0, i % 25, i) for i in range(100)], name="P")
        rows, operators, _, _ = _run(repeated, build, True, ["G0", "Q0"])
        assert len(rows) == 2 * 25
        assert operators[2].grouped_blocks == 1

    def test_a_covered_probe_key_is_not_eligible(self):
        plan = _join_plan(RelationScheme.of("A", "B"), RelationScheme.of("B", "C"))
        assert make_chain_kernel([(False, plan)], (1, 2), True).grouped is None
        assert make_chain_kernel([(False, plan)], (0, 2), True).grouped is not None
        # Nothing of the probe row, and the whole entry: the ordinary kernel
        # emits each entry itself, so grouping would build what it saves.
        assert make_chain_kernel([(False, plan)], (2,), True).grouped is None
        assert make_chain_kernel([(True, plan)], (0,), True).grouped is not None
        # Not under a deduplicating projection, or not folded: no grouping.
        assert make_chain_kernel([(False, plan)], (0, 2)).grouped is None
        assert make_chain_kernel([(False, plan)], None, True).grouped is None

    @pytest.mark.parametrize(
        "build_left, emit, row",
        [
            (False, (0, 2), "(g, p[0],)"),  # one-column g, the whole one-column entry
            (False, (2, 0), "(p[0], g,)"),
            (True, (0,), "(p,)"),  # a one-column part of the left row: a bare value
            (True, (2, 0), "(g, p,)"),
        ],
    )
    def test_the_grouped_displays(self, build_left, emit, row):
        plan = _join_plan(RelationScheme.of("A", "B"), RelationScheme.of("B", "C"))
        grouped = make_chain_kernel([(build_left, plan)], emit, True).grouped
        assert grouped.source == f"lambda acc: [{row} for g, parts in acc.items() for p in parts]"


def _executed_joins(relations, text, budget=None):
    """Plan ``text`` as a session would and drain it once: the answer and
    every hash join's ``grouped_blocks``."""
    schemes = {name: relation.scheme for name, relation in relations.items()}
    expression = parse_expression(text, schemes) if isinstance(text, str) else text
    engine = EngineEvaluator(budget=budget)
    plan = engine.plan_for(expression, relations)
    meter = MemoryMeter(budget.rows if budget is not None else None)
    operators = []
    rows = drain_metered(plan.executor(relations, meter, operators=operators), meter)
    assert meter.current == len(rows)  # every operator released its state
    joins = [op for op in operators if isinstance(op, HashJoin)]
    return rows, joins


def _claim_query():
    construction = RGConstruction(
        growing_construction_family(clause_counts=(12,), seed=13)[0].formula
    )
    return {"R": construction.relation}, Projection(
        [construction.s_attribute], construction.expression
    )


class TestWhichPlansGroup:
    @pytest.mark.parametrize("text", GROUPING_QUERIES)
    def test_the_serving_queries_whose_joins_repeat_group(self, text):
        relations = serving_relations()
        rows, joins = _executed_joins(relations, text)
        assert any(join.grouped_blocks for join in joins)
        with _ordinary_kernel():
            plain, _ = _executed_joins(relations, text)
        assert rows == plain

    def test_every_serving_query_answers_as_the_ordinary_kernel(self):
        relations = serving_relations()
        for text in serving_queries():
            rows, _ = _executed_joins(relations, text)
            with _ordinary_kernel():
                assert _executed_joins(relations, text)[0] == rows, text

    @pytest.mark.parametrize("text", JOIN_100K_QUERIES)
    def test_join_100k_never_groups(self, text):
        _, joins = _executed_joins(_join_100k_instance(), text)
        assert joins and not any(join.grouped_blocks for join in joins)

    def test_the_paper_query_never_groups(self):
        relations, query = _claim_query()
        _, joins = _executed_joins(relations, query)
        assert not any(join.grouped_blocks for join in joins)

    @pytest.mark.parametrize("text", serving_queries())
    def test_a_budgeted_plan_never_groups(self, text, tmp_path):
        budget = MemoryBudget(rows=64, spill_dir=str(tmp_path))
        _, joins = _executed_joins(serving_relations(), text, budget)
        assert joins and all(isinstance(join, GraceHashJoin) for join in joins)
        assert not any(join.grouped_blocks for join in joins)

    def test_a_join_that_emits_its_entries_never_groups(self):
        # The top join ``on (C) -> [D]`` emits each matched entry itself: the
        # ordinary kernel builds no tuple, so there is nothing to group away.
        rows, joins = _executed_joins(serving_relations(), "project[D](R * S * T)")
        assert joins and not any(join.grouped_blocks for join in joins)
        (top,) = [join for join in joins if join.label().endswith("on (C) -> [D]")]
        assert top._kernel.grouped is None
        with _ordinary_kernel():
            assert _executed_joins(serving_relations(), "project[D](R * S * T)")[0] == rows

    @pytest.mark.parametrize("fanout", [2, 4, 8])
    def test_a_join_without_duplicates_never_groups(self, fanout):
        keys = 250
        relations = {
            "R": Relation.from_rows("A B", [(i, i % keys) for i in range(2_000)], name="R"),
            "S": Relation.from_rows(
                "B C",
                [(b, b * fanout + j) for b in range(keys) for j in range(fanout)],
                name="S",
            ),
        }
        rows, joins = _executed_joins(relations, "project[A, C](R * S)")
        assert len(rows) == 2_000 * fanout
        assert joins[0]._kernel.grouped is not None  # eligible, and the guard says no
        assert joins[0].grouped_blocks == 0
