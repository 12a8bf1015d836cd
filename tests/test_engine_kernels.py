"""Tests for the block-at-a-time engine kernels (``repro.engine.physical``).

Every hash join — :class:`HashJoin`, and :class:`GraceHashJoin` in memory,
per spilled partition and per chunk — builds through ``_build_block`` and
probes through ``HashJoin._probe``; every drain ends in
``physical.drain_metered``, which offers its result set to the plan root.
The emission itself is generated code (``plancache.make_chain_kernel``; a
lone join is a run of one): its property draws schemes, emit lists, build
sides and key/non-key build tables against ``make_row_picker(emit)(l + e)``
over a plain nested loop.
The property test drives the two kernels through the shapes a hand-written
loop gets wrong one at a time (either build side, multi-match buckets, rows
without a partner, a keyless product, a build child that repeats rows, a
consumer that walks away mid-stream) against the dict-based reference
algebra and the counters' arithmetic; the root-projection tests pin what
the sink changes (no seen-set, no dedup spill, the result resident once)
and what it must not (the answer, ``rows_out``).  A run of in-memory joins
executes as one generated comprehension (``HashJoin.fuse``): its property
draws runs against the reference algebra and against the same joins as
runs of one, operator by operator.
"""

import contextlib
import pickle
from collections import Counter
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
from repro.engine import physical, planner, spill
from repro.engine.physical import drain_metered, operators_in_order
from repro.perf import kernel_counters, plancache
from repro.perf.plancache import ChainKernel, make_chain_kernel, make_row_picker
from repro.reductions import RGConstruction
from repro.workloads import growing_construction_family, serving_queries, serving_relations
from test_engine_ordering import JOIN_100K_QUERIES, _join_100k_slice

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
def _small_blocks(rows=4):
    """Four-row blocks (three-row spill frames), so a dozen rows cross
    several block boundaries.  Each name is patched in the module that
    *reads* it: a patch on a re-exported binding would change nothing."""
    with mock.patch.object(physical, "BLOCK_ROWS", rows), mock.patch.object(
        spill, "BLOCK_ROWS", rows
    ), mock.patch.object(spill, "SPILL_BLOCK_ROWS", 3):
        yield


def _join(left, right, build_side, budget_rows, repeat_build, folded=False):
    """The join under test, its meter, and the build side's distinct rows.

    With ``repeat_build`` the build child is a dedup-free projection that
    drops the build relation's last column, so it streams repeated rows.
    With ``folded`` the join emits its columns reversed, last one dropped.
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
            MemoryBudget(rows=budget_rows, spill_fanout=2),
            build_side=build_side,
        )
    emit = tuple(reversed(range(len(plan.joined_scheme) - 1))) if folded else None
    _fuse(join, emit)
    return join, meter, relations


def _fuse(join, emit=None, levels=None):
    """Hand ``join`` the kernel a plan would: for ``levels``, the run it
    heads (bottom first), or as a run of one; emitting ``project[emit]`` of
    its joined columns folded in, or all of them."""
    levels = levels or [(join.build_side == "left", join._plan)]
    scheme = None
    if emit is not None:
        scheme = RelationScheme([levels[-1][1].joined_scheme.names[p] for p in emit])
    join.fuse(make_chain_kernel(levels, emit), scheme)


class TestBuildAndProbe:
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

    @pytest.mark.parametrize("folded", [False, True])
    @settings(max_examples=60, deadline=None)
    @given(case=join_cases())
    def test_closing_the_stream_early_releases_everything(self, folded, case):
        with _small_blocks():
            join, meter, _relations = _join(*case, folded=folded)
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
            rows=4, spill_fanout=2, spill_dir=str(tmp_path)
        )
        meter = MemoryMeter(budget.rows)
        join = GraceHashJoin(
            TableScan(left, meter),
            TableScan(right, meter),
            _join_plan(left.scheme, right.scheme),
            meter,
            budget,
        )
        _fuse(join)

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
        plan = _join_plan(left.scheme, right.scheme)
        join = HashJoin(TableScan(left, meter), TableScan(right, meter), plan, meter)
        _fuse(join)
        buckets = {}
        pairs = join._pairs_of(list(right.rows) * 2)
        assert physical._build_block(buckets, pairs) == 3
        out = [row for block in join._probe([buckets], iter([list(left.rows)])) for row in block]
        assert sorted(out) == [(1, 1, "x"), (1, 1, "y"), (2, 1, "x"), (2, 1, "y")]
        assert buckets == {}

    @pytest.mark.parametrize("budget_rows", [None, 2])
    def test_a_join_without_a_kernel_says_so_and_releases_its_table(self, budget_rows):
        left = Relation.from_rows("A B", [(i, i) for i in range(6)])
        right = Relation.from_rows("B C", [(i, -i) for i in range(6)])
        join, meter, _ = _join(left, right, "right", budget_rows, False)
        join._kernel = None  # as constructed, before fuse()
        with pytest.raises(RuntimeError, match=r"hash join .* has no kernel"):
            list(join.blocks())
        assert meter.current == 0
        assert not spill._ACTIVE_SPILL_DIRS


@st.composite
def emit_cases(draw):
    """Two joinable relations, a build side, a budget and an emit list.

    1-6 columns a side sharing 0-3 of them (0: a product) at drawn
    positions; ``key_build`` makes the build side's join columns a key of it
    (every bucket one entry: the flat loop), otherwise three values a column
    fill buckets with several.  The emit list is any subset of the joined
    columns in any order, or one of the shapes the generator special-cases.
    """
    left_width = draw(st.integers(1, 6))
    right_width = draw(st.integers(1, 6))
    common = draw(st.integers(0, min(3, left_width, right_width)))
    shared = [f"K{i}" for i in range(common)]

    def names(prefix, width):
        own = [f"{prefix}{i}" for i in range(width - common)]
        return draw(st.permutations(shared + own))

    left_names, right_names = names("L", left_width), names("R", right_width)
    build_side = draw(st.sampled_from(("left", "right")))
    key_build = draw(st.booleans())

    def relation(columns, name, is_build):
        rows = draw(st.lists(st.tuples(*[VALUES] * len(columns)), max_size=12))
        if is_build and key_build:
            keyed = {tuple(row[columns.index(k)] for k in shared): row for row in rows}
            rows = list(keyed.values())
        return Relation.from_rows(columns, rows, name=name)

    left = relation(left_names, "L", build_side == "left")
    right = relation(right_names, "R", build_side == "right")
    width = left_width + right_width - common
    probe_names = right_names if build_side == "left" else left_names
    joined = left_names + [name for name in right_names if name not in shared]
    emit = draw(
        st.one_of(
            st.lists(st.integers(0, width - 1), unique=True),  # any subset, any order
            st.just(list(range(width))),  # the identity
            st.just(list(range(left_width))),  # empty right part (all of left)
            st.just(list(range(left_width, width))),  # empty left part (the extras)
            st.just([joined.index(name) for name in probe_names]),  # the probe row
        )
    )
    budget_rows = draw(st.sampled_from((None, None, 2, 4)))
    return left, right, build_side, tuple(emit), budget_rows


class TestRunOfOneKernel:
    """``make_chain_kernel`` at depth 1 against the algebra it replaces."""

    @settings(max_examples=300, deadline=None)
    @given(emit_cases())
    def test_emitted_rows_are_the_picked_rows_of_the_nested_loop(self, case):
        left, right, build_side, emit, budget_rows = case
        plan = _join_plan(left.scheme, right.scheme)
        pick = make_row_picker(emit)
        expected = Counter(
            pick(l + plan.right_extra_of(r))
            for l in left.rows
            for r in right.rows
            if plan.left_key_of(l) == plan.right_key_of(r)
        )
        with _small_blocks():
            join, meter, _ = _join(left, right, build_side, budget_rows, False)
            _fuse(join, emit)
            streamed = Counter(row for block in join.blocks() for row in block)
        assert streamed == expected
        assert join.rows_out == sum(expected.values())
        assert join.scheme.names == tuple(plan.joined_scheme.names[p] for p in emit)
        assert meter.current == 0
        assert not spill._ACTIVE_SPILL_DIRS

    @staticmethod
    def _spied(join):
        """Swap ``join``'s kernel for one recording which loop ran."""
        ran = []
        kernel = join._kernel

        def spy(name):
            def emit(*args):
                ran.append(name)
                return getattr(kernel, name)(*args)

            return emit

        join._kernel = ChainKernel(spy("nested"), spy("flat"), kernel.source, kernel.depth)
        return ran

    def test_a_key_join_with_empty_extras_tests_for_none_not_truthiness(self):
        # The ``project[A](R * S)`` serving plan: S arrives as project[B](S),
        # so every entry of the build table is ``()`` — falsy, and a match.
        left = Relation.from_rows("A B", [(1, 1), (2, 2), (3, 9)])
        right = Relation.from_rows("B", [(1,), (2,), (3,)])
        meter = MemoryMeter()
        plan = _join_plan(left.scheme, right.scheme)
        join = HashJoin(TableScan(left, meter), TableScan(right, meter), plan, meter)
        _fuse(join, (0,))
        ran = self._spied(join)
        assert sorted(row for block in join.blocks() for row in block) == [(1,), (2,)]
        assert ran == ["flat"]
        assert "e1 is not None" in join._kernel.source

    def test_one_two_entry_bucket_takes_the_nested_loop(self):
        left = Relation.from_rows("A B", [(i, i) for i in range(50)])
        rows = [(i, -i) for i in range(50)]
        meter = MemoryMeter()
        for right_rows, loop in ((rows, "flat"), (rows + [(7, "again")], "nested")):
            right = Relation.from_rows("B C", right_rows)
            plan = _join_plan(left.scheme, right.scheme)
            join = HashJoin(TableScan(left, meter), TableScan(right, meter), plan, meter)
            _fuse(join, (2, 0))
            ran = self._spied(join)
            out = Counter(row for block in join.blocks() for row in block)
            assert out == Counter((c, b) for b, c in right_rows)
            assert ran == [loop]

    @pytest.mark.parametrize(
        "build_left, emit, row",
        [
            (False, None, "r0 + e1"),  # two whole variables: concatenated
            (False, (0, 1, 2), "r0 + e1"),
            (False, (2, 0, 1), "e1 + r0"),
            (True, None, "(e1[0], r0[0], r0[1],)"),  # no extras tuple per probe row
            (False, (2, 0), "(e1[0], r0[0],)"),
            (False, (0, 1), "r0"),  # all of the probe row: a semi-join's output
            (False, (2,), "e1"),  # all of the entry
            (True, (2, 1), "(r0[1], r0[0],)"),  # B is read off the probe row
            (True, (1, 2), "r0"),
            (True, (0, 1), "e1"),
            (True, (), "()"),
        ],
    )
    def test_the_three_displays(self, build_left, emit, row):
        plan = _join_plan(RelationScheme.of("A", "B"), RelationScheme.of("B", "C"))
        source = make_chain_kernel([(build_left, plan)], emit).source
        assert source.count(f": [{row} for ") == 2, source

    def test_a_planned_projection_over_a_join_is_folded_and_inner_joins_are_not(self):
        with Session(serving_relations()) as session:
            plan = session._engine.plan_for(
                session.prepare(HEAVY_QUERY).expression, session._relations
            )
        top = plan.root.children[0]
        pushed = top.children[0]
        inner = pushed.children[0]
        # Written projection over the top join, pushed one over the inner.
        assert plan.root.pick is None and top.chain is not None
        assert top.emit_scheme.names == ("A", "C", "D")
        assert pushed.pushed and pushed.pick is None
        assert inner.emit_scheme.names == ("A", "C") and inner.scheme.names == ("A", "B", "C")
        # The paper's query (Proposition 1's ``π_Y(φ_G)``, which keeps its
        # joins): a join is folded exactly when a projection is its parent;
        # the wide chain joins below it emit no list.
        formula = growing_construction_family(clause_counts=(3,), seed=13)[0].formula
        construction = RGConstruction(formula)
        query = construction.pair_projection_expression().to_text()
        with Session({"R": construction.relation}) as session:
            root = session._engine.plan_for(
                session.prepare(query).expression, session._relations
            ).root

        def folds(node, parent_kind):
            here = [(node.emit_scheme is not None, parent_kind == "project")] * (
                node.kind == "hash-join"
            )
            return here + [f for child in node.children for f in folds(child, node.kind)]

        found = folds(root, None)
        assert all(folded == under_projection for folded, under_projection in found)
        assert {True, False} == {folded for folded, _ in found}

    def test_the_serving_joins_keep_their_labels_and_displays(self):
        """Every folded join's trace step keeps its ``->`` list, also where
        the list is the whole joined scheme (``[C]``, ``[A, B]``,
        ``[A, C, D]``), and every run of one emits the row its join emitted
        before runs existed, but for one: the list that is two whole
        variables, ``project[A, C, D]``'s top join, concatenates them."""
        with Session(serving_relations()) as session:
            for text in serving_queries():
                query = session.prepare(text)
                steps = query.execute().trace.steps
                root = session._engine.pinned_plan(query.expression).root
                labels = [s.description for s in steps if s.description.startswith("hash")]
                assert (labels, _kernel_rows(root)) == SERVING_JOINS[text], text


#: Few attributes, so consecutive operands share none (a product), one or
#: several (a multi-column key).
CHAIN_ATTRIBUTES = "ABCDE"


@st.composite
def chain_cases(draw):
    """A left-deep run: ``depth + 1`` relations joined bottom first, a build
    side per join, and what the top emits (``None``: the whole joined row).

    The joined columns are tracked as the joins would order them, so the
    emit list can be any subset of the top's columns in any order.
    """
    depth = draw(st.integers(2, 6))
    relations, sides = [], []
    columns: list = []
    for index in range(depth + 1):
        names = draw(
            st.lists(st.sampled_from(CHAIN_ATTRIBUTES), min_size=1, max_size=3, unique=True)
        )
        rows = draw(st.lists(st.tuples(*[VALUES] * len(names)), max_size=4))
        relations.append(Relation.from_rows(names, rows, name=f"R{index}"))
        if index == 0:
            columns = list(names)
            continue
        side = draw(st.sampled_from(("left", "right")))
        sides.append(side)
        left, right = (columns, names) if side == "right" else (names, columns)
        columns = list(left) + [name for name in right if name not in left]
    emit = draw(st.one_of(st.none(), st.lists(st.sampled_from(columns), unique=True)))
    return relations, sides, None if emit is None else tuple(columns.index(n) for n in emit)


def _chain(relations, sides, emit, fused):
    """A hand-built run of ``HashJoin`` operators over scans, folded when
    ``emit`` is a list, and fused when asked, else every join a run of one."""
    meter = MemoryMeter()
    chain = TableScan(relations[0], meter)
    joins, levels = [], []
    for relation, side in zip(relations[1:], sides):
        base = TableScan(relation, meter)
        left, right = (chain, base) if side == "right" else (base, chain)
        plan = _join_plan(left.scheme, right.scheme)
        chain = HashJoin(left, right, plan, meter, build_side=side)
        joins.append(chain)
        levels.append((side == "left", plan))
    if fused:
        _fuse(chain, emit, levels)
    else:
        for join in joins[:-1]:
            _fuse(join)
        _fuse(chain, emit)
    return chain, meter


class TestFusedChains:
    """``make_chain_kernel`` and ``HashJoin.fuse`` against runs of one."""

    @settings(max_examples=200, deadline=None)
    @given(chain_cases())
    def test_a_fused_run_counts_what_the_unfused_joins_count(self, case):
        """Same answer as the reference algebra, and the same ``rows_out``
        and ``build_peak_rows`` on every operator, the same ``join_probes``
        and the same meter peak as runs of one."""
        relations, sides, emit = case
        seen = {}
        for fused in (False, True):
            with _small_blocks(rows=2):  # builds and the probe cross blocks
                top, meter = _chain(relations, sides, emit, fused)
                before = kernel_counters().snapshot()
                rows = drain_metered(top, meter)
                probes = kernel_counters().delta_since(before)["join_probes"]
            operators = operators_in_order(top)
            counts = (
                [operator.rows_out for operator in operators],
                [operator.build_peak_rows for operator in operators],
                probes,
                meter.peak,
            )
            assert meter.current == len(rows)
            seen[fused] = rows, counts
        assert seen[True] == seen[False]
        expected = relations[0]
        for relation in relations[1:]:
            expected = naive_natural_join(expected, relation)
        if emit is not None:
            expected = naive_project(expected, top.scheme.names)
        assert Relation._from_trusted(top.scheme, frozenset(rows)) == expected

    @pytest.mark.parametrize("fused", [False, True])
    def test_an_abandoned_or_capped_run_releases_everything(self, fused):
        relations = [
            Relation.from_rows("A B", [(i, i % 5) for i in range(40)], name="R0"),
            Relation.from_rows("B C", [(i % 5, i) for i in range(20)], name="R1"),
            Relation.from_rows("C D", [(i, -i) for i in range(20)], name="R2"),
        ]
        with _small_blocks():
            top, meter = _chain(relations, ["right", "left"], None, fused)
            stream = top.blocks()
            assert next(stream)
            stream.close()
            assert meter.current == 0
            top, meter = _chain(relations, ["right", "left"], (3, 0), fused)
            assert drain_metered(top, meter, cap=10) is None
            assert meter.current == 0

    def test_the_kernel_reads_keys_off_the_probe_row_and_the_entries(self):
        left = _join_plan(RelationScheme.of("A", "B"), RelationScheme.of("B", "C"))
        # R(A, B) * S(B, C) on B, then T(A, C, D) built on the left, keyed on (A, C).
        top = _join_plan(RelationScheme.of("A", "C", "D"), left.joined_scheme)
        kernel = make_chain_kernel([(False, left), (True, top)], (2, 3))
        assert kernel.depth == 2
        assert " for e2 in g2((r0[0], e1[0],), ())" in kernel.source
        # D is the built left row's, B the probe row's: no joined row is made.
        assert kernel.source.count(": [(e2[2], r0[1],) for ") == 2, kernel.source

    @pytest.mark.parametrize(
        "width, row", [(2, "(r0[0], r0[1], e1[0], e2[0],)"), (8, "r0 + (e1[0], e2[0],)")]
    )
    def test_a_whole_row_concatenates_only_wide_runs(self, width, row):
        names = [f"A{index}" for index in range(width)]
        first = _join_plan(RelationScheme(names), RelationScheme([names[-1], "C"]))
        second = _join_plan(first.joined_scheme, RelationScheme.of("C", "E"))
        source = make_chain_kernel([(False, first), (False, second)]).source
        assert source.count(f": [{row} for ") == 2, source


def _pinned_sessions():
    """(relations, queries): the three ``join_100k`` queries on a 2,000-row
    slice, the eight serving queries, and the paper's ``π_Y(φ_G)`` at
    m = 12 (``project[S](φ_G)`` minimizes to a scan: it has no run)."""
    joins = {
        "R": Relation.from_rows(
            "O C P", [(i * 7 % 400, i * 13 % 105, i * 11 % 42) for i in range(2_000)]
        ),
        "S": Relation.from_rows("C G", [(c, c % 50) for c in range(100)], name="S"),
        "T": Relation.from_rows("P K", [(p, p % 40) for p in range(40)], name="T"),
    }
    yield joins, ["project[G, K](R * S * T)", "project[O, G](R * S)", "project[C, K](R * T)"]
    yield serving_relations(), list(serving_queries())
    (case,) = growing_construction_family(clause_counts=(12,))
    construction = RGConstruction(case.formula)
    yield {"R": construction.relation}, [construction.pair_projection_expression()]


def test_executing_a_pinned_plan_compiles_nothing():
    """Every run's kernel is compiled when a plan is built and pinned with
    it: an execute neither builds kernel source nor misses a plan cache,
    and neither does a count, whose empty-row kernel on a distinct root's
    run was compiled beside the run's own."""
    chains = []
    counting = []
    for relations, queries in _pinned_sessions():
        with Session(relations) as session:
            prepared = [session.prepare(query) for query in queries]
            expected = [query.execute().relation for query in prepared]
            roots = [session._engine.pinned_plan(q.expression).root for q in prepared]
            chains += [
                [node.chain.depth for node in _plan_nodes(root) if node.chain is not None]
                for root in roots
            ]
            counting += [
                [node.count_chain.depth for node in _plan_nodes(root) if node.count_chain]
                for root in roots
            ]
            before = kernel_counters().snapshot()
            builder = mock.Mock(side_effect=AssertionError("compiled on execute"))
            with contextlib.ExitStack() as patches:
                for module in (plancache, planner):
                    patches.enter_context(
                        mock.patch.object(module, "make_chain_kernel", builder)
                    )
                for _ in range(3):
                    for query, answer in zip(prepared, expected):
                        assert query.execute().relation == answer
                        assert query.count() == len(answer)
            delta = kernel_counters().delta_since(before)
        assert not builder.called
        assert delta["join_plan_misses"] == delta["project_plan_misses"] == 0
    # Every join heads a run or is inside one.  ``project[G, K](R * S * T)``
    # is a two-join run, the paper's query a twelve-join one; every serving
    # query's runs are single joins (a pushed projection bounds a run).
    assert chains == [[2], [1], [1], [1], [1], [1], [1, 1], [1, 1], [1], [1], [1, 1], [12]]
    # Only the three distinct serving roots stream a run that counts.
    assert counting == [[], [], [], [], [], [], [], [], [1], [1], [1], []]


def test_the_join_100k_runs_emit_their_pinned_rows():
    """On 6,000 rows of ``R`` the ``join_100k`` queries plan as on 10^5
    (every join ``build=right``, ``S`` first); ``project[G, K]``'s two-join
    run emits two whole one-column entries, concatenated: ``e1 + e2``, at
    the cost of ``(e1[0], e2[0],)`` (``docs/PERFORMANCE.md``)."""
    with Session(_join_100k_slice(rows=6_000)) as session:
        plans = [
            session._engine.plan_for(session.prepare(query).expression, session._relations)
            for query in JOIN_100K_QUERIES
        ]
    assert [_kernel_rows(plan.root) for plan in plans] == [
        ["e1 + e2"],
        ["(r0[0], e1[0],)"],
        ["(r0[1], e1[0],)"],
    ]
    assert all("[build=left]" not in plan.explain() for plan in plans)


def _plan_nodes(node):
    """``node`` and every plan node beneath it."""
    yield node
    for child in node.children:
        yield from _plan_nodes(child)


def _kernel_rows(root):
    """The row display of every run's kernel under ``root``, top-down."""
    return [
        node.chain.source.split(": [", 1)[1].split(" for r0, b1 ", 1)[0]
        for node in _plan_nodes(root)
        if node.chain is not None
    ]


def test_the_paper_query_records_what_its_unfused_plan_records():
    """At m = 12 the twelve chain joins of ``π_Y(φ_G)`` run as one kernel;
    running them as twelve runs of one changes no trace step, peak or probe
    count."""
    (case,) = growing_construction_family(clause_counts=(12,))
    construction = RGConstruction(case.formula)
    query = construction.pair_projection_expression()
    with Session({"R": construction.relation}) as session:
        prepared = session.prepare(query)
        traces = [prepared.execute().trace]
        plan = session._engine.pinned_plan(query)
        heads = [node for node in _plan_nodes(plan.root) if node.chain is not None]
        assert [node.chain.depth for node in heads] == [12]
        for node in _plan_nodes(plan.root):
            if node.kind == "hash-join":
                emit = None
                if node.emit_scheme is not None:
                    emit = tuple(map(node.scheme.names.index, node.emit_scheme.names))
                level = (node.build_side == "left", node.join_plan)
                node.chain = make_chain_kernel([level], emit)
        traces.append(prepared.execute().trace)
    steps = [
        [(step.description, step.cardinality, step.scheme_width) for step in trace.steps]
        for trace in traces
    ]
    assert steps[0] == steps[1]
    assert len({(t.peak_build_rows, t.counters["join_probes"]) for t in traces}) == 1
    assert traces[0].peak_live_rows == traces[1].peak_live_rows
    with Session({"R": construction.relation}, budget=64) as session:
        plan = session._engine.plan_for(query, session._relations)
    # A budgeted join is a run of one.
    depths = [node.chain.depth for node in _plan_nodes(plan.root) if node.kind == "hash-join"]
    assert depths == [1] * 12


HEAVY_QUERY = "project[A, C, D](R * S * T)"

#: Per serving query: its hash joins' trace-step labels, in trace order, and
#: the row display of every run's kernel, top-down.
SERVING_JOINS = {
    "project[A](R * S)": (["hash join [build=right] on (B) -> [A]"], ["(r0[0],)"]),
    "project[A, C](R * S)": (
        ["hash join [build=right] on (B) -> [A, C]"],
        ["(r0[0], e1[0],)"],
    ),
    "project[B, D](S * T)": (
        ["hash join [build=right] on (C) -> [B, D]"],
        ["(r0[0], e1[0],)"],
    ),
    "project[A, D](R * S * T)": (
        [
            "hash join [build=right] on (C) -> [B, D]",
            "hash join [build=right] on (B) -> [A, D]",
        ],
        ["(e1[0], r0[1],)", "(r0[0], e1[0],)"],
    ),
    "project[D](R * S * T)": (
        [
            "hash join [build=left] on (B) -> [C]",
            "hash join [build=right] on (C) -> [D]",
        ],
        ["e1", "(r0[1],)"],
    ),
    "project[C](S * T)": (["hash join [build=right] on (C) -> [C]"], ["r0"]),
    "project[A, B](R * project[B](S))": (
        ["hash join [build=right] on (B) -> [A, B]"],
        ["r0"],
    ),
    HEAVY_QUERY: (
        [
            "hash join [build=right] on (B) -> [A, C]",
            "hash join [build=right] on (C) -> [A, C, D]",
        ],
        ["r0 + e1", "(r0[0], e1[0],)"],
    ),
}


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
        assert meter.current == 0 and meter.peak >= spill.BLOCK_ROWS

    @pytest.mark.parametrize("budget", [64, 256])
    def test_budgeted_root_never_spills_a_seen_set(self, budget):
        relations = serving_relations(rows=200)
        with Session(relations) as roomy:
            expected = roomy.execute(HEAVY_QUERY)
        with Session(relations, budget=budget) as tight:
            result = tight.execute(HEAVY_QUERY)
        assert result.set_equal(expected) and len(result) == 5_978
        counters = result.trace.counters
        assert counters["join_spills"] > 0
        assert counters["dedup_spills"] == 0
        assert counters["spill_overflows"] == 0
        # The result accumulator plus at most a budget of operator state.
        assert result.trace.peak_live_rows <= len(result) + budget
        # The result is never charged against the joins' budget, so no
        # spilled partition falls back to chunks (at budget 64 the result
        # once pushed 188 chunk passes; the peak read 5,979, now 5,991).
        assert counters["join_chunk_passes"] == 0
        # The unbudgeted run no longer holds the result twice (it peaked at
        # 12,356: seen-set + result set + build tables).
        assert expected.trace.peak_live_rows < 2 * len(expected)
