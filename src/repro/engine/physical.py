"""Streaming physical operators: block iterators over raw positional rows.

Every operator consumes and produces *blocks* — plain Python lists of raw
value tuples aligned with the operator's output scheme — rather than single
rows, so the per-row cost stays a tight inner loop (the same discipline as
the materialising kernel in :mod:`repro.algebra.relation`) while only
operator *state* (hash tables, dedup sets) is ever resident.
Intermediate join results are never materialised: a probe row flows through
the whole operator tree and is dropped as soon as the root has consumed it.

The iterator contract (see ``docs/ENGINE.md``):

* ``blocks()`` returns a fresh generator of ``List[Row]`` blocks; rows are
  tuples aligned with ``operator.scheme.names``; blocks are never retained
  by the producer and may be mutated by the consumer.
* An operator acquires meter budget (``MemoryMeter.acquire``) for every row
  it holds in state and releases it when the generator is exhausted or
  closed — ``peak_live_rows`` therefore measures rows *resident* in the
  engine, the streaming analogue of the materialising evaluators' peak
  intermediate cardinality.
* Row order carries no meaning: relations are sets, so no operator
  promises, requires or preserves an output order.
* An operator resets its per-execute state (``rows_out``, build peaks,
  spill figures) when it starts streaming, and holds no table, set or row
  once its stream ends: an execute reuses the tree a finished drain left.
"""

from __future__ import annotations

import gc
import os
import threading
from collections import defaultdict
from contextlib import closing
from itertools import chain, count, islice
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
    Union,
)

from ..perf.plancache import ChainKernel, GroupedEmission, JoinPlan
from .spill import (
    BLOCK_ROWS,
    MemoryBudget,
    MemoryMeter,
    PartitionedSpill,
    SpillFile,
    SpillingSeenSet,
    _drain_spill,
    _drained,
    _first,
    _log_spill,
)

__all__ = [
    "SWEEP_ROWS",
    "PhysicalOperator",
    "TableScan",
    "StreamingProject",
    "HashJoin",
    "GraceHashJoin",
    "drain_metered",
    "operators_in_order",
]

Row = Tuple[Hashable, ...]
Block = List[Row]

class PhysicalOperator:
    """Base class of the physical operators.

    Concrete operators set ``scheme`` (the output
    :class:`~repro.algebra.schema.RelationScheme`) and implement
    :meth:`blocks`.  ``rows_out`` counts rows yielded by the most
    recent execution, so the evaluator can trace per-operator cardinalities
    without materialising anything.  ``est_rows`` / ``est_cost`` are filled
    in by the planner and are purely informational at execution time.
    """

    scheme: Any
    est_rows: float = 0.0
    est_cost: float = 0.0
    rows_out: int = 0
    #: High-water mark of rows resident in this operator's hash-join build
    #: state during the most recent execution (0 for non-join operators).
    #: Under a memory budget this is what "never exceeds the build-side
    #: budget" is asserted against.
    build_peak_rows: int = 0
    #: Whether ``blocks(sink)`` fills the sink with bare values, not
    #: 1-tuples (a one-column root projection; :func:`drain_metered` wraps
    #: them once at the end).
    bare: bool = False

    def __init__(self, meter: MemoryMeter):
        # The engine's own operators assign ``meter`` themselves: a frame
        # per operator shows on a cold execute, which builds the tree.
        self.meter = meter

    def blocks(self, sink: Optional[Set[Row]] = None) -> Iterator[Block]:
        """Yield the output as a sequence of row blocks (fresh generator).

        ``sink`` is the consumer's result set, offered by a drain that only
        wants the distinct rows (:func:`drain_metered`).
        An operator that would deduplicate anyway may put its rows straight
        into it and yield an *empty* block per input block instead — the
        consumer still gets control at block granularity to meter the set —
        so each result row is hashed once rather than once per set.  Every
        other operator ignores the offer.

        When the shared meter carries an enabled tracer the stream is
        wrapped in a timed ``operator`` span; otherwise the operator's
        raw generator is returned untouched, so disabled tracing costs
        one attribute check per operator and nothing per block.
        """
        stream = self._blocks() if sink is None else self._blocks_into(sink)
        tracer = self.meter.tracer
        if tracer is None or not tracer.enabled:
            return stream
        return tracer.operator_stream(self, stream)

    def _blocks(self) -> Iterator[Block]:
        """The operator's block generator (implemented by subclasses)."""
        raise NotImplementedError

    def _blocks_into(self, sink: Set[Row]) -> Iterator[Block]:
        """The block generator when the consumer offers its result set."""
        return self._blocks()

    def __iter__(self) -> Iterator[Row]:
        for block in self.blocks():
            for row in block:
                yield row

    def children(self) -> Tuple["PhysicalOperator", ...]:
        """The input operators (for tracing and explain output)."""
        return ()

    def label(self) -> str:
        """A one-line description used by traces and ``engine-explain``."""
        return type(self).__name__


class TableScan(PhysicalOperator):
    """Stream a stored relation's raw rows, in address order.

    The relation belongs to the caller and is not copied, so a scan holds no
    engine state and acquires no meter budget.  Its rows come in the
    relation's cached scan order (``Relation._scan_order``: the same row
    objects sorted by address, built on the relation's first scan), which
    walks memory almost sequentially where the row set's hash order jumps
    to a new cache line on every row.
    """

    def __init__(self, relation, meter: MemoryMeter, name: Optional[str] = None):
        self.meter = meter
        self._relation = relation
        self._name = name or relation.name or "relation"
        self.scheme = relation.scheme

    def _rows(self) -> Tuple[Row, ...]:
        return self._relation._scan_order()

    def _blocks(self) -> Iterator[Block]:
        """Stream the output blocks (see the operator iterator contract),
        each a list copied from a slice of the rows."""
        self.rows_out = 0
        rows = self._rows()
        for start in range(0, len(rows), BLOCK_ROWS):
            block = list(rows[start : start + BLOCK_ROWS])
            self.rows_out += len(block)
            yield block

    def label(self) -> str:
        """The one-line trace/explain label."""
        return f"scan {self._name}"


class StreamingProject(PhysicalOperator):
    """Project each row onto a pick list, optionally deduplicating.

    With ``dedup`` (the default) a seen-set holds one entry per *output* row
    — the only state, released on exhaustion.  The planner disables dedup
    when the consumer is a hash-join build side, whose per-key row sets
    deduplicate for free; output duplicates are then possible and the
    consumer must tolerate them.

    With ``budget`` set (the planner passes it to every dedup projection
    of a budgeted plan) the seen-set is a :class:`SpillingSeenSet`: instead
    of overrunning the shared meter it spills to Grace partitions and
    defers the spilled rows' first occurrences to a replay phase.  A
    ``pushed`` projection — one the planner placed because nothing above
    reads the dropped columns — deduplicates as an optimisation, not a
    semantic, so its budgeted seen-set never spills: it holds what the
    meter grants and passes every other row through (``spill=False``).

    A projection at the plan root keeps **no** seen-set of either kind
    when the drain offers its result set (``blocks(sink)``): the picked
    rows stream straight into that set, which deduplicates them and is
    metered by the drain, so ``rows_out`` is the true result cardinality
    while the result is resident once, not twice.  The picked rows must
    never be materialised on the way — a projected copy of every
    join-output block is what the sink exists to avoid.

    ``pick`` is ``None`` over a hash join this projection was folded into
    (:meth:`HashJoin.fuse`): it already emits ``scheme``; the dedup is left,
    unless the root is distinct by construction (``PhysicalPlan.distinct``):
    then the join's blocks pass on as they are.

    A ``bare`` root (:attr:`~repro.engine.planner.PlanNode.bare`: one
    picked column, no folded join; set on the built operator) puts the bare *values* into the offered
    sink, not 1-tuples: no tuple is built or hashed for a duplicate, and
    the drain wraps the distinct values once at the end.
    """

    def __init__(
        self,
        child: PhysicalOperator,
        pick: Optional[Callable[[Row], Row]],
        scheme,
        meter: MemoryMeter,
        dedup: bool = True,
        budget: Optional[MemoryBudget] = None,
        pushed: bool = False,
    ):
        self.meter = meter
        self._child = child
        self._pick = pick
        # A single-column picker exposes its getter: a block's 1-tuples are
        # then ``zip(map(getter, block))``, with no Python frame per row.
        self._single = getattr(pick, "single", None)
        self._dedup = dedup
        self._budget = budget
        self._pushed = pushed
        self.scheme = scheme

    def children(self) -> Tuple[PhysicalOperator, ...]:
        """The input operators."""
        return (self._child,)

    def _picked(self, block: Block) -> Iterator[Row]:
        """Lazily pick one input block's rows."""
        if self._single is not None:
            return zip(map(self._single, block))
        if self._pick is not None:
            return map(self._pick, block)
        return block

    def _blocks(self) -> Iterator[Block]:
        """Stream the output blocks (see the operator iterator contract)."""
        if not self._dedup:
            return self._blocks_no_dedup()
        if self._budget is not None:
            return self._blocks_spilling_dedup()
        return self._blocks_dedup()

    def _blocks_into(self, sink: Set[Row]) -> Iterator[Block]:
        self.rows_out = 0
        bare = self._single if self.bare else None
        for block in self._child.blocks():
            before = len(sink)
            sink.update(self._picked(block) if bare is None else map(bare, block))
            self.rows_out += len(sink) - before
            yield []

    def _blocks_no_dedup(self) -> Iterator[Block]:
        self.rows_out = 0
        for block in self._child.blocks():
            # A folded join's blocks are this projection's rows already.
            out = block if self._pick is None else list(self._picked(block))
            if out:
                self.rows_out += len(out)
                yield out

    def _blocks_dedup(self) -> Iterator[Block]:
        self.rows_out = 0
        meter = self.meter
        seen: Set[Row] = set()
        add = seen.add
        try:
            for block in self._child.blocks():
                # ``add`` returns None, so the filter records as it tests.
                out = [
                    values
                    for values in self._picked(block)
                    if values not in seen and not add(values)
                ]
                if out:
                    meter.acquire(len(out))
                    self.rows_out += len(out)
                    yield out
        finally:
            meter.release(len(seen))
            seen.clear()

    def _blocks_spilling_dedup(self) -> Iterator[Block]:
        self.rows_out = 0
        seen = SpillingSeenSet(self.meter, self._budget, spill=not self._pushed, label=self.label)
        try:
            for block in self._child.blocks():
                out = seen.filter_block(list(self._picked(block)))
                if out:
                    self.rows_out += len(out)
                    yield out
            for out in seen.drain():
                self.rows_out += len(out)
                yield out
        finally:
            seen.close()

    def label(self) -> str:
        """The one-line trace/explain label."""
        dedup = "" if self._dedup else ", no dedup"
        pushed = " (pushed)" if self._pushed else ""
        return f"project[{', '.join(self.scheme.names)}]({self._child.label()}{dedup}){pushed}"


def _build_block(buckets: Dict[Hashable, Set[Row]], pairs) -> int:
    """The build kernel: fold ``(key, entry)`` pairs into set-valued buckets.

    Returns how many entries were new.  Every hash-join build — either
    build side, in memory or re-loaded from a Grace partition — goes
    through here, so duplicates from a dedup-free build child collapse the
    same way everywhere and the caller meters exactly the rows resident.
    """
    get = buckets.get
    added = 0
    for key, entry in pairs:
        bucket = get(key)
        if bucket is None:
            buckets[key] = {entry}
            added += 1
        elif entry not in bucket:
            bucket.add(entry)
            added += 1
    return added


def _frozen(buckets: Dict[Hashable, Set[Row]], kernel) -> Tuple[Dict[Hashable, Any], Callable]:
    """Freeze a finished table for probing, and pick ``kernel``'s loop for it.

    Consumes ``buckets``.  The nested loop serves no match, one match and
    many alike; the flat one, a table without a two-entry bucket — the
    build side's join columns are a key of it (observed of this table, not
    promised), so the frozen table stores the entries themselves.
    """
    if len(buckets) == sum(map(len, buckets.values())):
        frozen = {key: entry for key, (entry,) in buckets.items()}
        emit = kernel.flat
    else:
        frozen = {key: tuple(bucket) for key, bucket in buckets.items()}
        emit = kernel.nested
    buckets.clear()
    return frozen, emit


#: A probe block of a lone folded join is grouped (:meth:`HashJoin._probe`)
#: only when its joined rows are at least this many times the rows grouping
#: can emit, (its distinct ``g``) x (the table's distinct parts): at least
#: three in four of them are then duplicates the dedup above would drop.
GROUP_REPEATS = 4


def _table_parts(frozen: Dict[Hashable, tuple], part_of) -> Tuple[int, int]:
    """A nested table's side of the grouping guard: its distinct parts (at
    least 1), and its widest bucket's size."""
    entries = chain.from_iterable(frozen.values())
    parts = len(set(entries if part_of is None else map(part_of, entries)))
    return max(parts, 1), max(map(len, frozen.values()), default=0)


def _grouped_block(
    grouped: GroupedEmission, block: Block, matches: list, parts: int
) -> list:
    """Emit a probe block's lookups in a nested table through ``grouped``:
    the union of each ``g``'s matched parts, then ``{g} x parts`` once
    each, so no duplicate row is built.  A ``g`` that holds all ``parts``
    of the table takes no further bucket."""
    acc: Dict[Hashable, Set[Row]] = defaultdict(set)
    part_of = grouped.part_of
    for group, bucket in zip(map(grouped.group_of, block), matches):
        if bucket:
            union = acc[group]
            if len(union) < parts:
                union.update(bucket if part_of is None else map(part_of, bucket))
    return grouped.emit(acc)


class HashJoin(PhysicalOperator):
    """Streaming hash join: drain the build side into buckets, stream the probe.

    The output layout is fixed by the compiled
    :class:`~repro.perf.plancache.JoinPlan` as ``left ++ (right - left)``
    regardless of which side is built, exactly like the materialising kernel
    — unless a projection directly above was folded into the join
    (:meth:`fuse`): it then emits that projection's columns, in its order.
    Buckets hold *sets* (full left rows, or right ``extras`` fragments —
    both in bijection with the build side's rows), so duplicates from a
    dedup-free build child collapse in the table.  Only the build side is
    ever resident; a disjoint-scheme join degenerates to a product with a
    single bucket.

    Both phases run block-at-a-time through two kernels shared with
    :class:`GraceHashJoin`: :func:`_build_block` folds a block of
    ``(key, entry)`` pairs into the table, and :meth:`_probe` answers a
    whole probe block with one generated comprehension
    (:func:`~repro.perf.plancache.make_chain_kernel`) over the block zipped
    with its bucket lookups (``map`` of ``dict.get`` over ``map`` of the key
    picker), so the interpreter runs once per block and per emitted row,
    never once per probed row.  The operator compiles no kernel: it runs
    once its caller has handed it one (:meth:`fuse`), and its first probe
    raises :class:`RuntimeError` if none was.
    """

    #: Output rows the probe kernel gathers before yielding a block: an
    #: in-memory join yields per probe block, as it always has.
    _flush_rows = 1

    #: Whether a lone folded join may emit a probe block grouped (see
    #: :meth:`_probe`); a budgeted join always runs the ordinary kernel.
    _grouping = True

    def __init__(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        plan: JoinPlan,
        meter: MemoryMeter,
        build_side: str = "right",
    ):
        self.meter = meter
        if build_side not in ("left", "right"):
            raise ValueError(f"build_side must be 'left' or 'right', got {build_side!r}")
        self._left = left
        self._right = right
        self._plan = plan
        self.build_side = build_side
        self.scheme = plan.joined_scheme
        self._kernel: Optional[ChainKernel] = None
        self._members: List[HashJoin] = [self]  # the run this join heads, bottom first
        self._folded = False
        #: Probe blocks the most recent execution emitted grouped (see :meth:`_probe`).
        self.grouped_blocks = 0
        # Side-generic views.  ``_pairs_of(block)`` lazily turns a build
        # block into the build kernel's ``(key, entry)`` pairs: entries are
        # full left rows, or the right rows' extras (the key already
        # carries their other columns; one extra column is picked by its
        # getter, as ``zip(map(getter, block))``: no Python frame per row).
        extra_of = plan.right_extra_of
        single = getattr(extra_of, "single", None)
        if build_side == "left":
            key_of = plan.left_key_of
            self._build_child, self._probe_child = left, right
            self._probe_key_of = plan.right_key_of
            self._pairs_of = lambda block: zip(map(key_of, block), block)
        else:
            key_of = plan.right_key_of
            self._build_child, self._probe_child = right, left
            self._probe_key_of = plan.left_key_of
            if single is not None:
                self._pairs_of = lambda block: zip(
                    map(key_of, block), zip(map(single, block))
                )
            else:
                self._pairs_of = lambda block: zip(
                    map(key_of, block), map(extra_of, block)
                )

    def children(self) -> Tuple[PhysicalOperator, ...]:
        """The input operators."""
        return (self._left, self._right)

    def fuse(self, kernel: ChainKernel, emit_scheme=None) -> None:
        """Run this join and the ``kernel.depth - 1`` joins down its probe
        path as one ``kernel`` (:func:`~repro.perf.plancache.make_chain_kernel`),
        emitting ``emit_scheme`` — the projection of the joined scheme the
        kernel was compiled for — or, when it is ``None``, the joined rows.

        A lone join is a run of one.  The joins below stay in the tree —
        labels, ``rows_out`` and ``build_peak_rows`` are theirs — but only
        this one streams: it builds every member's table and runs the bottom
        one's probe child through the kernel, so no joined row below the top
        is ever built.
        """
        members = [self]
        while len(members) < kernel.depth:
            members.append(members[-1]._probe_child)
        self._kernel = kernel
        self._members = members[::-1]
        self._folded = emit_scheme is not None
        if self._folded:
            self.scheme = emit_scheme

    def _on(self) -> str:
        """The label's ``on (...)`` part, and what a folded join emits."""
        on = f"on ({', '.join(self._plan.common_names) or 'x'})"
        if not self._folded:
            return on
        return f"{on} -> [{', '.join(self.scheme.names)}]"

    def _blocks(self) -> Iterator[Block]:
        """Stream the output blocks (see the operator iterator contract).

        Every member of the run builds and meters its own table, top first,
        exactly when it would as a run of one (before the first probe row
        is read), and all are released together when the run ends.
        """
        meter = self.meter
        members = self._members
        tables: List[Dict[Hashable, Set[Row]]] = []
        resident = 0
        for member in members:
            member.rows_out = member.build_peak_rows = 0
        self.grouped_blocks = 0
        try:
            # Acquire per build block, not after the drain: a stateful
            # build-side subtree (e.g. a projection over a join) holds its
            # own metered state *until* the drain completes, and the peak
            # must count both residencies while they overlap.
            for member in reversed(members):
                buckets: Dict[Hashable, Set[Row]] = {}
                tables.append(buckets)
                pairs_of = member._pairs_of
                for block in member._build_child.blocks():
                    added = _build_block(buckets, pairs_of(block))
                    resident += added
                    member.build_peak_rows += added
                    meter.acquire(added)
            yield from self._probe(tables[::-1], members[0]._probe_child.blocks())
        finally:
            meter.release(resident)
            for buckets in tables:
                buckets.clear()

    def _probe(
        self,
        tables: List[Dict[Hashable, Set[Row]]],
        probe_blocks: Iterator[Block],
        count_probes: bool = True,
    ) -> Iterator[Block]:
        """The probe loop: stream probe blocks through the kernel.

        ``tables`` are the run's finished tables, bottom first — one for a
        lone join — and are consumed (see :func:`_frozen`).
        ``count_probes`` is False for spilled partitions, whose probe rows
        were counted when they were routed to partition files.  In a longer
        run the bottom join's rows are counted off its lookups, in C, per
        block, and every join between it and the top counts the rows it
        emits on an ``itertools.count``: those counts are the members'
        ``rows_out`` and the probes of the joins above them
        (``join_probes``).  A lone join's rows are its output's.

        A lone join whose kernel has a ``grouped`` emission (a folded
        projection that keeps only some of the probe key's columns) over a
        nested table picks its loop per probe block, as :func:`_frozen`
        picks the flat or the nested one per table: a block whose joined
        rows are at least :data:`GROUP_REPEATS` times (its distinct ``g``)
        x (the table's distinct parts) is emitted grouped
        (:func:`_grouped_block`), every other block through the kernel.
        Either way its ``rows_out`` counts the joined rows, the sum of its
        matched bucket sizes.
        """
        members = self._members
        kernel = self._kernel
        if kernel is None:
            raise RuntimeError(f"{self.label()} has no kernel: hand it one with fuse()")
        frozen, emit = _frozen(tables[0], kernel)
        flat = emit is kernel.flat
        # A flat table meets a probe row once: the dedup above costs what
        # grouping would.
        grouped = kernel.grouped if self._grouping and not flat else None
        parts = widest = 0  # the table's side of the guard, once a block asks
        counts = [count(1) for _ in members[1:-1]]
        tail = []
        for buckets in tables[1:]:
            # Deeper levels always iterate a bucket: one loop shape.
            tail.append({key: tuple(bucket) for key, bucket in buckets.items()}.get)
            buckets.clear()
        tail += [counter.__next__ for counter in counts]
        key_of = members[0]._probe_key_of
        get = frozen.get
        flush_rows = self._flush_rows
        tally = self.meter.counts
        bottom_rows = 0
        out: Block = []
        try:
            for block in probe_blocks:
                if count_probes:
                    tally.join_probes += len(block)
                matches = map(get, map(key_of, block))
                if tail:
                    matches = list(matches)
                    if flat:
                        bottom_rows += len(matches) - matches.count(None)
                    else:
                        bottom_rows += sum(map(len, filter(None, matches)))
                rows = None
                if grouped is not None:
                    if not parts:
                        parts, widest = _table_parts(frozen, grouped.part_of)
                    # The guard, cheapest test first: at most ``most`` distinct
                    # ``g`` can pass it, so a spread sample of ``most + 1`` rows
                    # that holds more rejects the block before a full pass.
                    least = GROUP_REPEATS * parts
                    group_of = grouped.group_of
                    most = len(block) * widest // least
                    step = len(block) // (most + 1) or 1
                    if most and len(set(map(group_of, block[::step]))) <= most:
                        matches = list(matches)
                        joined = sum(map(len, filter(None, matches)))
                        if len(set(map(group_of, block))) * least <= joined:
                            rows = _grouped_block(grouped, block, matches, parts)
                if rows is None:
                    out += emit(block, matches, *tail)
                else:
                    self.grouped_blocks += 1
                    # The joined rows grouping never built count all the same.
                    self.rows_out += joined - len(rows)
                    out += rows
                if len(out) >= flush_rows:
                    self.rows_out += len(out)
                    yield out
                    out = []
            if out:
                self.rows_out += len(out)
                yield out
        finally:
            if tail:
                emitted = [bottom_rows] + [next(counter) - 1 for counter in counts]
                for member, rows in zip(members, emitted):
                    member.rows_out = rows
                tally.join_probes += sum(emitted)

    def label(self) -> str:
        """The one-line trace/explain label."""
        return f"hash join [build={self.build_side}] {self._on()}"


#: A spilled build is re-read per probe slice while it loads in at most this
#: many budget-sized chunks *and* is no larger than the slice; above either
#: the probe side goes to Grace partitions (crossover: docs/PERFORMANCE.md).
REREAD_MAX_PASSES = 2

#: Probe rows joined per re-read of a spilled build.  A slice's whole output
#: is gathered before it is yielded; ten pipelined joins cutting at
#: :data:`BLOCK_ROWS` instead held 12 % more RSS to save ~5 ms.
REREAD_SLICE_ROWS = 256


class GraceHashJoin(HashJoin):
    """Hash join under a memory budget: spill the build side on overflow.

    Behaves exactly like :class:`HashJoin` while the build side fits under
    the shared meter's budget.  The moment acquiring another build block
    would push the meter past it, the table built so far and the build rows
    still to come are staged in one spill file, and the staged row count
    picks one of two modes:

    * **re-read** — at most :data:`REREAD_MAX_PASSES` budget-sized chunks
      and :data:`REREAD_SLICE_ROWS` rows.  The probe child stays in the
      pipeline and no probe row touches disk: per slice of probe rows the
      build is re-read in meter-sized chunks (a block-nested-loop with the
      build as the inner), every chunk released before the slice's output
      is yielded, so a parent join never finds the meter pinned by its child.
    * **partitioned** (Grace) — a larger build is scattered to ``fanout``
      partition files (hashed on the join key with a per-level salt) as soon
      as it outgrows the first mode, the probe side is streamed to matching
      files — rows whose build partition is empty are dropped without
      touching disk — and the spill driver (:func:`_drain_spill`) joins
      the pairs one at a time, re-splitting what does not fit, and joining
      what will not split (one heavy key, a keyless product) with the same
      chunk loader, re-scanning the probe partition per chunk.

    Either way one chunk or one partition's table is resident at a time,
    and correctness is unchanged from :class:`HashJoin`: equal keys always
    meet, buckets are sets, and the output is the same bag of rows up to
    block boundaries and build duplicates that straddle chunks — the
    evaluator's result set makes it the same *set*.  Spill files live in a
    per-execution ``PartitionedSpill`` closed in a ``finally``, so an
    abandoned or failing execution leaks nothing.
    """

    #: Spill partitions arrive in :data:`~repro.engine.spill.SPILL_BLOCK_ROWS`
    #: -sized blocks, so the probe kernel gathers a full block before yielding.
    _flush_rows = BLOCK_ROWS

    #: Every budgeted count stays the ordinary kernel's.
    _grouping = False

    def __init__(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        plan: JoinPlan,
        meter: MemoryMeter,
        budget: MemoryBudget,
        build_side: str = "right",
        fanout_hint: Optional[int] = None,
    ):
        super().__init__(left, right, plan, meter, build_side=build_side)
        self._budget = budget
        self._fanout = max(2, min(int(fanout_hint or budget.spill_fanout), 1024))
        self._layout = (("build", _first), ("probe", self._probe_key_of))
        #: Number of times this operator's most recent execution spilled
        #: (0 = it ran entirely in memory), which way (``"re-read"`` or
        #: ``"partitioned"``), how often the build was read back, and the
        #: re-splits and fallbacks the spill driver made.
        self.spilled = 0
        self.spill_mode = ""
        self.build_rereads = 0
        self.resplits = self.fallbacks = 0

    def _blocks(self) -> Iterator[Block]:
        """Stream the output blocks (see the operator iterator contract)."""
        self.rows_out = 0
        self.build_peak_rows = 0
        self.spilled = 0
        self.spill_mode = ""
        self.build_rereads = 0
        self.resplits = self.fallbacks = 0
        meter = self.meter
        budget = self._budget
        pairs_of = self._pairs_of
        spill = PartitionedSpill(meter, "repro-grace-", budget.spill_dir)
        buckets: Dict[Hashable, Set[Row]] = {}
        resident = 0
        reread_rows = min(REREAD_MAX_PASSES * budget.rows, REREAD_SLICE_ROWS)
        staged: Optional[SpillFile] = None
        build_parts: Optional[List[SpillFile]] = None
        try:
            # -- build phase -------------------------------------------
            for block in self._build_child.blocks():
                if build_parts is not None:
                    spill.route(build_parts, pairs_of(block), _first, 0)
                elif staged is not None:
                    staged.extend(pairs_of(block))
                    if staged.rows > reread_rows:
                        build_parts = self._scatter(spill, staged)
                else:
                    added = _build_block(buckets, pairs_of(block))
                    if not added or meter.try_acquire(added):
                        resident += added
                        if resident > self.build_peak_rows:
                            self.build_peak_rows = resident
                        continue
                    # Overflow: stage the table built so far in one file.
                    self.spilled += 1
                    meter.counts.join_spills += 1
                    staged = spill.file("build")
                    staged.extend(
                        (key, entry) for key, bucket in buckets.items() for entry in bucket
                    )
                    buckets.clear()
                    meter.release(resident)
                    resident = 0

            if staged is None:
                # -- in-memory probe (the build side fit the budget) ---
                yield from self._probe([buckets], self._probe_child.blocks())
                return

            staged.finish()
            if build_parts is None and staged.rows > reread_rows:
                build_parts = self._scatter(spill, staged)
            probe_blocks = self._counting_probes(self._probe_child.blocks())
            if build_parts is None:
                self.spill_mode = "re-read"
                yield from self._reread_join(staged, probe_blocks)
                return
            self.spill_mode = "partitioned"
            spill.seal(build_parts)
            wanted = [part.rows for part in build_parts]
            probe_parts = spill.partitions(len(wanted), "probe", wanted)
            try:
                spill.route(probe_parts, chain.from_iterable(probe_blocks), self._probe_key_of, 0)
            finally:
                # A suspended child operator: close it while a failure
                # unwinds, not whenever its traceback is collected.
                probe_blocks.close()
            spill.seal(probe_parts)
            yield from _drain_spill(self, spill, list(zip(build_parts, probe_parts)))
        finally:
            meter.release(resident)
            buckets.clear()
            spill.close()
            if staged is not None:
                rows = sum(part.rows for part in build_parts or (staged,))
                _log_spill(self, "grace-join", rows, self.spill_mode, self.build_rereads)

    def _scatter(self, spill: PartitionedSpill, staged: SpillFile) -> List[SpillFile]:
        """Move a staged build that outgrew re-reading to Grace partitions."""
        staged.finish()
        build_parts = spill.partitions(self._fanout, "build")
        spill.route(build_parts, chain.from_iterable(_drained(staged)), _first, 0)
        return build_parts

    def _counting_probes(self, blocks: Iterator[Block]) -> Iterator[Block]:
        """Pass probe blocks through, counting their rows as join probes."""
        counts = self.meter.counts
        for block in blocks:
            counts.join_probes += len(block)
            yield block

    def _reread_join(self, build: SpillFile, probe_blocks: Iterator[Block]) -> Iterator[Block]:
        """Join the streamed probe side against a small spilled build.

        Each probe slice gathers its whole output before yielding: by then
        the chunk loader has released its last chunk.
        """
        try:
            for block in probe_blocks:
                for start in range(0, len(block), REREAD_SLICE_ROWS):
                    piece = (block[start : start + REREAD_SLICE_ROWS],)
                    self.build_rereads += 1
                    out: Block = []
                    with closing(self._chunks(build)) as chunks:
                        for buckets in chunks:
                            for rows in self._probe([buckets], piece, False):
                                out += rows
                    if out:
                        yield out
        finally:
            probe_blocks.close()  # as after the probe routing: not left to the GC

    def _chunks(self, build: SpillFile) -> Iterator[Dict[Hashable, Set[Row]]]:
        """Load a sealed build file as hash tables of one meter-sized chunk each.

        A chunk reserves the meter's headroom (at most the rows left) in one
        ``try_acquire`` and hands back what duplicates did not use; a fully
        pinned meter still admits one entry per chunk, so the loader always
        makes progress.  A chunk is released when the consumer asks for the
        next one or closes the loader — which it must (``closing``), so that
        the reservation and the file handle never wait on a traceback.
        """
        meter = self.meter
        blocks = build.blocks()
        entries = chain.from_iterable(blocks)
        left = build.rows
        held = 0
        try:
            while left:
                held = min(meter.headroom(), left)
                if not (held and meter.try_acquire(held)):
                    held = 1
                    meter.acquire(1)
                left -= held
                buckets: Dict[Hashable, Set[Row]] = {}
                added = _build_block(buckets, islice(entries, held))
                meter.release(held - added)
                held = added
                if held > self.build_peak_rows:
                    self.build_peak_rows = held
                yield buckets
                meter.release(held)
                held = 0
        finally:
            meter.release(held)
            blocks.close()

    def _load(self, files: Tuple[SpillFile, SpillFile]):
        """Build a partition's table if it fits the meter's headroom."""
        meter = self.meter
        buckets: Dict[Hashable, Set[Row]] = {}
        held = 0
        try:
            for block in files[0].blocks():
                added = _build_block(buckets, block)
                if added and not meter.try_acquire(added):
                    return None
                held += added
                if held > self.build_peak_rows:
                    self.build_peak_rows = held
            loaded, held = (buckets, held), 0
            return loaded
        finally:
            meter.release(held)

    def _emit(self, files: Tuple[SpillFile, SpillFile], buckets: dict) -> Iterator[Block]:
        """Stream a partition's probe file through its loaded table."""
        return self._probe([buckets], files[1].blocks(), False)

    def _fall_back(self, files: Tuple[SpillFile, SpillFile]) -> Iterator[Block]:
        """Block-nested-loop over a partition that does not fit and will not split.

        The probe file is re-scanned once per build chunk —
        ``join_chunk_passes`` counts the passes — and never more than one
        chunk is resident, so a single heavy key or a keyless product stays
        within the budget.
        """
        build, probe = files
        with closing(self._chunks(build)) as chunks:
            for buckets in chunks:
                self.meter.counts.join_chunk_passes += 1
                yield from self._probe([buckets], probe.blocks(), False)

    def label(self) -> str:
        """The one-line trace/explain label."""
        how = ""
        if self.spill_mode == "re-read":
            how = f" [spilled: build re-read x{self.build_rereads}]"
        elif self.spill_mode:
            how = f" [spilled: partitioned x{self._fanout}]"
        return (
            f"grace hash join [build={self.build_side}, "
            f"budget={self._budget.rows}] {self._on()}{how}"
        )



def operators_in_order(root: PhysicalOperator) -> List[PhysicalOperator]:
    """The operator tree children-first — the order traces record steps in."""
    ordered: List[PhysicalOperator] = []

    def visit(operator: PhysicalOperator) -> None:
        for child in operator.children():
            visit(child)
        ordered.append(operator)

    visit(root)
    return ordered


#: Result rows a drain accumulates between two young-generation sweeps: on
#: ``join_100k``'s 76k-91k-row results a sweep costs ~100 ns per row at 1,024
#: (a pass's fixed part shows), ~60 at 4,096, ~90 at 16,384 (rows gone cold).
SWEEP_ROWS = 4096


class _CollectorPause:
    """A re-entrant, process-wide pause of automatic cyclic collection.

    Concurrent drains (user threads sharing one evaluator or session) and
    nested ones share a depth count: the first entry disables, the last exit
    re-enables.  Entering returns whether it was on — a host's own
    ``gc.disable()`` is left so, and gets no sweeps.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._depth = 0
        self._resume = False

    def __enter__(self) -> bool:
        with self._lock:
            if self._depth == 0:
                self._resume = gc.isenabled()
                gc.disable()
            self._depth += 1
            return self._resume

    def __exit__(self, *exc_info) -> None:
        with self._lock:
            if self._depth:  # 0 only in a child forked from inside the block
                self._depth -= 1
                if self._depth == 0 and self._resume:
                    gc.enable()

    def after_fork_in_child(self) -> None:
        """The child has one thread and no drain: depth 0, pre-pause state."""
        if self._depth and self._resume:
            gc.enable()
        self.__init__()  # the lock too: a parent thread may have held it


_COLLECTOR_PAUSE = _CollectorPause()
# Server workers are forked, possibly while another thread is draining.
if hasattr(os, "register_at_fork"):  # pragma: no branch - CPython >= 3.7
    os.register_at_fork(after_in_child=_COLLECTOR_PAUSE.after_fork_in_child)


def drain_metered(
    root: PhysicalOperator,
    meter: MemoryMeter,
    cap: Optional[int] = None,
    span: bool = False,
    distinct: bool = False,
    count: bool = False,
) -> Union[Set[tuple], FrozenSet[tuple], int, None]:
    """Drain an operator tree into a set, metering the accumulated rows.

    The one drain of the engine.  The set is offered to the root as its
    ``sink``: a root projection dedups straight into it (and yields empty
    blocks), so result rows are hashed once and resident once.  The rows
    are held on the meter as result rows (:meth:`MemoryMeter.hold_result`):
    they count in its peak, never against an operator's budget.

    A ``distinct`` root (:attr:`~repro.engine.planner.PhysicalPlan.distinct`)
    streams no duplicate row, so no set is built: its blocks are kept as
    they come and frozen once at the end, and the result is that
    ``frozenset``.  ``count`` returns the number of result rows instead: a
    distinct root's are its block lengths, held nowhere; any other root's
    are the length of the drained set, never copied.  A ``bare`` root
    (:attr:`PhysicalOperator.bare`) fills the set with bare values: it is
    metered the same, and the result is those values wrapped as 1-tuples
    once, in a ``frozenset``.

    Past ``cap`` rows the drain stops and returns ``None``; then, or when
    the tree or the drain itself raises (a fault, ``MemoryError``),
    the tree is closed and the partial rows' residency released.  ``span``
    wraps the drain in the trace's ``materialize`` span when the meter carries
    a tracer (an untraced drain opens no span at all).  Automatic collection
    is paused meanwhile (rule 7 of
    ``docs/ENGINE.md``): rows are freed by reference count, so one generation-0
    sweep per :data:`SWEEP_ROWS` held result rows untracks the only survivors
    young.
    """
    if span and meter.tracer is not None and meter.tracer.enabled:
        with meter.tracer.span("materialize", "drain") as handle:
            found = drain_metered(root, meter, cap, False, distinct, count)
            if found is not None:
                handle.rows = found if count else len(found)
        return found
    rows: Set[tuple] = set()
    update = rows.update
    kept: List[Block] = []
    blocks = root.blocks() if distinct else root.blocks(rows)
    # A distinct count holds no result row.
    holding = not (distinct and count)
    size = held = swept = 0
    with _COLLECTOR_PAUSE as sweeping:
        try:
            block = next(blocks, None)
            while block is not None:
                if not distinct:
                    update(block)
                    grown = len(rows)
                else:
                    grown = size + len(block)
                    if holding:
                        kept.append(block)
                if cap is not None and grown > cap:
                    blocks.close()
                    meter.release_result(held)
                    return None
                if holding and grown != size:
                    meter.hold_result(grown - size)
                    held = grown
                size = grown
                block = next(blocks, None)
                # After the pull: a stream that just ended is swept with its tree gone.
                if sweeping and held - swept >= SWEEP_ROWS:
                    gc.collect(0)
                    swept = held
        except BaseException as failure:
            # Now, not whenever the traceback is dropped: the suspended tree
            # holds spill files and reservations, and nothing collects here.
            try:
                blocks.close()
            finally:
                meter.release_result(held)
                raise failure  # never a cleanup's own error in its place
    if count:
        return size
    if getattr(root, "bare", False):  # any object with blocks() may drain
        return frozenset(zip(rows))
    return frozenset(chain.from_iterable(kept)) if distinct else rows
