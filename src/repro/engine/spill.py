"""The memory budget, and the one way engine rows get to disk and back.

The paper's point is that ``project[S](phi_G)`` over ``R_G`` has
intermediates far larger than its input or output; under a
:class:`MemoryBudget` the engine spills operator state instead of holding
it, and the shared :class:`MemoryMeter` says how much is held.  Two
clients spill — the Grace hash join
(:class:`~repro.engine.physical.GraceHashJoin`) and the dedup seen-set
(:class:`SpillingSeenSet`) — and both go through this module: a registry
of live spill directories (atexit sweep, fork hook) behind every
``finally``; :class:`SpillFile`, pickled row blocks under one bounded
retry helper and a read-back check; :func:`partition_index`, the salted
hash that places a key at a split level; :class:`PartitionedSpill`, one
execution's spill area; and :func:`_drain_spill`, the one recursion that
loads, re-splits or falls back on a partition through its client.
"""

from __future__ import annotations

import atexit
import os
import pickle
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass
from itertools import chain, repeat
from operator import itemgetter
from typing import (
    Any,
    Callable,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..perf.counters import kernel_counters
from .faults import EngineFaultError

__all__ = [
    "BLOCK_ROWS",
    "MemoryBudget",
    "MemoryMeter",
    "SPILL_BLOCK_ROWS",
    "SpillingSeenSet",
    "SPILL_IO_RETRIES",
    "PartitionedSpill",
    "SpillFile",
    "partition_index",
]

Row = Tuple[Hashable, ...]
Block = List[Row]

#: Rows per block.  Large enough to amortise generator suspension, small
#: enough that an in-flight block never rivals operator state for memory.
BLOCK_ROWS = 1024

#: Rows buffered per spill file before a pickle flush.  Spill buffers are
#: transient I/O staging, not operator state, and are therefore not
#: metered — keeping them small bounds the unmetered slack per spilling
#: operator to ``fanout * SPILL_BLOCK_ROWS`` rows.
SPILL_BLOCK_ROWS = 128

#: Attempts per spill-file I/O operation (1 initial + retries).  Transient
#: failures — a busy disk, an injected fault with ``spill_failures`` below
#: this — are absorbed with a short exponential backoff and counted in
#: ``spill_retries``; exhaustion raises a typed
#: :class:`~repro.engine.faults.EngineFaultError` from the operator's
#: ``finally``-protected path, so cleanup still runs.
SPILL_IO_RETRIES = 3

#: Base sleep (seconds) before the first spill I/O retry; doubles per retry.
_SPILL_RETRY_BACKOFF = 0.002

_COUNTERS = kernel_counters()

#: Spill directories currently live.  Every :class:`PartitionedSpill` is
#: closed from its owner's ``finally``; this registry (plus the atexit hook)
#: is the backstop for the paths that cannot run one — an interpreter dying
#: with spill files open, a hard exception during generator
#: teardown.
_ACTIVE_SPILL_DIRS: Set[str] = set()
_SPILL_DIR_LOCK = threading.Lock()


@atexit.register
def _cleanup_spill_dirs() -> None:
    """Remove any spill directories still live at interpreter shutdown."""
    with _SPILL_DIR_LOCK:
        leftovers = list(_ACTIVE_SPILL_DIRS)
        _ACTIVE_SPILL_DIRS.clear()
    for path in leftovers:
        shutil.rmtree(path, ignore_errors=True)


def _clear_spill_registry_after_fork() -> None:
    """Forget inherited registrations in a forked child.

    Forked server workers inherit the parent's registry; if a child's atexit ran
    it would delete directories the parent is still reading.  The parent
    remains responsible for its own directories.  The lock is replaced, not
    taken: another parent thread may have held it at fork time (the same
    hazard :mod:`repro.perf.counters` guards against).
    """
    global _SPILL_DIR_LOCK
    _SPILL_DIR_LOCK = threading.Lock()
    _ACTIVE_SPILL_DIRS.clear()


if hasattr(os, "register_at_fork"):  # pragma: no branch - CPython >= 3.7
    os.register_at_fork(after_in_child=_clear_spill_registry_after_fork)


_MIX_MASK = (1 << 64) - 1


def partition_index(salt: int, key: Hashable, fanout: int) -> int:
    """Scatter a key into one of ``fanout`` partitions, salted.

    Raw ``hash((salt, key)) % fanout`` is not good enough: CPython's tuple
    hash leaves the low bits *correlated across salts* (keys that collide
    modulo a small fan-out at one salt largely collide again at the next),
    which makes re-salted recursion split nothing and forces the overflow
    path.  A 64-bit avalanche (xor-shift / golden-ratio multiply) over the
    tuple hash decorrelates the levels.
    """
    mixed = hash((salt, key)) & _MIX_MASK
    mixed ^= mixed >> 17
    mixed = (mixed * 0x9E3779B97F4A7C15) & _MIX_MASK
    mixed ^= mixed >> 29
    return mixed % fanout


class SpillFile:
    """An append-only spilled row store: pickled blocks in one temp file.

    Rows are buffered in memory up to :data:`SPILL_BLOCK_ROWS` and flushed
    as one pickle frame; :meth:`blocks` re-reads the frames after
    :meth:`finish` seals the file.  Spilled rows live on disk, so they are
    *not* metered — only ``rows`` (the total spilled) is tracked, for
    counters, fan-out decisions and the read-back check.  ``delete`` is
    idempotent and the owning :class:`PartitionedSpill` calls it from its
    ``close()``, so temp files never outlive an execution, even one
    abandoned by ``close()`` or an exception.

    Every I/O operation — frame write, open-for-read, frame read — is
    attempted up to :data:`SPILL_IO_RETRIES` times with exponential backoff
    (``spill_retries`` counts the retries): spill files are the engine's
    only disk dependency, and a transient ``OSError`` — real or injected
    through ``faults`` — must not abort an execution the next attempt would
    complete.  A failed write rewinds and truncates the partial pickle
    frame before retrying, and a failed read seeks back to the frame start,
    so a retried operation never sees a corrupt stream.  Exhausted retries
    raise :class:`~repro.engine.faults.EngineFaultError`, and so does a
    file that reads back fewer rows than were written to it.
    """

    __slots__ = (
        "path", "rows", "_file", "_buffer", "_faults", "_tracer", "_events", "_counts"
    )

    def __init__(
        self,
        path: str,
        faults: Optional[object] = None,
        tracer: Optional[object] = None,
        events: Optional[object] = None,
    ) -> None:
        self.path = path
        self.rows = 0
        self._file = None
        self._buffer: Block = []
        self._faults = faults
        self._tracer = tracer
        self._events = events
        # A file of a PartitionedSpill counts on its meter's counts.
        self._counts = _COUNTERS

    def _retry(self, op: str, attempt: Callable[..., Any], *args: Any) -> Any:
        """Run ``attempt(*args)``, absorbing ``OSError`` with bounded backoff."""
        last_error: Optional[OSError] = None
        try:
            for tried in range(SPILL_IO_RETRIES):
                if tried:
                    self._counts.spill_retries += 1
                    if self._events is not None:
                        self._events.emit(
                            "spill-retry", op=op, path=self.path, attempt=tried
                        )
                    time.sleep(_SPILL_RETRY_BACKOFF * (1 << (tried - 1)))
                try:
                    return attempt(*args)
                except OSError as error:
                    last_error = error
            raise EngineFaultError(
                f"spill {op} of {self.path} failed after {SPILL_IO_RETRIES} "
                f"attempts: {last_error}"
            ) from last_error
        finally:
            # The stored error's traceback points back at this frame, and a
            # frame keeps its callers alive through ``f_back``: left in
            # place, that cycle would hold a suspended child operator — and
            # its spill directory — until the next cyclic GC pass.
            del last_error

    def append(self, row: Row) -> None:
        """Buffer one row, flushing a pickle frame when the buffer fills."""
        self._buffer.append(row)
        if len(self._buffer) >= SPILL_BLOCK_ROWS:
            self._flush()

    def extend(self, rows: Iterable[Row]) -> None:
        """Buffer ``rows`` one by one (see :meth:`append`)."""
        for row in rows:
            self.append(row)

    def _flush(self) -> None:
        if not self._buffer:
            return
        tracer = self._tracer
        if tracer is not None and tracer.enabled:
            with tracer.span("spill-write", self.path) as span:
                span.rows = len(self._buffer)
                self._retry("write", self._write_frame)
        else:
            self._retry("write", self._write_frame)
        self.rows += len(self._buffer)
        self._counts.spill_rows += len(self._buffer)
        self._buffer = []

    def _write_frame(self) -> None:
        if self._faults is not None:
            self._faults.on_spill_write()
        if self._file is None:
            self._file = open(self.path, "wb")
        position = self._file.tell()
        try:
            pickle.dump(self._buffer, self._file, protocol=pickle.HIGHEST_PROTOCOL)
        except OSError:
            # A partial frame would corrupt every later read: rewind so the
            # retry (or the next flush) starts on a frame boundary.
            self._file.seek(position)
            self._file.truncate()
            raise

    def finish(self) -> None:
        """Flush the tail buffer and seal the file for reading."""
        self._flush()
        if self._file is not None:
            self._file.close()
            self._file = None

    def _open_for_read(self):
        if self._faults is not None:
            self._faults.on_spill_read()
        return open(self.path, "rb")

    def _read_frame(self, stream, position: int) -> Block:
        if self._faults is not None:
            self._faults.on_spill_read()
        try:
            return pickle.load(stream)
        except OSError:
            stream.seek(position)
            raise

    def blocks(self) -> Iterator[Block]:
        """Stream the spilled blocks back (only valid after ``finish``).

        When a tracer rides along, the whole read stream is wrapped in
        one ``spill-read`` span that accumulates only time spent inside
        the reads (the consumer's processing time does not count).
        """
        tracer = self._tracer
        if tracer is not None and tracer.enabled:
            return tracer.stream(
                "spill-read", self.path, self._read_blocks(), rows=lambda: self.rows
            )
        return self._read_blocks()

    def _read_blocks(self) -> Iterator[Block]:
        if self.rows == 0:
            return
        stream = self._retry("open", self._open_for_read)
        try:
            missing = self.rows
            while missing > 0:
                try:
                    block = self._retry("read", self._read_frame, stream, stream.tell())
                except (EOFError, pickle.UnpicklingError) as error:
                    # Cut short, at a frame boundary or inside a frame: a
                    # short read must never pass for the whole partition.
                    raise EngineFaultError(
                        f"spill file {self.path} is truncated: {missing} of "
                        f"{self.rows} rows could not be read back"
                    ) from error
                missing -= len(block)
                yield block
        finally:
            stream.close()

    def delete(self) -> None:
        """Drop the buffer and remove the file (idempotent)."""
        self._buffer = []
        if self._file is not None:
            self._file.close()
            self._file = None
        try:
            os.remove(self.path)
        except OSError:
            pass


class PartitionedSpill:
    """One execution's spill area: a temp directory and the files in it.

    A spilling operator creates one per execution and closes it from its
    ``finally``.  The directory is made (and registered for the atexit
    sweep) on the first :meth:`file`, so an execution that never spills
    touches no disk.  Every file handed out is wired to the shared
    ``meter``'s fault injector, tracer, event log and counts, and is
    remembered, so
    :meth:`close` can close handles still open mid-write before removing
    the directory.

    :meth:`partitions` opens a fan-out of files, :meth:`route` scatters a
    whole iterable over it by :func:`partition_index` under a per-level
    ``salt`` (equal keys always meet in one partition at a given salt; a
    fresh salt re-scatters them), and :meth:`seal` makes the files
    readable.  Whether an oversized partition is split again, and what
    stands in when splitting stops helping, is the client's rule.
    """

    __slots__ = ("_meter", "_prefix", "_base", "_dir", "_files")

    def __init__(self, meter: Any, prefix: str, base_dir: Optional[str] = None) -> None:
        self._meter = meter
        self._prefix = prefix
        self._base = base_dir
        self._dir: Optional[str] = None
        self._files: List[SpillFile] = []

    def file(self, kind: str) -> SpillFile:
        """Open a new, empty spill file named after ``kind``."""
        if self._dir is None:
            self._dir = tempfile.mkdtemp(prefix=self._prefix, dir=self._base)
            with _SPILL_DIR_LOCK:
                _ACTIVE_SPILL_DIRS.add(self._dir)
        meter = self._meter
        spill_file = SpillFile(
            os.path.join(self._dir, f"{kind}-{len(self._files) + 1:06d}.spill"),
            faults=meter.faults,
            tracer=meter.tracer,
            events=meter.events,
        )
        spill_file._counts = meter.counts
        self._files.append(spill_file)
        return spill_file

    def partitions(
        self, fanout: int, kind: str, wanted: Optional[Sequence[Any]] = None
    ) -> List[Optional[SpillFile]]:
        """Open a fan-out of ``fanout`` partition files.

        With ``wanted`` only the partitions whose entry is truthy get a
        file; the others are ``None`` and :meth:`route` drops their items
        without touching disk.  ``spill_partitions`` counts the files made.
        """
        parts = [
            self.file(kind) if wanted is None or wanted[index] else None
            for index in range(fanout)
        ]
        self._meter.counts.spill_partitions += sum(part is not None for part in parts)
        return parts

    @staticmethod
    def route(
        parts: Sequence[Optional[SpillFile]],
        items: Iterable[Any],
        key_of: Callable[[Any], Hashable],
        salt: int,
    ) -> None:
        """Append each item to the partition its ``key_of`` hashes to."""
        fanout = len(parts)
        for item in items:
            part = parts[partition_index(salt, key_of(item), fanout)]
            if part is not None:
                # SpillFile.append, inlined: this loop sees every spilled row.
                buffer = part._buffer
                buffer.append(item)
                if len(buffer) >= SPILL_BLOCK_ROWS:
                    part._flush()

    @staticmethod
    def seal(parts: Iterable[Optional[SpillFile]]) -> None:
        """Finish every partition file of a fan-out so it can be read."""
        for part in parts:
            if part is not None:
                part.finish()

    def close(self) -> None:
        """Delete every file and the directory, and deregister (idempotent)."""
        for spill_file in self._files:
            spill_file.delete()
        self._files = []
        if self._dir is not None:
            with _SPILL_DIR_LOCK:
                _ACTIVE_SPILL_DIRS.discard(self._dir)
            shutil.rmtree(self._dir, ignore_errors=True)
            self._dir = None


#: Key of a spilled ``(key, entry)`` build pair or ``(row, seen)`` dedup item.
_first = itemgetter(0)


@dataclass(frozen=True)
class MemoryBudget:
    """A row budget for engine state, with the spill machinery's knobs.

    ``rows`` caps the rows the shared :class:`MemoryMeter` should hold, and
    every spillable operator honors it.  A hash join whose build side would
    push the meter past it spills the build: a small one is re-read per
    probe slice while the probe keeps streaming, a large one takes both
    sides through Grace partitions (:class:`GraceHashJoin` has the rule).
    Dedup seen-sets spill through :class:`SpillingSeenSet`.  Both drain
    their partitions through one recursion (:func:`_drain_spill`).  The
    budget bounds operator state only: the result accumulator is metered
    but never budget-bound (:class:`MemoryMeter`).  Every operator asks
    before it holds a row, except a spilling dedup replaying a partition
    of at most ``rows`` rows and a chunk's one build entry against a
    pinned meter, so the peak is the result plus at most
    ``rows * (1 + spilling dedups) + Grace joins`` rows of state
    (``docs/ENGINE.md``, "The memory bound").  A genuine overrun — distinct
    rows a partition cannot shed once splitting stops making progress — is
    counted in ``spill_overflows`` rather than masked.

    ``spill_fanout`` is the default partitions-per-level (a planner estimate
    can override it per join); ``spill_dir`` hosts the per-execution
    temporary directories (``None`` = the system temp dir).
    """

    rows: int
    spill_fanout: int = 8
    spill_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.rows <= 0:
            raise ValueError(f"memory budget must be positive, got {self.rows}")
        if self.spill_fanout < 2:
            raise ValueError(f"spill fanout must be >= 2, got {self.spill_fanout}")

    @classmethod
    def coerce(cls, value: "MemoryBudget | int | None") -> "Optional[MemoryBudget]":
        """Normalise ``int`` row counts (and ``None``) into a budget."""
        if value is None or isinstance(value, cls):
            return value
        return cls(rows=int(value))


class MemoryMeter:
    """Tracks rows resident in engine state, and the high-water mark.

    One meter is shared by every operator of an executing plan plus the
    drain's result accumulator, so ``peak`` is the peak number of rows
    *simultaneously* live anywhere in the engine — deliberately a stricter
    accounting than the materialising evaluators' per-step maximum.  The
    accumulator's rows (``result``, held through :meth:`hold_result`) count
    in ``current`` and ``peak`` but not against ``budget``: the budget is
    the optional ceiling on *operator* state, which :meth:`try_acquire` and
    :meth:`headroom` answer for; the meter only answers the question, the
    operators do the spilling.

    The meter is thread-safe: user threads may share one evaluator, and
    plain read-modify-write increments from several threads would be lost
    (``tests/test_engine.py::TestMemoryMeterThreadSafety``).

    ``faults`` optionally carries the evaluation's
    :class:`~repro.engine.faults.FaultInjector`; the meter is the one object
    every operator of a plan already shares, so it doubles as the channel
    through which spill files find the injector without widening every
    operator signature.  ``tracer`` and ``events`` ride the same channel:
    a :class:`repro.obs.tracer.Tracer` (``None`` when tracing is off — the
    pay-for-what-you-use contract) and a
    :class:`repro.obs.events.EventLog` for spill events.

    ``counts`` is where every operator, spill file and fault injector of
    the execute counts its work, with plain ``+=`` and no lock: an
    execute's meter carries a :class:`~repro.perf.counters.KernelCounters`
    of its own, which the evaluator folds into the process-global counters
    when the drain ends (:func:`~repro.perf.counters.fold_counts`); a meter
    built bare counts onto the process-global counters directly.

    An execute's meter is reused with its operator tree: the evaluator
    zeroes ``current``, ``peak`` and ``result`` and sets ``faults``,
    ``tracer`` and ``events`` before every drain.
    """

    __slots__ = (
        "current", "peak", "result", "budget", "faults", "tracer", "events", "counts", "_lock"
    )

    def __init__(
        self,
        budget: Optional[int] = None,
        faults: Optional[object] = None,
        tracer: Optional[object] = None,
        events: Optional[object] = None,
    ) -> None:
        self.current = 0
        self.peak = 0
        self.result = 0
        self.budget = budget
        self.faults = faults
        self.tracer = tracer
        self.events = events
        self.counts = _COUNTERS
        self._lock = threading.Lock()

    def acquire(self, rows: int = 1) -> None:
        """Record ``rows`` additional rows becoming resident."""
        with self._lock:
            self.current += rows
            if self.current > self.peak:
                self.peak = self.current

    def release(self, rows: int) -> None:
        """Record ``rows`` rows being dropped from state."""
        with self._lock:
            self.current -= rows

    def hold_result(self, rows: int) -> None:
        """Record ``rows`` more result rows resident (never budget-bound)."""
        with self._lock:
            self.current += rows
            self.result += rows
            if self.current > self.peak:
                self.peak = self.current

    def release_result(self, rows: int) -> None:
        """Record ``rows`` result rows being dropped."""
        with self._lock:
            self.current -= rows
            self.result -= rows

    def try_acquire(self, rows: int) -> bool:
        """Acquire ``rows`` only if operator state stays within the budget.

        The check and the acquisition happen under one lock, so threads
        sharing a budgeted meter cannot interleave their way past the
        ceiling unobserved (a check-then-``acquire`` pair could).  Always
        succeeds on an unbudgeted meter.
        """
        with self._lock:
            if self.budget is not None and self.current - self.result + rows > self.budget:
                return False
            self.current += rows
            if self.current > self.peak:
                self.peak = self.current
            return True

    def headroom(self) -> Optional[int]:
        """Rows of operator state still acquirable (``None`` = unbudgeted)."""
        if self.budget is None:
            return None
        with self._lock:
            return max(self.budget - self.current + self.result, 0)


def _drain_spill(
    client: Any,
    spill: PartitionedSpill,
    partitions: List[Tuple[Optional[SpillFile], ...]],
    level: int = 1,
    splittable: bool = True,
) -> Iterator[Block]:
    """The one spill recursion: yield sealed partitions' output, one at a time.

    Both spilling clients (:class:`SpillingSeenSet`, :class:`GraceHashJoin`)
    route their state to partitions under salt 0 and hand them here.  A
    partition is a tuple of files laid out as ``client._layout`` says (each
    file's kind and routing key): a dedup's one file, a join's build and
    probe files.  One with an empty file emits nothing; every other one

    * is **loaded** if it fits: ``client._load(files)`` returns what
      ``client._emit`` needs and the rows it holds on the meter (released
      here after the emission), or ``None`` holding nothing;
    * else, if its first file holds more rows than the budget, is
      **re-split**: every file is routed under salt = ``level`` (a later
      file only where the first has rows) and the parts come back here;
    * else goes to ``client._fall_back(files)``.

    A split makes progress when its largest part is smaller than the file.
    One that does not either met keys that all hash alike (one heavy key, a
    keyless product), so its one part falls back without a load, or was
    unlucky (odds at most ``1 / fanout``) and the next salt splits again.
    ``spill_recursions`` and ``client.resplits`` count the splits,
    ``client.fallbacks`` the fallbacks.  A partition's files are deleted
    once it is done.
    """
    fanout = len(partitions)
    for files in partitions:
        try:
            if not all(part is not None and part.rows for part in files):
                continue
            loaded = client._load(files) if splittable else None
            if loaded is not None:
                state, held = loaded
                try:
                    yield from client._emit(files, state)
                finally:
                    client.meter.release(held)
            elif splittable and files[0].rows > client._budget.rows:
                client.meter.counts.spill_recursions += 1
                client.resplits += 1
                split = []
                wanted = None
                for (kind, key_of), part in zip(client._layout, files):
                    subs = spill.partitions(fanout, kind, wanted)
                    spill.route(subs, chain.from_iterable(_drained(part)), key_of, level)
                    spill.seal(subs)
                    split.append(subs)
                    wanted = wanted or [sub.rows for sub in subs]
                largest = max(wanted)
                again = largest < files[0].rows or not _alike(
                    split[0][wanted.index(largest)], client._layout[0][1]
                )
                yield from _drain_spill(client, spill, list(zip(*split)), level + 1, again)
            else:
                client.fallbacks += 1
                yield from client._fall_back(files)
        finally:
            for part in files:
                if part is not None:
                    part.delete()


def _alike(part: SpillFile, key_of: Callable[[Any], Hashable]) -> bool:
    """Whether every key in a sealed, non-empty file hashes alike: no salt
    can split them."""
    hashes = map(hash, map(key_of, chain.from_iterable(part.blocks())))
    first = next(hashes)
    return all(value == first for value in hashes)


def _log_spill(client: Any, operator: str, rows: int, mode="partitioned", rereads=0) -> None:
    """Log a spilling client's one ``spill`` event, when events are on."""
    if client.meter.events is not None:
        client.meter.events.emit(
            "spill", operator=operator, label=client.label(), mode=mode, rows=rows,
            fanout=client._fanout, resplits=client.resplits,
            fallbacks=client.fallbacks, build_rereads=rereads,
        )


class SpillingSeenSet:
    """A dedup seen-set under a budget: spills to partitions on overflow.

    A deduplicating projection needs one thing of its state: "have I seen
    this row, and if not, remember it".  In memory that is a set; under a
    budget this class *spills* the set through a
    :class:`~repro.engine.spill.PartitionedSpill` (equal rows always land
    in the same partition), so membership can be decided one partition at
    a time.

    Protocol, driven by the owning operator's generator:

    * :meth:`filter_block` returns a block's not-yet-seen rows.  While the
      set fits the budget that happens immediately; after the spill switch
      the rows are routed to partition files tagged *pending* and nothing
      is returned — their first occurrences are emitted by :meth:`drain`.
    * :meth:`drain` hands the partitions to the spill driver
      (:func:`_drain_spill`) and yields the deferred first occurrences in
      blocks.
    * :meth:`close` releases metered state, deletes every spill artifact
      and logs the ``spill`` event of a set that spilled (idempotent;
      called from the owner's ``finally``, so an abandoned or failing
      execution leaks nothing).

    Emission order is arrival order until the switch and partition order
    after it; no consumer reads meaning into either.

    With ``spill=False`` (an optional dedup, see
    :class:`StreamingProject`) the set never switches: a block whose new
    rows the meter will not grant is emitted unremembered, so later
    duplicates of those rows pass through as well.

    Metering: the pre-switch set and, during replay, one partition's
    distinct rows are metered.  A partition *fits* when its distinct rows
    fit the headroom or all its rows fit ``budget.rows``: the latter is
    replayed resident even when *other* operator state (a downstream
    join's table) pins the shared meter — the budget governs
    spillable state at partition granularity.  The fallback replays
    resident regardless, counting a ``spill_overflows`` if the distinct
    rows exceed the budget.  ``label`` names the owner in the event.
    """

    #: Each partition is one file of ``(row, seen)`` items keyed on the row.
    _layout = (("part", _first),)

    def __init__(
        self, meter: MemoryMeter, budget: MemoryBudget, spill: bool = True, label=None
    ):
        self.meter = meter
        self._budget = budget
        self._may_spill = spill
        #: The owner's label, for the ``spill`` event.
        self.label: Callable[[], str] = label or (lambda: "dedup")
        self._seen: Set[Row] = set()
        self._resident = 0
        self._fanout = budget.spill_fanout
        self._spill = PartitionedSpill(meter, "repro-dedup-", budget.spill_dir)
        self._parts: Optional[List[SpillFile]] = None
        #: Whether this set switched to partitioned spill mode.
        self.spilled = False
        #: Re-splits and fallbacks the spill driver made for this set.
        self.resplits = self.fallbacks = 0

    def _switch(self) -> None:
        """Flush the in-memory set to partition files and enter spill mode."""
        self.spilled = True
        self._parts = self._spill.partitions(self._fanout, "part")
        self.meter.counts.dedup_spills += 1
        self._spill.route(self._parts, zip(self._seen, repeat(True)), _first, 0)
        self._seen.clear()
        self.meter.release(self._resident)
        self._resident = 0

    def filter_block(self, rows: Block) -> Block:
        """Return the rows of ``rows`` never seen before (emit-now path).

        After the spill switch the rows are routed to partitions instead and
        the return value is empty — deferred first occurrences come from
        :meth:`drain`.
        """
        if self._parts is not None:
            self._spill.route(self._parts, zip(rows, repeat(False)), _first, 0)
            return []
        seen = self._seen
        add = seen.add
        # ``add`` returns None, so the filter records as it tests.
        out = [row for row in rows if row not in seen and not add(row)]
        if out:
            if self.meter.try_acquire(len(out)):
                self._resident += len(out)
            elif not self._may_spill:
                # An optional (planner-pushed) dedup holds what the meter
                # grants and passes the rest through, duplicates and all.
                seen.difference_update(out)
            else:
                # The block's new rows were emitted just now and are flushed
                # as already-seen, so the replay will not re-emit them; they
                # were never acquired, so the release in _switch balances.
                self._switch()
        return out

    def drain(self) -> Iterator[Block]:
        """Yield the deferred first occurrences after a spill (in blocks)."""
        if self._parts is None:
            return
        self._spill.seal(self._parts)
        yield from _drain_spill(self, self._spill, [(part,) for part in self._parts])

    def _emit(self, files: Tuple[SpillFile], deferred: Block) -> Iterator[Block]:
        """Yield a loaded partition's first occurrences in blocks."""
        for start in range(0, len(deferred), BLOCK_ROWS):
            yield deferred[start : start + BLOCK_ROWS]

    def _fall_back(self, files: Tuple[SpillFile]) -> Iterator[Block]:
        """Replay a partition splitting cannot shrink, resident regardless."""
        deferred, held = self._load(files, refuse=False)
        try:
            if held > self._budget.rows:
                # Its distinct rows alone outgrew the budget once splitting
                # stopped making progress: the one case spilling cannot
                # bound, surfaced instead of masked.
                self.meter.counts.spill_overflows += 1
            yield from self._emit(files, deferred)
        finally:
            self.meter.release(held)

    def _load(self, files: Tuple[SpillFile], refuse=True) -> Optional[Tuple[Block, int]]:
        """Replay a partition into a seen-set: its first occurrences still
        owed and the rows held on the meter, or ``None`` (holding nothing)
        if it does not fit (see the class notes) and ``refuse``.  They are
        held until the whole file is read: a refusal can come mid-file, and
        rows yielded before it would be emitted again by the re-split."""
        (part,) = files
        refuse = refuse and part.rows > self._budget.rows
        meter = self.meter
        seen: Set[Row] = set()
        deferred: Block = []
        held = 0
        pinned = False  # past the headroom: acquire without asking again
        try:
            for row, was_seen in chain.from_iterable(part.blocks()):
                if row in seen:
                    continue
                if pinned:
                    meter.acquire(1)
                elif not meter.try_acquire(1):
                    if refuse:
                        return None
                    pinned = True
                    meter.acquire(1)
                held += 1
                seen.add(row)
                if not was_seen:
                    deferred.append(row)
            replayed, held = (deferred, held), 0
            return replayed
        finally:
            meter.release(held)

    def close(self) -> None:
        """Release metered state, delete every spill artifact and log the
        spill (idempotent)."""
        self.meter.release(self._resident)
        self._resident = 0
        self._seen.clear()
        if self._parts is not None:
            _log_spill(self, "dedup", sum(part.rows for part in self._parts))
        self._parts = None
        self._spill.close()


def _drained(part: SpillFile) -> Iterator[Block]:
    """Stream a sealed spill file's blocks, then free its disk space."""
    yield from part.blocks()
    part.delete()
