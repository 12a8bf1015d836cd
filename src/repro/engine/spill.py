"""The one way engine rows get to disk and back.

The paper's point is that ``project[S](phi_G)`` over ``R_G`` has
intermediates far larger than its input or output; under a
:class:`~repro.engine.physical.MemoryBudget` the engine spills operator
state instead of holding it.  Two clients do — the Grace hash join and the
dedup seen-set — and both go through this module: a registry of live spill
directories (atexit sweep, fork hook) behind every ``finally``;
:class:`SpillFile`, pickled row blocks under one bounded retry helper and a
read-back check;
:func:`partition_index`, the salted hash that places a key at a split
level; and :class:`PartitionedSpill`, one execution's spill area.  What an
operator does with a partition that is resident again (build a table, fill
a seen-set, split again, fall back) stays in :mod:`repro.engine.physical`.
"""

from __future__ import annotations

import atexit
import os
import pickle
import shutil
import tempfile
import threading
import time
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
    "SPILL_BLOCK_ROWS",
    "SPILL_IO_RETRIES",
    "PartitionedSpill",
    "SpillFile",
    "partition_index",
]

Row = Tuple[Hashable, ...]
Block = List[Row]

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
#: while a fork-pool holds children, a hard exception during generator
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

    Fork-pool workers inherit the parent's registry; if a child's atexit ran
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

    __slots__ = ("path", "rows", "_file", "_buffer", "_faults", "_tracer", "_events")

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

    def _retry(self, op: str, attempt: Callable[..., Any], *args: Any) -> Any:
        """Run ``attempt(*args)``, absorbing ``OSError`` with bounded backoff."""
        last_error: Optional[OSError] = None
        try:
            for tried in range(SPILL_IO_RETRIES):
                if tried:
                    _COUNTERS.add(spill_retries=1)
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
        _COUNTERS.add(spill_rows=len(self._buffer))
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
    ``meter``'s fault injector, tracer and event log, and is remembered, so
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
        _COUNTERS.add(spill_partitions=sum(part is not None for part in parts))
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
