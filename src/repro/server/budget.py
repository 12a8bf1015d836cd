"""The cross-session shared :class:`MemoryBudget` scheduler.

PR 4 left the engine's memory budget fixed at ``BackendConfig``
construction: one session, one budget, decided before the first query
arrives.  The serving tier needs the opposite shape — *many* sessions
across *many* worker processes drawing on **one** machine-sized row
pool, with individual requests allowed to ask for more or less than the
default slice.  :class:`BudgetScheduler` is that pool: the front
acquires a :class:`BudgetLease` per admitted request, the leased row
count travels to the worker as the request's engine budget (the worker
serves it from a session constructed with exactly that
:class:`~repro.engine.spill.MemoryBudget`), and the lease is returned
when the response is written.  Concurrent leases can never sum past the
pool, so the fleet's aggregate engine state is bounded the same way one
session's was — the scheduler is the budget contract lifted from
per-session to per-deployment.

Leasing waits with a deadline rather than failing fast: a request that
cannot be granted immediately awaits up to ``max_wait_seconds`` for
in-flight leases to return, then fails with the typed
:class:`~repro.server.errors.BudgetExhaustedError` the front maps to
HTTP 503.  That turns transient memory pressure into queueing delay and
sustained pressure into explicit load shedding — never into silent
overcommit.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Optional

from .errors import BudgetExhaustedError

__all__ = ["BudgetLease", "BudgetScheduler"]


class BudgetLease:
    """One request's slice of the shared pool; release exactly once.

    ``rows`` is the granted engine budget (``None`` when the scheduler
    is unlimited and the request asked for nothing — the worker then
    runs the session's default, unbudgeted plan).  Leases are context
    managers; releasing twice is a no-op.
    """

    __slots__ = ("rows", "_scheduler", "_released")

    def __init__(self, rows: Optional[int], scheduler: "BudgetScheduler"):
        self.rows = rows
        self._scheduler = scheduler
        self._released = False

    @property
    def released(self) -> bool:
        """Whether this lease has already been returned to the pool."""
        return self._released

    def release(self) -> None:
        """Return the leased rows to the pool (idempotent)."""
        if not self._released:
            self._released = True
            self._scheduler._release(self)

    def __enter__(self) -> "BudgetLease":
        return self

    def __exit__(self, *_exc_info) -> None:
        self.release()


class BudgetScheduler:
    """Grants bounded row leases from one pool shared by every session.

    ``total_rows`` is the pool (``None`` = unlimited: every acquire is
    granted immediately and only accounted).  ``default_request_rows``
    is the slice granted to requests that do not name a budget; with a
    finite pool and no explicit default it becomes a quarter of the pool,
    so at least four default requests can hold leases concurrently.
    ``max_wait_seconds`` bounds how long an acquire may queue before the
    typed rejection.

    The scheduler belongs to one event loop, the front's: :meth:`acquire`
    is awaited there and leases are released there, so it takes no lock.
    A waiter awaits a future that the next returned lease resolves.
    """

    def __init__(
        self,
        total_rows: Optional[int] = None,
        default_request_rows: Optional[int] = None,
        max_wait_seconds: float = 1.0,
    ):
        if total_rows is not None and total_rows <= 0:
            raise ValueError(f"total_rows must be positive, got {total_rows}")
        if default_request_rows is not None and default_request_rows <= 0:
            raise ValueError(
                f"default_request_rows must be positive, got {default_request_rows}"
            )
        if total_rows is not None and default_request_rows is None:
            default_request_rows = max(1, total_rows // 4)
        if (
            total_rows is not None
            and default_request_rows is not None
            and default_request_rows > total_rows
        ):
            raise ValueError(
                f"default_request_rows ({default_request_rows}) exceeds the "
                f"pool ({total_rows})"
            )
        self.total_rows = total_rows
        self.default_request_rows = default_request_rows
        self.max_wait_seconds = max_wait_seconds
        self._waiters: List[asyncio.Future] = []
        self._leased = 0
        self._active = 0
        self._counters = {
            "grants": 0,
            "waits": 0,
            "rejections": 0,
            "peak_leased_rows": 0,
            "peak_active": 0,
        }

    # -- leasing --------------------------------------------------------

    async def acquire(
        self, rows: Optional[int] = None, timeout: Optional[float] = None
    ) -> BudgetLease:
        """Lease ``rows`` (or the default slice) from the pool.

        Waits up to ``timeout`` (default ``max_wait_seconds``) for the
        pool to drain, then raises :class:`BudgetExhaustedError`.  A
        request asking for more than the whole pool is rejected
        immediately — no amount of waiting can satisfy it.
        """
        if rows is not None and rows <= 0:
            raise ValueError(f"leased rows must be positive, got {rows}")
        granted = rows if rows is not None else self.default_request_rows
        if self.total_rows is not None:  # a finite pool always has a default
            if granted > self.total_rows:
                self._counters["rejections"] += 1
                raise BudgetExhaustedError(
                    f"requested budget of {granted} rows exceeds the shared "
                    f"pool of {self.total_rows} rows"
                )
            if self._leased + granted > self.total_rows:
                self._counters["waits"] += 1
                wait = timeout if timeout is not None else self.max_wait_seconds
                loop = asyncio.get_running_loop()
                deadline = loop.time() + wait
                # The last check and the grant below run with no await
                # between them: every waiter a release wakes re-checks here.
                while self._leased + granted > self.total_rows:
                    waiter = loop.create_future()
                    self._waiters.append(waiter)
                    try:
                        await asyncio.wait_for(waiter, deadline - loop.time())
                    except asyncio.TimeoutError:
                        self._counters["rejections"] += 1
                        raise BudgetExhaustedError(
                            f"no {granted}-row lease available within {wait}s "
                            f"({self._leased}/{self.total_rows} rows leased to "
                            f"{self._active} request(s))"
                        ) from None
        self._note_grant(granted)
        return BudgetLease(granted, self)

    def _note_grant(self, granted: Optional[int]) -> None:
        self._leased += granted or 0
        self._active += 1
        self._counters["grants"] += 1
        self._counters["peak_leased_rows"] = max(
            self._counters["peak_leased_rows"], self._leased
        )
        self._counters["peak_active"] = max(
            self._counters["peak_active"], self._active
        )

    def _release(self, lease: BudgetLease) -> None:
        self._leased -= lease.rows or 0
        self._active -= 1
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            if not waiter.done():  # a waiter past its deadline is cancelled
                waiter.set_result(None)

    # -- introspection --------------------------------------------------

    def stats(self) -> Dict[str, Optional[int]]:
        """A snapshot: pool size, leased/active now, grant/wait/rejection totals."""
        snapshot: Dict[str, Optional[int]] = dict(self._counters)
        snapshot["total_rows"] = self.total_rows
        snapshot["default_request_rows"] = self.default_request_rows
        snapshot["leased_rows"] = self._leased
        snapshot["active_leases"] = self._active
        return snapshot
