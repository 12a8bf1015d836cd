"""Exceptions raised by the :mod:`repro.server` serving tier.

The tier keeps the facade's discipline: every failure mode a client can
hit maps to a *typed* error with an HTTP status, so load shedding and
crashes are observable protocol outcomes rather than hung connections or
untyped 500s.  The lower layers' exceptions (``SessionError``,
``ExpressionError``) cross the wire by class name in the JSON error
body; the classes here add only what belongs to the *server's* contract
— admission, budget leasing, worker lifecycle.
"""

from __future__ import annotations

__all__ = [
    "BadRequestError",
    "BudgetExhaustedError",
    "RequestTimeoutError",
    "ServerClosedError",
    "ServerError",
    "ServerOverloadedError",
    "WorkerCrashedError",
]


class ServerError(Exception):
    """A violation of the serving tier's contract."""

    #: HTTP status the front maps this class to.
    status = 500


class BadRequestError(ServerError):
    """The request body or parameters are malformed (HTTP 400)."""

    status = 400


class ServerOverloadedError(ServerError):
    """Admission control rejected the request: the queue is full (HTTP 503)."""

    status = 503


class BudgetExhaustedError(ServerOverloadedError):
    """The shared memory-budget pool could not grant the lease in time (HTTP 503)."""

    status = 503


class WorkerCrashedError(ServerError):
    """A worker process died while serving the request (HTTP 500)."""

    status = 500


class RequestTimeoutError(ServerError):
    """The worker did not answer an in-flight request id in time (HTTP 504).

    The pipe stays healthy: the late response for that id is discarded on
    arrival and the request's budget lease is released now.  The worker
    may still be computing; until it answers, the id counts in its
    in-flight load, so the pool routes other requests around it.
    """

    status = 504


class ServerClosedError(ServerError):
    """The server (or its worker pool) was stopped; no further requests serve."""

    status = 503
