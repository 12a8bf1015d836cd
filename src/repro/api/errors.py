"""Exceptions raised by the :mod:`repro.api` facade.

The facade deliberately keeps the underlying layers' exceptions visible —
an :class:`~repro.expressions.ast.ExpressionError` from binding or parsing
propagates unchanged, because its message already names the operand and
scheme at fault.  The session adds only the failure modes that belong to
*its* contract: using a session after :meth:`~repro.api.session.Session.close`,
preparing against relations the session does not hold, or configuring a knob
outside its range.
"""

from __future__ import annotations

__all__ = ["SessionError", "SessionClosedError"]


class SessionError(Exception):
    """A violation of the session/prepared-query contract."""


class SessionClosedError(SessionError):
    """The session was closed; its prepared queries can no longer execute."""

