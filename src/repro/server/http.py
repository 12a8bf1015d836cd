"""A minimal HTTP/1.1 layer over :mod:`asyncio` streams.

The serving tier speaks just enough HTTP for its four routes: request
line + headers + ``Content-Length`` bodies in, status + headers + body
out, with keep-alive so a load-generator client can reuse one
connection across its whole run.  No chunked transfer, no TLS, no
multipart — the stdlib-only constraint rules out an ASGI server, and
the protocol surface a benchmark client and a Prometheus scraper need
is exactly this small.

Limits are explicit rather than implicit: an oversized request line,
header block, or body fails the *connection* with a typed 400/413
before any engine work is reachable, which keeps the front's admission
control the only queue in the system.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

__all__ = ["HttpError", "HttpRequest", "json_body", "read_request", "write_response"]

#: Hard caps on the inbound protocol surface.
MAX_REQUEST_LINE = 8192
MAX_HEADER_BYTES = 32768
MAX_BODY_BYTES = 1 << 20

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class HttpError(Exception):
    """A protocol-level failure with the status the connection answers."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


@dataclass
class HttpRequest:
    """One parsed request: method, path, headers, raw body."""

    method: str
    path: str
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def keep_alive(self) -> bool:
        """HTTP/1.1 default keep-alive unless the client opts out."""
        return self.headers.get("connection", "").lower() != "close"

    def json(self) -> Dict[str, Any]:
        """The body decoded as a JSON object (400 on anything else)."""
        if not self.body:
            return {}
        try:
            decoded = json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as error:
            raise HttpError(400, f"request body is not valid JSON: {error}")
        if not isinstance(decoded, dict):
            raise HttpError(400, "request body must be a JSON object")
        return decoded


async def _readline(reader: asyncio.StreamReader, what: str) -> bytes:
    """One line off ``reader``; a 400 for a line past the stream's own limit.

    ``readline`` raises ``ValueError`` there (64 KiB by default), after
    dropping the line from its buffer.
    """
    try:
        return await reader.readline()
    except ValueError:
        raise HttpError(400, f"{what} too long") from None


async def read_request(reader: asyncio.StreamReader) -> Optional[HttpRequest]:
    """Parse one request off ``reader``; ``None`` when the peer closed.

    Raises :class:`HttpError` for malformed or oversized input — the
    handler answers with that status and closes the connection.
    """
    try:
        line = await _readline(reader, "request line")
    except ConnectionResetError:
        return None
    if not line:
        return None
    if len(line) > MAX_REQUEST_LINE:
        raise HttpError(400, "request line too long")
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3:
        raise HttpError(400, f"malformed request line: {line!r}")
    method, target, version = parts
    if not version.startswith("HTTP/1."):
        raise HttpError(400, f"unsupported protocol {version}")

    headers: Dict[str, str] = {}
    header_bytes = 0
    while True:
        raw = await _readline(reader, "header line")
        if not raw or raw in (b"\r\n", b"\n"):
            break
        header_bytes += len(raw)
        if header_bytes > MAX_HEADER_BYTES:
            raise HttpError(400, "header block too large")
        name, sep, value = raw.decode("latin-1").partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line: {raw!r}")
        headers[name.strip().lower()] = value.strip()

    body = b""
    length_header = headers.get("content-length")
    if length_header is not None:
        try:
            length = int(length_header)
        except ValueError:
            raise HttpError(400, f"bad Content-Length: {length_header!r}")
        if length < 0:
            raise HttpError(400, f"bad Content-Length: {length_header!r}")
        if length > MAX_BODY_BYTES:
            raise HttpError(413, f"body of {length} bytes exceeds {MAX_BODY_BYTES}")
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                return None
    return HttpRequest(method=method, path=target, headers=headers, body=body)


def render_response(
    status: int,
    body: bytes,
    content_type: str = "application/json",
    keep_alive: bool = True,
    extra_headers: Optional[Dict[str, str]] = None,
) -> bytes:
    """Serialise one response to wire bytes."""
    reason = _REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + body


async def write_response(
    writer: asyncio.StreamWriter,
    status: int,
    body: bytes,
    content_type: str = "application/json",
    keep_alive: bool = True,
) -> None:
    """Write one response and flush it."""
    writer.write(render_response(status, body, content_type, keep_alive))
    await writer.drain()


def json_body(value: Dict[str, Any]) -> bytes:
    """A JSON response body: sorted keys, ``str()`` of any other value."""
    return json.dumps(value, sort_keys=True, default=str).encode("utf-8")


def split_target(target: str) -> Tuple[str, str]:
    """Split a request target into (path, raw query string)."""
    path, _sep, query = target.partition("?")
    return path, query
