"""A tiny hand-rolled HTTP/1.1 layer over :mod:`asyncio` streams.

The serving tier deliberately avoids a web framework: the container has
no HTTP dependencies and the server speaks a six-route JSON protocol,
so the whole wire layer fits in request parsing + response rendering
over ``asyncio.StreamReader``/``StreamWriter``.  Supported surface:

* request line + headers + ``Content-Length`` bodies (no chunked
  transfer encoding — the JSON protocol never needs it);
* ``keep-alive`` connection reuse (HTTP/1.1 default; ``Connection:
  close`` honoured both ways);
* bounded request sizes: header lines are capped by the stream reader's
  limit and bodies by ``max_body_bytes`` (413 on overflow);
* bounded read time: a request must arrive whole within
  :data:`REQUEST_TIMEOUT_SECONDS` of its first byte, and a kept-alive
  connection may wait :data:`IDLE_TIMEOUT_SECONDS` for its next request;
* bounded connections: a server holds at most :data:`MAX_CONNECTIONS`
  open at once.

Malformed input raises :class:`ProtocolError` carrying the HTTP status
the connection handler should answer with before closing.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qsl, urlsplit

from ..exceptions import ServerError

#: Upper bound on request bodies accepted by :func:`read_request`
#: unless the caller overrides it — large enough for batch adds of
#: long series, small enough to bound a misbehaving client.
DEFAULT_MAX_BODY_BYTES = 16 * 1024 * 1024

#: StreamReader line limit: bounds the request line and each header.
MAX_LINE_BYTES = 16 * 1024

#: Cap on the number of request headers (header-flood guard).
MAX_HEADERS = 64

#: Seconds from a request's first byte to the last byte of its body.
#: A client that trickles or stalls mid-request is cut off here.
REQUEST_TIMEOUT_SECONDS = 30.0

#: Seconds a kept-alive connection may wait for its next request.  Long
#: enough that a pooled client connection stays open between ops.
IDLE_TIMEOUT_SECONDS = 75.0

#: Open connections a server holds at once.  Each holds a task and its
#: buffers until a timeout above closes it; a connection past the cap is
#: answered 503 with ``Connection: close`` and closed at once.
MAX_CONNECTIONS = 256

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

JSON_CONTENT_TYPE = "application/json; charset=utf-8"

#: Prometheus text exposition format 0.0.4 — the content type scrapers
#: negotiate; ``/metrics`` responses carry it verbatim.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class ProtocolError(ServerError):
    """A request violated the HTTP subset this server speaks.

    ``status`` is the HTTP status code the connection handler answers
    with before closing the connection.
    """

    def __init__(self, message: str, *, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


@dataclass
class HTTPRequest:
    """One parsed request: method, split path/query, headers, raw body."""

    method: str
    path: str
    query: Dict[str, str]
    headers: Dict[str, str]
    body: bytes

    @property
    def keep_alive(self) -> bool:
        """Whether the client asked to reuse the connection."""
        return self.headers.get("connection", "keep-alive").lower() != "close"

    def json(self) -> dict:
        """The body decoded as a JSON object (400 on anything else)."""
        if not self.body:
            raise ProtocolError("request body is empty; expected JSON")
        try:
            payload = json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(f"request body is not valid JSON: {exc}") \
                from exc
        if not isinstance(payload, dict):
            raise ProtocolError(
                f"request body must be a JSON object, got "
                f"{type(payload).__name__}"
            )
        return payload


@dataclass
class HTTPResponse:
    """One response: status, body bytes and content type."""

    status: int
    body: bytes
    content_type: str = JSON_CONTENT_TYPE
    headers: Dict[str, str] = field(default_factory=dict)

    @classmethod
    def from_json(cls, status: int, payload: object,
                  **headers: str) -> "HTTPResponse":
        body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        return cls(status, body, JSON_CONTENT_TYPE, dict(headers))

    @classmethod
    def error(cls, status: int, error_type: str,
              message: str, **headers: str) -> "HTTPResponse":
        """The error payload contract: ``{"error": {"type", "message"}}``."""
        return cls.from_json(
            status,
            {"error": {"type": error_type, "message": message,
                       "status": status}},
            **headers,
        )


async def _read_line(reader: asyncio.StreamReader, prefix: bytes = b"") -> bytes:
    try:
        line = prefix + await reader.readline()
    except (asyncio.LimitOverrunError, ValueError) as exc:
        raise ProtocolError(
            f"request line or header exceeds {MAX_LINE_BYTES} bytes",
            status=400,
        ) from exc
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(
            f"request line or header exceeds {MAX_LINE_BYTES} bytes",
            status=400,
        )
    return line


async def read_request(
    reader: asyncio.StreamReader,
    *,
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
) -> Optional[HTTPRequest]:
    """Parse one request off *reader*.

    Returns ``None`` on a clean EOF before any bytes (client closed a
    kept-alive connection) and raises :class:`ProtocolError` on input
    that is not the HTTP subset this server speaks.  Raises
    :class:`asyncio.TimeoutError` when no request starts within
    :data:`IDLE_TIMEOUT_SECONDS`, or when the request started but is not
    complete :data:`REQUEST_TIMEOUT_SECONDS` after its first byte.
    """
    try:
        first = await asyncio.wait_for(
            reader.readexactly(1), IDLE_TIMEOUT_SECONDS
        )
    except asyncio.IncompleteReadError:
        return None
    return await asyncio.wait_for(
        _read_started_request(reader, first, max_body_bytes),
        REQUEST_TIMEOUT_SECONDS,
    )


async def _read_started_request(
    reader: asyncio.StreamReader, first: bytes, max_body_bytes: int
) -> HTTPRequest:
    line = await _read_line(reader, first)
    try:
        method, target, http_version = line.decode("ascii").split()
    except (UnicodeDecodeError, ValueError):
        raise ProtocolError(f"malformed request line {line[:80]!r}") from None
    if not http_version.startswith("HTTP/1."):
        raise ProtocolError(f"unsupported protocol {http_version!r}")

    headers: Dict[str, str] = {}
    while True:
        raw = await _read_line(reader)
        if raw in (b"\r\n", b"\n"):
            break
        if not raw:
            raise ProtocolError("connection closed mid-headers")
        if len(headers) >= MAX_HEADERS:
            raise ProtocolError(f"more than {MAX_HEADERS} request headers")
        try:
            name, sep, value = raw.decode("ascii").partition(":")
        except UnicodeDecodeError:
            raise ProtocolError("non-ASCII bytes in request headers") \
                from None
        if not sep or not name.strip():
            raise ProtocolError(f"malformed header line {raw[:80]!r}")
        headers[name.strip().lower()] = value.strip()

    body = b""
    length_header = headers.get("content-length")
    if length_header is not None:
        try:
            length = int(length_header)
        except ValueError:
            raise ProtocolError(
                f"malformed Content-Length {length_header!r}"
            ) from None
        if length < 0:
            raise ProtocolError(f"negative Content-Length {length}")
        if length > max_body_bytes:
            raise ProtocolError(
                f"request body of {length} bytes exceeds the "
                f"{max_body_bytes}-byte limit",
                status=413,
            )
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise ProtocolError("connection closed mid-body") from exc
    elif "transfer-encoding" in headers:
        raise ProtocolError(
            "chunked transfer encoding is not supported; send "
            "Content-Length"
        )

    parts = urlsplit(target)
    query = dict(parse_qsl(parts.query, keep_blank_values=True))
    return HTTPRequest(
        method=method.upper(),
        path=parts.path or "/",
        query=query,
        headers=headers,
        body=body,
    )


def render_response(response: HTTPResponse, *, keep_alive: bool) -> bytes:
    """Serialize *response* as HTTP/1.1 bytes ready for the transport."""
    reason = _REASONS.get(response.status, "Unknown")
    lines = [
        f"HTTP/1.1 {response.status} {reason}",
        f"Content-Type: {response.content_type}",
        f"Content-Length: {len(response.body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in response.headers.items():
        lines.append(f"{name}: {value}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")
    return head + response.body


def format_address(host: str, port: int) -> str:
    """``host:port`` with IPv6 hosts bracketed."""
    if ":" in host:
        return f"[{host}]:{port}"
    return f"{host}:{port}"


def parse_url(url: str) -> Tuple[str, int]:
    """``(host, port)`` from an ``http://host:port`` server URL."""
    parts = urlsplit(url if "//" in url else f"//{url}", scheme="http")
    if parts.scheme != "http":
        raise ServerError(
            f"unsupported URL scheme {parts.scheme!r} in {url!r}; the "
            f"serving tier speaks plain http"
        )
    if not parts.hostname:
        raise ServerError(f"no host in server URL {url!r}")
    return parts.hostname, parts.port if parts.port is not None else 80


__all__ = [
    "DEFAULT_MAX_BODY_BYTES",
    "HTTPRequest",
    "HTTPResponse",
    "IDLE_TIMEOUT_SECONDS",
    "MAX_CONNECTIONS",
    "JSON_CONTENT_TYPE",
    "PROMETHEUS_CONTENT_TYPE",
    "ProtocolError",
    "REQUEST_TIMEOUT_SECONDS",
    "format_address",
    "parse_url",
    "read_request",
    "render_response",
]
