"""Hand-rolled HTTP/1.1 over :mod:`asyncio` streams (no runtime deps).

The serving front end speaks just enough HTTP for an operations stack:
request-line + headers + optional ``Content-Length`` body in, status
line + headers + body out, one request per connection
(``Connection: close``, half-closed once the response is written).  No
chunked encoding, no pipelining, no TLS — those belong to the load
balancer in front of this process.

Every parse failure or limit violation raises a typed
:class:`~repro.exceptions.ProtocolError` carrying the HTTP status the
handler should answer with; a garbage or hostile client therefore
costs one 4xx response, never a stack trace or a stuck worker.  The
limits are deliberately small for a JSON query API: 8 KiB request
line, 100 headers of 8 KiB each, 1 MiB body.

The module also carries the *worker pipe* framing used by the
multi-process supervisor (``repro.serve.supervisor`` on one end,
``repro.serve.worker`` on the other): length-prefixed JSON objects —
a big-endian ``u32`` byte count followed by a compact UTF-8 JSON
body.  The supervisor reads frames asynchronously off the worker's
stdout (:func:`read_frame_async`); the worker reads them with plain
blocking I/O off its stdin (:func:`read_frame`), which keeps the
child side a simple synchronous loop.  A short read at a frame
boundary is a clean EOF (``None``); a short read *inside* a frame or
an oversized/garbage frame raises :class:`ProtocolError` — a corrupt
pipe is a dead worker, never a misparsed request.
"""

from __future__ import annotations

import json
import struct
from asyncio import IncompleteReadError, StreamReader, StreamWriter
from dataclasses import dataclass, field
from typing import Any, BinaryIO, Mapping
from urllib.parse import parse_qsl, urlsplit

from repro.exceptions import ProtocolError

__all__ = [
    "HttpRequest",
    "HttpResponse",
    "MAX_FRAME_BYTES",
    "STATUS_REASONS",
    "encode_frame",
    "json_response",
    "read_frame",
    "read_frame_async",
    "read_request",
    "write_response",
]

MAX_REQUEST_LINE = 8 * 1024
MAX_HEADER_COUNT = 100
MAX_HEADER_LINE = 8 * 1024
MAX_BODY_BYTES = 1024 * 1024

STATUS_REASONS: "dict[int, str]" = {
    200: "OK",
    206: "Partial Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

_SUPPORTED_METHODS = ("GET", "POST", "HEAD")


@dataclass
class HttpRequest:
    """One parsed request: method, split target, headers, raw body."""

    method: str
    path: str
    query: "dict[str, str]"
    headers: "dict[str, str]"  # keys lower-cased
    body: bytes = b""

    def header(self, name: str, default: str = "") -> str:
        return self.headers.get(name.lower(), default)

    def json(self) -> "dict[str, Any]":
        """The body decoded as a JSON object (400 on anything else)."""
        if not self.body:
            raise ProtocolError("empty body where a JSON object was expected")
        try:
            payload = json.loads(self.body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as error:
            raise ProtocolError(f"body is not valid JSON: {error}") from None
        if not isinstance(payload, dict):
            raise ProtocolError(
                f"body must be a JSON object, got {type(payload).__name__}"
            )
        return payload


@dataclass
class HttpResponse:
    """One response: status, extra headers, body bytes."""

    status: int
    body: bytes = b""
    content_type: str = "application/json"
    headers: "dict[str, str]" = field(default_factory=dict)

    @property
    def reason(self) -> str:
        return STATUS_REASONS.get(self.status, "Unknown")

    def encode(self) -> bytes:
        """The full wire form (status line, headers, body)."""
        lines = [
            f"HTTP/1.1 {self.status} {self.reason}",
            f"Content-Type: {self.content_type}",
            f"Content-Length: {len(self.body)}",
            "Connection: close",
        ]
        lines.extend(f"{name}: {value}" for name, value in self.headers.items())
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")
        return head + self.body


def json_response(
    status: int,
    payload: "Mapping[str, Any]",
    *,
    headers: "dict[str, str] | None" = None,
) -> HttpResponse:
    """An :class:`HttpResponse` with a JSON body."""
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    return HttpResponse(status=status, body=body, headers=dict(headers or {}))


async def _read_line(reader: StreamReader, limit: int, what: str) -> bytes:
    """One CRLF-terminated line, bounded by *limit* bytes."""
    try:
        line = await reader.readuntil(b"\n")
    except Exception as error:  # IncompleteReadError, LimitOverrunError
        raise ProtocolError(f"connection ended mid-{what}: {error}") from None
    if len(line) > limit:
        raise ProtocolError(f"{what} exceeds {limit} bytes")
    return line.rstrip(b"\r\n")


async def read_request(reader: StreamReader) -> HttpRequest:
    """Parse one request off *reader*; raises :class:`ProtocolError`.

    The attached ``status`` attribute on the raised error names the
    4xx the handler should answer with (400 by default).
    """
    raw_line = await _read_line(reader, MAX_REQUEST_LINE, "request line")
    try:
        line = raw_line.decode("ascii")
    except UnicodeDecodeError:
        raise _protocol_error("request line is not ASCII", 400) from None
    parts = line.split(" ")
    if len(parts) != 3:
        raise _protocol_error(f"malformed request line {line!r}", 400)
    method, target, version = parts
    if not version.startswith("HTTP/1."):
        raise _protocol_error(f"unsupported HTTP version {version!r}", 400)
    if method not in _SUPPORTED_METHODS:
        raise _protocol_error(f"unsupported method {method!r}", 405)

    headers: "dict[str, str]" = {}
    while True:
        raw_header = await _read_line(reader, MAX_HEADER_LINE, "header")
        if not raw_header:
            break
        if len(headers) >= MAX_HEADER_COUNT:
            raise _protocol_error("too many headers", 431)
        name, sep, value = raw_header.decode("latin-1").partition(":")
        if not sep or not name.strip():
            raise _protocol_error(f"malformed header {raw_header!r}", 400)
        headers[name.strip().lower()] = value.strip()

    body = b""
    length_header = headers.get("content-length")
    if length_header is not None:
        try:
            length = int(length_header)
        except ValueError:
            raise _protocol_error(
                f"malformed Content-Length {length_header!r}", 400
            ) from None
        if length < 0:
            raise _protocol_error("negative Content-Length", 400)
        if length > MAX_BODY_BYTES:
            raise _protocol_error(
                f"body of {length} bytes exceeds the {MAX_BODY_BYTES} limit", 413
            )
        if length:
            try:
                body = await reader.readexactly(length)
            except Exception as error:
                raise _protocol_error(
                    f"connection ended mid-body: {error}", 400
                ) from None

    split = urlsplit(target)
    query = dict(parse_qsl(split.query, keep_blank_values=True))
    return HttpRequest(
        method=method,
        path=split.path or "/",
        query=query,
        headers=headers,
        body=body,
    )


def _protocol_error(message: str, status: int) -> ProtocolError:
    error = ProtocolError(message)
    error.status = status  # type: ignore[attr-defined]
    return error


async def write_response(writer: StreamWriter, response: HttpResponse) -> None:
    """Send *response*, drain, and half-close; closing is the caller's.

    The half-close (``write_eof``) hands a ``Connection: close`` client
    its EOF now.  The close itself lands only on a later loop turn,
    after whatever query attempt the loop runs next.  A peer that
    already reset can make the half-close raise :class:`OSError`.
    """
    writer.write(response.encode())
    await writer.drain()
    if writer.can_write_eof():
        writer.write_eof()


# --------------------------------------------------------------------------
# Worker pipe framing (supervisor <-> worker).

_FRAME_HEADER = struct.Struct(">I")

MAX_FRAME_BYTES = 8 * 1024 * 1024


def encode_frame(payload: "Mapping[str, Any]") -> bytes:
    """*payload* as one length-prefixed JSON frame (wire bytes)."""
    body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(body)} bytes exceeds the {MAX_FRAME_BYTES} limit"
        )
    return _FRAME_HEADER.pack(len(body)) + body


def _decode_frame_body(body: bytes) -> "dict[str, Any]":
    try:
        payload = json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as error:
        raise ProtocolError(f"frame body is not valid JSON: {error}") from None
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"frame must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def _frame_length(header: bytes) -> int:
    (length,) = _FRAME_HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES} limit"
        )
    return int(length)


def read_frame(stream: "BinaryIO") -> "dict[str, Any] | None":
    """One frame off a blocking byte *stream* (worker side).

    Returns ``None`` on a clean EOF at a frame boundary; raises
    :class:`ProtocolError` on a torn or oversized frame.
    """
    header = stream.read(_FRAME_HEADER.size)
    if not header:
        return None
    if len(header) < _FRAME_HEADER.size:
        raise ProtocolError("pipe ended mid-frame-header")
    length = _frame_length(header)
    body = stream.read(length)
    if body is None or len(body) < length:
        raise ProtocolError("pipe ended mid-frame")
    return _decode_frame_body(body)


async def read_frame_async(reader: StreamReader) -> "dict[str, Any] | None":
    """One frame off an asyncio *reader* (supervisor side).

    Same contract as :func:`read_frame`: ``None`` on clean EOF,
    :class:`ProtocolError` on a torn frame.
    """
    try:
        header = await reader.readexactly(_FRAME_HEADER.size)
    except IncompleteReadError as error:
        if not error.partial:
            return None
        raise ProtocolError("pipe ended mid-frame-header") from None
    length = _frame_length(header)
    try:
        body = await reader.readexactly(length)
    except IncompleteReadError:
        raise ProtocolError("pipe ended mid-frame") from None
    return _decode_frame_body(body)
