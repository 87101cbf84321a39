"""The hand-rolled HTTP layer: parsing, limits, typed 4xx rejection."""

from __future__ import annotations

import asyncio
import errno

import pytest

from repro.exceptions import ProtocolError, ReproError, ServeError
from repro.serve.protocol import (
    MAX_BODY_BYTES,
    HttpRequest,
    HttpResponse,
    json_response,
    read_request,
    write_response,
)


def _parse(raw: bytes) -> HttpRequest:
    async def go() -> HttpRequest:
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader)

    return asyncio.run(go())


def _parse_error(raw: bytes) -> ProtocolError:
    with pytest.raises(ProtocolError) as excinfo:
        _parse(raw)
    return excinfo.value


class TestRequestParsing:
    def test_get_with_query_string(self):
        request = _parse(b"GET /metrics?verbose=1 HTTP/1.1\r\nHost: x\r\n\r\n")
        assert request.method == "GET"
        assert request.path == "/metrics"
        assert request.query == {"verbose": "1"}
        assert request.header("host") == "x"
        assert request.header("HOST") == "x"  # lookup is case-insensitive
        assert request.body == b""

    def test_post_with_body(self):
        request = _parse(
            b"POST /query HTTP/1.1\r\nContent-Length: 9\r\n\r\n"
            b'{"k": 3}\n'
        )
        assert request.method == "POST"
        assert request.body == b'{"k": 3}\n'
        assert request.json() == {"k": 3}

    def test_json_rejects_non_object_and_garbage(self):
        request = _parse(
            b"POST / HTTP/1.1\r\nContent-Length: 7\r\n\r\n[1,2,3]"
        )
        with pytest.raises(ProtocolError, match="object"):
            request.json()
        request = _parse(b"POST / HTTP/1.1\r\nContent-Length: 4\r\n\r\n{{{{")
        with pytest.raises(ProtocolError, match="JSON"):
            request.json()
        empty = _parse(b"POST / HTTP/1.1\r\n\r\n")
        with pytest.raises(ProtocolError, match="empty"):
            empty.json()

    def test_malformed_request_line(self):
        error = _parse_error(b"GETHTTP/1.1\r\n\r\n")
        assert getattr(error, "status", 400) == 400

    def test_unsupported_method_is_405(self):
        error = _parse_error(b"DELETE / HTTP/1.1\r\n\r\n")
        assert error.status == 405  # type: ignore[attr-defined]

    def test_unsupported_version_rejected(self):
        _parse_error(b"GET / SPDY/9\r\n\r\n")

    def test_oversized_body_is_413(self):
        error = _parse_error(
            f"POST / HTTP/1.1\r\nContent-Length: {MAX_BODY_BYTES + 1}\r\n\r\n".encode()
        )
        assert error.status == 413  # type: ignore[attr-defined]

    def test_too_many_headers_is_431(self):
        headers = "".join(f"h{i}: v\r\n" for i in range(200))
        error = _parse_error(
            f"GET / HTTP/1.1\r\n{headers}\r\n".encode()
        )
        assert error.status == 431  # type: ignore[attr-defined]

    def test_negative_and_malformed_content_length(self):
        _parse_error(b"POST / HTTP/1.1\r\nContent-Length: -4\r\n\r\n")
        _parse_error(b"POST / HTTP/1.1\r\nContent-Length: ten\r\n\r\n")

    def test_truncated_body_rejected(self):
        _parse_error(b"POST / HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort")

    def test_protocol_error_is_typed(self):
        # The serve exception family hangs off ReproError so callers
        # catching the library root see protocol failures too.
        assert issubclass(ProtocolError, ServeError)
        assert issubclass(ServeError, ReproError)


class TestResponseEncoding:
    def test_encode_roundtrip_headers(self):
        response = json_response(
            429, {"error": "shed"}, headers={"Retry-After": "0.5"}
        )
        wire = response.encode().decode("latin-1")
        head, _, body = wire.partition("\r\n\r\n")
        assert head.startswith("HTTP/1.1 429 Too Many Requests")
        assert "Retry-After: 0.5" in head
        assert "Connection: close" in head
        assert f"Content-Length: {len(body.encode())}" in head
        assert '"error": "shed"' in body

    def test_unknown_status_still_encodes(self):
        assert b"HTTP/1.1 299 Unknown" in HttpResponse(status=299).encode()


class TestHalfClose:
    def test_client_reads_to_eof_while_the_server_holds_the_close(self):
        response = json_response(200, {"status": "ok", "pad": "x" * 4096})

        async def go() -> bytes:
            release = asyncio.Event()

            async def serve_one(reader, writer):
                await write_response(writer, response)
                await release.wait()  # the close waits for the client
                writer.close()
                await writer.wait_closed()

            server = await asyncio.start_server(serve_one, "127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            reader, writer = await asyncio.open_connection(host, port)
            try:
                return await asyncio.wait_for(reader.read(), timeout=2.0)
            finally:
                release.set()
                writer.close()
                await writer.wait_closed()
                server.close()
                await server.wait_closed()

        assert asyncio.run(go()) == response.encode()

    def test_a_peer_reset_before_the_half_close_ends_the_connection_cleanly(
        self,
    ):
        from repro.serve.app import ServeApp

        class ResetPeer:
            """A writer whose peer reset once the response was sent."""

            sent = b""
            half_closed = closed = False

            def write(self, data: bytes) -> None:
                self.sent += data

            async def drain(self) -> None:
                pass

            def can_write_eof(self) -> bool:
                return True

            def write_eof(self) -> None:
                self.half_closed = True
                raise OSError(errno.ENOTCONN, "Transport endpoint is not connected")

            def close(self) -> None:
                self.closed = True

            async def wait_closed(self) -> None:
                pass

        app = ServeApp()
        peer = ResetPeer()

        async def go() -> None:
            reader = asyncio.StreamReader()
            reader.feed_data(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            reader.feed_eof()
            await app.handle_connection(reader, peer)  # type: ignore[arg-type]

        try:
            asyncio.run(go())
        finally:
            app.close(drain_s=0.0)
        assert peer.sent.startswith(b"HTTP/1.1 200 OK")
        assert peer.half_closed and peer.closed
