"""One supervised serving worker (``python -m repro.serve.worker``).

The multi-process front end (:mod:`repro.serve.supervisor`) forks N of
these as child processes.  Each worker builds a full private
:class:`~repro.serve.app.ServeApp` — budgets, breakers, retries and
206-shaping all behave exactly as in the single-process server, which
is what makes the chaos suite's bitwise-baseline comparison possible —
and then serves length-prefixed JSON frames
(:func:`repro.serve.protocol.read_frame`) off its **stdin**, answering
on its **stdout**.  stderr passes through to the supervisor for
operator logs.

The child side is deliberately a plain synchronous loop: the
supervisor dispatches at most one request at a time per worker (the
pipe is the queue), so there is nothing to overlap and nothing for the
async-blocking lint rules to police.  Each request frame is executed
by driving the app's own async ``handle`` on a private event loop, and
the query attempt or mutation it admits runs right there, on the
thread that read the frame, under a copy of the request's context
(:class:`_FrameThreadApp`).  No executor thread is started: a hop to
one and back would only add latency to a worker that never has a
second request to run meanwhile.

Frame vocabulary (all objects carry the caller's ``id`` back):

- ``{"op": "ready"}`` — sent once by the worker after boot, carrying
  ``pid``, ``role``, per-index health and, for streaming indexes, the
  recovered ``last_seq`` high-water mark.  The supervisor uses the
  seq hint to decide, after a mutation-worker crash, whether the
  in-flight mutation became durable (re-ack) or not (resend) — see
  ``docs/serving.md``.
- ``{"op": "ping", "id": n}`` → ``{"op": "pong", "id": n}`` —
  heartbeat.
- ``{"op": "request", "id": n, "method", "path", "headers", "body"}``
  → ``{"op": "response", "id": n, "status", "content_type",
  "headers", "body"}`` — one HTTP exchange by proxy.
- ``{"op": "shutdown", "id": n}`` → ``{"op": "bye", "id": n}`` —
  graceful exit (drain is the supervisor's business; the worker is
  idle by construction when it reads a frame).

A ``mutation``-role worker opens its streaming directories with the
exclusive WAL owner lock (:mod:`repro.stream.wal`), so a respawned
worker can never race a wedged predecessor for the log.
"""

from __future__ import annotations

import asyncio
import contextvars
import json
import os
import sys
from typing import Any, BinaryIO, Callable, Mapping, Sequence, TypeVar

from repro import obs
from repro.exceptions import ProtocolError, ReproError
from repro.serve.admission import AdmissionController
from repro.serve.app import ServeApp
from repro.serve.protocol import (
    HttpRequest,
    encode_frame,
    json_response,
    read_frame,
)
from repro.serve.tenancy import TenantPolicy, default_classes

__all__ = ["build_worker_app", "main", "serve_frames"]

_T = TypeVar("_T")


class _FrameThreadApp(ServeApp):
    """A :class:`ServeApp` that runs each request on the calling thread.

    Budgets, deadlines and fault scopes still travel in a copy of the
    request's context, exactly as across the single-process server's
    executor hop; the executor itself is never used.
    """

    async def _run_sync(self, work: "Callable[[], _T]") -> "_T":
        return contextvars.copy_context().run(work)


def build_worker_app(config: "Mapping[str, Any]") -> ServeApp:
    """One :class:`ServeApp` from the supervisor's JSON worker config.

    Query workers get the (shared, read-only) snapshot shards; the
    mutation worker gets the streaming directories and takes the
    exclusive WAL owner lock on each.  Corruption quarantines exactly
    as in the single-process server — the worker still boots and
    reports the index unhealthy in its handshake.
    """
    exclusive = config.get("role") == "mutation"
    app = _FrameThreadApp(
        policy=TenantPolicy(
            default_classes(
                deadline_scale=float(config.get("deadline_scale", 1.0))
            )
        ),
        admission=AdmissionController(
            max_concurrency=int(config.get("max_concurrency", 2)),
            max_queue=int(config.get("max_queue", 8)),
        ),
        seed=int(config.get("seed", 0)),
    )
    for name, directory in dict(config.get("streams") or {}).items():
        state = app.load_stream(str(name), str(directory), exclusive=exclusive)
        if state.quarantined:
            print(
                f"worker {os.getpid()}: streaming index {name!r} quarantined: "
                f"{state.error}",
                file=sys.stderr,
            )
    for name, path in dict(config.get("snapshots") or {}).items():
        state = app.load_snapshot(str(name), str(path))
        if state.quarantined:
            print(
                f"worker {os.getpid()}: index {name!r} quarantined: "
                f"{state.error}",
                file=sys.stderr,
            )
    return app


def _handshake(app: ServeApp, role: str) -> "dict[str, Any]":
    indexes: "dict[str, Any]" = {}
    last_seq: "dict[str, int]" = {}
    for name, state in app.indexes.items():
        indexes[name] = {"healthy": state.healthy, "mutable": state.mutable}
        if state.stream is not None:
            last_seq[name] = state.stream.last_seq
    return {
        "op": "ready",
        "pid": os.getpid(),
        "role": role,
        "indexes": indexes,
        "last_seq": last_seq,
    }


def _send(stdout: "BinaryIO", payload: "Mapping[str, Any]") -> None:
    stdout.write(encode_frame(payload))
    stdout.flush()


def _serve_request(
    app: ServeApp,
    loop: "asyncio.AbstractEventLoop",
    frame: "Mapping[str, Any]",
) -> "dict[str, Any]":
    headers = {
        str(key).lower(): str(value)
        for key, value in dict(frame.get("headers") or {}).items()
    }
    request = HttpRequest(
        method=str(frame.get("method", "POST")),
        path=str(frame.get("path", "/query")),
        query={},
        headers=headers,
        body=str(frame.get("body", "")).encode("utf-8"),
    )
    try:
        response = loop.run_until_complete(app.handle(request))
    except ReproError as error:
        response = json_response(
            500, {"error": type(error).__name__, "message": str(error)}
        )
    return {
        "op": "response",
        "id": frame.get("id"),
        "status": response.status,
        "content_type": response.content_type,
        "headers": dict(response.headers),
        "body": response.body.decode("utf-8"),
    }


def serve_frames(
    app: ServeApp,
    loop: "asyncio.AbstractEventLoop",
    stdin: "BinaryIO",
    stdout: "BinaryIO",
    role: str,
) -> None:
    """The worker's whole life: handshake, then frames until EOF."""
    _send(stdout, _handshake(app, role))
    while True:
        try:
            frame = read_frame(stdin)
        except ProtocolError:
            # A torn frame means the supervisor died mid-write (or the
            # pipe is garbage); either way there is no one to answer.
            break
        if frame is None:
            break
        op = frame.get("op")
        if op == "ping":
            _send(
                stdout,
                {"op": "pong", "id": frame.get("id"), "pid": os.getpid()},
            )
        elif op == "request":
            _send(stdout, _serve_request(app, loop, frame))
        elif op == "shutdown":
            _send(stdout, {"op": "bye", "id": frame.get("id")})
            break
        else:
            _send(
                stdout,
                {
                    "op": "error",
                    "id": frame.get("id"),
                    "message": f"unknown op {op!r}",
                },
            )


def main(argv: "Sequence[str] | None" = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) != 1:
        print(
            "usage: python -m repro.serve.worker '<json config>'",
            file=sys.stderr,
        )
        return 2
    try:
        config = json.loads(args[0])
    except ValueError as error:
        print(f"worker: config is not valid JSON: {error}", file=sys.stderr)
        return 2
    if not isinstance(config, dict):
        print("worker: config must be a JSON object", file=sys.stderr)
        return 2
    role = str(config.get("role", "query"))
    obs.enable()
    try:
        app = build_worker_app(config)
    except ReproError as error:
        print(f"worker: boot failed: {error}", file=sys.stderr)
        return 1
    loop = asyncio.new_event_loop()
    try:
        serve_frames(app, loop, sys.stdin.buffer, sys.stdout.buffer, role)
    finally:
        loop.close()
        app.close()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised as a subprocess
    raise SystemExit(main())
