"""One supervised serving worker, forked from the booted supervisor.

The pooled server (:class:`repro.serve.supervisor.Supervisor`) forks N
of these as child processes (:func:`run_child`; there is no separate
worker command).  The supervisor has already parsed, routed, admitted,
breaker-checked and (if need be) retried each request, so a worker
does none of that: it reads one length-prefixed JSON frame
(:func:`repro.serve.protocol.read_frame`) off its **request pipe**,
runs one query attempt or one WAL append, and writes one frame back on
its **reply pipe**.  stderr is the supervisor's, for operator logs.

A forked child starts with a copy of the supervisor's memory: numpy,
the serving stack and the query code are already imported, so a worker
boots in milliseconds instead of re-importing them; what it inherited
stays frozen out of its collector (see ``supervisor._fork``), so those
pages stay shared.  Before it loads an index it drops what it must not
share with the front: the signal wakeup fd and handlers (a signal sent
to a worker must not drain the front), every inherited fd but 0-2 and
its own pipes (the listening socket, client connections, the event
loop's fds, and sibling workers' pipe ends, which would keep a sibling
alive after the front dies), and the obs registry (a worker counts
from zero).  It leaves only through :func:`os._exit`, never unwinding
into the front's frames, atexit handlers or stdio buffers.

A query attempt is the single-process server's own attempt body,
:func:`repro.serve.app.run_attempt` (mint the tenant's budget, the
``handler`` seam, ``_execute_query``, absorb ``ArithmeticError``), so a
pooled answer is bitwise the single-process one.  It runs right on the
thread that read the frame: the supervisor sends one frame at a time
per worker (the pipe is the queue), so there is nothing to overlap.

Frame vocabulary (every reply carries the request's ``id`` back):

- ``{"op": "ready"}`` — sent once after boot, carrying ``pid``,
  ``role``, per-index ``healthy``/``error``/``dimension`` and, for
  streaming indexes, the recovered ``last_seq`` high-water mark.  The
  supervisor uses the seq hint to decide, after a mutation-worker
  crash, whether the in-flight mutation became durable (re-ack) or not
  (resend) — see ``docs/serving.md``.
- ``{"op": "query", "tenant", "params"}`` → ``{"op": "answer",
  "value", "report", "size"}``: the outcome's
  :meth:`~repro.resilience.partial.PartialResult.to_dict` form
  (``report`` null for an unbudgeted answer) plus its length, or
  ``{"op": "error", "error": "validation", "message"}`` (a 400), or
  ``"error": "unavailable"`` when this worker holds the index
  quarantined (the supervisor tries another worker), or the type name
  of any other library error (a 500).
- ``{"op": "mutate", "index", "mutation"}`` → ``{"op": "acked",
  "seq"}`` once the record is fsynced, or ``{"op": "error", "error":
  "stream", "message"}`` when the append failed (a 503, not acked).
- ``{"op": "ping"}`` → ``{"op": "pong"}`` — heartbeat.
- ``{"op": "shutdown"}`` → ``{"op": "bye"}`` — graceful exit (drain is
  the supervisor's business; the worker is idle by construction when
  it reads a frame).

A ``mutation``-role worker opens its streaming directories with the
exclusive WAL owner lock (:mod:`repro.stream.wal`), so a respawned
worker can never race a wedged predecessor for the log.
"""

from __future__ import annotations

import os
import signal
import sys
import traceback
from typing import Any, BinaryIO, Mapping, NoReturn

from repro import obs
from repro.exceptions import ProtocolError, ReproError, ValidationError
from repro.queries.validation import validate_mutation
from repro.resilience.partial import PartialResult, to_jsonable
from repro.serve.app import (
    ServeApp,
    _parse_query_payload,
    apply_mutation,
    run_attempt,
)
from repro.serve.protocol import encode_frame, read_frame
from repro.serve.tenancy import TenantPolicy, default_classes

__all__ = ["build_worker_app", "run_child", "serve_frames"]


def build_worker_app(config: "Mapping[str, Any]") -> ServeApp:
    """The worker's indexes and tenant classes, from its config.

    Query workers get the (shared, read-only) snapshot shards; the
    mutation worker gets the streaming directories and takes the
    exclusive WAL owner lock on each.  Corruption quarantines exactly
    as in the single-process server — the worker still boots and
    reports the index unhealthy in its handshake.  The app's own
    :meth:`~ServeApp.handle` also answers in process (perfbench replays
    live requests through it).
    """
    exclusive = config.get("role") == "mutation"
    app = ServeApp(
        policy=TenantPolicy(
            default_classes(
                deadline_scale=float(config.get("deadline_scale", 1.0))
            )
        )
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
        indexes[name] = {
            "healthy": state.healthy,
            "error": state.error,
            "dimension": state.dimension,
        }
        if state.stream is not None:
            last_seq[name] = state.stream.last_seq
    return {
        "op": "ready",
        "pid": os.getpid(),
        "role": role,
        "indexes": indexes,
        "last_seq": last_seq,
    }


def _query(app: ServeApp, frame: "Mapping[str, Any]") -> "dict[str, Any]":
    """One query attempt: the answer, or why there is none."""
    try:
        params = _parse_query_payload(dict(frame.get("params") or {}))
        state = app.indexes.get(params["index"])
        if state is None or state.quarantined:
            # Healthy at the front, not here: another worker may serve it.
            return {"op": "error", "error": "unavailable", "message": ""}
        tenant = app.policy.resolve(frame.get("tenant"))
        outcome = run_attempt(state, tenant, params)
    except ValidationError as error:
        return {"op": "error", "error": "validation", "message": str(error)}
    except ReproError as error:
        # A typed library failure is this request's 500, not the
        # worker's death.
        return {"op": "error", "error": type(error).__name__, "message": str(error)}
    if isinstance(outcome, PartialResult):
        reply = outcome.to_dict()
    else:
        reply = {"value": to_jsonable(outcome), "report": None}
    return {"op": "answer", "size": len(outcome), **reply}


def _mutate(app: ServeApp, frame: "Mapping[str, Any]") -> "dict[str, Any]":
    """One WAL append, acked only once it is fsynced."""
    state = app.indexes.get(str(frame.get("index")))
    try:
        if state is None or state.stream is None:
            raise ReproError(f"index {frame.get('index')!r} is not streamed here")
        op, key, sphere = validate_mutation(
            frame.get("mutation"), state.stream.dimension
        )
        seq = apply_mutation(state.stream, op, key, sphere)
    except (ReproError, OSError, ArithmeticError) as error:
        return {
            "op": "error",
            "error": "stream",
            "message": f"{type(error).__name__}: {error}",
        }
    return {"op": "acked", "seq": seq}


def _send(stdout: "BinaryIO", payload: "Mapping[str, Any]") -> None:
    stdout.write(encode_frame(payload))
    stdout.flush()


def serve_frames(
    app: ServeApp, stdin: "BinaryIO", stdout: "BinaryIO", role: str
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
        if op == "query":
            reply = _query(app, frame)
        elif op == "mutate":
            reply = _mutate(app, frame)
        elif op == "ping":
            reply = {"op": "pong", "pid": os.getpid()}
        elif op == "shutdown":
            _send(stdout, {"op": "bye", "id": frame.get("id")})
            break
        else:
            reply = {"op": "error", "error": "protocol", "message": f"unknown op {op!r}"}
        _send(stdout, {**reply, "id": frame.get("id")})


#: Reset to their default action in a worker, which must not run the
#: front's handlers: a SIGTERM sent to a worker would drain the front.
_RESET_SIGNALS = (signal.SIGTERM, signal.SIGINT, signal.SIGHUP, signal.SIGCHLD)


def _close_inherited_fds(keep: "tuple[int, ...]") -> None:
    """Close every fd but 0-2 and *keep*: all the front's, and siblings'."""
    low = 3
    for fd in sorted(keep):
        os.closerange(low, fd)
        low = fd + 1
    os.closerange(low, os.sysconf("SC_OPEN_MAX"))


def run_child(
    config: "Mapping[str, Any]", stdin_fd: int, stdout_fd: int, sentinel_fd: int
) -> "NoReturn":
    """A forked worker's whole life: reset, boot, serve frames, exit.

    *stdin_fd* and *stdout_fd* are the child's ends of its request and
    reply pipes.  *sentinel_fd* is only held open: the supervisor reads
    its EOF as this process's death.  Never returns: the process leaves
    through :func:`os._exit`, 0 after a clean EOF or shutdown frame, 1
    when the worker could not boot or failed.
    """
    status = 1
    try:
        signal.set_wakeup_fd(-1)
        for signum in _RESET_SIGNALS:
            signal.signal(signum, signal.SIG_DFL)
        _close_inherited_fds((stdin_fd, stdout_fd, sentinel_fd))
        role = str(config.get("role", "query"))
        with obs.scope():
            obs.enable()
            app = build_worker_app(config)
            try:
                with open(stdin_fd, "rb") as stdin, open(stdout_fd, "wb") as stdout:
                    serve_frames(app, stdin, stdout, role)
            finally:
                app.close(drain_s=0.0)
        status = 0
    except BaseException:  # nothing may unwind into the front's frames
        traceback.print_exc()
    finally:
        try:
            sys.stderr.flush()
        finally:
            os._exit(status)
