"""Supervised multi-process serving (``repro serve --workers N``).

:class:`Supervisor` is a :class:`~repro.serve.app.ServeApp`.  HTTP,
routing, tenancy, admission, breakers, retry/hedge, the event log,
drain and 206 rendering all run once per request, in the supervisor,
on the single-process server's own code path.  What differs is where a
request's work runs: each query attempt (:meth:`Supervisor._attempt`)
and each mutation (:meth:`Supervisor._mutate`) is one pipe frame to a
child worker (:mod:`repro.serve.worker`):

- **N query workers** share the *read-only* snapshot shards — each
  loads the same snapshot files, so any of them can answer any query
  and a crash loses no state;
- **one mutation worker** (present when ``--stream`` directories are
  configured) exclusively owns the write-ahead logs, holding the
  advisory WAL owner lock (:mod:`repro.stream.wal`) so the
  fsync-before-ack durability contract of :mod:`repro.stream` is
  untouched by multi-processing.  Queries against a streaming index go
  to it too.

The supervisor loads no index: it learns each index's health and
dimension from the workers' ready handshakes.

Robustness machinery, all driven by the chaos suite
(``tests/test_serve_procs_chaos.py``):

- **Health checking** — each worker exchanges length-prefixed JSON
  frames over its stdin/stdout pipes; idle workers are pinged every
  ``heartbeat_s``, and a missed heartbeat or wedged dispatch gets the
  worker SIGKILLed and respawned.
- **Respawn with backoff and a flap cap** — a dead worker is respawned
  after an exponentially growing delay (``backoff_base_s`` doubling up
  to ``backoff_cap_s``); more than ``flap_max`` respawns inside
  ``flap_window_s`` marks the slot *failed* and stops the crash loop
  (``serve.workers.flap_capped``).
- **Query failover** — queries are idempotent, so a dispatch that loses
  its worker is re-sent once, within the same attempt, to another live
  worker (``serve.workers.failovers``).  When no worker answers, the
  attempt raises :class:`WorkerUnavailable` and the front answers an
  honest 503 ``worker_unavailable``, never a fabricated answer.  A lost
  worker is not index damage, so it never feeds the index breaker.
- **Mutation re-ack via the WAL seq hint** — mutations are serialized
  through the mutation worker (one in flight, ever).  If it dies
  mid-mutation, the respawned worker's handshake reports the recovered
  ``last_seq``; a hint *above* the last acked seq proves the in-flight
  append reached the fsynced log (re-ack it, resending would apply it
  twice), a hint *at* the last acked seq proves it never did (resend
  it once).  No acked mutation is lost or doubled.
- **Graceful drain** — the :class:`~repro.serve.app.ServeApp`
  lifecycle (signals set a flag, the listener closes, new work answers
  503 ``draining``, in-flight requests get ``drain_s``); the workers
  stop last.
- **/readyz quorum** — ready means a majority of query workers are
  live *and* the mutation worker (when configured) is live.

Supervision tree (see ``docs/serving.md`` for the full picture)::

    supervisor ─ ServeApp: HTTP, admission, breakers, retry, event log
      ├─ query worker 0   (snapshot shards, read-only): frame → attempt → frame
      ├─ ...
      ├─ query worker N-1
      └─ mutation worker  (streams; exclusive WAL owner lock): frame → append → frame

The ``worker_spawn`` / ``worker_heartbeat`` / ``worker_kill`` fault
seams (:mod:`repro.robust.faults`) patch :func:`_spawn_probe`,
:func:`_heartbeat_probe` and :func:`_kill_probe` to force spawn
failures, missed heartbeats and process kills deterministically.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
from asyncio.subprocess import Process
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro import obs
from repro.exceptions import ProtocolError, ServeError, StreamError, ValidationError
from repro.geometry.hypersphere import Hypersphere
from repro.obs import export as obs_export
from repro.obs import names
from repro.resilience.partial import PartialResult, ResilienceReport
from repro.serve.admission import AdmissionController
from repro.serve.app import IndexState, ServeApp, WorkerUnavailable
from repro.serve.protocol import (
    HttpResponse,
    encode_frame,
    json_response,
    read_frame_async,
)
from repro.serve.tenancy import TenantClass, TenantPolicy, default_classes

# Nothing here calls these: perfbench's tracer hooks both names on this
# module, so they must resolve here.
from repro.serve.protocol import read_request, write_response  # noqa: F401

__all__ = [
    "Supervisor",
    "SupervisorConfig",
    "WorkerSlot",
    "WorkerUnavailable",
]


# ----------------------------------------------------------------------
# Fault seams (patched by repro.robust.faults)
# ----------------------------------------------------------------------
def _spawn_probe() -> None:
    """The ``worker_spawn`` fault seam: a raising hook fails the spawn."""
    return None


def _heartbeat_probe() -> bool:
    """The ``worker_heartbeat`` seam: ``False``/raise = missed beat."""
    return True


def _kill_probe() -> bool:
    """The ``worker_kill`` seam: ``True``/raise = SIGKILL the target.

    Consulted right before each query dispatch, so an injected kill
    lands at the worst moment — with a request about to be in flight —
    which is exactly what the failover path must survive.
    """
    return False


@dataclass
class SupervisorConfig:
    """Everything one :class:`Supervisor` needs to run a worker pool."""

    query_workers: int = 2
    snapshots: "dict[str, str]" = field(default_factory=dict)
    streams: "dict[str, str]" = field(default_factory=dict)
    deadline_scale: float = 1.0
    seed: int = 0
    max_queue: int = 32
    #: Wall clock granted to in-flight requests at drain time.
    drain_s: float = 2.0
    heartbeat_s: float = 0.25
    #: Slack added on top of the tenant's deadline when sizing a
    #: dispatch timeout.
    dispatch_margin_s: float = 1.0
    #: How long one worker boot may take before it counts as failed.
    ready_timeout_s: float = 30.0
    backoff_base_s: float = 0.2
    backoff_cap_s: float = 5.0
    flap_window_s: float = 30.0
    flap_max: int = 8
    #: How long a mutation waits for the mutation worker to respawn
    #: before answering 503 ``acked: false``.
    mutation_failover_s: float = 20.0
    #: Append one JSONL event per request to this file (``--event-log``).
    event_log: "str | None" = None


@dataclass
class WorkerSlot:
    """One supervised child: its process, pipes, and health state."""

    slot: int
    role: str  # "query" | "mutation"
    state: str = "starting"  # starting | ready | dead | failed | stopped
    process: "Process | None" = None
    pid: "int | None" = None
    lock: "asyncio.Lock" = field(default_factory=asyncio.Lock)
    #: Per-index recovered WAL high-water mark from the last handshake.
    last_seq: "dict[str, int]" = field(default_factory=dict)
    restarts: int = 0
    #: Consecutive failed spawn attempts (drives the backoff exponent).
    spawn_failures: int = 0
    #: Successful respawn times inside the flap window (loop clock).
    restart_times: "list[float]" = field(default_factory=list)


class _Answer:
    """A query answer as it came back over the pipe: JSON already.

    Renders to exactly the JSON the worker computed (so an unflagged
    pooled answer is bitwise the single-process one) and reads, for the
    event log, like the result it was made from: its size, and the
    traversal tallies a kNN answer carries.
    """

    __slots__ = ("value", "size")

    def __init__(self, value: Any, size: int) -> None:
        self.value = value
        self.size = size

    def to_dict(self) -> Any:
        return self.value

    def __len__(self) -> int:
        return self.size

    def __getattr__(self, name: str) -> Any:
        if isinstance(self.value, dict) and name in self.value:
            return self.value[name]
        raise AttributeError(name)


def _child_env() -> "dict[str, str]":
    """The worker's environment: inherit, plus our import root."""
    env = dict(os.environ)
    serve_dir = os.path.dirname(os.path.abspath(__file__))
    src_root = os.path.dirname(os.path.dirname(serve_dir))
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_root if not existing else src_root + os.pathsep + existing
    )
    return env


class Supervisor(ServeApp):
    """The pooled server: a :class:`ServeApp` that also runs workers."""

    # perfbench's tracer wraps these two in this class's own __dict__,
    # so pooled requests keep their own span name.
    handle = ServeApp.handle
    handle_connection = ServeApp.handle_connection

    def __init__(self, config: SupervisorConfig) -> None:
        if config.query_workers < 1:
            raise ServeError(
                f"query_workers must be >= 1, got {config.query_workers!r}"
            )
        if not config.snapshots and not config.streams:
            raise ServeError(
                "a supervisor needs at least one snapshot or stream shard"
            )
        super().__init__(
            policy=TenantPolicy(
                default_classes(deadline_scale=config.deadline_scale)
            ),
            admission=AdmissionController(
                max_concurrency=config.query_workers,
                max_queue=config.max_queue,
            ),
            event_log=(
                obs_export.QueryEventLog.open(config.event_log)
                if config.event_log
                else None
            ),
            drain_s=config.drain_s,
            seed=config.seed,
        )
        self.config = config
        # Health and dimension arrive with the workers' handshakes.
        for sources, mutable in ((config.snapshots, False), (config.streams, True)):
            for name, source in sources.items():
                self._indexes[name] = IndexState(
                    name=name,
                    index=None,
                    flat=None,
                    breaker=self._new_breaker(name),
                    source=source,
                    mutable=mutable,
                )
        self._slots: "list[WorkerSlot]" = []
        self._mutation_slot: "WorkerSlot | None" = None
        #: Per-index highest seq ever acked to a client (the dedup
        #: anchor for crash re-acks).
        self._last_acked: "dict[str, int]" = {}
        self._mutation_gate = asyncio.Lock()
        self._frame_ids = 0
        self._rr = 0
        self._stopping = False
        self._tasks: "set[asyncio.Task[None]]" = set()
        self._heartbeat_task: "asyncio.Task[None] | None" = None

    # ------------------------------------------------------------------
    # Lifecycle: workers start first and stop last
    # ------------------------------------------------------------------
    async def start(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> "tuple[str, int]":
        """Spawn the pool, then bind the listener; returns (host, port)."""
        for i in range(self.config.query_workers):
            self._slots.append(WorkerSlot(slot=i, role="query"))
        if self.config.streams:
            self._mutation_slot = WorkerSlot(
                slot=len(self._slots), role="mutation"
            )
            self._slots.append(self._mutation_slot)
        await asyncio.gather(*(self._boot(slot) for slot in self._slots))
        self._heartbeat_task = asyncio.create_task(self._heartbeat_loop())
        return await super().start(host, port)

    def _banner(self) -> str:
        return f"supervising {self.config.query_workers} query worker(s)" + (
            " + 1 mutation worker" if self._mutation_slot else ""
        )

    async def drain_and_stop(self) -> None:
        """The :class:`ServeApp` drain, then stop the pool."""
        await super().drain_and_stop()
        self._stopping = True
        if self._heartbeat_task is not None:
            self._heartbeat_task.cancel()
            self._heartbeat_task = None
        await asyncio.gather(
            *(self._stop_worker(slot) for slot in self._slots),
            return_exceptions=True,
        )
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)

    async def _stop_worker(self, slot: WorkerSlot) -> None:
        process = slot.process
        if process is not None and process.returncode is None and (
            slot.state == "ready"
        ):
            try:
                await self._dispatch(slot, {"op": "shutdown"}, timeout=1.0)
            except ServeError:
                pass
        slot.state = "stopped"
        if process is None:
            return
        if process.returncode is None:
            try:
                process.kill()
            except ProcessLookupError:  # pragma: no cover - exit race
                pass
        try:
            await asyncio.wait_for(process.wait(), timeout=5.0)
        except asyncio.TimeoutError:  # pragma: no cover - kernel stall
            pass

    # ------------------------------------------------------------------
    # Spawning, monitoring, respawn
    # ------------------------------------------------------------------
    def _schedule(self, coro: "Any") -> None:
        task: "asyncio.Task[None]" = asyncio.create_task(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    def _worker_config(self, slot: WorkerSlot) -> "dict[str, Any]":
        mutation = slot.role == "mutation"
        return {
            "role": slot.role,
            "snapshots": {} if mutation else dict(self.config.snapshots),
            "streams": dict(self.config.streams) if mutation else {},
            "deadline_scale": self.config.deadline_scale,
        }

    async def _spawn(self, slot: WorkerSlot) -> None:
        """Fork one worker and wait for its ready handshake."""
        _spawn_probe()
        process = await asyncio.create_subprocess_exec(
            sys.executable,
            "-m",
            "repro.serve.worker",
            json.dumps(self._worker_config(slot), sort_keys=True),
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
            env=_child_env(),
        )
        slot.process = process
        slot.pid = process.pid
        assert process.stdout is not None
        try:
            frame = await asyncio.wait_for(
                read_frame_async(process.stdout),
                timeout=self.config.ready_timeout_s,
            )
        except (asyncio.TimeoutError, ProtocolError) as error:
            process.kill()
            raise WorkerUnavailable(
                f"worker slot {slot.slot} failed its handshake: {error}"
            ) from None
        if frame is None or frame.get("op") != "ready":
            process.kill()
            raise WorkerUnavailable(
                f"worker slot {slot.slot} sent no ready frame"
            )
        slot.pid = int(frame.get("pid", process.pid))
        slot.last_seq = {
            str(k): int(v)
            for k, v in dict(frame.get("last_seq") or {}).items()
        }
        for name, info in dict(frame.get("indexes") or {}).items():
            state = self._indexes.get(name)
            if state is not None:
                state.healthy = bool(info.get("healthy"))
                state.error = info.get("error")
                state.dimension = info.get("dimension")
        slot.state = "ready"
        if slot.role == "mutation":
            for index, seq in slot.last_seq.items():
                # First boot only: anchor the dedup mark at the
                # recovered high-water mark.  On respawn the existing
                # mark is the whole point — never overwrite it here.
                self._last_acked.setdefault(index, seq)
        if obs.ENABLED:
            obs.incr(names.SERVE_WORKERS_SPAWNED)
        self._schedule(self._monitor(slot, process))

    async def _boot(self, slot: WorkerSlot) -> None:
        """First spawn of a slot; failures enter the respawn loop."""
        try:
            await self._spawn(slot)
        except (WorkerUnavailable, ArithmeticError, OSError, ValueError):
            slot.state = "dead"
            slot.spawn_failures += 1
            if obs.ENABLED:
                obs.incr(names.SERVE_WORKERS_SPAWN_FAILURES)
            self._schedule(self._respawn_loop(slot))

    async def _monitor(self, slot: WorkerSlot, process: Process) -> None:
        """Wait for one process to die, then heal the slot."""
        await process.wait()
        if self._stopping or slot.process is not process:
            return
        slot.state = "dead"
        if obs.ENABLED:
            obs.incr(names.SERVE_WORKERS_EXITS)
        self._note_quorum(slot)
        await self._respawn_loop(slot)

    def _note_quorum(self, slot: WorkerSlot) -> None:
        if not obs.ENABLED:
            return
        if slot.role == "mutation" or self._live_query() < self._quorum():
            obs.incr(names.SERVE_WORKERS_QUORUM_LOST)

    async def _respawn_loop(self, slot: WorkerSlot) -> None:
        """Exponential backoff respawn, capped by the flap-rate guard."""
        loop = asyncio.get_running_loop()
        while not self._stopping:
            now = loop.time()
            slot.restart_times = [
                t
                for t in slot.restart_times
                if now - t < self.config.flap_window_s
            ]
            if len(slot.restart_times) >= self.config.flap_max:
                slot.state = "failed"
                if obs.ENABLED:
                    obs.incr(names.SERVE_WORKERS_FLAP_CAPPED)
                return
            delay = min(
                self.config.backoff_base_s * (2.0 ** slot.spawn_failures),
                self.config.backoff_cap_s,
            )
            await asyncio.sleep(delay)
            if self._stopping:
                return
            slot.restart_times.append(loop.time())
            try:
                await self._spawn(slot)
            except (WorkerUnavailable, ArithmeticError, OSError, ValueError):
                slot.spawn_failures += 1
                if obs.ENABLED:
                    obs.incr(names.SERVE_WORKERS_SPAWN_FAILURES)
                continue
            slot.spawn_failures = 0
            slot.restarts += 1
            if obs.ENABLED:
                obs.incr(names.SERVE_WORKERS_RESPAWNS)
            return

    # ------------------------------------------------------------------
    # Heartbeats
    # ------------------------------------------------------------------
    async def _heartbeat_loop(self) -> None:
        while not self._stopping:
            await asyncio.sleep(self.config.heartbeat_s)
            for slot in list(self._slots):
                if self._stopping or slot.state != "ready":
                    continue
                if slot.lock.locked():
                    # Mid-request: the dispatch timeout polices liveness.
                    continue
                try:
                    alive = bool(_heartbeat_probe())
                except ArithmeticError:
                    alive = False
                if alive:
                    try:
                        await self._dispatch(
                            slot,
                            {"op": "ping"},
                            timeout=max(self.config.heartbeat_s * 4, 1.0),
                        )
                        continue
                    except ServeError:
                        pass  # dispatch already marked the slot dead
                if obs.ENABLED:
                    obs.incr(names.SERVE_WORKERS_HEARTBEAT_MISSES)
                self._kill_slot(slot)

    def _kill_slot(self, slot: WorkerSlot) -> None:
        """SIGKILL one worker; the monitor task owns the respawn."""
        process = slot.process
        slot.state = "dead"
        if process is not None and process.returncode is None:
            if obs.ENABLED:
                obs.incr(names.SERVE_WORKERS_KILLS)
            try:
                process.kill()
            except ProcessLookupError:  # pragma: no cover - exit race
                pass

    # ------------------------------------------------------------------
    # Frame dispatch
    # ------------------------------------------------------------------
    def _next_frame_id(self) -> int:
        self._frame_ids += 1
        return self._frame_ids

    async def _dispatch(
        self, slot: WorkerSlot, payload: "Mapping[str, Any]", timeout: float
    ) -> "dict[str, Any]":
        """One frame exchange under the slot's lock (workers are serial)."""
        process = slot.process
        if process is None or slot.state != "ready":
            raise WorkerUnavailable(
                f"worker slot {slot.slot} is {slot.state}"
            )
        async with slot.lock:
            frame = dict(payload)
            frame["id"] = self._next_frame_id()
            loop = asyncio.get_running_loop()
            deadline = loop.time() + max(timeout, 0.05)
            try:
                assert process.stdin is not None
                assert process.stdout is not None
                process.stdin.write(encode_frame(frame))
                await asyncio.wait_for(
                    process.stdin.drain(),
                    timeout=max(deadline - loop.time(), 0.05),
                )
                while True:
                    reply = await asyncio.wait_for(
                        read_frame_async(process.stdout),
                        timeout=max(deadline - loop.time(), 0.05),
                    )
                    if reply is None:
                        raise WorkerUnavailable(
                            f"worker {slot.pid} closed its pipe"
                        )
                    if reply.get("id") == frame["id"]:
                        return reply
            except (
                asyncio.TimeoutError,
                ConnectionResetError,
                BrokenPipeError,
                ProtocolError,
                OSError,
            ) as error:
                self._kill_slot(slot)
                raise WorkerUnavailable(
                    f"worker {slot.pid} lost mid-dispatch: "
                    f"{type(error).__name__}: {error}"
                ) from None

    # ------------------------------------------------------------------
    # /readyz: quorum
    # ------------------------------------------------------------------
    def _live_query(self) -> int:
        return sum(
            1
            for s in self._slots
            if s.role == "query" and s.state == "ready"
        )

    def _quorum(self) -> int:
        total = sum(1 for s in self._slots if s.role == "query")
        return max(1, (total + 1) // 2)

    def _readyz(self) -> HttpResponse:
        query_total = sum(1 for s in self._slots if s.role == "query")
        query_live = self._live_query()
        quorum = self._quorum()
        mutation_live = (
            self._mutation_slot is not None
            and self._mutation_slot.state == "ready"
        )
        ready = (
            query_live >= quorum
            and (self._mutation_slot is None or mutation_live)
            and not self._draining
        )
        payload: "dict[str, Any]" = {
            "ready": ready,
            "draining": self._draining,
            "workers": {
                "query": {
                    "total": query_total,
                    "live": query_live,
                    "quorum": quorum,
                },
                "mutation": (
                    {"live": mutation_live}
                    if self._mutation_slot is not None
                    else None
                ),
                "slots": self.slots_snapshot(),
            },
            "indexes": {
                name: state.snapshot() for name, state in self._indexes.items()
            },
        }
        return json_response(200 if ready else 503, payload)

    # ------------------------------------------------------------------
    # The query attempt: one frame, failing over once
    # ------------------------------------------------------------------
    def _pick_slot(
        self, state: IndexState, tried: "list[WorkerSlot]"
    ) -> "WorkerSlot | None":
        if state.mutable:
            slot = self._mutation_slot
            if slot is not None and slot.state == "ready" and slot not in tried:
                return slot
            return None
        ready = [
            s
            for s in self._slots
            if s.role == "query" and s.state == "ready" and s not in tried
        ]
        if not ready:
            return None
        self._rr += 1
        return ready[self._rr % len(ready)]

    async def _attempt(
        self,
        state: IndexState,
        tenant: TenantClass,
        params: "dict[str, Any]",
    ) -> Any:
        """One attempt as one frame; re-sent once if its worker is lost."""
        query: Hypersphere = params["query"]
        frame = {
            "op": "query",
            "tenant": tenant.name,
            "params": {
                **{k: v for k, v in params.items() if k != "query"},
                "center": query.center.tolist(),
                "radius": float(query.radius),
            },
        }
        timeout = tenant.deadline_ms / 1000.0 + self.config.dispatch_margin_s
        tried: "list[WorkerSlot]" = []
        while len(tried) < 2:
            slot = self._pick_slot(state, tried)
            if slot is None:
                break
            if tried and obs.ENABLED:
                obs.incr(names.SERVE_WORKERS_FAILOVERS)
            tried.append(slot)
            try:
                chaos_kill = bool(_kill_probe())
            except ArithmeticError:
                chaos_kill = True
            if chaos_kill:
                self._kill_slot(slot)
            try:
                reply = await self._dispatch(slot, frame, timeout)
            except WorkerUnavailable:
                continue
            error = reply.get("error")
            if error == "unavailable":
                continue
            if error == "validation":
                raise ValidationError(str(reply.get("message")))
            if error is not None:
                raise ServeError(f"{error}: {reply.get('message')}")
            answer = _Answer(reply.get("value"), int(reply.get("size", 0)))
            report = reply.get("report")
            if report is None:
                return answer
            return PartialResult(answer, ResilienceReport.from_dict(report))
        raise WorkerUnavailable(f"no worker answered for index {state.name!r}")

    # ------------------------------------------------------------------
    # The mutation: serialize, dispatch, dedup on crash
    # ------------------------------------------------------------------
    async def _mutate(
        self, state: IndexState, op: str, key: Any, sphere: "Hypersphere | None"
    ) -> "dict[str, Any]":
        mutation: "dict[str, Any]" = {"op": op, "key": key}
        if sphere is not None:
            mutation["center"] = sphere.center.tolist()
            mutation["radius"] = float(sphere.radius)
        frame = {"op": "mutate", "index": state.name, "mutation": mutation}
        timeout = self.policy.resolve(None).deadline_ms / 1000.0 + (
            self.config.dispatch_margin_s
        )
        # One mutation in flight, ever: the serialization that makes
        # the crash-recovery seq comparison exact.
        async with self._mutation_gate:
            slot = self._mutation_slot
            assert slot is not None  # state.mutable implies it
            try:
                reply = await self._dispatch(slot, frame, timeout=timeout)
            except WorkerUnavailable:
                return await self._recover_mutation(
                    slot, state.name, frame, timeout
                )
            return self._acked(state.name, reply)

    def _acked(self, index: str, reply: "Mapping[str, Any]") -> "dict[str, Any]":
        """The ack of one mutation reply; a failed append raises."""
        if reply.get("op") != "acked":
            raise StreamError(str(reply.get("message")))
        seq = int(reply["seq"])
        self._last_acked[index] = max(self._last_acked.get(index, 0), seq)
        return {"seq": seq}

    async def _recover_mutation(
        self,
        slot: WorkerSlot,
        index: str,
        frame: "dict[str, Any]",
        timeout: float,
    ) -> "dict[str, Any]":
        """Mutation-worker death with one in-flight mutation: dedup.

        The respawned worker's handshake carries the WAL's recovered
        high-water mark.  Above the last acked seq, the in-flight
        append was durable before the crash — re-ack it with the
        recovered seq (resending would apply the mutation twice).  At
        the last acked seq, it provably never reached the log — resend
        it once.  The comparison is exact *because* mutations are
        serialized through :attr:`_mutation_gate`.
        """
        if not await self._await_slot_ready(
            slot, self.config.mutation_failover_s
        ):
            raise WorkerUnavailable("mutation worker did not recover in time")
        recovered_seq = slot.last_seq.get(index, 0)
        if recovered_seq > self._last_acked.get(index, 0):
            self._last_acked[index] = recovered_seq
            if obs.ENABLED:
                obs.incr(names.SERVE_WORKERS_MUTATIONS_REACKED)
            return {"seq": recovered_seq, "recovered": True}
        if obs.ENABLED:
            obs.incr(names.SERVE_WORKERS_MUTATIONS_RESENT)
        try:
            reply = await self._dispatch(slot, frame, timeout=timeout)
        except WorkerUnavailable:
            raise WorkerUnavailable(
                "mutation worker died twice in one request"
            ) from None
        return self._acked(index, reply)

    async def _await_slot_ready(
        self, slot: WorkerSlot, timeout_s: float
    ) -> bool:
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout_s
        while loop.time() < deadline:
            if slot.state == "ready":
                return True
            if slot.state == "failed":
                return False
            await asyncio.sleep(0.02)
        return bool(slot.state == "ready")

    # ------------------------------------------------------------------
    # Introspection (tests, smoke, bench)
    # ------------------------------------------------------------------
    def worker_pids(self, role: "str | None" = None) -> "list[int]":
        """Live worker pids (optionally one role's), for chaos drivers."""
        return [
            s.pid
            for s in self._slots
            if s.pid is not None
            and s.state == "ready"
            and (role is None or s.role == role)
        ]

    def slots_snapshot(self) -> "list[dict[str, Any]]":
        return [
            {
                "slot": s.slot,
                "role": s.role,
                "state": s.state,
                "pid": s.pid,
                "restarts": s.restarts,
            }
            for s in self._slots
        ]
