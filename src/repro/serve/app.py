"""The fault-tolerant multi-tenant query service (``repro serve``).

One :class:`ServeApp` serves kNN / RkNN / top-k-dominating queries over
immutable snapshot-backed indexes, hardened end to end:

- **Warm start with quarantine** — indexes load from crash-safe
  snapshots (:mod:`repro.index.snapshot`); a
  :class:`~repro.exceptions.SnapshotCorruptionError` at boot marks the
  index *quarantined* instead of crashing the process, and ``/readyz``
  reflects it.
- **Admission first** — every query passes the tenant's token bucket
  and the bounded queue (:mod:`repro.serve.admission`) before any work
  starts; saturation is a 429 with Retry-After, never a timeout.
- **A budget per request** — the tenant class mints a fresh
  :class:`~repro.resilience.Budget`; past the deadline the query layer
  degrades to certified-conservative partial answers (the paper's
  MinMax tier), which the service returns as **HTTP 206** with the
  serialised :class:`~repro.resilience.ResilienceReport`.
- **Retries and hedging** — a request degraded by a *transient*
  absorbed fault is retried once (jittered backoff, or a short hedge
  stagger for interactive tenants) before the 206 is accepted
  (:mod:`repro.serve.retry`).
- **A circuit breaker per index** — consecutive absorbed-fault
  interactions open the breaker (:mod:`repro.serve.breaker`); while
  open, requests short-circuit to 429 without touching the index, and
  half-open probes decide recovery.

The degradation invariant, now spanning the network layer: **no fault
or overload mode ever yields a wrong certified verdict, and overload /
degradation surface only as 206 or 429, never as 5xx**
(``tests/test_serve_chaos.py`` drives this across every serve seam ×
mode of :mod:`repro.robust.faults`).

This is the one request pipeline of both serving modes.  Everything
above runs once per request in :meth:`ServeApp.handle`; only where an
attempt runs differs.  :meth:`ServeApp._attempt` (one budgeted query
attempt, :func:`run_attempt`) and :meth:`ServeApp._mutate` (one WAL
append, :func:`apply_mutation`) run on a thread-pool executor sized to
the admission concurrency bound, each under
``contextvars.copy_context()`` so the active obs registry, budget scope
and event log all propagate into the executor thread
(:meth:`ServeApp._run_sync`).  The pooled server
(:class:`repro.serve.supervisor.Supervisor`) is a subclass that sends
each of them to a worker process as one pipe frame instead, where
:mod:`repro.serve.worker` runs the same two functions.  The
``"handler"`` fault seam patches :func:`_handler_hook` to inject slow
or exploding handlers.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import random
import signal
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Mapping, TypeVar

from repro import obs
from repro.core.base import available_criteria
from repro.core.batch import available_kernels
from repro.exceptions import (
    ProtocolError,
    ReproError,
    ServeError,
    SnapshotCorruptionError,
    SnapshotError,
    StreamError,
    ValidationError,
    WalError,
)
from repro.geometry.hypersphere import Hypersphere
from repro.index import snapshot as snapshot_io
from repro.index.linear import LinearIndex
from repro.obs import export as obs_export
from repro.obs import names
from repro.queries.dominating import top_k_dominating
from repro.queries.knn import knn_query
from repro.queries.rknn import rnn_candidates
from repro.queries.validation import validate_mutation
from repro.resilience.budget import scope as budget_scope
from repro.resilience.partial import PartialResult, ResilienceReport, to_jsonable
from repro.serve.admission import AdmissionController
from repro.serve.breaker import BreakerState, CircuitBreaker
from repro.serve.protocol import (
    HttpRequest,
    HttpResponse,
    json_response,
    read_request,
    write_response,
)
from repro.serve.retry import RetryPolicy, run_with_retry
from repro.serve.tenancy import TenantClass, TenantPolicy
from repro.stream.engine import StreamingIndex

__all__ = [
    "IndexState",
    "ServeApp",
    "WorkerUnavailable",
    "apply_mutation",
    "run_attempt",
    "start_server",
]

QUERY_KINDS = ("knn", "rknn", "dominating")

_T = TypeVar("_T")

#: Ceiling on one injected handler delay, seconds — keeps a poisoned
#: hook from parking an executor thread indefinitely.
_MAX_HANDLER_DELAY_S = 0.5

#: How long one connection may take to deliver a full request.
_READ_TIMEOUT_S = 10.0


class WorkerUnavailable(ServeError):
    """No pooled worker could run an attempt or mutation (a 503)."""


def _handler_hook() -> float:
    """Extra handler delay in seconds (normally zero).

    The ``"handler"`` fault seam (:mod:`repro.robust.faults`) patches
    this attribute to simulate slow or exploding request handlers; a
    raising hook is absorbed into a conservative 206, never a 5xx.
    """
    return 0.0


@dataclass
class IndexState:
    """One served index: the structure, its flat view, its breaker."""

    name: str
    index: "Any | None"
    #: Flat (key, sphere) view for the scan-shaped queries (RkNN,
    #: top-k-dominating); built once at registration.
    flat: "LinearIndex | None"
    breaker: CircuitBreaker
    healthy: bool = True
    error: "str | None" = None
    source: "str | None" = None
    #: The durable mutation pipeline behind this index, when serving a
    #: streaming directory instead of a frozen snapshot.  Queries then
    #: merge the live overlay and ``POST /mutate`` is accepted.
    stream: "StreamingIndex | None" = None
    #: Whether ``POST /mutate`` is accepted: a streaming index, here or
    #: (in the pooled server) in the mutation worker.
    mutable: bool = False
    #: Object dimensionality, once known (mutations are validated
    #: against it).
    dimension: "int | None" = None

    @property
    def quarantined(self) -> bool:
        return not self.healthy

    def snapshot(self) -> "dict[str, Any]":
        """The health block ``/readyz`` publishes for this index."""
        info: "dict[str, Any]" = {
            "healthy": self.healthy,
            "breaker": self.breaker.snapshot(),
        }
        if self.mutable:
            info["mutable"] = True
        if self.dimension is not None:
            info["dimension"] = self.dimension
        if self.stream is not None:
            info["last_seq"] = self.stream.last_seq
            info["overlay_entries"] = len(self.stream.overlay)
            info["entries"] = len(self.stream.base)  # type: ignore[arg-type]
        elif self.index is not None:
            info["entries"] = len(self.index)
        if self.error is not None:
            info["error"] = self.error
        if self.source is not None:
            info["source"] = self.source
        return info


class ServeApp:
    """Routing, admission, execution and response shaping for one server."""

    def __init__(
        self,
        *,
        policy: "TenantPolicy | None" = None,
        admission: "AdmissionController | None" = None,
        retry_policy: "RetryPolicy | None" = None,
        event_log: "obs_export.QueryEventLog | None" = None,
        breaker_failure_threshold: int = 5,
        breaker_recovery_s: float = 2.0,
        drain_s: float = 2.0,
        seed: int = 0,
    ) -> None:
        self.policy = policy if policy is not None else TenantPolicy()
        self.admission = (
            admission if admission is not None else AdmissionController()
        )
        self.retry_policy = (
            retry_policy if retry_policy is not None else RetryPolicy()
        )
        #: Owned by the app from here on: closed when it stops.
        self.event_log = event_log
        self._breaker_failure_threshold = breaker_failure_threshold
        self._breaker_recovery_s = breaker_recovery_s
        #: Wall clock granted to in-flight requests by
        #: :meth:`drain_and_stop`.
        self.drain_s = drain_s
        self._rng = random.Random(seed)
        self._indexes: "dict[str, IndexState]" = {}
        self._draining = False
        self._drain_event = asyncio.Event()
        self._server: "asyncio.AbstractServer | None" = None
        self._executor = ThreadPoolExecutor(
            max_workers=self.admission.max_concurrency,
            thread_name_prefix="repro-serve",
        )

    # ------------------------------------------------------------------
    # Index registration and warm start
    # ------------------------------------------------------------------
    def _new_breaker(self, name: str) -> CircuitBreaker:
        return CircuitBreaker(
            name,
            failure_threshold=self._breaker_failure_threshold,
            recovery_s=self._breaker_recovery_s,
        )

    def register_index(
        self, name: str, index: Any, *, source: "str | None" = None
    ) -> IndexState:
        """Serve *index* (already built) under *name*."""
        if not name:
            raise ServeError("index name must be non-empty")
        flat = (
            index
            if isinstance(index, LinearIndex)
            else LinearIndex(list(index))
        )
        state = IndexState(
            name=name,
            index=index,
            flat=flat,
            breaker=self._new_breaker(name),
            source=source,
            dimension=index.dimension,
        )
        self._indexes[name] = state
        return state

    def load_snapshot(self, name: str, path: str) -> IndexState:
        """Warm-start *name* from *path*, quarantining corruption.

        A corrupt or unreadable snapshot registers the index as
        *quarantined*: the process stays up, ``/readyz`` reports the
        index unhealthy, and queries against it answer 503 — the
        runbook case, not a crash loop.
        """
        try:
            index = snapshot_io.load(path)
        except (SnapshotCorruptionError, SnapshotError, OSError) as error:
            if obs.ENABLED:
                obs.incr(names.SERVE_QUARANTINED_INDEXES)
            state = IndexState(
                name=name,
                index=None,
                flat=None,
                breaker=self._new_breaker(name),
                healthy=False,
                error=f"{type(error).__name__}: {error}",
                source=str(path),
            )
            self._indexes[name] = state
            return state
        return self.register_index(name, index, source=str(path))

    def load_stream(
        self, name: str, directory: str, *, exclusive: bool = False
    ) -> IndexState:
        """Warm-start a *mutable* index from a streaming directory.

        The snapshot passes the full integrity check, then the WAL is
        replayed over it (the recovery contract of
        :mod:`repro.stream.wal`).  Corruption quarantines the index
        exactly like :meth:`load_snapshot` — the process never crash
        loops on a bad disk.  ``exclusive=True`` takes the WAL owner
        lock (the supervised mutation worker's mode; see
        :mod:`repro.serve.worker`).
        """
        try:
            stream = StreamingIndex.open(directory, verify=True, exclusive=exclusive)
        except (
            StreamError,
            WalError,
            SnapshotCorruptionError,
            SnapshotError,
            OSError,
        ) as error:
            if obs.ENABLED:
                obs.incr(names.SERVE_QUARANTINED_INDEXES)
            state = IndexState(
                name=name,
                index=None,
                flat=None,
                breaker=self._new_breaker(name),
                healthy=False,
                error=f"{type(error).__name__}: {error}",
                source=str(directory),
            )
            self._indexes[name] = state
            return state
        return self.register_stream(name, stream, source=str(directory))

    def register_stream(
        self, name: str, stream: StreamingIndex, *, source: "str | None" = None
    ) -> IndexState:
        """Serve the (already opened) streaming index under *name*."""
        if not name:
            raise ServeError("index name must be non-empty")
        state = IndexState(
            name=name,
            index=stream.base,
            flat=None,
            breaker=self._new_breaker(name),
            source=source,
            stream=stream,
            mutable=True,
            dimension=stream.dimension,
        )
        self._indexes[name] = state
        return state

    @classmethod
    def from_snapshots(
        cls, specs: "Mapping[str, str]", **kwargs: Any
    ) -> "ServeApp":
        """An app serving one index per ``{name: snapshot path}`` entry."""
        app = cls(**kwargs)
        for name, path in specs.items():
            app.load_snapshot(name, path)
        return app

    @property
    def indexes(self) -> "dict[str, IndexState]":
        return dict(self._indexes)

    @property
    def draining(self) -> bool:
        """Whether the app has stopped accepting work."""
        return self._draining

    # ------------------------------------------------------------------
    # Lifecycle: start, serve until a signal, drain, stop
    # ------------------------------------------------------------------
    #: How often a drain re-checks the in-flight count; small enough
    #: that an idle shutdown is instant.
    _DRAIN_POLL_S = 0.005

    async def start(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> "tuple[str, int]":
        """Bind the listener; returns the bound ``(host, port)``."""
        self._server = await start_server(self, host=host, port=port)
        bound = self._server.sockets[0].getsockname()
        return str(bound[0]), int(bound[1])

    async def serve_until_drained(
        self, host: str = "127.0.0.1", port: int = 8080
    ) -> None:
        """The CLI's main coroutine: serve until SIGTERM/SIGINT, drain."""
        bound = await self.start(host, port)
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.request_drain)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-Unix loop: Ctrl-C falls back to KeyboardInterrupt
        print(
            f"repro serve listening on {bound[0]}:{bound[1]} ({self._banner()})",
            flush=True,
        )
        await self._drain_event.wait()
        await self.drain_and_stop()

    def _banner(self) -> str:
        healthy = sum(1 for state in self._indexes.values() if state.healthy)
        return f"{healthy}/{len(self._indexes)} index(es) healthy"

    def request_drain(self) -> None:
        """The SIGTERM/SIGINT handler: set flags, nothing else (DOM207)."""
        self._draining = True
        self._drain_event.set()

    async def drain_and_stop(self) -> None:
        """Stop accepting, give in-flight work :attr:`drain_s`, stop.

        New ``/query`` and ``/mutate`` requests answer 503 ``draining``
        from the first moment; the wait runs inside the loop the
        in-flight requests run on.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        loop = asyncio.get_running_loop()
        deadline = loop.time() + max(self.drain_s, 0.0)
        while self.admission.in_flight > 0 and loop.time() < deadline:
            await asyncio.sleep(self._DRAIN_POLL_S)
        self._stop()

    def close(self, drain_s: float = 2.0) -> None:
        """Graceful shutdown for synchronous callers.

        The same contract as :meth:`drain_and_stop`, for code whose
        event loop is already stopping or stopped (so the polling sleep
        blocks nobody): new requests answer 503 ``draining``, admitted
        ones get up to *drain_s* seconds of wall clock to finish on
        their executor threads, then the pool is cancelled.  An idle
        server observes no delay at all.
        """
        self._draining = True
        deadline = time.monotonic() + max(float(drain_s), 0.0)
        while self.admission.in_flight > 0 and time.monotonic() < deadline:
            time.sleep(self._DRAIN_POLL_S)
        self._stop()

    def _stop(self) -> None:
        """Count how the drain ended, cancel the executor, close the log."""
        if obs.ENABLED and self.admission.in_flight > 0:
            obs.incr(names.SERVE_WORKERS_DRAIN_TIMEOUTS)
        elif obs.ENABLED:
            obs.incr(names.SERVE_WORKERS_DRAINED)
        self._executor.shutdown(wait=False, cancel_futures=True)
        # Detach first: a request still finishing after the drain
        # window skips the log instead of writing to a closed file.
        event_log, self.event_log = self.event_log, None
        if event_log is not None:
            event_log.close()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def handle(self, request: HttpRequest) -> HttpResponse:
        """Route one parsed request to its handler."""
        if obs.ENABLED:
            obs.incr(names.SERVE_REQUESTS)
        if request.path == "/healthz":
            return json_response(200, {"status": "ok"})
        if request.path == "/readyz":
            return self._readyz()
        if request.path == "/metrics":
            return self._metrics()
        if request.path in ("/query", "/v1/query"):
            if request.method != "POST":
                return json_response(
                    405, {"error": "method_not_allowed", "allow": "POST"}
                )
            if self._draining:
                return self._unavailable_draining()
            return await self._handle_query(request)
        if request.path in ("/mutate", "/v1/mutate"):
            if request.method != "POST":
                return json_response(
                    405, {"error": "method_not_allowed", "allow": "POST"}
                )
            if self._draining:
                return self._unavailable_draining()
            return await self._handle_mutate(request)
        return json_response(404, {"error": "not_found", "path": request.path})

    def _readyz(self) -> HttpResponse:
        indexes = {
            name: state.snapshot() for name, state in self._indexes.items()
        }
        ready = (
            any(state.healthy for state in self._indexes.values())
            and not self._draining
        )
        return json_response(
            200 if ready else 503,
            {"ready": ready, "draining": self._draining, "indexes": indexes},
        )

    def _unavailable_draining(self) -> HttpResponse:
        """The 503 a draining server answers instead of taking work."""
        if obs.ENABLED:
            obs.incr(names.SERVE_RESPONSES_UNAVAILABLE)
        return json_response(
            503,
            {"error": "draining", "retry_after_s": 1.0},
            headers={"Retry-After": "1.000"},
        )

    def _metrics(self) -> HttpResponse:
        text = obs_export.to_prometheus(obs.collect())
        return HttpResponse(
            status=200,
            body=text.encode("utf-8"),
            content_type="text/plain; version=0.0.4",
        )

    def _lookup(self, name: str, *, mutation: bool) -> "IndexState | HttpResponse":
        """The served index *name*, or the 404/503 that refuses it."""
        state = self._indexes.get(name)
        if state is None:
            if obs.ENABLED and mutation:
                obs.incr(names.SERVE_MUTATIONS_REJECTED)
            elif obs.ENABLED:
                obs.incr(names.SERVE_RESPONSES_REJECTED)
            return json_response(
                404,
                {"error": "unknown_index", "index": name, "known": sorted(self._indexes)},
            )
        if state.quarantined:
            if obs.ENABLED:
                obs.incr(names.SERVE_RESPONSES_UNAVAILABLE)
            return json_response(
                503,
                {"error": "index_quarantined", "index": name, "detail": state.error},
            )
        return state

    # ------------------------------------------------------------------
    # The query path
    # ------------------------------------------------------------------
    async def _handle_query(self, request: HttpRequest) -> HttpResponse:
        started = time.perf_counter()
        tenant = self.policy.resolve(request.header("x-tenant-class") or None)
        if obs.ENABLED:
            obs.incr(names.tenant_outcome(tenant.name, "requests"))
        try:
            params = _parse_query_payload(request.json())
        except (ProtocolError, ValidationError) as error:
            if obs.ENABLED:
                obs.incr(names.SERVE_RESPONSES_REJECTED)
            return json_response(
                400, {"error": "validation", "message": str(error)}
            )

        state = self._lookup(params["index"], mutation=False)
        if isinstance(state, HttpResponse):
            return state
        if not state.breaker.allow():
            return self._shed(
                tenant, "breaker_open", state.breaker.retry_after_s()
            )

        decision = self.admission.try_admit(tenant)
        if not decision.admitted:
            # The breaker probe (if any) was never spent on the index;
            # settle it as a success so a shed cannot re-open a breaker.
            if state.breaker.state is not BreakerState.CLOSED:
                state.breaker.record_success()
            return self._shed(
                tenant, decision.reason or "queue_full", decision.retry_after_s
            )

        try:
            async with self.admission.slot():
                settled = await run_with_retry(
                    functools.partial(self._attempt, state, tenant, params),
                    self.retry_policy,
                    self._rng,
                    allow_retry=tenant.retry,
                    hedge=tenant.hedge,
                )
        except (ValidationError, WorkerUnavailable) as error:
            # The query layer rejected the request (dimension mismatch,
            # bad criterion), or no pooled worker was left to run it:
            # neither is index damage, so a breaker probe settles clean.
            if state.breaker.state is not BreakerState.CLOSED:
                state.breaker.record_success()
            if isinstance(error, WorkerUnavailable):
                return self._worker_unavailable()
            if obs.ENABLED:
                obs.incr(names.SERVE_RESPONSES_REJECTED)
            return json_response(
                400, {"error": "validation", "message": str(error)}
            )
        outcome = settled.outcome
        self._settle_breaker(state, outcome)
        duration_s = time.perf_counter() - started
        if obs.ENABLED:
            obs.observe(names.SERVE_LATENCY_S, duration_s)
        if self.event_log is not None:
            degraded = (
                isinstance(outcome, PartialResult) and outcome.report.degraded
            )
            self.event_log.emit_outcome(
                f"serve.{params['kind']}",
                outcome,
                duration_s,
                tenant=tenant.name,
                status=206 if degraded else 200,
            )
        return self._render_outcome(tenant, params, outcome, settled.attempts)

    # ------------------------------------------------------------------
    # The mutation path (streaming indexes only)
    # ------------------------------------------------------------------
    async def _handle_mutate(self, request: HttpRequest) -> HttpResponse:
        """One durable mutation: validate → admit → WAL append → ack.

        The 200 is sent only after the record is fsynced (the append
        returns post-sync); a failed append answers 503 with
        ``acked: false`` — the service never fabricates durability.
        Invalid payloads are 400 with a typed ``ValidationError`` body,
        and overload sheds with 429 exactly like the query path.
        """
        started = time.perf_counter()
        tenant = self.policy.resolve(request.header("x-tenant-class") or None)
        if obs.ENABLED:
            obs.incr(names.SERVE_MUTATIONS)
            obs.incr(names.tenant_outcome(tenant.name, "requests"))
        try:
            payload = request.json()
        except ProtocolError as error:
            return self._reject_mutation(tenant, str(error))
        index_name = payload.get("index", "default")
        if not isinstance(index_name, str) or not index_name:
            return self._reject_mutation(
                tenant, f"index must be a non-empty string, got {index_name!r}"
            )
        state = self._lookup(index_name, mutation=True)
        if isinstance(state, HttpResponse):
            return state
        if not state.mutable:
            if obs.ENABLED:
                obs.incr(names.SERVE_MUTATIONS_REJECTED)
            return json_response(
                409,
                {
                    "error": "immutable_index",
                    "index": state.name,
                    "message": "index was loaded from a frozen snapshot; "
                    "serve it with --stream to accept mutations",
                },
            )
        try:
            op, key, sphere = validate_mutation(
                {k: v for k, v in payload.items() if k != "index"},
                state.dimension,
            )
        except ValidationError as error:
            return self._reject_mutation(tenant, str(error))

        decision = self.admission.try_admit(tenant)
        if not decision.admitted:
            return self._shed(
                tenant, decision.reason or "queue_full", decision.retry_after_s
            )

        try:
            async with self.admission.slot():
                ack = await self._mutate(state, op, key, sphere)
        except (StreamError, OSError, ArithmeticError, WorkerUnavailable) as error:
            # The append (or its fsync) failed — including an injected
            # WAL-seam explosion, or a mutation worker that never came
            # back: nothing was acked, and saying so honestly beats a
            # fabricated 200.
            if obs.ENABLED:
                obs.incr(names.SERVE_MUTATIONS_REJECTED)
            return json_response(
                503,
                {
                    "error": "mutation_failed",
                    "acked": False,
                    "message": f"{type(error).__name__}: {error}",
                },
            )
        duration_s = time.perf_counter() - started
        if obs.ENABLED:
            obs.incr(names.SERVE_MUTATIONS_ACKED)
            obs.incr(names.tenant_outcome(tenant.name, "ok"))
        if self.event_log is not None:
            self.event_log.emit_outcome(
                "serve.mutate", [], duration_s, tenant=tenant.name, status=200
            )
        return json_response(
            200,
            {
                "acked": True,
                **ack,
                "op": op,
                "key": key,
                "index": state.name,
                "tenant_class": tenant.name,
            },
        )

    def _reject_mutation(
        self, tenant: TenantClass, message: str
    ) -> HttpResponse:
        if obs.ENABLED:
            obs.incr(names.SERVE_MUTATIONS_REJECTED)
        if self.event_log is not None:
            self.event_log.emit_outcome(
                "serve.mutate", [], 0.0, tenant=tenant.name, status=400
            )
        return json_response(
            400,
            {
                "error": "validation",
                "type": "ValidationError",
                "message": message,
            },
        )

    async def _attempt(
        self,
        state: IndexState,
        tenant: TenantClass,
        params: "dict[str, Any]",
    ) -> Any:
        """One budgeted query attempt; retries call it again.

        Runs :func:`run_attempt` on the executor.  The pooled server
        overrides it to send the attempt to a worker instead.
        """
        return await self._run_sync(
            functools.partial(run_attempt, state, tenant, params)
        )

    async def _mutate(
        self, state: IndexState, op: str, key: Any, sphere: "Hypersphere | None"
    ) -> "dict[str, Any]":
        """Apply one validated mutation; returns the ack's ``seq`` field.

        Runs :func:`apply_mutation` on the executor; the pooled server
        sends it to the mutation worker instead.
        """
        assert state.stream is not None
        seq = await self._run_sync(
            functools.partial(apply_mutation, state.stream, op, key, sphere)
        )
        return {"seq": seq}

    async def _run_sync(self, work: "Callable[[], _T]") -> "_T":
        """Run one query attempt or mutation on an executor thread.

        Budgets, deadlines and fault scopes travel in contextvars, so
        *work* runs under a copy of the caller's context: otherwise an
        injected seam active for this request would not fire in the
        thread, and the budget would not charge.
        """
        loop = asyncio.get_running_loop()
        context = contextvars.copy_context()
        return await loop.run_in_executor(self._executor, context.run, work)

    def _settle_breaker(self, state: IndexState, outcome: Any) -> None:
        """Feed the request's index-health signal to the breaker.

        Absorbed faults are the breaker's failure signal; deadline or
        quota exhaustion is load, not index damage, and counts as a
        success so overload alone can never open a breaker.
        """
        report = getattr(outcome, "report", None)
        if report is not None and report.absorbed_faults > 0:
            state.breaker.record_failure()
        else:
            state.breaker.record_success()

    #: The ``Retry-After`` of a 503 ``worker_unavailable``.
    _WORKER_RETRY_S = 0.2

    def _worker_unavailable(self) -> HttpResponse:
        """The honest 503 when no pooled worker could answer a query."""
        if obs.ENABLED:
            obs.incr(names.SERVE_RESPONSES_UNAVAILABLE)
        return json_response(
            503,
            {"error": "worker_unavailable", "retry_after_s": self._WORKER_RETRY_S},
            headers={"Retry-After": f"{self._WORKER_RETRY_S:.3f}"},
        )

    def _shed(
        self, tenant: TenantClass, reason: str, retry_after_s: float
    ) -> HttpResponse:
        if obs.ENABLED:
            obs.incr(names.SERVE_RESPONSES_SHED)
            obs.incr(names.tenant_outcome(tenant.name, "shed"))
        if self.event_log is not None:
            self.event_log.emit_outcome(
                "serve.shed", [], 0.0, tenant=tenant.name, status=429
            )
        retry_after = max(retry_after_s, 0.05)
        return json_response(
            429,
            {
                "error": "shed",
                "reason": reason,
                "retry_after_s": retry_after,
                "tenant_class": tenant.name,
            },
            headers={"Retry-After": f"{retry_after:.3f}"},
        )

    def _render_outcome(
        self,
        tenant: TenantClass,
        params: "dict[str, Any]",
        outcome: Any,
        attempts: int,
    ) -> HttpResponse:
        degraded = isinstance(outcome, PartialResult) and outcome.report.degraded
        payload: "dict[str, Any]" = {
            "kind": params["kind"],
            "index": params["index"],
            "tenant_class": tenant.name,
            "attempts": attempts,
            "degraded": degraded,
        }
        if isinstance(outcome, PartialResult):
            serialised = outcome.to_dict()
            payload["result"] = serialised["value"]
            payload["report"] = serialised["report"]
        else:
            payload["result"] = to_jsonable(outcome)
            payload["report"] = None
        if degraded:
            if obs.ENABLED:
                obs.incr(names.SERVE_RESPONSES_DEGRADED)
                obs.incr(names.tenant_outcome(tenant.name, "degraded"))
            return json_response(206, payload)
        if obs.ENABLED:
            obs.incr(names.SERVE_RESPONSES_OK)
            obs.incr(names.tenant_outcome(tenant.name, "ok"))
        return json_response(200, payload)

    # ------------------------------------------------------------------
    # Connection plumbing
    # ------------------------------------------------------------------
    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One connection: one request, one response, close."""
        try:
            try:
                request = await asyncio.wait_for(
                    read_request(reader), timeout=_READ_TIMEOUT_S
                )
            except asyncio.TimeoutError:
                if obs.ENABLED:
                    obs.incr(names.SERVE_PROTOCOL_ERRORS)
                await write_response(
                    writer, json_response(408, {"error": "request_timeout"})
                )
                return
            except ProtocolError as error:
                if obs.ENABLED:
                    obs.incr(names.SERVE_PROTOCOL_ERRORS)
                status = int(getattr(error, "status", 400))
                await write_response(
                    writer,
                    json_response(
                        status, {"error": "protocol", "message": str(error)}
                    ),
                )
                return
            try:
                response = await self.handle(request)
            except ReproError as error:
                # A typed library failure on a non-degraded path: the
                # honest admission that this one request failed.
                response = json_response(
                    500, {"error": type(error).__name__, "message": str(error)}
                )
            await write_response(writer, response)
        except (ConnectionResetError, BrokenPipeError):
            pass  # the client hung up; nothing to answer
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass


def run_attempt(
    state: IndexState, tenant: TenantClass, params: "dict[str, Any]"
) -> Any:
    """One budgeted query attempt: the body both serving modes run.

    Mints the tenant's budget, consults :func:`_handler_hook` and runs
    :func:`_execute_query` under the budget scope; an
    ``ArithmeticError`` from either is absorbed into a conservative
    206, never a 5xx.  A :class:`ValidationError` propagates (a 400).
    """
    budget = tenant.mint_budget()
    with budget_scope(budget):
        try:
            delay = float(_handler_hook())
        except ArithmeticError as error:
            return _absorbed_handler_fault(error)
        if delay > 0.0:
            time.sleep(min(delay, _MAX_HANDLER_DELAY_S))
        try:
            return _execute_query(state, params)
        except ArithmeticError as error:
            # An explosion that escaped the query layer's own
            # absorption: still a conservative 206, never a 5xx.
            return _absorbed_handler_fault(error)


def apply_mutation(
    stream: StreamingIndex, op: str, key: Any, sphere: "Hypersphere | None"
) -> int:
    """Append one validated mutation to *stream*; its seq, once fsynced."""
    if op == "insert":
        assert sphere is not None
        return stream.insert(key, sphere)
    return stream.delete(key)


def _absorbed_handler_fault(error: ArithmeticError) -> PartialResult:
    """A handler-level explosion, absorbed into an honest empty 206.

    The report carries ``exhausted="fault"`` (a *transient* reason, so
    the retry policy may spend a second attempt) and one absorbed
    fault; the empty answer plus ``complete=False`` is conservative —
    no certified verdict is fabricated.
    """
    if obs.ENABLED:
        obs.incr(names.SERVE_HANDLER_FAULTS)
    report = ResilienceReport()
    report.mark_incomplete("fault")
    report.absorbed_faults = 1
    report.mark_conservative(f"handler fault absorbed: {error}")
    return PartialResult([], report)


def _parse_query_payload(payload: "dict[str, Any]") -> "dict[str, Any]":
    """Validate one /query body into executable parameters (or 400)."""
    kind = payload.get("kind", "knn")
    if kind not in QUERY_KINDS:
        raise ValidationError(
            f"kind must be one of {', '.join(QUERY_KINDS)}; got {kind!r}"
        )
    index_name = payload.get("index", "default")
    if not isinstance(index_name, str) or not index_name:
        raise ValidationError(f"index must be a non-empty string, got {index_name!r}")
    center = payload.get("center")
    if not isinstance(center, list) or not center or not all(
        isinstance(c, (int, float)) and not isinstance(c, bool) for c in center
    ):
        raise ValidationError("center must be a non-empty list of numbers")
    radius = payload.get("radius", 0.0)
    if isinstance(radius, bool) or not isinstance(radius, (int, float)):
        raise ValidationError(f"radius must be a number, got {radius!r}")
    try:
        query = Hypersphere([float(c) for c in center], float(radius))
    except ReproError as error:
        raise ValidationError(f"invalid query sphere: {error}") from None
    k = payload.get("k", 1)
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise ValidationError(f"k must be a positive integer, got {k!r}")
    criterion = payload.get("criterion", "hyperbola")
    # Top-k dominating scores through a batch kernel; knn and rknn call
    # the criterion itself.  A name the kind cannot run is the client's
    # error, caught here rather than as a crash inside the executor.
    runnable = tuple(
        available_kernels() if kind == "dominating" else available_criteria()
    )
    if criterion not in runnable:
        raise ValidationError(
            f"criterion for a {kind} query must be one of "
            f"{', '.join(runnable)}; got {criterion!r}"
        )
    return {
        "kind": kind,
        "index": index_name,
        "query": query,
        "k": k,
        "criterion": criterion,
    }


def _execute_query(state: IndexState, params: "dict[str, Any]") -> Any:
    """Run the validated query against the (healthy) index state.

    Runs on an executor thread, inside the request's budget scope and
    copied context.  :class:`ValidationError` from the query layer
    (bad ``k``, dimension mismatch) propagates to the caller, which
    maps it onto a 400 — see :meth:`ServeApp._handle_query`.
    """
    kind = params["kind"]
    stream = state.stream
    if stream is not None:
        # Streaming index: the engine captures a consistent (base,
        # overlay) pair under its lock and merges at query time.
        if kind == "knn":
            return stream.query_knn(
                params["query"], params["k"], criterion=params["criterion"]
            )
        if kind == "rknn":
            return stream.query_rknn(
                params["query"], criterion=params["criterion"]
            )
        return stream.query_dominating(
            params["query"], params["k"], criterion=params["criterion"]
        )
    assert state.index is not None and state.flat is not None
    if kind == "knn":
        return knn_query(
            state.index, params["query"], params["k"], criterion=params["criterion"]
        )
    if kind == "rknn":
        return rnn_candidates(
            state.flat, params["query"], criterion=params["criterion"]
        )
    return top_k_dominating(
        state.flat, params["query"], params["k"], criterion=params["criterion"]
    )


async def start_server(
    app: ServeApp, host: str = "127.0.0.1", port: int = 0
) -> "asyncio.AbstractServer":
    """Bind *app* (no lifecycle); ``server.sockets[0].getsockname()``
    has the port.  :meth:`ServeApp.start` is the managed form."""
    return await asyncio.start_server(app.handle_connection, host=host, port=port)
