"""The traced run: per-layer metrics from spans and obs counters.

A traced run (``--trace 1``) first drives the workload for half the run
against a real ``repro serve`` process, untraced, for the baseline the
tracing overhead is measured against.  It then hosts the same server
inside this process, on its own event-loop thread, with a span wrapped
around calls into each layer's public functions (:data:`HOOKS`), and
drives the workload again for the other half.

Spans live in memory (:class:`Recorder`).  Each carries the request it
belongs to: the root span opens per connection, and the
``x-bench-request-id`` header the client sends names the request once
it is parsed.  The id travels in a context variable, so it follows a
query across the executor hop through the copied context
``ServeApp`` runs it in.  A layer's self time is its span minus the
part of that interval its child spans cover.

With ``--workers`` the query runs in a worker process, out of reach of
the spans.  The supervisor is still hosted in-process, with the config
the CLI builds (:func:`pool_config`), and afterwards a sample of the
live requests is replayed through an in-process ``ServeApp`` built
from the first query worker's config: ``pool.hop_ms`` is the
supervisor's handling time minus the replay's, and the query-layer
numbers come from the replays.

Hot per-pair calls such as ``Hyperbola.dominates`` are not wrapped:
their time is estimated from obs counters times per-call costs
calibrated on the workload's own triples.  A hook whose target no
longer exists is reported ``absent`` and its metrics read 0; it never
fails the run.
"""

from __future__ import annotations

import asyncio
import contextlib
import contextvars
import importlib
import inspect
import json
import os
import random
import statistics
import threading
import time
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Iterator, Sequence

import numpy as np

from perfbench.loadgen import REQUEST_ID_HEADER, HttpTransport, Sample
from perfbench.metrics import PER_LAYER
from perfbench.suite import (
    RunResult,
    answered,
    drive,
    serve,
    verify,
    warm_up,
    workload_stats,
)
from perfbench.workloads import Inputs, WorkloadSpec, build_inputs
from repro import obs
from repro.core.base import get_criterion
from repro.core.batch import batch_evaluate
from repro.geometry.hypersphere import Hypersphere
from repro.serve import cli, supervisor
from repro.serve.app import start_server
from repro.serve.protocol import HttpRequest
from repro.serve.supervisor import SupervisorConfig
from repro.serve.worker import build_worker_app

__all__ = [
    "HOOKS",
    "Hook",
    "Recorder",
    "Span",
    "install",
    "layer_metrics",
    "pool_config",
    "run_traced",
]

#: Live requests replayed through an in-process worker app, at most.
REPLAY_REQUESTS = 60
#: Wall clock the replays may take, at most.
REPLAY_SECONDS = 4.0
#: Replays stay below the default tenant's rate limit (50/s).
REPLAY_INTERVAL_S = 0.025

#: Spans that start the call a request was admitted for.
QUERY_SPANS = ("query.knn", "query.rknn", "query.dominating")
CALL_SPANS = (*QUERY_SPANS, "stream.insert", "stream.delete")


@dataclass
class RequestTag:
    """The request a span belongs to; shared by every span of it."""

    id: "str | None" = None
    source: str = "live"  # "live" | "replay"


@dataclass(eq=False)
class Span:
    name: str
    tag: RequestTag
    parent: "Span | None"
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


_current: "contextvars.ContextVar[Span | None]" = contextvars.ContextVar(
    "perfbench_span", default=None
)


class Recorder:
    """Keeps every finished span in memory."""

    def __init__(self) -> None:
        self.spans: "list[Span]" = []

    @contextlib.contextmanager
    def span(self, name: str, tag: "RequestTag | None" = None) -> "Iterator[Span]":
        parent = _current.get()
        if tag is None:
            tag = parent.tag if parent is not None else RequestTag()
        span = Span(name, tag, parent, time.perf_counter())
        token = _current.set(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            _current.reset(token)
            self.spans.append(span)  # list.append is atomic across threads


@dataclass(frozen=True)
class Hook:
    """A span around calls to ``module.attribute`` (``Class.method`` allowed)."""

    module: str
    attribute: str
    span: str
    #: "call" wraps a function or coroutine function; "enter" times
    #: entering the async context manager the function returns; "read"
    #: is a "call" that also names the request from its parsed headers.
    mode: str = "call"

    @property
    def target(self) -> str:
        return f"{self.module}.{self.attribute}"


HOOKS: "tuple[Hook, ...]" = (
    Hook("repro.serve.app", "ServeApp.handle_connection", "connection"),
    Hook("repro.serve.supervisor", "Supervisor.handle_connection", "connection"),
    Hook("repro.serve.app", "read_request", "protocol.read", "read"),
    Hook("repro.serve.supervisor", "read_request", "protocol.read", "read"),
    Hook("repro.serve.app", "write_response", "protocol.write"),
    Hook("repro.serve.supervisor", "write_response", "protocol.write"),
    Hook("repro.serve.app", "ServeApp.handle", "app.handle"),
    Hook("repro.serve.supervisor", "Supervisor.handle", "pool.handle"),
    Hook(
        "repro.serve.admission", "AdmissionController.slot", "admission.wait", "enter"
    ),
    Hook("repro.serve.app", "knn_query", "query.knn"),
    Hook("repro.serve.app", "rnn_candidates", "query.rknn"),
    Hook("repro.serve.app", "top_k_dominating", "query.dominating"),
    Hook("repro.stream.engine", "StreamingIndex.query_knn", "query.knn"),
    Hook("repro.stream.engine", "StreamingIndex.query_rknn", "query.rknn"),
    Hook("repro.stream.engine", "StreamingIndex.query_dominating", "query.dominating"),
    Hook("repro.stream.engine", "StreamingIndex.insert", "stream.insert"),
    Hook("repro.stream.engine", "StreamingIndex.delete", "stream.delete"),
    Hook("repro.stream.engine", "StreamingIndex.open", "stream.open"),
    Hook("repro.stream.wal", "WriteAheadLog.append", "wal.append"),
    Hook("repro.stream.wal", "_fsync", "wal.fsync"),
    Hook("repro.index.snapshot", "load", "index.snapshot_load"),
)


class _TimedEnter:
    """Wraps an async context manager; a span covers entering it."""

    def __init__(self, inner: Any, recorder: Recorder, name: str) -> None:
        self._inner = inner
        self._recorder = recorder
        self._name = name

    async def __aenter__(self) -> Any:
        with self._recorder.span(self._name):
            return await self._inner.__aenter__()

    async def __aexit__(self, *exc_info: Any) -> Any:
        return await self._inner.__aexit__(*exc_info)


def _name_request(request: Any) -> None:
    headers = getattr(request, "headers", None)
    span = _current.get()
    if isinstance(headers, dict) and span is not None:
        span.tag.id = headers.get(REQUEST_ID_HEADER, span.tag.id)


def _wrap(
    function: Callable[..., Any], hook: Hook, recorder: Recorder
) -> Callable[..., Any]:
    if hook.mode == "enter":

        def enter(*args: Any, **kwargs: Any) -> _TimedEnter:
            return _TimedEnter(function(*args, **kwargs), recorder, hook.span)

        return enter
    if inspect.iscoroutinefunction(function):

        async def call_async(*args: Any, **kwargs: Any) -> Any:
            with recorder.span(hook.span):
                result = await function(*args, **kwargs)
                if hook.mode == "read":
                    _name_request(result)
                return result

        return call_async

    def call(*args: Any, **kwargs: Any) -> Any:
        with recorder.span(hook.span):
            return function(*args, **kwargs)

    return call


def _resolve(hook: Hook) -> "tuple[Any, str, Any] | None":
    """``(owner, name, raw attribute)``, or ``None`` when it is gone."""
    try:
        owner: Any = importlib.import_module(hook.module)
    except ImportError:
        return None
    *path, name = hook.attribute.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    # Read a class's own dict so classmethods come back undecorated.
    if isinstance(owner, type):
        raw = vars(owner).get(name)
    else:
        raw = getattr(owner, name, None)
    if raw is None or not callable(getattr(raw, "__func__", raw)):
        return None
    return owner, name, raw


@contextlib.contextmanager
def install(
    hooks: "Sequence[Hook]", recorder: Recorder
) -> "Iterator[dict[str, str]]":
    """Wrap every hook's target; yields ``{target: "hooked" | "absent"}``."""
    status: "dict[str, str]" = {}
    installed: "list[tuple[Any, str, Any]]" = []
    try:
        for hook in hooks:
            resolved = _resolve(hook)
            if resolved is None:
                status[hook.target] = "absent"
                continue
            owner, name, raw = resolved
            if isinstance(raw, (classmethod, staticmethod)):
                replacement: Any = type(raw)(_wrap(raw.__func__, hook, recorder))
            else:
                replacement = _wrap(raw, hook, recorder)
            setattr(owner, name, replacement)
            installed.append((owner, name, raw))
            status[hook.target] = "hooked"
        yield status
    finally:
        for owner, name, raw in reversed(installed):
            setattr(owner, name, raw)


def self_time(span: Span, children: "Sequence[tuple[float, float]]") -> float:
    """*span*'s duration minus the part of it the child intervals cover."""
    covered = 0.0
    reach = span.start
    for start, end in sorted(children):
        start, end = max(start, reach), min(end, span.end)
        if end > start:
            covered += end - start
            reach = end
    return span.duration - covered


def pool_config(argv: "Sequence[str]") -> SupervisorConfig:
    """The config ``repro serve ARGV --workers N`` boots its pool with.

    The CLI itself builds it: ``cli.main`` runs with a stand-in
    ``Supervisor`` that records its config and serves nothing, so the
    pool hosted here cannot drift from the one ``repro serve`` boots.
    """
    configs: "list[SupervisorConfig]" = []

    class Recording:
        def __init__(self, config: SupervisorConfig) -> None:
            configs.append(config)

        async def serve_until_drained(self, host: str, port: int) -> None:
            return None

    real = supervisor.Supervisor
    setattr(supervisor, "Supervisor", Recording)
    try:
        code = cli.main(list(argv))
    finally:
        setattr(supervisor, "Supervisor", real)
    if code != 0 or len(configs) != 1:
        raise RuntimeError(f"repro serve {' '.join(argv)} built no worker pool")
    return configs[0]


class InProcessHost:
    """The workload's server, hosted on an event loop in this process."""

    def __init__(self, inputs: Inputs) -> None:
        self._inputs = inputs
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._loop.run_forever, daemon=True)
        self._close: "Callable[[], Awaitable[None]] | None" = None
        #: With ``--workers``: the config the first query worker boots
        #: with, for the in-process replays.
        self.worker_config: "dict[str, Any] | None" = None

    def start(self) -> int:
        obs.enable()
        self._thread.start()
        argv = [*self._inputs.server_args(), "--port", "0"]
        args = cli.build_parser().parse_args(argv)
        config = pool_config(argv) if args.workers else None
        future = asyncio.run_coroutine_threadsafe(self._boot(args, config), self._loop)
        return future.result(timeout=120)

    async def _boot(self, args: Any, config: "SupervisorConfig | None") -> int:
        if config is not None:
            pool = supervisor.Supervisor(config)
            _, port = await pool.start("127.0.0.1", 0)
            self._close = pool.drain_and_stop
            self.worker_config = pool._worker_config(
                supervisor.WorkerSlot(slot=0, role="query")
            )
            return int(port)
        app = cli.build_app(args)
        server = await start_server(app, host="127.0.0.1", port=0)

        async def close() -> None:
            server.close()
            await server.wait_closed()
            app.close(drain_s=0.0)
            for state in app.indexes.values():
                if state.stream is not None:
                    state.stream.close()

        self._close = close
        return int(server.sockets[0].getsockname()[1])

    def stop(self) -> None:
        if self._close is not None:
            closing = asyncio.run_coroutine_threadsafe(self._close(), self._loop)
            closing.result(timeout=30)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=30)
        self._loop.close()


async def _replay(
    app: Any, samples: "Sequence[Sample]", recorder: Recorder
) -> int:
    """Replay answered live queries through *app*, one at a time."""
    deadline = time.perf_counter() + REPLAY_SECONDS
    replayed = 0
    for sample in samples:
        if replayed == REPLAY_REQUESTS or time.perf_counter() > deadline:
            break
        if not answered(sample) or sample.request.kind == "mutate":
            continue
        request = HttpRequest(
            method="POST",
            path=sample.request.path,
            query={},
            headers={},
            body=sample.request.body,
        )
        with recorder.span("replay", RequestTag(sample.request_id, "replay")):
            await app.handle(request)
        replayed += 1
        await asyncio.sleep(REPLAY_INTERVAL_S)
    return replayed


def run_traced(
    spec: WorkloadSpec, seed: int, seconds: float, workdir: str
) -> RunResult:
    """Untraced half, then traced in-process half; per-layer metrics."""
    half = seconds / 2.0
    baseline = build_inputs(spec, seed, os.path.join(workdir, "untraced"))
    untraced = serve(baseline, half, workdir, boots=1).samples
    untraced_verdict = verify(baseline, untraced)
    untraced_stats = workload_stats(spec, untraced)

    inputs = build_inputs(spec, seed, os.path.join(workdir, "traced"))
    recorder = Recorder()
    with install(HOOKS, recorder) as status:
        host = InProcessHost(inputs)
        try:
            port = host.start()
            traced, counters, replayed = asyncio.run(
                _traced_drive(inputs, port, half, recorder, host.worker_config)
            )
        finally:
            host.stop()
            obs.disable()
    verdict = verify(inputs, traced)
    stats = workload_stats(spec, traced)
    values = layer_metrics(
        recorder.spans,
        counters,
        traced,
        live_entries=verdict.live_entries,
        costs=calibrate(inputs),
    )
    values["trace.overhead_frac"] = (
        stats["latency_ms"] / untraced_stats["latency_ms"] - 1.0
    )
    values["loadgen.lag_p99_ms"] = untraced_stats["lag_p99_ms"]
    units = {metric.name: metric.unit for metric in PER_LAYER}
    assert set(values) == set(units), set(values) ^ set(units)
    samples = [*untraced, *traced]
    result = RunResult(
        correct=untraced_verdict.correct and verdict.correct,
        attempted=len(samples),
        failed=sum(not answered(s) for s in samples),
        metrics={name: (float(values[name]), units[name]) for name in units},
    )
    absent = ", ".join(t for t, state in status.items() if state == "absent")
    problems = [*untraced_verdict.problems, *verdict.problems]
    result.lines = [
        f"untraced latency {untraced_stats['latency_ms']:.2f} ms, "
        f"traced latency {stats['latency_ms']:.2f} ms",
        f"spans {len(recorder.spans)}, replayed {replayed}, "
        f"absent hooks: {absent or 'none'}",
        *(f"CHECK FAILED: {problem}" for problem in problems[:20]),
    ]
    result.extra = {
        "hooks": status,
        "spans": [
            {
                "name": span.name,
                "request": span.tag.id,
                "source": span.tag.source,
                "parent": None if span.parent is None else span.parent.name,
                "start": span.start,
                "end": span.end,
            }
            for span in recorder.spans
        ],
    }
    return result


async def _traced_drive(
    inputs: Inputs,
    port: int,
    seconds: float,
    recorder: Recorder,
    worker_config: "dict[str, Any] | None",
) -> "tuple[list[Sample], dict[str, Any], int]":
    transport = HttpTransport("127.0.0.1", port)
    await warm_up(inputs, transport)
    before = obs.collect()
    samples = await drive(inputs, transport, seconds)
    replayed = 0
    if worker_config is not None:
        app = build_worker_app(worker_config)
        try:
            replayed = await _replay(app, samples, recorder)
        finally:
            app.close(drain_s=0.0)
    return samples, obs.diff(before, obs.collect()), replayed


def _mean(values: "Sequence[float]") -> float:
    return statistics.fmean(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    spans: "Sequence[Span]",
    counters: "dict[str, Any]",
    samples: "Sequence[Sample]",
    *,
    live_entries: "Sequence[int]",
    costs: "dict[str, float]",
) -> "dict[str, float]":
    """Every per-layer metric but the two the caller measures itself."""
    measured = [
        s for s in spans if s.tag.id is not None and not s.tag.id.startswith("warmup")
    ]
    live = [s for s in measured if s.tag.source == "live"]
    children: "dict[int, list[Span]]" = {}
    for span in measured:
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append(span)

    def mean_ms(name: str, pool: "Sequence[Span]" = measured) -> float:
        return 1000.0 * _mean([s.duration for s in pool if s.name == name])

    self_ms: "list[float]" = []
    waits: "list[float]" = []
    for handle in (s for s in measured if s.name == "app.handle"):
        kids = children.get(id(handle), [])
        intervals = [(k.start, k.end) for k in kids]
        slot = [k.end for k in kids if k.name == "admission.wait"]
        starts = [k.start for k in kids if k.name in CALL_SPANS]
        if slot and starts:
            waits.append(min(starts) - slot[0])
            intervals.append((slot[0], min(starts)))
        self_ms.append(1000.0 * self_time(handle, intervals))

    replays = {
        s.tag.id: s.duration
        for s in measured
        if s.name == "app.handle" and s.tag.source == "replay"
    }
    # Per request, so that both sides carry the same query; the median,
    # because one side of a pair is sometimes caught by a pause.
    hops = [
        s.duration - replays[s.tag.id]
        for s in live
        if s.name == "pool.handle" and s.tag.id in replays
    ]

    attempts = []
    for sample in samples:
        if sample.status == 200 and sample.request.kind != "mutate":
            attempts.append(float(json.loads(sample.body).get("attempts", 1)))

    count = counters.get("counters", {})
    hist = counters.get("histograms", {})
    queries = sum(1 for s in measured if s.name in QUERY_SPANS)
    knn_queries = count.get("knn.queries", 0)
    scanned = count.get("knn.entries_considered", 0)
    fast = sum(
        count.get(f"hyperbola.fast_path.{path}", 0)
        for path in ("overlap", "center_outside", "point_query")
    )
    calls = count.get("hyperbola.calls", 0)
    quartic = count.get("hyperbola.quartic", 0)
    batch_calls = count.get("batch.calls", 0)
    batch_rows = hist.get("batch.workload_rows", {}).get("sum", 0.0)
    dominance_s = (
        (calls - quartic) * costs["fast_s"]
        + quartic * costs["quartic_s"]
        + batch_calls * costs["batch_call_s"]
        + batch_rows * costs["batch_row_s"]
    )
    admitted = count.get("serve.admission.admitted", 0)
    shed = count.get("serve.admission.queue_full", 0) + count.get(
        "serve.admission.rate_limited", 0
    )
    record_bytes = hist.get("wal.record_bytes", {})
    knn_ms = mean_ms("query.knn")
    dominance_ms = 1000.0 * _ratio(dominance_s, queries)
    return {
        "protocol.read_ms": mean_ms("protocol.read", live),
        "protocol.write_ms": mean_ms("protocol.write", live),
        "admission.wait_ms": mean_ms("admission.wait", live),
        "admission.shed_frac": _ratio(shed, admitted + shed),
        "app.self_ms": _mean(self_ms),
        "app.executor_wait_ms": 1000.0 * _mean(waits),
        "retry.attempts_per_request": _mean(attempts),
        "pool.hop_ms": 1000.0 * statistics.median(hops) if hops else 0.0,
        "query.knn_ms": knn_ms,
        "query.rknn_ms": mean_ms("query.rknn"),
        "query.dominating_ms": mean_ms("query.dominating"),
        "knn.answer_per_scanned": _ratio(
            hist.get("knn.answer_size", {}).get("sum", 0.0), scanned
        ),
        "knn.dominance_checks_per_query": _ratio(
            count.get("knn.dominance_checks", 0), knn_queries
        ),
        "index.node_accesses_per_query": _ratio(
            count.get("knn.node_accesses", 0), knn_queries
        ),
        "index.scan_ratio": _ratio(scanned, knn_queries * _mean(live_entries)),
        "index.snapshot_load_ms": mean_ms("index.snapshot_load", spans),
        "core.hyperbola_calls_per_query": _ratio(calls, queries),
        "core.fast_path_ratio": _ratio(fast, calls),
        "core.quartic_solves_per_query": _ratio(quartic, queries),
        "core.batch_calls_per_query": _ratio(batch_calls, queries),
        "core.batch_rows_per_query": _ratio(batch_rows, queries),
        "core.dominance_est_ms": dominance_ms,
        "index.traversal_est_ms": knn_ms - dominance_ms if knn_ms else 0.0,
        "stream.insert_ms": mean_ms("stream.insert"),
        "stream.delete_ms": mean_ms("stream.delete"),
        "wal.append_ms": mean_ms("wal.append"),
        "wal.fsync_ms": mean_ms("wal.fsync"),
        "wal.bytes_per_mutation": _ratio(
            record_bytes.get("sum", 0.0), record_bytes.get("count", 0)
        ),
        "overlay.tombstone_hits_per_query": _ratio(
            count.get("stream.tombstone_hits", 0), knn_queries
        ),
        "stream.open_ms": mean_ms("stream.open", spans),
    }


def calibrate(inputs: Inputs, triples: int = 2000) -> "dict[str, float]":
    """Per-call dominance costs, timed on the workload's own triples.

    Scalar Hyperbola calls are split by whether they solved the quartic
    (the expensive path) or were settled earlier; batch calls get a
    fixed cost per call plus a cost per row.
    """
    rng = random.Random(0)
    entries = inputs.entries
    criterion = get_criterion("hyperbola")
    n, q = len(entries), len(inputs.queries)
    rows = [
        (rng.randrange(n), rng.randrange(n), rng.randrange(q)) for _ in range(triples)
    ]
    spheres = [Hypersphere(c, float(r)) for c, r in zip(entries.centers, entries.radii)]
    queries = [Hypersphere(c, r) for c, r in inputs.queries]
    timings: "dict[bool, list[float]]" = {True: [], False: []}
    with obs.enabled_scope(True), obs.scope():
        for a, b, c in rows:
            solved = obs.counter_value("hyperbola.quartic")
            started = time.perf_counter()
            criterion.dominates(spheres[a], spheres[b], queries[c])
            elapsed = time.perf_counter() - started
            timings[obs.counter_value("hyperbola.quartic") > solved].append(elapsed)
    everything = timings[True] + timings[False]
    ia, ib, iq = (np.array(column) for column in zip(*rows))
    qc = np.array([c for c, _ in inputs.queries])
    qr = np.array([r for _, r in inputs.queries])
    centers, radii = entries.centers, entries.radii
    arrays = (centers[ia], centers[ib], qc[iq], radii[ia], radii[ib], qr[iq])
    one = tuple(array[:1] for array in arrays)
    started = time.perf_counter()
    for _ in range(200):
        batch_evaluate("hyperbola", *one)
    per_call = (time.perf_counter() - started) / 200
    started = time.perf_counter()
    for _ in range(5):
        batch_evaluate("hyperbola", *arrays)
    per_row = max((time.perf_counter() - started) / 5 - per_call, 0.0) / triples
    return {
        "fast_s": statistics.median(timings[False] or everything),
        "quartic_s": statistics.median(timings[True] or everything),
        "batch_call_s": per_call,
        "batch_row_s": per_row,
    }
