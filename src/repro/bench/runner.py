"""Execute one benchmark topic into a ``BENCH_<topic>.json`` document.

Every run produces the same shape so documents from different commits
diff cleanly (:mod:`repro.bench.compare`):

- run provenance: git SHA, UTC timestamp, environment fingerprint
  (Python, platform, NumPy, CPU count) and the sweep mode;
- one record per parameter point with the raw sample count, exact
  latency percentiles (p50/p95/p99 computed from the collected samples,
  not streamed), throughput, and the obs counter delta of one
  instrumented pass (so a perf change can be attributed: did node
  accesses go up, or did the same work get slower?).

Timing passes run with instrumentation *disabled* — the trajectory
tracks the production configuration — and one extra pass per point runs
under a private enabled scope to capture the counters.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Any, Callable

import numpy as np

from repro import obs
from repro.data.synthetic import synthetic_dataset
from repro.data.workload import knn_queries
from repro.index.linear import LinearIndex
from repro.index.sstree import SSTree
from repro.obs import names
from repro.queries.dominating import top_k_dominating
from repro.queries.knn import knn_query
from repro.queries.rknn import rnn_candidates

__all__ = [
    "BenchDocument",
    "document_path",
    "read_document",
    "run_topic",
    "write_document",
]

#: Bumped when the document shape changes incompatibly.
SCHEMA_VERSION = 1


@dataclass
class BenchDocument:
    """One topic's trajectory entry: provenance plus per-point records."""

    topic: str
    git_sha: str
    timestamp: str
    quick: bool
    repeats: int
    seed: int
    env: "dict[str, Any]"
    points: "list[dict[str, Any]]" = field(default_factory=list)
    schema: int = SCHEMA_VERSION

    def to_dict(self) -> "dict[str, Any]":
        return {
            "schema": self.schema,
            "topic": self.topic,
            "git_sha": self.git_sha,
            "timestamp": self.timestamp,
            "quick": self.quick,
            "repeats": self.repeats,
            "seed": self.seed,
            "env": dict(self.env),
            "points": [dict(point) for point in self.points],
        }

    @classmethod
    def from_dict(cls, payload: "dict[str, Any]") -> "BenchDocument":
        return cls(
            topic=str(payload["topic"]),
            git_sha=str(payload.get("git_sha", "unknown")),
            timestamp=str(payload.get("timestamp", "")),
            quick=bool(payload.get("quick", False)),
            repeats=int(payload.get("repeats", 1)),
            seed=int(payload.get("seed", 0)),
            env=dict(payload.get("env", {})),
            points=[dict(point) for point in payload.get("points", [])],
            schema=int(payload.get("schema", SCHEMA_VERSION)),
        )


def git_sha() -> str:
    """The current commit SHA, or ``"unknown"`` outside a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except OSError:
        return "unknown"
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else "unknown"


def env_fingerprint() -> "dict[str, Any]":
    """The measurement environment, enough to flag incomparable runs."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "numpy": np.__version__,
        "cpus": os.cpu_count() or 1,
    }


def _percentile(samples: "list[float]", q: float) -> float:
    """Exact linear-interpolation percentile of the collected samples."""
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


def _latency_summary(samples: "list[float]") -> "dict[str, float]":
    return {
        "median": _percentile(samples, 50.0),
        "p50": _percentile(samples, 50.0),
        "p95": _percentile(samples, 95.0),
        "p99": _percentile(samples, 99.0),
        "mean": float(np.mean(samples)),
        "min": float(min(samples)),
        "max": float(max(samples)),
    }


def _point_dataset(params: "dict[str, Any]", seed: int) -> Any:
    """The point's synthetic dataset; ``mu`` (mean radius) defaults to 10."""
    return synthetic_dataset(
        int(params["n"]),
        int(params["d"]),
        mu=float(params.get("mu", 10.0)),
        radius_distribution=str(params.get("radius", "gaussian")),
        seed=seed,
    )


def _measure_build(
    params: "dict[str, Any]", seed: int, repeats: int
) -> "tuple[list[float], int, Callable[[], None]]":
    dataset = _point_dataset(params, seed)
    items = list(dataset.items())
    samples: "list[float]" = []
    for _ in range(repeats):
        started = time.perf_counter()
        SSTree.bulk_load(items)
        samples.append(time.perf_counter() - started)

    def instrumented() -> None:
        SSTree.bulk_load(items)

    return samples, repeats, instrumented


def _measure_knn(
    params: "dict[str, Any]", seed: int, repeats: int
) -> "tuple[list[float], int, Callable[[], None]]":
    dataset = _point_dataset(params, seed)
    tree = SSTree.bulk_load(dataset.items())
    queries = knn_queries(dataset, count=int(params["queries"]), seed=seed)
    k = int(params["k"])
    criterion = str(params["criterion"])
    samples: "list[float]" = []
    for _ in range(repeats):
        for query in queries:
            started = time.perf_counter()
            knn_query(tree, query, k, criterion=criterion)
            samples.append(time.perf_counter() - started)

    def instrumented() -> None:
        for query in queries:
            knn_query(tree, query, k, criterion=criterion)

    return samples, repeats * len(queries), instrumented


def _measure_rknn(
    params: "dict[str, Any]", seed: int, repeats: int
) -> "tuple[list[float], int, Callable[[], None]]":
    dataset = _point_dataset(params, seed)
    index = LinearIndex(dataset.items())
    queries = knn_queries(dataset, count=int(params["queries"]), seed=seed)
    criterion = str(params["criterion"])
    samples: "list[float]" = []
    for _ in range(repeats):
        for query in queries:
            started = time.perf_counter()
            rnn_candidates(index, query, criterion=criterion)
            samples.append(time.perf_counter() - started)

    def instrumented() -> None:
        for query in queries:
            rnn_candidates(index, query, criterion=criterion)

    return samples, repeats * len(queries), instrumented


def _measure_dominating(
    params: "dict[str, Any]", seed: int, repeats: int
) -> "tuple[list[float], int, Callable[[], None]]":
    dataset = _point_dataset(params, seed)
    index = LinearIndex(dataset.items())
    queries = knn_queries(dataset, count=int(params["queries"]), seed=seed)
    k = int(params["k"])
    criterion = str(params["criterion"])
    samples: "list[float]" = []
    for _ in range(repeats):
        for query in queries:
            started = time.perf_counter()
            top_k_dominating(index, query, k, criterion=criterion)
            samples.append(time.perf_counter() - started)

    def instrumented() -> None:
        for query in queries:
            top_k_dominating(index, query, k, criterion=criterion)

    return samples, repeats * len(queries), instrumented


def _stream_workload(
    params: "dict[str, Any]", seed: int
) -> "tuple[list[tuple[Any, Any]], list[tuple[str, Any, Any]]]":
    """Base entries plus a deterministic insert/delete mutation mix.

    Every fourth mutation tombstones a base key (round-robin) so the
    measured path exercises both the memtable and the tombstone set;
    the rest insert fresh spheres keyed past the base range.
    """
    dataset = _point_dataset(params, seed)
    entries = list(dataset.items())
    count = int(params["mutations"])
    fresh = _point_dataset({**params, "n": count}, seed + 101)
    mutations: "list[tuple[str, Any, Any]]" = []
    base_keys = [key for key, _ in entries]
    for index, (_, sphere) in enumerate(fresh.items()):
        if index % 4 == 3 and base_keys:
            mutations.append(
                ("delete", base_keys[(index // 4) % len(base_keys)], None)
            )
        else:
            mutations.append(("insert", len(entries) + index, sphere))
    return entries, mutations


def _measure_stream(
    params: "dict[str, Any]", seed: int, repeats: int
) -> "tuple[list[float], int, Callable[[], None]]":
    import shutil
    import tempfile

    from repro.stream.engine import StreamingIndex

    entries, mutations = _stream_workload(params, seed)
    phase = str(params.get("phase", "mutate"))
    samples: "list[float]" = []

    def apply_all(stream: "StreamingIndex", timed: bool) -> None:
        for op, key, sphere in mutations:
            started = time.perf_counter()
            if op == "insert":
                stream.insert(key, sphere)
            else:
                stream.delete(key)
            if timed:
                samples.append(time.perf_counter() - started)

    if phase == "recover":
        # One directory, `mutations` WAL records; each sample is a full
        # warm restart (snapshot load + WAL replay) over that log.  The
        # directory outlives this call (the instrumented pass reopens
        # it), so cleanup rides process exit.
        import atexit

        directory = tempfile.mkdtemp(prefix="repro-bench-stream-")
        atexit.register(shutil.rmtree, directory, ignore_errors=True)
        with StreamingIndex.create(directory, entries) as stream:
            apply_all(stream, timed=False)
        for _ in range(repeats):
            started = time.perf_counter()
            StreamingIndex.open(directory).close()
            samples.append(time.perf_counter() - started)

        def instrumented() -> None:
            StreamingIndex.open(directory).close()

        return samples, repeats, instrumented
    # "mutate": each repeat streams the full mix into a fresh directory;
    # one sample per acked (fsynced) mutation.
    for _ in range(repeats):
        directory = tempfile.mkdtemp(prefix="repro-bench-stream-")
        try:
            with StreamingIndex.create(directory, entries) as stream:
                apply_all(stream, timed=True)
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    def instrumented() -> None:
        directory = tempfile.mkdtemp(prefix="repro-bench-stream-")
        try:
            with StreamingIndex.create(directory, entries) as stream:
                apply_all(stream, timed=False)
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    return samples, repeats * len(mutations), instrumented


def _measure_serve(
    params: "dict[str, Any]", seed: int, repeats: int
) -> "tuple[list[float], int, Callable[[], None]]":
    """End-to-end HTTP query latency over real TCP.

    ``phase="single"`` boots one in-process :class:`ServeApp`;
    ``phase="workers"`` boots a supervised pool of ``workers``
    processes and — when ``kill`` > 0 — SIGKILLs one query worker
    right before that request index of the first burst, so the
    committed trajectory prices failover, not just the happy path.
    Both boot, wait for ``/readyz`` and drain through the same
    lifecycle.
    One sample per request; statuses are asserted into the
    degradation contract ({200, 206, 429} single, + 503 supervised).
    """
    import asyncio
    import atexit
    import shutil
    import signal as _signal
    import tempfile

    from repro.index import snapshot as snapshot_io
    from repro.serve.smoke import request as http_request

    dataset = _point_dataset(params, seed)
    tree = SSTree.bulk_load(dataset.items())
    requests = int(params.get("requests", 20))
    bodies = [
        {
            "kind": "knn",
            "index": "default",
            "center": [float(c) for c in sphere.center],
            "radius": float(sphere.radius),
            "k": int(params.get("k", 5)),
        }
        for sphere in knn_queries(dataset, count=requests, seed=seed)
    ]
    phase = str(params.get("phase", "single"))
    workers = int(params.get("workers", 0))
    kill_at = int(params.get("kill", 0))
    allowed = {200, 206, 429, 503} if phase == "workers" else {200, 206, 429}

    directory = tempfile.mkdtemp(prefix="repro-bench-serve-")
    atexit.register(shutil.rmtree, directory, ignore_errors=True)
    path = os.path.join(directory, "bench.snap")
    snapshot_io.save(tree, path)

    async def burst(
        host: str,
        port: int,
        samples: "list[float] | None",
        kill_pid: "int | None" = None,
    ) -> None:
        for i, body in enumerate(bodies):
            if kill_pid is not None and i == kill_at:
                os.kill(kill_pid, _signal.SIGKILL)
            started = time.perf_counter()
            status, _, _ = await http_request(
                host, port, "POST", "/query", body=body
            )
            elapsed = time.perf_counter() - started
            if status not in allowed:
                raise RuntimeError(f"serve bench got status {status}")
            if samples is not None:
                samples.append(elapsed)

    def runner(samples: "list[float] | None", rounds: int) -> None:
        from repro.serve.app import ServeApp
        from repro.serve.smoke import wait_ready
        from repro.serve.supervisor import Supervisor, SupervisorConfig

        app = (
            Supervisor(
                SupervisorConfig(
                    query_workers=workers,
                    snapshots={"default": path},
                    backoff_base_s=0.05,
                    backoff_cap_s=0.5,
                    seed=seed,
                )
            )
            if phase == "workers"
            else ServeApp.from_snapshots({"default": path}, seed=seed)
        )

        async def go() -> None:
            host, port = await app.start()
            try:
                if await wait_ready(host, port) != 200:
                    raise RuntimeError("serve bench: server never became ready")
                for round_no in range(rounds):
                    kill_pid = None
                    if isinstance(app, Supervisor) and kill_at > 0 and round_no == 0:
                        pids = app.worker_pids("query")
                        kill_pid = pids[0] if pids else None
                    await burst(host, port, samples, kill_pid)
            finally:
                await app.drain_and_stop()

        asyncio.run(go())

    samples: "list[float]" = []
    runner(samples, repeats)

    def instrumented() -> None:
        runner(None, 1)

    return samples, repeats * len(bodies), instrumented


_MEASURERS: "dict[str, Callable[[dict[str, Any], int, int], tuple[list[float], int, Callable[[], None]]]]" = {
    "build": _measure_build,
    "knn": _measure_knn,
    "rknn": _measure_rknn,
    "dominating": _measure_dominating,
    "stream": _measure_stream,
    "serve": _measure_serve,
}


def _counter_delta(instrumented: "Callable[[], None]") -> "dict[str, int]":
    """One instrumented pass under a private scope; its counter delta."""
    registry = obs.MetricsRegistry()
    with obs.enabled_scope(True), obs.scope(registry):
        instrumented()
    snapshot = registry.collect()
    return {
        key: int(value)
        for key, value in sorted(snapshot.get("counters", {}).items())
    }


def run_topic(
    topic: str,
    points: "list[dict[str, Any]]",
    *,
    quick: bool,
    repeats: int = 3,
    seed: int = 0,
) -> BenchDocument:
    """Measure every *point* of *topic* and assemble the document.

    Points run in order; each contributes its raw sample count, exact
    latency percentiles, derived throughput, and one instrumented
    pass's obs counter delta.
    """
    measure = _MEASURERS[topic]
    document = BenchDocument(
        topic=topic,
        git_sha=git_sha(),
        timestamp=datetime.now(timezone.utc).isoformat(),
        quick=quick,
        repeats=repeats,
        seed=seed,
        env=env_fingerprint(),
    )
    if obs.ENABLED:
        obs.incr(names.BENCH_TOPICS)
    with obs.trace(names.bench_span(topic)):
        for point_index, params in enumerate(points):
            point_seed = seed + point_index
            samples, operations, instrumented = measure(
                params, point_seed, repeats
            )
            total = float(sum(samples))
            document.points.append(
                {
                    "params": dict(params),
                    "seed": point_seed,
                    "samples": len(samples),
                    "latency_s": _latency_summary(samples),
                    "throughput_ops": (
                        operations / total if total > 0.0 else 0.0
                    ),
                    "counters": _counter_delta(instrumented),
                }
            )
            if obs.ENABLED:
                obs.incr(names.BENCH_POINTS)
    return document


def document_path(out_dir: str, topic: str) -> str:
    """The canonical artifact path: ``<out_dir>/BENCH_<topic>.json``."""
    return os.path.join(out_dir, f"BENCH_{topic}.json")


def write_document(document: BenchDocument, out_dir: str) -> str:
    """Serialise *document* to its canonical path; returns the path."""
    os.makedirs(out_dir, exist_ok=True)
    path = document_path(out_dir, document.topic)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def read_document(path: str) -> BenchDocument:
    """Parse a ``BENCH_<topic>.json`` document back."""
    with open(path, "r", encoding="utf-8") as handle:
        return BenchDocument.from_dict(json.load(handle))
