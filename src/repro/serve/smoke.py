"""The serve smoke scenario: boot, burst, fault, assert — in-process.

``make serve-smoke`` (and ``repro serve smoke``) runs this end to end:

1. build a synthetic SS-tree, snapshot it to a temp file, and boot a
   :class:`~repro.serve.app.ServeApp` from that snapshot on an
   ephemeral port — the warm-start path, not a shortcut;
2. fire a burst of kNN/RkNN/top-k-dominating requests across tenant
   classes **with a fault seam enabled** (default: the ``"handler"``
   seam in ``raise`` mode, firing every third request);
3. fail unless every response is **200, 206 or 429**, at least one
   clean answer came back, and ``/metrics`` scrapes as Prometheus text
   carrying the ``serve.*`` families.

``--workers N`` runs the same burst against a supervised worker pool
(:mod:`repro.serve.supervisor`) instead: the default seam becomes
``"worker_kill"`` (SIGKILL a worker right before dispatch) and **503**
joins the allowed statuses (a supervisor that has lost every worker
answers honestly rather than hanging).  Both modes boot and drain
through the same :class:`~repro.serve.app.ServeApp` lifecycle, and both
require ``/readyz`` to answer 200 after the burst (a pool must have
converged back to quorum).

The module also hosts :func:`request`, the dependency-free asyncio
HTTP client the serve test suite drives the real network stack with,
and :func:`wait_ready`, its ``/readyz`` poll.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import tempfile
from pathlib import Path
from typing import Any, Sequence

from repro import obs
from repro.data.synthetic import synthetic_dataset
from repro.data.workload import knn_queries
from repro.index import snapshot as snapshot_io
from repro.index.sstree import SSTree
from repro.serve.admission import AdmissionController
from repro.serve.app import ServeApp
from repro.serve.supervisor import Supervisor, SupervisorConfig

__all__ = ["main", "request", "run_smoke", "wait_ready"]


async def request(
    host: str,
    port: int,
    method: str,
    path: str,
    *,
    body: "dict[str, Any] | None" = None,
    headers: "dict[str, str] | None" = None,
) -> "tuple[int, dict[str, str], bytes]":
    """One HTTP/1.1 exchange; returns ``(status, headers, body)``."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        payload = b""
        if body is not None:
            payload = json.dumps(body).encode("utf-8")
        lines = [
            f"{method} {path} HTTP/1.1",
            f"Host: {host}:{port}",
            f"Content-Length: {len(payload)}",
            "Content-Type: application/json",
        ]
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + payload)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
    head, _, response_body = raw.partition(b"\r\n\r\n")
    head_lines = head.decode("latin-1").split("\r\n")
    status = int(head_lines[0].split(" ")[1])
    response_headers: "dict[str, str]" = {}
    for line in head_lines[1:]:
        name, sep, value = line.partition(":")
        if sep:
            response_headers[name.strip().lower()] = value.strip()
    return status, response_headers, response_body


def _smoke_bodies(
    dataset: Any, count: int, seed: int
) -> "list[dict[str, Any]]":
    """A mixed burst: all three query kinds over seeded query spheres."""
    kinds = ("knn", "rknn", "dominating")
    bodies = []
    for i, sphere in enumerate(knn_queries(dataset, count=count, seed=seed)):
        bodies.append(
            {
                "kind": kinds[i % len(kinds)],
                "index": "default",
                "center": [float(c) for c in sphere.center],
                "radius": float(sphere.radius),
                "k": 3,
            }
        )
    return bodies


async def wait_ready(host: str, port: int, timeout_s: float = 30.0) -> int:
    """Poll ``/readyz`` until it answers 200 (a pool at quorum); the
    last status seen."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout_s
    status = 503
    while loop.time() < deadline:
        status, _, _ = await request(host, port, "GET", "/readyz")
        if status == 200:
            break
        await asyncio.sleep(0.1)
    return status


async def _run_burst(
    app: ServeApp,
    bodies: "Sequence[dict[str, Any]]",
    seam: str,
    mode: str,
    every: int,
) -> "dict[str, Any]":
    from repro.robust import faults

    host, port = await app.start()
    tenants = ("interactive", "standard", "batch")
    statuses: "list[int]" = []
    try:
        with faults.inject(seam, mode, every=every):
            for i, body in enumerate(bodies):
                status, _, _ = await request(
                    host,
                    port,
                    "POST",
                    "/query",
                    body=body,
                    headers={"x-tenant-class": tenants[i % len(tenants)]},
                )
                statuses.append(status)
        # A pool must heal: /readyz converges back to quorum.
        readyz_status = await wait_ready(host, port)
        metrics_status, _, metrics_body = await request(
            host, port, "GET", "/metrics"
        )
    finally:
        await app.drain_and_stop()
    return {
        "statuses": statuses,
        "metrics_status": metrics_status,
        "metrics_text": metrics_body.decode("utf-8"),
        "readyz_status": readyz_status,
    }


def run_smoke(
    *,
    requests: int = 30,
    seam: "str | None" = None,
    mode: str = "raise",
    every: int = 3,
    seed: int = 0,
    workers: int = 0,
) -> "dict[str, Any]":
    """Run the scenario; returns a summary dict with ``"ok"``."""
    obs.enable()
    if seam is None:
        seam = "worker_kill" if workers > 0 else "handler"
    dataset = synthetic_dataset(200, 3, seed=seed)
    tree = SSTree.bulk_load(dataset.items())
    with tempfile.TemporaryDirectory(prefix="repro-serve-smoke-") as tmp:
        path = str(Path(tmp) / "smoke.snap")
        snapshot_io.save(tree, path)
        bodies = _smoke_bodies(dataset, requests, seed)
        with obs.scope():
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
                if workers > 0
                else ServeApp.from_snapshots(
                    {"default": path},
                    admission=AdmissionController(max_concurrency=1, max_queue=8),
                    seed=seed,
                )
            )
            summary = asyncio.run(_run_burst(app, bodies, seam, mode, every))
    statuses = summary["statuses"]
    allowed = {200, 206, 429, 503} if workers > 0 else {200, 206, 429}
    offenders = sorted({s for s in statuses if s not in allowed})
    counts = {code: statuses.count(code) for code in sorted(set(statuses))}
    ok = (
        not offenders
        and counts.get(200, 0) > 0
        and summary["metrics_status"] == 200
        and "repro_serve_requests_total" in summary["metrics_text"]
        and summary["readyz_status"] == 200
    )
    summary.update(
        {
            "ok": ok,
            "counts": counts,
            "offenders": offenders,
            "seam": seam,
            "mode": mode,
            "workers": workers,
        }
    )
    return summary


def main(argv: "Sequence[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro serve smoke",
        description=(
            "Boot a server on a fixture snapshot, fire a fault-injected "
            "burst, and assert 200/206/429-only plus a scrape-able /metrics."
        ),
    )
    parser.add_argument(
        "--requests", type=int, default=30, help="burst size (default 30)"
    )
    parser.add_argument(
        "--seam",
        default=None,
        help=(
            "fault seam to enable during the burst (default handler; "
            "worker_kill with --workers)"
        ),
    )
    parser.add_argument(
        "--mode", default="raise", help="fault mode (default raise)"
    )
    parser.add_argument(
        "--every",
        type=int,
        default=3,
        help="fire the fault on every Nth seam call (default 3)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help=(
            "run the burst against a supervised pool of N worker "
            "processes (0 = single-process, the default)"
        ),
    )
    args = parser.parse_args(list(sys.argv[1:] if argv is None else argv))

    summary = run_smoke(
        requests=args.requests,
        seam=args.seam,
        mode=args.mode,
        every=args.every,
        seed=args.seed,
        workers=args.workers,
    )
    print(
        f"serve smoke: workers={summary['workers']} seam={summary['seam']} "
        f"mode={summary['mode']} statuses={summary['counts']}"
    )
    allowed_note = (
        "200/206/429/503" if summary["workers"] > 0 else "200/206/429"
    )
    if not summary["ok"]:
        if summary["offenders"]:
            print(
                f"FAIL: disallowed status codes {summary['offenders']} "
                f"(only {allowed_note} may appear under faults)",
                file=sys.stderr,
            )
        else:
            print(
                "FAIL: no clean 200, unhealthy /readyz, or /metrics did "
                "not scrape",
                file=sys.stderr,
            )
        return 1
    print(f"serve smoke: OK ({allowed_note} only; /metrics scraped)")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
