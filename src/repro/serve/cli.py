"""The ``repro serve`` front end.

Boots one :class:`~repro.serve.app.ServeApp` over snapshot-backed
indexes and serves until interrupted::

    repro snapshot save /var/lib/repro/spheres.snap --kind sstree
    repro serve --snapshot default=/var/lib/repro/spheres.snap --port 8080

With no ``--snapshot`` the server builds one synthetic SS-tree in
memory (name ``default``) — enough to demo the API and drive the smoke
suite.  A corrupt snapshot does **not** abort boot: the index comes up
quarantined, ``/readyz`` says so, and queries against it answer 503
(see ``docs/serving.md`` for the runbook).

``--stream NAME=DIR`` serves a *mutable* streaming index from DIR (a
directory created with ``repro stream init``): the snapshot is
integrity-checked, the write-ahead log is replayed over it, and
``POST /mutate`` accepts durable inserts/deletes (see
``docs/streaming.md``).

``--workers N`` (N >= 1) switches to supervised multi-process serving
(:mod:`repro.serve.supervisor`): the same request pipeline runs in the
supervisor, and each query attempt or mutation runs in a worker
process.  N query workers share the read-only snapshot shards, one
mutation worker exclusively owns the streams' write-ahead logs, and
the supervisor heals crashes with heartbeats, backoff respawns and
query failover.  Both modes run the same lifecycle
(:meth:`~repro.serve.app.ServeApp.serve_until_drained`), so
``--drain-ms`` (how long in-flight requests may finish after
SIGTERM/SIGINT) and ``--event-log`` apply to both.

``repro serve smoke`` runs the self-contained smoke scenario
(:mod:`repro.serve.smoke`): boot on a fixture snapshot, fire a burst of
queries with a fault seam enabled, and fail unless every response is
200/206/429 and ``/metrics`` scrapes.

``repro serve slo`` aggregates a ``--event-log`` JSONL file into
per-tenant p50/p95/p99 latency and shed/degraded/error counts
(:mod:`repro.serve.slo`).

``--deadline-ms`` is validated at this boundary
(:func:`repro.queries.validation.validate_deadline_ms`): a negative,
zero, NaN or non-numeric value is rejected with exit code 2 before any
socket is bound.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import shutil
import sys
import tempfile
from typing import TYPE_CHECKING, Any, Sequence

from repro import obs
from repro.cli import deadline_ms_argtype
from repro.exceptions import ReproError
from repro.index import snapshot as snapshot_io
from repro.obs import export as obs_export
from repro.serve.admission import AdmissionController
from repro.serve.app import ServeApp
from repro.serve.tenancy import TenantPolicy, default_classes

if TYPE_CHECKING:
    from repro.serve.supervisor import SupervisorConfig

__all__ = ["build_parser", "main"]

#: The standard tenant class's stock deadline; ``--deadline-ms`` is
#: interpreted as the new standard deadline and every class scales
#: proportionally (interactive stays ~7x tighter, batch ~10x looser).
_STANDARD_DEADLINE_MS = 1000.0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description=(
            "Serve kNN/RkNN/top-k-dominating queries over snapshot-backed "
            "indexes with admission control, per-tenant budgets, retries "
            "and circuit breakers."
        ),
    )
    parser.add_argument(
        "--snapshot",
        action="append",
        default=[],
        metavar="NAME=PATH",
        help=(
            "serve the snapshot at PATH under index NAME (repeatable); "
            "a corrupt snapshot quarantines the index instead of aborting"
        ),
    )
    parser.add_argument(
        "--stream",
        action="append",
        default=[],
        metavar="NAME=DIR",
        help=(
            "serve the streaming index directory DIR under NAME "
            "(repeatable); the WAL is replayed at boot and POST /mutate "
            "accepts durable inserts/deletes"
        ),
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    parser.add_argument(
        "--port",
        type=int,
        default=8080,
        help="bind port (default 8080; 0 picks an ephemeral port)",
    )
    parser.add_argument(
        "--deadline-ms",
        type=deadline_ms_argtype,
        default=None,
        metavar="MS",
        help=(
            "per-request wall-clock budget for the 'standard' tenant class; "
            "all classes scale proportionally (default 1000)"
        ),
    )
    parser.add_argument(
        "--max-queue",
        type=int,
        default=32,
        help="admitted requests allowed to wait for a slot (default 32)",
    )
    parser.add_argument(
        "--event-log",
        metavar="PATH",
        default=None,
        help="append one JSONL record per query to PATH",
    )
    parser.add_argument(
        "--n",
        type=int,
        default=400,
        help="synthetic dataset size when no --snapshot is given (default 400)",
    )
    parser.add_argument(
        "--dimension",
        type=int,
        default=3,
        help="synthetic dimensionality when no --snapshot is given (default 3)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="seed for the synthetic fallback"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help=(
            "serve through a supervised pool of N query worker processes "
            "(plus one mutation worker when --stream is given); 0 = "
            "single-process serving (default)"
        ),
    )
    parser.add_argument(
        "--drain-ms",
        type=float,
        default=2000.0,
        metavar="MS",
        help=(
            "wall clock granted to in-flight requests after SIGTERM/SIGINT "
            "before they are cancelled (default 2000)"
        ),
    )
    return parser


def _parse_snapshot_specs(specs: "Sequence[str]") -> "dict[str, str]":
    table: "dict[str, str]" = {}
    for spec in specs:
        name, sep, path = spec.partition("=")
        if not sep or not name or not path:
            raise ReproError(
                f"--snapshot expects NAME=PATH, got {spec!r}"
            )
        table[name] = path
    return table


def _deadline_scale(args: argparse.Namespace) -> float:
    if args.deadline_ms is None:
        return 1.0
    return float(args.deadline_ms) / _STANDARD_DEADLINE_MS


def _index_specs(
    args: argparse.Namespace,
) -> "tuple[dict[str, str], dict[str, str]]":
    """``(snapshots, streams)`` from ``--snapshot`` and ``--stream``."""
    specs = _parse_snapshot_specs(args.snapshot)
    stream_specs = _parse_snapshot_specs(getattr(args, "stream", []))
    overlap = set(specs) & set(stream_specs)
    if overlap:
        raise ReproError(
            f"index name(s) given to both --snapshot and --stream: "
            f"{sorted(overlap)}"
        )
    return specs, stream_specs


def _synthetic_tree(args: argparse.Namespace) -> Any:
    """The SS-tree served when neither --snapshot nor --stream is given."""
    from repro.data.synthetic import synthetic_dataset
    from repro.index.sstree import SSTree

    dataset = synthetic_dataset(args.n, args.dimension, seed=args.seed)
    return SSTree.bulk_load(dataset.items())


def build_app(args: argparse.Namespace) -> ServeApp:
    """One configured single-process :class:`ServeApp` from CLI arguments."""
    specs, stream_specs = _index_specs(args)
    app = ServeApp(
        policy=TenantPolicy(default_classes(deadline_scale=_deadline_scale(args))),
        # One execution slot: a single process runs attempts one at a
        # time on its event loop.
        admission=AdmissionController(
            max_concurrency=1, max_queue=args.max_queue
        ),
        event_log=(
            obs_export.QueryEventLog.open(args.event_log)
            if args.event_log
            else None
        ),
        drain_s=max(args.drain_ms, 0.0) / 1000.0,
        seed=args.seed,
    )
    for name, directory in stream_specs.items():
        state = app.load_stream(name, directory)
        if state.quarantined:
            print(
                f"warning: streaming index {name!r} quarantined at boot: "
                f"{state.error}",
                file=sys.stderr,
            )
    for name, path in specs.items():
        state = app.load_snapshot(name, path)
        if state.quarantined:
            print(
                f"warning: index {name!r} quarantined at boot: "
                f"{state.error}",
                file=sys.stderr,
            )
    if not specs and not stream_specs:
        app.register_index("default", _synthetic_tree(args), source="synthetic")
    return app


def _pool_config(
    args: argparse.Namespace,
) -> "tuple[SupervisorConfig, str | None]":
    """The worker-pool config for ``--workers N``, and its scratch dir.

    With neither snapshots nor streams, a synthetic SS-tree snapshot is
    written into a temporary directory (the caller removes it) so the
    workers have a shared read-only shard to load — the same fixture
    the single-process server builds in memory.
    """
    from repro.serve.supervisor import SupervisorConfig

    snapshots, streams = _index_specs(args)
    scratch = None
    if not snapshots and not streams:
        scratch = tempfile.mkdtemp(prefix="repro-serve-workers-")
        snapshots["default"] = os.path.join(scratch, "default.snap")
        snapshot_io.save(_synthetic_tree(args), snapshots["default"])
    config = SupervisorConfig(
        query_workers=args.workers,
        snapshots=snapshots,
        streams=streams,
        deadline_scale=_deadline_scale(args),
        seed=args.seed,
        max_queue=args.max_queue,
        drain_s=max(args.drain_ms, 0.0) / 1000.0,
        event_log=args.event_log,
    )
    return config, scratch


def main(argv: "Sequence[str] | None" = None) -> int:
    arguments = list(sys.argv[1:] if argv is None else argv)
    if arguments and arguments[0] == "smoke":
        from repro.serve.smoke import main as smoke_main

        return smoke_main(arguments[1:])
    if arguments and arguments[0] == "slo":
        from repro.serve.slo import main as slo_main

        return slo_main(arguments[1:])
    parser = build_parser()
    args = parser.parse_args(arguments)
    obs.enable()
    scratch = None
    app: ServeApp
    try:
        try:
            if args.workers > 0:
                # Looked up at call time; a single process never loads it.
                from repro.serve import supervisor

                config, scratch = _pool_config(args)
                app = supervisor.Supervisor(config)
            else:
                app = build_app(args)
        except ReproError as error:
            print(f"serve error: {error}", file=sys.stderr)
            return 1
        try:
            asyncio.run(app.serve_until_drained(args.host, args.port))
        except KeyboardInterrupt:
            print("interrupted; shutting down", file=sys.stderr)
    finally:
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
