"""Command-line interface: regenerate the paper's tables and figures.

Examples
--------
Run everything at laptop scale (the default, 5% of the paper's sizes)::

    python -m repro all

Run one figure at the paper's full sizes and save the rows as JSON::

    python -m repro fig9 --scale 1.0 --json fig9.json

Profile an experiment (prints an instrumentation-stats table after the
result table; the same stats land under ``"stats"`` in the JSON)::

    python -m repro fig9 --profile

Run the canned instrumentation workload on its own::

    python -m repro stats

Bound an experiment's wall-clock time (queries past the deadline return
conservative partial answers instead of running on)::

    python -m repro fig13 --deadline-ms 5000

Save, verify and reload a crash-safe index snapshot::

    python -m repro snapshot save /tmp/demo.snap --kind sstree
    python -m repro snapshot verify /tmp/demo.snap
    python -m repro snapshot load /tmp/demo.snap
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro import obs
from repro.core.base import get_criterion
from repro.core.batch import batch_evaluate
from repro.data.synthetic import synthetic_dataset
from repro.data.workload import DominanceWorkload, knn_queries
from repro.exceptions import ReproError
from repro.experiments.report import render_stats
from repro.experiments.runner import EXPERIMENTS, run_experiment
from repro.index.sstree import SSTree
from repro.obs import names
from repro.obs.log import configure_logging, get_logger
from repro.queries.knn import knn_query
from repro.queries.validation import validate_deadline_ms

__all__ = ["main", "build_parser", "deadline_ms_argtype", "run_canned_workload"]

DEFAULT_SCALE = 0.05

log = get_logger("cli")


def deadline_ms_argtype(text: str) -> float:
    """Argparse ``type=`` adapter for ``--deadline-ms``.

    Delegates to :func:`repro.queries.validation.validate_deadline_ms`
    so a negative, zero, NaN or non-numeric deadline is rejected at the
    CLI boundary (argparse answers with usage + exit code 2) instead of
    surfacing as a confusing downstream failure.
    """
    try:
        return validate_deadline_ms(text)
    except ReproError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for the CLI tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Regenerate the evaluation tables/figures of 'Hypersphere "
            "Dominance: An Optimal Approach' (SIGMOD 2014)."
        ),
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        metavar="EXPERIMENT",
        help=(
            "experiment ids ('all', 'stats', or any of: "
            + ", ".join(sorted(EXPERIMENTS))
            + ")"
        ),
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=DEFAULT_SCALE,
        help=(
            "fraction of the paper's dataset/workload sizes "
            f"(default {DEFAULT_SCALE}; use 1.0 for the paper-size run)"
        ),
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="random seed (default 0)"
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write all reports as a JSON array to PATH",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "enable repro.obs instrumentation and print a stats table "
            "after each experiment (also stored under 'stats' in --json)"
        ),
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="log progress at DEBUG level to stderr",
    )
    parser.add_argument(
        "--deadline-ms",
        type=deadline_ms_argtype,
        default=None,
        metavar="MS",
        help=(
            "wall-clock budget per experiment; past the deadline, queries "
            "degrade to conservative partial answers instead of running on "
            "(smoke runs and liveness checks, not publication numbers)"
        ),
    )
    return parser


def run_canned_workload(*, seed: int = 0) -> dict:
    """Exercise every instrumented subsystem once; return the stats.

    The workload is small and fixed: a synthetic dataset, the scalar
    Hyperbola and Cascade criteria over a dominance workload, one
    vectorised batch evaluation, a handful of SS-tree kNN queries, the
    certified criterion over the same triples (so the escalation-ladder
    stage counters show up), and one fault-injected pass demonstrating
    graceful degradation.  Must be called with instrumentation enabled
    to record anything.
    """
    dataset = synthetic_dataset(400, 3, mu=0.1, seed=seed)
    workload = DominanceWorkload.from_dataset(dataset, size=500, seed=seed)
    with obs.trace(names.STATS_SCALAR):
        for name in ("hyperbola", "cascade"):
            criterion = get_criterion(name)
            for sa, sb, sq in workload.triples():
                criterion.dominates(sa, sb, sq)
    with obs.trace(names.STATS_BATCH):
        batch_evaluate("hyperbola", *workload.arrays())
    with obs.trace(names.STATS_KNN):
        tree = SSTree.bulk_load(dataset.items(), max_entries=16)
        for query in knn_queries(dataset, count=10, seed=seed):
            knn_query(tree, query, 5, criterion="hyperbola")
    with obs.trace(names.STATS_VERIFIED):
        verified = get_criterion("verified")
        for sa, sb, sq in workload.triples():
            verified.dominates(sa, sb, sq)
    with obs.trace(names.STATS_FAULTS):
        # A short demonstration that certified verdicts survive kernel
        # corruption: the 'verified.stage.*' / 'faults.*' counters show
        # the ladder escalating over the poisoned quartic solver.
        from repro.robust import faults

        with faults.inject("quartic", "nan"):
            for sa, sb, sq in list(workload.triples())[:50]:
                verified.dominates(sa, sb, sq)
    with obs.trace(names.STATS_LINT):
        # One small domlint pass (over the rule framework itself) so the
        # 'analysis.*' lint-as-telemetry counters surface in the stats
        # table alongside the numeric kernels.
        from pathlib import Path

        from repro.analysis import engine as lint_engine

        lint_engine.lint_paths(
            [Path(lint_engine.__file__).resolve().parent / "base.py"]
        )
    return obs.collect()


_SNAPSHOT_KINDS = ("linear", "sstree", "mtree", "vptree")


def _build_snapshot_index(kind: str, n: int, dimension: int, seed: int) -> object:
    dataset = synthetic_dataset(n, dimension, seed=seed)
    items = list(dataset.items())
    if kind == "linear":
        from repro.index.linear import LinearIndex

        return LinearIndex(items)
    if kind == "sstree":
        return SSTree.bulk_load(items)
    if kind == "mtree":
        from repro.index.mtree import MTree

        return MTree.build(items)
    from repro.index.vptree import VPTree

    return VPTree.build(items)


def _snapshot_main(argv: "Sequence[str]") -> int:
    """The ``repro snapshot save|load|verify`` front end."""
    from repro.exceptions import SnapshotCorruptionError, SnapshotError
    from repro.index import snapshot as snap

    parser = argparse.ArgumentParser(
        prog="repro snapshot",
        description=(
            "Crash-safe index snapshots: checksummed save / verify / load "
            "(corruption is reported as a typed error, never as a wrong index)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_save = sub.add_parser(
        "save", help="build an index over a synthetic dataset and snapshot it"
    )
    p_save.add_argument("path", help="destination snapshot file")
    p_save.add_argument(
        "--kind", choices=_SNAPSHOT_KINDS, default="sstree", help="index structure"
    )
    p_save.add_argument("--n", type=int, default=400, help="dataset size")
    p_save.add_argument("--dimension", type=int, default=3, help="dimensionality")
    p_save.add_argument("--seed", type=int, default=0, help="dataset seed")
    p_load = sub.add_parser("load", help="rebuild an index from a snapshot")
    p_load.add_argument("path", help="snapshot file to load")
    p_verify = sub.add_parser(
        "verify", help="integrity-check a snapshot without rebuilding it"
    )
    p_verify.add_argument("path", help="snapshot file to check")
    args = parser.parse_args(list(argv))

    try:
        if args.command == "save":
            index = _build_snapshot_index(
                args.kind, args.n, args.dimension, args.seed
            )
            info = snap.save(index, args.path)
            print(
                f"saved {info['kind']} snapshot: {info['count']} entries, "
                f"d={info['dimension']}, {info['pages']} page(s), "
                f"{info['bytes']} bytes -> {args.path}"
            )
        elif args.command == "verify":
            info = snap.verify(args.path)
            print(
                f"snapshot OK: kind={info['kind']} count={info['count']} "
                f"d={info['dimension']} pages={info['pages']} "
                f"bytes={info['bytes']}"
            )
        else:
            index = snap.load(args.path)
            print(
                f"loaded {type(index).__name__}: {len(index)} entries, "  # type: ignore[arg-type]
                f"d={index.dimension}"  # type: ignore[attr-defined]
            )
    except SnapshotCorruptionError as error:
        print(f"snapshot corrupt: {error}", file=sys.stderr)
        return 2
    except SnapshotError as error:
        print(f"snapshot error: {error}", file=sys.stderr)
        return 1
    return 0


def _parse_stream_key(text: str) -> object:
    """CLI keys: an int when it parses as one, else the literal string."""
    try:
        return int(text)
    except ValueError:
        return text


def _stream_main(argv: "Sequence[str]") -> int:
    """The ``repro stream init|insert|delete|status|compact`` front end.

    Mutation payloads pass :func:`repro.queries.validation.validate_mutation`
    before any byte reaches the write-ahead log; invalid geometry exits
    with status 2 (the established bad-input code), durable success
    prints the acked sequence number.
    """
    from repro.exceptions import StreamError, ValidationError
    from repro.queries.validation import validate_mutation
    from repro.stream.engine import StreamingIndex

    parser = argparse.ArgumentParser(
        prog="repro stream",
        description=(
            "Durable streaming mutations over a snapshot-backed index: "
            "every acked insert/delete survives a crash (WAL + replay), "
            "and compaction folds the overlay into a fresh snapshot."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_init = sub.add_parser(
        "init", help="initialise a streaming directory over a synthetic dataset"
    )
    p_init.add_argument("directory", help="streaming index directory to create")
    p_init.add_argument(
        "--kind", choices=_SNAPSHOT_KINDS, default="sstree", help="index structure"
    )
    p_init.add_argument("--n", type=int, default=400, help="dataset size")
    p_init.add_argument("--dimension", type=int, default=3, help="dimensionality")
    p_init.add_argument("--seed", type=int, default=0, help="dataset seed")
    p_insert = sub.add_parser("insert", help="durably insert (upsert) one sphere")
    p_insert.add_argument("directory", help="streaming index directory")
    p_insert.add_argument("--key", required=True, help="object key")
    p_insert.add_argument(
        "--center", required=True, help="comma-separated coordinates"
    )
    p_insert.add_argument("--radius", required=True, help="sphere radius")
    p_delete = sub.add_parser("delete", help="durably tombstone one key")
    p_delete.add_argument("directory", help="streaming index directory")
    p_delete.add_argument("--key", required=True, help="object key")
    p_status = sub.add_parser("status", help="report entries/overlay/WAL state")
    p_status.add_argument("directory", help="streaming index directory")
    p_compact = sub.add_parser(
        "compact", help="fold the overlay into a fresh snapshot and truncate"
    )
    p_compact.add_argument("directory", help="streaming index directory")
    args = parser.parse_args(list(argv))

    try:
        if args.command == "init":
            dataset = synthetic_dataset(args.n, args.dimension, seed=args.seed)
            stream = StreamingIndex.create(
                args.directory, list(dataset.items()), kind=args.kind
            )
            print(
                f"initialised streaming index: {len(stream)} entries, "
                f"d={stream.dimension}, kind={args.kind} -> {args.directory}"
            )
            stream.close()
            return 0
        if args.command == "insert":
            try:
                center = [float(c) for c in args.center.split(",") if c.strip()]
                radius = float(args.radius)
            except ValueError as error:
                print(f"stream validation error: {error}", file=sys.stderr)
                return 2
            with StreamingIndex.open(args.directory) as stream:
                try:
                    op, key, sphere = validate_mutation(
                        {
                            "op": "insert",
                            "key": _parse_stream_key(args.key),
                            "center": center,
                            "radius": radius,
                        },
                        stream.dimension,
                    )
                except ValidationError as error:
                    print(f"stream validation error: {error}", file=sys.stderr)
                    return 2
                assert sphere is not None
                seq = stream.insert(key, sphere)
            print(f"acked insert seq={seq} key={key!r}")
            return 0
        if args.command == "delete":
            with StreamingIndex.open(args.directory) as stream:
                try:
                    _, key, _ = validate_mutation(
                        {"op": "delete", "key": _parse_stream_key(args.key)}
                    )
                except ValidationError as error:
                    print(f"stream validation error: {error}", file=sys.stderr)
                    return 2
                seq = stream.delete(key)
            print(f"acked delete seq={seq} key={key!r}")
            return 0
        if args.command == "compact":
            with StreamingIndex.open(args.directory) as stream:
                result = stream.checkpoint()
            print(
                f"compacted: {result.entries} entries, "
                f"{result.dropped_tombstones} tombstone(s) dropped, "
                f"{result.snapshot_bytes} snapshot bytes, "
                f"{result.wal_segments_removed} WAL segment(s) removed"
            )
            return 0
        with StreamingIndex.open(args.directory) as stream:
            replayed = len(stream.wal.replayed)
            truncated = stream.wal.truncated_frames
            print(
                f"streaming index at {args.directory}: "
                f"{len(stream)} effective entries, d={stream.dimension}, "
                f"overlay={len(stream.overlay)} insert(s) + "
                f"{len(stream.overlay.tombstones)} tombstone(s), "
                f"last_seq={stream.last_seq}, wal_records={replayed}"
                + (f", truncated_frames={truncated}" if truncated else "")
            )
        return 0
    except StreamError as error:
        print(f"stream error: {error}", file=sys.stderr)
        return 1


_EXPLAIN_KINDS = ("knn", "rknn", "dominating")


def _explain_main(argv: "Sequence[str]") -> int:
    """The ``repro explain`` front end: one seeded query, dissected."""
    from repro.data.workload import knn_queries as make_queries
    from repro.index.linear import LinearIndex
    from repro.queries.dominating import top_k_dominating
    from repro.queries.rknn import rnn_candidates

    parser = argparse.ArgumentParser(
        prog="repro explain",
        description=(
            "Run one seeded query with explain=True and render its "
            "execution breakdown (per-level node accesses, cascade "
            "tiers, pruning effectiveness, budget use)."
        ),
    )
    parser.add_argument(
        "kind", choices=_EXPLAIN_KINDS, help="query kind to dissect"
    )
    parser.add_argument("--n", type=int, default=400, help="dataset size")
    parser.add_argument(
        "--dimension", type=int, default=3, help="dimensionality"
    )
    parser.add_argument("--seed", type=int, default=0, help="dataset seed")
    parser.add_argument(
        "--k", type=int, default=5, help="k for knn/dominating (default 5)"
    )
    parser.add_argument(
        "--criterion",
        default="hyperbola",
        help="dominance criterion name (default hyperbola)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the structured QueryExplain as JSON instead of the tree",
    )
    args = parser.parse_args(list(argv))

    dataset = synthetic_dataset(args.n, args.dimension, seed=args.seed)
    query = make_queries(dataset, count=1, seed=args.seed)[0]
    try:
        if args.kind == "knn":
            tree = SSTree.bulk_load(dataset.items())
            explained = knn_query(
                tree, query, args.k, criterion=args.criterion, explain=True
            )
        elif args.kind == "rknn":
            index = LinearIndex(dataset.items())
            explained = rnn_candidates(
                index, query, criterion=args.criterion, explain=True
            )
        else:
            index = LinearIndex(dataset.items())
            explained = top_k_dominating(
                index, query, args.k, criterion=args.criterion, explain=True
            )
    except ReproError as error:
        print(f"explain error: {error}", file=sys.stderr)
        return 1
    detail = explained.explain  # type: ignore[union-attr]
    if args.json:
        print(json.dumps(detail.to_dict(), indent=2, sort_keys=True))
    else:
        print(detail.render())
    return 0


def _run_stats_command(args: argparse.Namespace) -> int:
    log.debug("running canned stats workload (seed=%d)", args.seed)
    with obs.enabled_scope(True), obs.scope():
        stats = run_canned_workload(seed=args.seed)
    print(render_stats(stats, title="repro stats: canned workload breakdown"))
    if args.json is not None:
        payload = [{"experiment": "stats", "stats": stats}]
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote 1 report(s) to {args.json}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    arguments = list(sys.argv[1:] if argv is None else argv)
    if arguments and arguments[0] == "lint":
        # `repro lint` is the domlint static-analysis front end; its
        # flags are its own, so hand everything after 'lint' over.
        from repro.analysis.cli import main as lint_main

        return lint_main(arguments[1:])
    if arguments and arguments[0] == "snapshot":
        # `repro snapshot save|load|verify` manages crash-safe index
        # persistence; like lint, it owns its own flags.
        return _snapshot_main(arguments[1:])
    if arguments and arguments[0] == "bench":
        # `repro bench [compare]` is the standing benchmark observatory;
        # it owns its own flags.
        from repro.bench.cli import main as bench_main

        return bench_main(arguments[1:])
    if arguments and arguments[0] == "stream":
        # `repro stream init|insert|delete|status|compact` manages a
        # durable mutable index (WAL + overlay); it owns its own flags.
        return _stream_main(arguments[1:])
    if arguments and arguments[0] == "explain":
        # `repro explain knn|rknn|dominating` dissects one seeded query.
        return _explain_main(arguments[1:])
    if arguments and arguments[0] == "serve":
        # `repro serve` is the fault-tolerant multi-tenant query
        # service (and `repro serve smoke` its CI scenario); it owns
        # its own flags.
        from repro.serve.cli import main as serve_main

        return serve_main(arguments[1:])

    parser = build_parser()
    args = parser.parse_args(arguments)
    configure_logging(verbose=args.verbose)

    requested = list(args.experiments)
    if "stats" in requested:
        if len(requested) > 1:
            parser.error("'stats' runs alone; don't mix it with experiments")
        return _run_stats_command(args)
    if "all" in requested:
        requested = sorted(EXPERIMENTS)
    unknown = [name for name in requested if name not in EXPERIMENTS]
    if unknown:
        parser.error(
            f"unknown experiment(s): {', '.join(unknown)}; "
            f"choose from {', '.join(sorted(EXPERIMENTS))}, 'all', or 'stats'"
        )

    reports = []
    for name in requested:
        try:
            report = run_experiment(
                name,
                scale=args.scale,
                seed=args.seed,
                profile=args.profile,
                deadline_ms=args.deadline_ms,
            )
        except ReproError as error:
            print(f"error running {name}: {error}", file=sys.stderr)
            return 1
        reports.append(report)
        print(report.render())
        print()
        if args.profile:
            print(render_stats(report.stats, title=f"{name}: instrumentation"))
            print()

    if args.json is not None:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump([report.to_dict() for report in reports], handle, indent=2)
        print(f"wrote {len(reports)} report(s) to {args.json}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
