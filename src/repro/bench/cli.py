"""The ``repro bench`` front end.

Two modes::

    repro bench [--quick] [--topics knn,build] [--out-dir .] \
                [--repeats 3] [--seed 0]
    repro bench compare --baseline DIR --current DIR \
                [--threshold 0.25] [--metric p50] [--topics ...]

The first sweeps the pinned parameter points of every selected topic
(:mod:`repro.bench.topics`) and writes one ``BENCH_<topic>.json`` per
topic; the second diffs two such directories and exits non-zero when
any point regressed past the threshold, or did more work by any of the
deterministic counters in :data:`repro.bench.compare.WORK_COUNTERS` —
the CI gate.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.bench.compare import compare_runs
from repro.bench.runner import run_topic, write_document
from repro.bench.topics import TOPICS, topic_points

__all__ = ["main"]


def _parse_topics(raw: "str | None") -> "tuple[str, ...]":
    if not raw:
        return TOPICS
    topics = tuple(part.strip() for part in raw.split(",") if part.strip())
    unknown = [topic for topic in topics if topic not in TOPICS]
    if unknown:
        raise SystemExit(
            f"unknown topic(s): {', '.join(unknown)}; "
            f"choose from {', '.join(TOPICS)}"
        )
    return topics


def _run_main(argv: "Sequence[str]") -> int:
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description=(
            "Sweep the pinned benchmark topics and write one "
            "BENCH_<topic>.json trajectory document per topic."
        ),
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="the small CI-smoke sweep instead of the full one",
    )
    parser.add_argument(
        "--topics",
        default=None,
        metavar="T1,T2",
        help=f"comma-separated topic subset (default: all of {', '.join(TOPICS)})",
    )
    parser.add_argument(
        "--out-dir",
        default=".",
        metavar="DIR",
        help="directory for the BENCH_<topic>.json files (default: .)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="timing repetitions per parameter point (default 3)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="base dataset seed (default 0)"
    )
    args = parser.parse_args(list(argv))
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    for topic in _parse_topics(args.topics):
        points = topic_points(topic, quick=args.quick)
        document = run_topic(
            topic,
            points,
            quick=args.quick,
            repeats=args.repeats,
            seed=args.seed,
        )
        path = write_document(document, args.out_dir)
        medians = [point["latency_s"]["p50"] for point in document.points]
        print(
            f"bench {topic}: {len(document.points)} point(s), "
            f"p50 {min(medians):.6g}s..{max(medians):.6g}s -> {path}"
        )
    return 0


def _compare_main(argv: "Sequence[str]") -> int:
    parser = argparse.ArgumentParser(
        prog="repro bench compare",
        description=(
            "Diff two benchmark trajectories; exits 1 when any matched "
            "point regressed past the threshold or grew a work counter."
        ),
    )
    parser.add_argument(
        "--baseline",
        default=".",
        metavar="DIR",
        help="directory holding the baseline BENCH_<topic>.json files",
    )
    parser.add_argument(
        "--current",
        default=".",
        metavar="DIR",
        help="directory holding the freshly measured documents",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="allowed fractional latency growth (default 0.25 = +25%%)",
    )
    parser.add_argument(
        "--metric",
        default="p50",
        choices=("p50", "median", "p95", "p99", "mean"),
        help="latency summary statistic to gate on (default p50)",
    )
    parser.add_argument(
        "--topics",
        default=None,
        metavar="T1,T2",
        help="comma-separated topic subset (default: all)",
    )
    args = parser.parse_args(list(argv))
    if args.threshold < 0.0:
        parser.error("--threshold must be >= 0")

    comparisons = compare_runs(
        args.baseline,
        args.current,
        topics=_parse_topics(args.topics),
        threshold=args.threshold,
        metric=args.metric,
    )
    failed = False
    for comparison in comparisons:
        status = "OK" if comparison.ok else "REGRESSED"
        print(
            f"bench compare {comparison.topic}: {comparison.matched} "
            f"matched point(s), {len(comparison.regressions)} "
            f"regression(s), {len(comparison.work_increases)} work "
            f"increase(s) [{status}]"
        )
        failed = failed or not comparison.ok
        for regression in comparison.regressions:
            print(f"  ! {regression.describe()}")
        for increase in comparison.work_increases:
            print(f"  ! {increase.describe()}")
        for params, counter, side in comparison.unmatched_counters:
            print(f"  ? {counter} recorded on the {side} side only: {params}")
        for params in comparison.missing_current:
            print(f"  ? baseline-only point (no current measurement): {params}")
        for params in comparison.missing_baseline:
            print(f"  ? current-only point (no baseline): {params}")
    if failed:
        print(
            f"bench compare: FAILED (threshold +{100.0 * args.threshold:.0f}% "
            f"on {args.metric}, or any work counter grew)",
            file=sys.stderr,
        )
        return 1
    return 0


def main(argv: "Sequence[str]") -> int:
    """Entry point for ``repro bench ...`` (see module docstring)."""
    arguments = list(argv)
    if arguments and arguments[0] == "compare":
        return _compare_main(arguments[1:])
    return _run_main(arguments)
