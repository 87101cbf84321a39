"""Run one workload end to end, check every answer, report the metrics.

An untraced run (``--trace 0``) makes the workload's inputs from the
seed, cold-boots ``repro serve`` ``spec.boots`` times (the last boot
is the one measured), drives the workload over loopback HTTP for
``--seconds`` (a closed loop: and at least ``ROUNDS`` rounds), then
checks every answer and prints the end-to-end metrics.  A traced run (``--trace 1``, :mod:`perfbench.tracing`)
prints the per-layer metrics instead.  The last line of standard
output is always one JSON object::

    {"correct": true, "attempted": 812, "failed": 0,
     "metrics": {"latency_ms": {"value": 31.2, "unit": "ms"}, ...}}

The exit code is 0 when every check passed, 1 when one failed, and 2
when the run could not be made at all.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import math
import os
import shutil
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Sequence

from perfbench.loadgen import (
    HttpTransport,
    Sample,
    Transport,
    closed_loop,
    open_loop,
    percentile,
)
from perfbench.metrics import END_TO_END
from perfbench.reference import (
    Entries,
    StreamModel,
    check_dominating,
    check_knn,
    check_rknn,
    dominance_scores,
    knn_answer,
    rknn_answer,
)
from perfbench.server import ServerProcess
from perfbench.workloads import RATE, SPECS, Inputs, WorkloadSpec, build_inputs

__all__ = [
    "RunResult",
    "Served",
    "Verdict",
    "knn_recall",
    "main",
    "measured_rounds",
    "position_latencies",
    "run_untraced",
    "serve",
    "verify",
    "workload_stats",
]

#: The run length ``BENCHMARK.json`` declares as ``run_seconds``.
DEFAULT_SECONDS = 20

#: Complete rounds the latency metrics are taken over, on every commit.
ROUNDS = 4

#: A closed loop that has not sent ``ROUNDS`` rounds by ``--seconds``
#: keeps going until it has, but for at most this many times as long.
OVERRUN = 2.0

#: The tail percentile, taken over a round's positions.
TAIL_PERCENTILE = 90

#: The statuses the degradation contract allows.
ALLOWED_STATUSES = frozenset({200, 206, 429, 503})

#: Requests sent before the measured window.
WARMUP_REQUESTS = 4

#: Generator lag p99 above which an open-loop run is invalid: the
#: schedule, not the server, would then be shaping the latencies.
LAG_LIMIT_MS = 2.5


@dataclass
class Verdict:
    """What checking one run's samples found."""

    problems: "list[str]" = field(default_factory=list)
    #: |served ∩ answer| / |answer| of each answered kNN query, by request id.
    recall: "dict[str, float]" = field(default_factory=dict)
    #: Live entries at each answered kNN query.
    live_entries: "list[int]" = field(default_factory=list)
    degraded: int = 0
    #: The acked mutations replayed (streaming workloads).
    model: "StreamModel | None" = None

    @property
    def correct(self) -> bool:
        return not self.problems


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: "dict[str, tuple[float, str]]"
    lines: "list[str]" = field(default_factory=list)
    extra: "dict[str, Any]" = field(default_factory=dict)

    def summary(self) -> str:
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in self.metrics.items()
                },
            },
            sort_keys=True,
        )


def answered(sample: Sample) -> bool:
    return sample.status in (200, 206)


def verify(inputs: Inputs, samples: "Sequence[Sample]") -> Verdict:
    """Check every sample against the benchmark's own references.

    Samples must be in send order: for the streaming workload (one
    client) the acked mutations before a query define what it saw.
    """
    spec = inputs.spec
    model = inputs.stream_model() if spec.stream else None
    verdict = Verdict(model=model)
    cache: "dict[tuple[str, int], Any]" = {}
    for sample in samples:
        kind = sample.request.kind
        where = f"{kind} request {sample.request_id}"
        if sample.status and sample.status not in ALLOWED_STATUSES:
            verdict.problems.append(f"{where}: status {sample.status}")
        if sample.status != 200:
            verdict.degraded += sample.status == 206
            continue
        try:
            payload = json.loads(sample.body)
        except ValueError:
            verdict.problems.append(f"{where}: body is not JSON")
            continue
        if kind == "mutate":
            mutation = inputs.mutations[sample.request.ref]
            if payload.get("acked") is not True or payload.get("key") != mutation.key:
                verdict.problems.append(f"{where}: mutation not acked: {payload}")
            elif model is not None:
                mutation.apply(model)
            continue
        center, radius = inputs.queries[sample.request.ref]
        entries = model.entries() if model is not None else inputs.entries
        key = (kind, sample.request.ref)
        reference = cache.get(key) if model is None else None
        if reference is None:
            reference = _reference(kind, entries, center, radius, spec.k)
            if model is None:
                cache[key] = reference
        result = payload.get("result")
        if kind == "knn":
            problem, recall = check_knn(result, *reference)
            verdict.recall[sample.request_id] = recall
            verdict.live_entries.append(len(entries))
        elif kind == "rknn":
            problem = check_rknn(result, reference)
        else:
            problem = check_dominating(result, reference, spec.k)
        if problem is not None:
            verdict.problems.append(f"{where}: {problem}")
    return verdict


def _reference(kind: str, entries: Entries, center: Any, radius: float, k: int) -> Any:
    if kind == "knn":
        return knn_answer(entries, center, radius, k)
    if kind == "rknn":
        return rknn_answer(entries, center, radius)
    return dominance_scores(entries, center, radius)


def _geomean(values: "Sequence[float]") -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def measured_rounds(
    spec: WorkloadSpec, samples: "Sequence[Sample]"
) -> "tuple[int, list[Sample]]":
    """The samples of the first ``ROUNDS`` complete rounds, and their count.

    Every commit is measured on the same requests, however many more
    rounds a faster one completes; a round cut short by the end of the
    run is dropped.  Fewer than ``ROUNDS`` only when a closed loop hit
    its overrun limit, or an open loop's schedule is shorter.
    """
    size = spec.distinct * len(spec.kinds)
    per_round = Counter(s.request.round for s in samples)
    rounds = 0
    while rounds < ROUNDS and per_round[rounds] == size:
        rounds += 1
    if not rounds:
        raise RuntimeError(f"not one complete round of {size} requests")
    return rounds, [s for s in samples if 0 <= s.request.round < rounds]


def position_latencies(
    spec: WorkloadSpec, samples: "Sequence[Sample]"
) -> "list[float]":
    """One latency per round position of one request kind, ms.

    Every round sends the same query at the same position, so the
    fastest of a position's repetitions is that request's latency with
    the least interference from outside the server under test.  On a
    shared VM whose neighbours take the CPU for seconds at a time, this
    varies least between runs (see ``perfbench/README.md``).  Each
    round's mutation at a position is a different one, so mutations
    take the median of their repetitions instead.
    """
    by_position: "dict[int, list[float]]" = {}
    for sample in samples:
        position = sample.request.ref % spec.distinct
        by_position.setdefault(position, []).append(sample.latency_s * 1000.0)
    mutations = bool(samples) and samples[0].request.kind == "mutate"
    pick = statistics.median if mutations else min
    return [pick(latencies) for latencies in by_position.values()]


def workload_stats(spec: WorkloadSpec, samples: "Sequence[Sample]") -> "dict[str, Any]":
    """Per-kind latencies and the aggregated end-to-end numbers."""
    rounds, measured = measured_rounds(spec, samples)
    kinds: "dict[str, dict[str, float]]" = {}
    for kind in spec.kinds:
        done = [s for s in measured if s.request.kind == kind and answered(s)]
        if not done:
            raise RuntimeError(f"no {kind} request of {spec.name} was answered")
        latencies = [
            s.latency_s * 1000.0
            for s in samples
            if s.request.kind == kind and answered(s)
        ]
        per_position = position_latencies(spec, done)
        kinds[kind] = {
            "count": len(latencies),
            "latency_ms": statistics.fmean(per_position),
            "tail_ms": percentile(per_position, TAIL_PERCENTILE),
            "p50_ms": percentile(latencies, 50),
            "p90_ms": percentile(latencies, 90),
        }
    window = max(s.done for s in samples) - min(s.due for s in samples)
    return {
        "kinds": kinds,
        "rounds": rounds,
        "latency_ms": _geomean([k["latency_ms"] for k in kinds.values()]),
        "tail_ms": _geomean([k["tail_ms"] for k in kinds.values()]),
        "throughput_rps": sum(answered(s) for s in samples) / window,
        "lag_p99_ms": percentile([s.lag * 1000.0 for s in samples], 99),
    }


async def warm_up(inputs: Inputs, transport: Transport) -> None:
    """A few unmeasured queries, so lazy set-up is done before timing."""
    for number, request in enumerate(inputs.warmup(WARMUP_REQUESTS)):
        await transport.send(request, f"warmup-{number}")


async def drive(inputs: Inputs, transport: Transport, seconds: float) -> "list[Sample]":
    """Run the workload's loop for *seconds* (a closed loop: and ``ROUNDS``)."""
    spec = inputs.spec
    requests = inputs.requests()
    if spec.open_loop:
        return await open_loop(
            transport,
            requests,
            rate=RATE,
            seconds=seconds,
            max_in_flight=spec.clients,
        )
    return await closed_loop(
        transport,
        requests,
        clients=spec.clients,
        seconds=seconds,
        max_rate=RATE,
        min_requests=ROUNDS * spec.distinct * len(spec.kinds),
        max_seconds=OVERRUN * seconds,
    )


def child_env() -> "dict[str, str]":
    """The server's environment: ours, with our import root first."""
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


@dataclass
class Served:
    """One served run: the samples, every boot time, the peak memory."""

    samples: "list[Sample]"
    boots: "list[float]"
    rss_mb: float


def serve(inputs: Inputs, seconds: float, workdir: str, *, boots: int) -> Served:
    """Cold-boot ``repro serve`` *boots* times; drive the last boot."""
    times: "list[float]" = []
    server: "ServerProcess | None" = None
    with open(os.path.join(workdir, "server.log"), "ab") as log:
        try:
            for _ in range(boots):
                if server is not None:
                    server.stop()
                server = ServerProcess(inputs.server_args(), env=child_env(), log=log)
                times.append(server.start())
            assert server is not None
            transport = HttpTransport("127.0.0.1", server.port)
            samples = asyncio.run(_warm_and_drive(inputs, transport, seconds))
            return Served(samples, times, server.rss_peak_mb())
        finally:
            if server is not None:
                server.stop()


async def _warm_and_drive(
    inputs: Inputs, transport: Transport, seconds: float
) -> "list[Sample]":
    await warm_up(inputs, transport)
    return await drive(inputs, transport, seconds)


def run_untraced(
    spec: WorkloadSpec, seed: int, seconds: float, workdir: str
) -> RunResult:
    """Boot, drive, check and measure one workload (end-to-end metrics)."""
    clock = time.perf_counter()
    inputs = build_inputs(spec, seed, os.path.join(workdir, "inputs"))
    phases = {"inputs_s": time.perf_counter() - clock}
    served = serve(inputs, seconds, workdir, boots=spec.boots)
    samples, boots = served.samples, served.boots
    clock = time.perf_counter()
    verdict = verify(inputs, samples)
    phases["verify_s"] = time.perf_counter() - clock
    stats = workload_stats(spec, samples)
    metrics = {
        "setup_s": (statistics.median(boots), "s"),
        "latency_ms": (stats["latency_ms"], "ms"),
        "tail_ms": (stats["tail_ms"], "ms"),
        "throughput_rps": (stats["throughput_rps"], "1/s"),
        "rss_peak_mb": (served.rss_mb, "MB"),
        "knn_recall": (knn_recall(spec, samples, verdict), "ratio"),
    }
    assert set(metrics) == {metric.name for metric in END_TO_END}
    result = RunResult(
        correct=verdict.correct,
        attempted=len(samples),
        failed=sum(not answered(s) for s in samples),
        metrics=metrics,
    )
    result.lines = _describe(spec, stats, verdict, boots, phases)
    result.extra = {
        "stats": stats,
        "boots_s": boots,
        "phases": phases,
        "problems": verdict.problems,
        "samples": [
            [
                s.request.kind,
                s.request.round,
                s.request.ref,
                s.request_id,
                s.due,
                s.sent,
                s.done,
                s.status,
            ]
            for s in samples
        ],
    }
    return result


def knn_recall(
    spec: WorkloadSpec, samples: "Sequence[Sample]", verdict: Verdict
) -> float:
    """Mean kNN recall over the measured rounds.

    A workload without kNN queries reads 1.0: its RkNN and dominating
    answers must match the references exactly, or the run fails.
    """
    _, measured = measured_rounds(spec, samples)
    recall = [
        verdict.recall[s.request_id] for s in measured if s.request_id in verdict.recall
    ]
    return statistics.fmean(recall) if recall else 1.0


def _describe(
    spec: WorkloadSpec,
    stats: "dict[str, Any]",
    verdict: Verdict,
    boots: "list[float]",
    phases: "dict[str, float]",
) -> "list[str]":
    lines = [
        f"boots: {', '.join(f'{b:.3f} s' for b in boots)}; "
        + ", ".join(f"{name} {value:.2f}" for name, value in phases.items())
    ]
    lines.append(f"rounds measured: {stats['rounds']} of {ROUNDS}")
    for kind, row in stats["kinds"].items():
        pick = "median" if kind == "mutate" else "best"
        lines.append(
            f"{kind}: {row['count']} answered; {pick} of each position: mean "
            f"{row['latency_ms']:.2f} ms, p{TAIL_PERCENTILE} {row['tail_ms']:.2f} ms; "
            f"all: p50 {row['p50_ms']:.2f} ms, p90 {row['p90_ms']:.2f} ms"
        )
    lines.append(f"degraded (206): {verdict.degraded}")
    lines.append(f"generator lag p99: {stats['lag_p99_ms']:.3f} ms")
    if spec.open_loop and stats["lag_p99_ms"] > LAG_LIMIT_MS:
        lines.append(f"INVALID: open-loop generator lag p99 above {LAG_LIMIT_MS} ms")
    lines.extend(f"CHECK FAILED: {problem}" for problem in verdict.problems[:20])
    return lines


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description=(
            "Drive one served workload against repro serve and report its metrics."
        ),
    )
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        default=0,
        help="1: host the server in-process and report per-layer metrics",
    )
    parser.add_argument("--out", help="also write the result (and spans) as JSON here")
    return parser


def main(argv: "Sequence[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    spec = SPECS[args.workload]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    scratch = os.path.join(root, ".perfbench")
    workdir = os.path.join(scratch, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    # Everything the run and its servers write stays in the checkout.
    os.environ["TMPDIR"] = workdir
    try:
        if args.trace:
            from perfbench.tracing import run_traced

            result = run_traced(spec, args.seed, args.seconds, workdir)
        else:
            result = run_untraced(spec, args.seed, args.seconds, workdir)
    except RuntimeError as error:
        print(f"perfbench: {spec.name}: {error}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(scratch)  # only when no other run is using it
    mode = "traced" if args.trace else "untraced"
    print(f"workload {spec.name}, seed {args.seed}, {args.seconds:g} s, {mode}")
    for line in result.lines:
        print(f"  {line}")
    for name, (value, unit) in result.metrics.items():
        print(f"  {name:34s} {value:12.4f} {unit}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, f"{spec.name}-seed{args.seed}-{mode}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"summary": json.loads(result.summary()), **result.extra},
                handle,
                indent=1,
                sort_keys=True,
                default=str,
            )
    print(result.summary(), flush=True)
    return 0 if result.correct else 1
