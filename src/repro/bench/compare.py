"""Diff two benchmark trajectories; the CI regression gate.

Points are matched by their *parameter dict* (the sweep definitions in
:mod:`repro.bench.topics` keep those stable across commits), and a
point regresses when its latency metric grew by more than the
threshold::

    current > baseline * (1 + threshold)

The default metric is ``p50`` — tail percentiles (p95/p99) from small
sample counts are too noisy to gate on, but they ride along in the
report for eyeballing.

Beside the timing gate sits an exact one: a matched point also fails
when any of the deterministic work counters in :data:`WORK_COUNTERS`
grew at all.  Those count kernel rows, quartic solves and index entries
for seeded inputs, so they do not wander from run to run the way
timings do.  A counter present on only one side is reported, not
failed.  Points present on only one side are reported, never silently
dropped: a vanished point usually means the sweep definition changed
and the baseline needs regenerating.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any

from repro.bench.runner import BenchDocument, document_path, read_document
from repro.bench.topics import TOPICS

__all__ = [
    "Regression",
    "TopicComparison",
    "WORK_COUNTERS",
    "WorkIncrease",
    "compare_documents",
    "compare_runs",
]

#: Work counters a matched point may not grow: deterministic for seeded
#: inputs, so any increase is more work, not noise.
WORK_COUNTERS = (
    "batch.hyperbola.rows",
    "batch.hyperbola.quartic_rows",
    "knn.entries_considered",
    "knn.dominance_checks",
    "hyperbola.quartic",
)


def _point_key(params: "dict[str, Any]") -> "tuple[tuple[str, Any], ...]":
    return tuple(sorted(params.items()))


@dataclass(frozen=True)
class Regression:
    """One point whose latency grew past the threshold."""

    topic: str
    params: "dict[str, Any]"
    metric: str
    baseline: float
    current: float

    @property
    def ratio(self) -> float:
        """current / baseline (``inf`` against a zero baseline)."""
        if self.baseline <= 0.0:
            return float("inf") if self.current > 0.0 else 1.0
        return self.current / self.baseline

    def describe(self) -> str:
        params = ", ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return (
            f"{self.topic}[{params}]: {self.metric} "
            f"{self.baseline:.6g}s -> {self.current:.6g}s "
            f"({100.0 * (self.ratio - 1.0):+.1f}%)"
        )


@dataclass(frozen=True)
class WorkIncrease:
    """One point whose work counter grew."""

    topic: str
    params: "dict[str, Any]"
    counter: str
    baseline: int
    current: int

    def describe(self) -> str:
        params = ", ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return (
            f"{self.topic}[{params}]: {self.counter} "
            f"{self.baseline} -> {self.current} (+{self.current - self.baseline})"
        )


@dataclass
class TopicComparison:
    """The outcome of diffing one topic's documents."""

    topic: str
    matched: int = 0
    regressions: "list[Regression]" = field(default_factory=list)
    work_increases: "list[WorkIncrease]" = field(default_factory=list)
    #: ``(params, counter, side)``: a work counter only *side* recorded.
    unmatched_counters: "list[tuple[dict[str, Any], str, str]]" = field(
        default_factory=list
    )
    #: Points in the baseline with no current counterpart, and vice versa.
    missing_current: "list[dict[str, Any]]" = field(default_factory=list)
    missing_baseline: "list[dict[str, Any]]" = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.regressions and not self.work_increases


def compare_documents(
    baseline: BenchDocument,
    current: BenchDocument,
    *,
    threshold: float = 0.25,
    metric: str = "p50",
) -> TopicComparison:
    """Diff two documents of the same topic point-by-point."""
    comparison = TopicComparison(topic=current.topic)
    baseline_points = {
        _point_key(point["params"]): point for point in baseline.points
    }
    current_keys = set()
    for point in current.points:
        key = _point_key(point["params"])
        current_keys.add(key)
        base = baseline_points.get(key)
        if base is None:
            comparison.missing_baseline.append(dict(point["params"]))
            continue
        comparison.matched += 1
        base_value = float(base["latency_s"][metric])
        current_value = float(point["latency_s"][metric])
        if current_value > base_value * (1.0 + threshold):
            comparison.regressions.append(
                Regression(
                    topic=current.topic,
                    params=dict(point["params"]),
                    metric=metric,
                    baseline=base_value,
                    current=current_value,
                )
            )
        _compare_work(comparison, base, point)
    for key, point in baseline_points.items():
        if key not in current_keys:
            comparison.missing_current.append(dict(point["params"]))
    return comparison


def _compare_work(
    comparison: TopicComparison,
    base: "dict[str, Any]",
    point: "dict[str, Any]",
) -> None:
    """Record every work counter of a matched point that grew."""
    params = dict(point["params"])
    base_counters = base.get("counters", {})
    current_counters = point.get("counters", {})
    for counter in WORK_COUNTERS:
        before = base_counters.get(counter)
        after = current_counters.get(counter)
        if before is None and after is None:
            continue
        if before is None or after is None:
            side = "current" if before is None else "baseline"
            comparison.unmatched_counters.append((params, counter, side))
        elif after > before:
            comparison.work_increases.append(
                WorkIncrease(
                    topic=comparison.topic,
                    params=params,
                    counter=counter,
                    baseline=int(before),
                    current=int(after),
                )
            )


def compare_runs(
    baseline_dir: str,
    current_dir: str,
    *,
    topics: "tuple[str, ...] | list[str] | None" = None,
    threshold: float = 0.25,
    metric: str = "p50",
) -> "list[TopicComparison]":
    """Diff every topic's ``BENCH_<topic>.json`` between two directories.

    A topic whose document is missing on either side is skipped with an
    empty comparison carrying the whole other side as missing — the CLI
    surfaces that; it is not a regression by itself.
    """
    selected = tuple(topics) if topics else TOPICS
    comparisons: "list[TopicComparison]" = []
    for topic in selected:
        baseline_path = document_path(baseline_dir, topic)
        current_path = document_path(current_dir, topic)
        has_baseline = os.path.exists(baseline_path)
        has_current = os.path.exists(current_path)
        if not has_baseline or not has_current:
            comparison = TopicComparison(topic=topic)
            if has_baseline:
                baseline = read_document(baseline_path)
                comparison.missing_current = [
                    dict(point["params"]) for point in baseline.points
                ]
            if has_current:
                current = read_document(current_path)
                comparison.missing_baseline = [
                    dict(point["params"]) for point in current.points
                ]
            comparisons.append(comparison)
            continue
        comparisons.append(
            compare_documents(
                read_document(baseline_path),
                read_document(current_path),
                threshold=threshold,
                metric=metric,
            )
        )
    return comparisons
