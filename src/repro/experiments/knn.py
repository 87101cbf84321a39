"""The kNN-query experiments (Section 7.2, Figures 13–16).

For each dataset configuration the harness bulk-loads an SS-tree, draws
query hyperspheres from the dataset, and runs the paper's incremental
kNN algorithm (:mod:`repro.experiments.incremental`) under every
(traversal strategy x dominance criterion) combination the
paper evaluates — DF/HS x {Hyperbola, MinMax, MBR, GP} (Trigonometric
is excluded exactly as in the paper: it is not correct, so kNN answers
based on it could miss true neighbours).

Reported per combination, averaged over the queries:

- *query time* — wall-clock seconds per query;
- *precision* — |returned ∩ truth| / |returned| with truth the exact
  Definition-2 answer (:func:`repro.queries.knn.knn_reference`);
- *coverage* — |returned ∩ truth| / |truth|.  The paper asserts 100%
  recall by construction of its measurement; coverage quantifies the
  intermediate-anchor pruning discussed in
  :mod:`repro.experiments.incremental` and is reported alongside for
  transparency.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.obs import names
from repro.data.synthetic import Dataset
from repro.data.workload import knn_queries
from repro.exceptions import ExperimentError
from repro.experiments.config import KNN_CRITERIA, KNN_STRATEGIES
from repro.experiments.incremental import incremental_knn
from repro.experiments.metrics import mean_and_std
from repro.index.linear import LinearIndex
from repro.index.sstree import SSTree
from repro.obs.log import get_logger
from repro.queries.knn import knn_reference

__all__ = ["KNNMeasurement", "run_knn_experiment"]

log = get_logger("experiments.knn")


@dataclass(frozen=True)
class KNNMeasurement:
    """One (configuration, strategy, criterion) cell of Figures 13–16."""

    label: str
    strategy: str
    criterion: str
    seconds_per_query: float
    # Per-query stddev over the query sample (perf_counter timings).
    seconds_std: float
    precision: float
    coverage: float
    mean_returned: float
    mean_truth_size: float
    queries: int
    # Per-combination instrumentation deltas (None unless obs is enabled).
    stats: "dict | None" = None

    @property
    def algorithm(self) -> str:
        """The paper's series name, e.g. ``"HS(Hyper)"``."""
        pretty = {"hyperbola": "Hyper", "minmax": "MinMax", "mbr": "MBR", "gp": "GP"}
        return f"{self.strategy.upper()}({pretty.get(self.criterion, self.criterion)})"

    def row(self) -> tuple:
        """The cell as a report-table row."""
        return (
            self.label,
            self.algorithm,
            self.seconds_per_query,
            self.precision,
            self.coverage,
        )


def run_knn_experiment(
    dataset: Dataset,
    *,
    label: str,
    k: int = 10,
    queries: int = 20,
    criteria: tuple[str, ...] = KNN_CRITERIA,
    strategies: tuple[str, ...] = KNN_STRATEGIES,
    max_entries: int = 16,
    seed: int | None = 0,
) -> list[KNNMeasurement]:
    """Measure every (strategy, criterion) pair on one configuration."""
    if queries < 1:
        raise ExperimentError(f"need at least one query, got {queries}")
    log.debug(
        "knn experiment %s: n=%d k=%d queries=%d", label, len(dataset), k, queries
    )
    rng = np.random.default_rng(seed)
    with obs.trace(names.KNN_BUILD_INDEX):
        tree = SSTree.bulk_load(dataset.items(), max_entries=max_entries)
        flat = LinearIndex(dataset.items())
    query_spheres = knn_queries(dataset, count=queries, rng=rng)
    with obs.trace(names.KNN_REFERENCE):
        truths = [
            knn_reference(flat, query, k, criterion="hyperbola").key_set()
            for query in query_spheres
        ]

    measurements = []
    for strategy in strategies:
        for criterion in criteria:
            before = obs.collect() if obs.ENABLED else None
            samples = []
            precision_sum = 0.0
            coverage_sum = 0.0
            returned_sum = 0
            truth_sum = 0
            with obs.trace(names.knn_span(strategy, criterion)):
                for query, truth in zip(query_spheres, truths):
                    started = time.perf_counter()
                    result = incremental_knn(
                        tree, query, k, criterion=criterion, strategy=strategy
                    )
                    samples.append(time.perf_counter() - started)
                    returned = result.key_set()
                    hits = len(returned & truth)
                    precision_sum += (
                        100.0 * hits / len(returned) if returned else 100.0
                    )
                    coverage_sum += 100.0 * hits / len(truth) if truth else 100.0
                    returned_sum += len(returned)
                    truth_sum += len(truth)
            mean_seconds, std_seconds = mean_and_std(samples)
            delta = (
                obs.diff(before, obs.collect()) if before is not None else None
            )
            measurements.append(
                KNNMeasurement(
                    label=label,
                    strategy=strategy,
                    criterion=criterion,
                    seconds_per_query=mean_seconds,
                    seconds_std=std_seconds,
                    precision=precision_sum / queries,
                    coverage=coverage_sum / queries,
                    mean_returned=returned_sum / queries,
                    mean_truth_size=truth_sum / queries,
                    queries=queries,
                    stats=delta,
                )
            )
    return measurements
