"""Shared fixtures for the pytest-benchmark suite.

Every benchmark regenerates (a scaled-down instance of) one of the
paper's tables or figures: the parametrisation axes are the figure's
x-axis, the benchmarked callable is the measured quantity (criterion
execution / kNN query), and quality metrics (precision, recall,
coverage) are attached to ``benchmark.extra_info`` so a single
``pytest benchmarks/ --benchmark-only`` run reports both time and
quality per configuration.

Scale note: dataset and workload sizes here are intentionally far below
the paper's (see EXPERIMENTS.md); run ``python -m repro <figN> --scale
1.0`` for paper-sized sweeps.  Shapes are preserved at any scale.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.base import get_criterion
from repro.core.batch import batch_evaluate
from repro.data.real import real_dataset
from repro.data.synthetic import Dataset, synthetic_dataset
from repro.data.workload import DominanceWorkload


def pytest_addoption(parser):
    """Register the headless smoke-lane flag.

    ``--bench-quick`` shrinks every dataset/workload size by 4x so a
    full ``pytest benchmarks/ --benchmark-only`` sweep finishes inside
    a CI smoke budget; the parametrisation axes (and hence the shapes)
    are unchanged.
    """
    parser.addoption(
        "--bench-quick",
        action="store_true",
        default=False,
        help="shrink benchmark dataset/workload sizes 4x (CI smoke lane)",
    )


def pytest_configure(config):
    """Trim benchmark rounds so the kNN sweeps stay tractable.

    Only touches options left at their pytest-benchmark defaults, so
    explicit ``--benchmark-min-rounds`` / ``--benchmark-max-time`` flags
    still win.  Under ``--bench-quick`` the module-level scale knobs
    shrink before collection, so every helper reading them at call time
    sees the reduced sizes.
    """
    if getattr(config.option, "benchmark_min_rounds", None) == 5:
        config.option.benchmark_min_rounds = 2
    if getattr(config.option, "benchmark_max_time", None) == "1.0":
        config.option.benchmark_max_time = "0.5"
    if config.getoption("--bench-quick"):
        # WORKLOAD_SIZE stays put: the <5% disabled-overhead guard in
        # test_obs_overhead.py is a best-of-N timing comparison whose
        # noise floor scales inversely with the workload length.
        global DATASET_SIZE, KNN_DATASET_SIZE, REAL_SLICE
        DATASET_SIZE //= 4
        KNN_DATASET_SIZE //= 4
        REAL_SLICE //= 4


# Benchmark-suite scale knobs (kept small so the suite runs in minutes).
WORKLOAD_SIZE = 400
DATASET_SIZE = 800
KNN_DATASET_SIZE = 600
KNN_QUERIES = 2
REAL_SLICE = 1500

DOMINANCE_CRITERIA = ("hyperbola", "minmax", "mbr", "gp", "trigonometric")
KNN_CRITERIA = ("hyperbola", "minmax", "mbr", "gp")


def dominance_workload(dataset: Dataset, seed: int = 0) -> DominanceWorkload:
    return DominanceWorkload.from_dataset(dataset, size=WORKLOAD_SIZE, seed=seed)


# Shared dataset cache: a headless fig sweep asks for the same handful
# of configurations dozens of times; building each once keeps the suite
# I/O- and RNG-bound work constant regardless of how many benchmarks run.
_DATASET_CACHE: dict = {}


def make_synthetic(
    n: "int | None" = None,
    d: int = 6,
    mu: float = 10.0,
    **kwargs,
) -> Dataset:
    # Defaults resolve at call time so --bench-quick (applied in
    # pytest_configure, after this module is imported) takes effect.
    if n is None:
        n = DATASET_SIZE
    key = ("synthetic", n, d, mu, tuple(sorted(kwargs.items())))
    if key not in _DATASET_CACHE:
        _DATASET_CACHE[key] = synthetic_dataset(n, d, mu=mu, seed=0, **kwargs)
    return _DATASET_CACHE[key]


def make_real(name: str, mu: float = 10.0) -> Dataset:
    # relative_radii rescales mu to each dataset's coordinate spread so
    # one sweep is meaningful on [0,1] features and 100s-range counts alike.
    key = ("real", name, mu, REAL_SLICE)
    if key not in _DATASET_CACHE:
        _DATASET_CACHE[key] = real_dataset(
            name, mu=mu, relative_radii=True, size=REAL_SLICE
        )
    return _DATASET_CACHE[key]


def bench_criterion_workload(benchmark, criterion_name, workload):
    """Benchmark one criterion over a whole workload; attach quality."""
    criterion = get_criterion(criterion_name)
    triples = list(workload.triples())

    def run() -> int:
        positives = 0
        for sa, sb, sq in triples:
            positives += criterion.dominates(sa, sb, sq)
        return positives

    benchmark(run)
    predicted = batch_evaluate(criterion_name, *workload.arrays())
    truth = batch_evaluate("hyperbola", *workload.arrays())
    from repro.experiments.metrics import binary_metrics

    scores = binary_metrics(predicted, truth)
    benchmark.extra_info["precision_pct"] = round(scores.precision, 2)
    benchmark.extra_info["recall_pct"] = round(scores.recall, 2)
    benchmark.extra_info["workload"] = len(workload)


@pytest.fixture(scope="session")
def default_synthetic() -> Dataset:
    """The Table-2 default configuration, at benchmark scale."""
    return make_synthetic()


# ----------------------------------------------------------------------
# kNN benchmarking helpers (Figures 13-16)
# ----------------------------------------------------------------------

_KNN_WORLD_CACHE: dict = {}


def knn_world(n: "int | None" = None, d: int = 6, mu: float = 10.0):
    """(tree, reference index, query spheres) for one configuration.

    Cached per configuration: eight (strategy x criterion) benchmarks
    share each dataset/tree, as in the paper's harness.
    """
    from repro.data.workload import knn_queries
    from repro.index.linear import LinearIndex
    from repro.index.sstree import SSTree

    if n is None:
        n = KNN_DATASET_SIZE
    key = (n, d, mu)
    if key not in _KNN_WORLD_CACHE:
        dataset = make_synthetic(n=n, d=d, mu=mu)
        tree = SSTree.bulk_load(dataset.items())
        flat = LinearIndex(dataset.items())
        queries = knn_queries(dataset, count=KNN_QUERIES, seed=1)
        _KNN_WORLD_CACHE[key] = (tree, flat, queries)
    return _KNN_WORLD_CACHE[key]


def bench_knn(benchmark, *, strategy, criterion, k, n=None, d=6, mu=10.0):
    """Benchmark one (strategy, criterion) combination of the paper's
    incremental kNN (Figures 13-16); attach quality."""
    from repro.experiments.incremental import incremental_knn
    from repro.queries.knn import knn_reference

    tree, flat, queries = knn_world(n=n, d=d, mu=mu)

    def run():
        return [
            incremental_knn(tree, query, k, criterion=criterion, strategy=strategy)
            for query in queries
        ]

    results = benchmark(run)
    precision_sum = coverage_sum = 0.0
    for query, result in zip(queries, results):
        truth = knn_reference(flat, query, k).key_set()
        returned = result.key_set()
        hits = len(returned & truth)
        precision_sum += 100.0 * hits / len(returned) if returned else 100.0
        coverage_sum += 100.0 * hits / len(truth) if truth else 100.0
    benchmark.extra_info["algorithm"] = f"{strategy.upper()}({criterion})"
    benchmark.extra_info["precision_pct"] = round(precision_sum / len(queries), 2)
    benchmark.extra_info["coverage_pct"] = round(coverage_sum / len(queries), 2)
    benchmark.extra_info["queries"] = len(queries)
    if criterion == "hyperbola":
        assert precision_sum == pytest.approx(100.0 * len(queries))
