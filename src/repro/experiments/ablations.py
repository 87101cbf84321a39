"""Ablation studies of this reproduction's own design choices.

``python -m repro ablations`` measures, on one synthetic configuration:

- **quartic solver** — closed-form Ferrari vs companion-matrix
  eigenvalues (both power the Hyperbola decision; DESIGN.md §6);
- **scalar vs batch kernels** — how much whole-workload vectorisation
  buys for each criterion;
- **cascade vs plain Hyperbola** — the filter-and-refine shortcuts;
- **incremental vs two-phase kNN** — the paper's list maintenance vs
  the Definition-2-exact variant (time and coverage);
- **index substrate** — SS-tree vs VP-tree vs M-tree vs linear scan
  under the identical query algorithm.

The pytest-benchmark files under ``benchmarks/`` measure the same axes
with statistical rigour; this runner trades that for a single quick,
dependency-free table.
"""

from __future__ import annotations

import time
from typing import Any, Callable

import numpy as np

from repro.core.base import get_criterion
from repro.core.batch import batch_evaluate
from repro.data.synthetic import synthetic_dataset
from repro.data.workload import DominanceWorkload, knn_queries
from repro.experiments.incremental import incremental_knn
from repro.geometry.quartic import solve_quartic_real, solve_quartic_real_closed
from repro.index.linear import LinearIndex
from repro.index.mtree import MTree
from repro.index.sstree import SSTree
from repro.index.vptree import VPTree
from repro.queries.knn import knn_query, knn_reference

__all__ = ["run_ablations"]


def _timed(fn: Callable[[], object], repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def run_ablations(*, scale: float = 1.0, seed: int = 0) -> list[tuple]:
    """Rows of (study, variant, seconds, note) for the report table."""
    rng = np.random.default_rng(seed)
    n = max(300, int(round(2000 * scale * 10)))
    dataset = synthetic_dataset(n, 6, mu=10.0, seed=seed)
    workload = DominanceWorkload.from_dataset(
        dataset, size=max(200, n // 4), seed=seed
    )
    rows: list[tuple] = []

    # Quartic solver.
    coefficients = rng.normal(0.0, 10.0, (256, 5))
    for label, solver in (
        ("ferrari (closed form)", solve_quartic_real_closed),
        ("companion matrix", solve_quartic_real),
    ):
        seconds = _timed(lambda s=solver: [s(row) for row in coefficients])
        rows.append(("quartic", label, seconds, "256 solves"))

    # Scalar vs batch criterion kernels.
    triples = list(workload.triples())
    arrays = workload.arrays()
    for name in ("hyperbola", "minmax", "mbr"):
        criterion = get_criterion(name)
        scalar = _timed(
            lambda c=criterion: [c.dominates(*triple) for triple in triples]
        )
        batch = _timed(lambda nm=name: batch_evaluate(nm, *arrays))
        rows.append(("kernels", f"{name} scalar", scalar, f"{len(triples)} triples"))
        rows.append(("kernels", f"{name} batch", batch, f"{len(triples)} triples"))

    # Cascade vs plain exact decision.
    for name in ("hyperbola", "cascade"):
        criterion = get_criterion(name)
        seconds = _timed(
            lambda c=criterion: [c.dominates(*triple) for triple in triples]
        )
        rows.append(("cascade", name, seconds, f"{len(triples)} triples"))

    # kNN algorithm variants (time + coverage of the exact answer).
    tree = SSTree.bulk_load(dataset.items())
    flat = LinearIndex(dataset.items())
    queries = knn_queries(dataset, count=3, seed=seed)
    truths = [knn_reference(flat, q, 10).key_set() for q in queries]
    for algorithm, query_fn in (
        ("incremental", incremental_knn),
        ("two-phase", knn_query),
    ):
        def run(fn: Callable[..., Any] = query_fn) -> "list[Any]":
            return [fn(tree, q, 10) for q in queries]

        seconds = _timed(run, repeats=1)
        results = run()
        coverage = np.mean(
            [
                100.0 * len(r.key_set() & truth) / len(truth)
                for r, truth in zip(results, truths)
            ]
        )
        rows.append(
            ("knn-algorithm", algorithm, seconds, f"coverage {coverage:.1f}%")
        )

    # Index substrate under the identical (two-phase) served query.
    substrates = {
        "sstree": tree,
        "vptree": VPTree.build(dataset.items()),
        "mtree": MTree.build(dataset.items()),
        "linear": flat,
    }
    for label, index in substrates.items():
        seconds = _timed(
            lambda idx=index: [knn_query(idx, q, 10) for q in queries],
            repeats=1,
        )
        rows.append(("index", label, seconds, f"{len(queries)} queries"))

    return rows
