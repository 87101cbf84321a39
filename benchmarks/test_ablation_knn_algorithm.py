"""Ablation: the paper's single-pass kNN list maintenance vs two-phase.

The incremental algorithm (Section 6, kept in
:mod:`repro.experiments.incremental` for the figures) prunes against
intermediate anchors — cheaper lists but possible coverage loss; the
two-phase search that serves every query is Definition-2 exact.  This
ablation measures the price of exactness.
"""

from __future__ import annotations

import pytest

from repro.experiments.incremental import incremental_knn
from repro.queries.knn import knn_query, knn_reference

from conftest import knn_world

VARIANTS = {
    "incremental-hs": lambda tree, q: incremental_knn(tree, q, 10, strategy="hs"),
    "incremental-df": lambda tree, q: incremental_knn(tree, q, 10, strategy="df"),
    "two-phase": lambda tree, q: knn_query(tree, q, 10),
}


@pytest.mark.parametrize("algorithm", sorted(VARIANTS))
def test_knn_algorithm_variants(benchmark, algorithm):
    tree, flat, queries = knn_world()
    variant = VARIANTS[algorithm]

    def run():
        return [variant(tree, q) for q in queries]

    results = benchmark(run)
    coverage_sum = 0.0
    for query, result in zip(queries, results):
        truth = knn_reference(flat, query, 10).key_set()
        coverage_sum += 100.0 * len(result.key_set() & truth) / len(truth)
    benchmark.extra_info["algorithm"] = algorithm
    benchmark.extra_info["coverage_pct"] = round(coverage_sum / len(queries), 2)
    if algorithm == "two-phase":
        assert coverage_sum == pytest.approx(100.0 * len(queries))
