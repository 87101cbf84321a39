"""Ablation: SS-tree vs VP-tree vs M-tree vs linear scan for kNN.

The paper uses an SS-tree; the VP-tree and M-tree (related work)
expose the same node interface here, so the identical query algorithm
runs on all three.  The linear scan bounds what indexing buys at this
scale.
"""

from __future__ import annotations

import pytest

from repro.data.workload import knn_queries
from repro.index.linear import LinearIndex
from repro.index.mtree import MTree
from repro.index.sstree import SSTree
from repro.index.vptree import VPTree
from repro.queries.knn import knn_query

from conftest import KNN_QUERIES, make_synthetic

DATASET = make_synthetic(n=800, d=6)
INDEXES = {
    "sstree": SSTree.bulk_load(DATASET.items()),
    "vptree": VPTree.build(DATASET.items()),
    "mtree": MTree.build(DATASET.items()),
    "linear": LinearIndex(DATASET.items()),
}
QUERIES = knn_queries(DATASET, count=KNN_QUERIES, seed=1)


@pytest.mark.parametrize("index_name", sorted(INDEXES))
def test_index_substrate(benchmark, index_name):
    index = INDEXES[index_name]

    def run():
        return [knn_query(index, q, 10) for q in QUERIES]

    results = benchmark(run)
    benchmark.extra_info["index"] = index_name
    benchmark.extra_info["mean_answer"] = round(
        sum(len(r) for r in results) / len(results), 1
    )
    # All three substrates answer identically (two-phase is exact).
    reference = [knn_query(INDEXES["linear"], q, 10).key_set() for q in QUERIES]
    for got, expected in zip(results, reference):
        assert got.key_set() == expected


@pytest.mark.parametrize("index_name", ("sstree", "vptree", "mtree"))
def test_index_build_cost(benchmark, index_name):
    items = list(DATASET.items())
    builders = {
        "sstree": SSTree.bulk_load,
        "vptree": VPTree.build,
        "mtree": MTree.build,
    }
    tree = benchmark(builders[index_name], items)
    benchmark.extra_info["nodes"] = tree.node_count()
    benchmark.extra_info["height"] = tree.height
