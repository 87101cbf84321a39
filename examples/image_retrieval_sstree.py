"""High-dimensional similarity search — the SS-tree use case.

Run with::

    python examples/image_retrieval_sstree.py

The paper motivates hyperspheres through similarity-search indexes
(SS-tree and friends) over image features.  This example indexes the
Color surrogate dataset (9-dimensional Corel-style feature vectors,
see repro.data.real) with an SS-tree, runs kNN queries with each
dominance criterion, and reports how pruning power translates into
answer quality and visited work.
"""

from __future__ import annotations

import time

import numpy as np

from repro.data import real_dataset
from repro.index import SSTree
from repro.queries import knn_query, knn_reference

N_IMAGES = 4000  # slice of the 68,040-image dataset, for a snappy demo
K = 5


def main() -> None:
    dataset = real_dataset("color", mu=0.05, size=N_IMAGES)
    print(f"dataset: {dataset.name}, {len(dataset)} feature spheres, "
          f"d={dataset.dimension}")

    started = time.perf_counter()
    tree = SSTree.bulk_load(dataset.items(), max_entries=24)
    build_seconds = time.perf_counter() - started
    print(f"SS-tree: height {tree.height}, {tree.node_count()} nodes, "
          f"bulk-loaded in {build_seconds * 1000:.1f} ms\n")

    rng = np.random.default_rng(9)
    query = dataset.sphere(int(rng.integers(len(dataset))))
    truth = knn_reference(list(dataset.items()), query, K).key_set()

    header = f"{'criterion':<12s} {'sec/query':>10s} {'returned':>9s} " \
             f"{'correct':>8s} {'nodes':>6s} {'dom.checks':>10s}"
    print(header)
    print("-" * len(header))
    for criterion in ("hyperbola", "minmax", "mbr", "gp"):
        started = time.perf_counter()
        result = knn_query(tree, query, K, criterion=criterion)
        seconds = time.perf_counter() - started
        correct = len(result.key_set() & truth)
        print(
            f"{criterion:<12s} {seconds:>10.5f} {len(result):>9d} "
            f"{correct:>8d} {result.nodes_visited:>6d} "
            f"{result.dominance_checks:>10d}"
        )

    print(f"\nDefinition-2 ground truth size: {len(truth)}")
    print("Hyperbola returns only true answers; the unsound criteria")
    print("return supersets because they cannot certify some prunes.")


if __name__ == "__main__":
    main()
