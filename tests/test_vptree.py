"""Unit and property tests for the VP-tree index (extension)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from repro.data.synthetic import synthetic_dataset
from repro.exceptions import IndexStructureError
from repro.experiments.incremental import incremental_knn
from repro.geometry.distance import max_dist, min_dist
from repro.geometry.hypersphere import Hypersphere
from repro.index.vptree import VPTree
from repro.queries.knn import knn_query, knn_reference


def make_items(rng, n: int, d: int):
    return [
        (i, Hypersphere(rng.normal(0.0, 10.0, d), float(abs(rng.normal(0.0, 1.0)))))
        for i in range(n)
    ]


class TestConstruction:
    def test_empty_rejected(self):
        with pytest.raises(IndexStructureError):
            VPTree.build([])

    def test_small_capacity_rejected(self, rng):
        with pytest.raises(IndexStructureError):
            VPTree.build(make_items(rng, 10, 2), leaf_capacity=1)

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(IndexStructureError):
            VPTree.build(
                [("a", Hypersphere([0.0], 1.0)), ("b", Hypersphere([0.0, 0.0], 1.0))]
            )

    def test_single_item(self):
        tree = VPTree.build([("only", Hypersphere([1.0, 2.0], 0.5))])
        assert len(tree) == 1
        assert tree.root.is_leaf
        tree.validate()

    def test_all_items_preserved(self, rng):
        items = make_items(rng, 500, 3)
        tree = VPTree.build(items)
        tree.validate()
        assert sorted(key for key, _ in tree) == list(range(500))

    def test_duplicate_centers_terminate(self):
        items = [(i, Hypersphere([1.0, 1.0], 0.1)) for i in range(100)]
        tree = VPTree.build(items, leaf_capacity=4)
        tree.validate()
        assert len(tree) == 100

    def test_deterministic_for_fixed_seed(self, rng):
        items = make_items(rng, 200, 2)
        a = VPTree.build(items, seed=3)
        b = VPTree.build(items, seed=3)
        assert a.node_count() == b.node_count()
        assert a.height == b.height


class TestInvariants:
    @given(
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=2, max_value=24),
        st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=25)
    def test_build_preserves_invariants(self, n, d, cap, seed):
        rng = np.random.default_rng(seed)
        tree = VPTree.build(make_items(rng, n, d), leaf_capacity=cap, seed=seed)
        tree.validate()
        assert len(tree) == n

    def test_node_bounds_bracket_member_distances(self, rng):
        items = make_items(rng, 400, 3)
        tree = VPTree.build(items, leaf_capacity=8)
        query = Hypersphere(rng.normal(0.0, 10.0, 3), 1.5)

        def walk(node, members):
            lower_min = node.min_dist(query)
            lower_max = node.max_dist_lower_bound(query)
            for _, sphere in members:
                assert min_dist(sphere, query) >= lower_min - 1e-9
                assert max_dist(sphere, query) >= lower_max - 1e-9
            if not node.is_leaf:
                inner, outer = node.children
                inner_members = list(tree._iter_subtree(inner))
                outer_members = list(tree._iter_subtree(outer))
                walk(inner, inner_members)
                walk(outer, outer_members)

        walk(tree.root, items)


class TestQueries:
    def test_range_query_matches_linear_scan(self, rng):
        items = make_items(rng, 300, 2)
        tree = VPTree.build(items, leaf_capacity=8)
        for _ in range(10):
            query = Hypersphere(rng.normal(0.0, 10.0, 2), float(rng.uniform(0, 5)))
            found = {key for key, _ in tree.range_query(query)}
            expected = {key for key, sphere in items if sphere.overlaps(query)}
            assert found == expected

    def test_two_phase_knn_matches_reference(self, rng):
        dataset = synthetic_dataset(600, 3, mu=8.0, seed=2)
        tree = VPTree.build(dataset.items())
        items = list(dataset.items())
        for i in (0, 100, 400):
            query = dataset.sphere(i)
            expected = knn_reference(items, query, 8).key_set()
            got = knn_query(tree, query, 8)
            assert got.key_set() == expected

    def test_incremental_knn_subset_of_truth(self, rng):
        dataset = synthetic_dataset(600, 3, mu=8.0, seed=2)
        tree = VPTree.build(dataset.items())
        items = list(dataset.items())
        for i in (5, 250):
            query = dataset.sphere(i)
            truth = knn_reference(items, query, 8).key_set()
            got = incremental_knn(tree, query, 8)
            assert got.key_set() <= truth

    def test_agrees_with_sstree(self, rng):
        from repro.index.sstree import SSTree

        dataset = synthetic_dataset(500, 2, mu=5.0, seed=4)
        vp = VPTree.build(dataset.items())
        ss = SSTree.bulk_load(dataset.items())
        query = dataset.sphere(7)
        vp_answer = knn_query(vp, query, 6).key_set()
        ss_answer = knn_query(ss, query, 6).key_set()
        assert vp_answer == ss_answer
