"""Unit and property tests for the M-tree index (extension)."""

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
from repro.index.mtree import MTree
from repro.queries.knn import knn_query, knn_reference


def make_items(rng, n: int, d: int):
    return [
        (i, Hypersphere(rng.normal(0.0, 10.0, d), float(abs(rng.normal(0.0, 1.0)))))
        for i in range(n)
    ]


class TestConstruction:
    def test_parameters_validated(self):
        with pytest.raises(IndexStructureError):
            MTree(0)
        with pytest.raises(IndexStructureError):
            MTree(2, max_entries=2)

    def test_empty_build_rejected(self):
        with pytest.raises(IndexStructureError):
            MTree.build([])

    def test_insert_wrong_dimension(self):
        tree = MTree(2)
        with pytest.raises(IndexStructureError):
            tree.insert("x", Hypersphere([0.0], 1.0))

    def test_all_items_preserved(self, rng):
        items = make_items(rng, 400, 3)
        tree = MTree.build(items, max_entries=8)
        tree.validate()
        assert sorted(key for key, _ in tree) == list(range(400))

    def test_routing_objects_are_data_centers(self, rng):
        """Every routing center must be some member's center (metric
        purity: the M-tree never synthesises points)."""
        items = make_items(rng, 200, 2)
        tree = MTree.build(items, max_entries=8)
        centers = {tuple(sphere.center) for _, sphere in items}

        def walk(node):
            assert tuple(node.routing) in centers
            if not node.is_leaf:
                for child in node.children:
                    walk(child)

        walk(tree.root)

    def test_duplicate_centers_terminate(self):
        items = [(i, Hypersphere([2.0, 2.0], 0.3)) for i in range(80)]
        tree = MTree.build(items, max_entries=6)
        tree.validate()
        assert len(tree) == 80


class TestInvariants:
    @given(
        st.integers(min_value=1, max_value=250),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=4, max_value=20),
        st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=25)
    def test_build_preserves_invariants(self, n, d, cap, seed):
        rng = np.random.default_rng(seed)
        tree = MTree.build(make_items(rng, n, d), max_entries=cap)
        tree.validate()
        assert len(tree) == n

    def test_node_bounds_bracket_member_distances(self, rng):
        items = make_items(rng, 400, 3)
        tree = MTree.build(items, max_entries=8)
        query = Hypersphere(rng.normal(0.0, 10.0, 3), 1.5)

        def members(node):
            stack, out = [node], []
            while stack:
                current = stack.pop()
                if current.is_leaf:
                    out.extend(current.entries)
                else:
                    stack.extend(current.children)
            return out

        def walk(node):
            lower_min = node.min_dist(query)
            lower_max = node.max_dist_lower_bound(query)
            for _, sphere in members(node):
                assert min_dist(sphere, query) >= lower_min - 1e-9
                assert max_dist(sphere, query) >= lower_max - 1e-9
            if not node.is_leaf:
                for child in node.children:
                    walk(child)

        walk(tree.root)


class TestQueries:
    def test_range_query_matches_linear_scan(self, rng):
        items = make_items(rng, 300, 2)
        tree = MTree.build(items, max_entries=8)
        for _ in range(10):
            query = Hypersphere(rng.normal(0.0, 10.0, 2), float(rng.uniform(0, 5)))
            found = {key for key, _ in tree.range_query(query)}
            expected = {key for key, sphere in items if sphere.overlaps(query)}
            assert found == expected

    def test_two_phase_knn_matches_reference(self):
        dataset = synthetic_dataset(600, 3, mu=8.0, seed=2)
        tree = MTree.build(dataset.items())
        items = list(dataset.items())
        for i in (0, 100, 400):
            query = dataset.sphere(i)
            expected = knn_reference(items, query, 8).key_set()
            got = knn_query(tree, query, 8)
            assert got.key_set() == expected

    def test_incremental_knn_subset_of_truth(self):
        dataset = synthetic_dataset(600, 3, mu=8.0, seed=2)
        tree = MTree.build(dataset.items())
        items = list(dataset.items())
        for i in (5, 250):
            query = dataset.sphere(i)
            truth = knn_reference(items, query, 8).key_set()
            got = incremental_knn(tree, query, 8)
            assert got.key_set() <= truth

    def test_all_three_trees_agree(self):
        from repro.index.sstree import SSTree
        from repro.index.vptree import VPTree

        dataset = synthetic_dataset(500, 2, mu=5.0, seed=4)
        query = dataset.sphere(7)
        answers = []
        for tree in (
            MTree.build(dataset.items()),
            SSTree.bulk_load(dataset.items()),
            VPTree.build(dataset.items()),
        ):
            answers.append(
                knn_query(tree, query, 6).key_set()
            )
        assert answers[0] == answers[1] == answers[2]
