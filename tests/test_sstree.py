"""Unit and property tests for the SS-tree index."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from repro.data.synthetic import synthetic_dataset
from repro.data.workload import knn_queries
from repro.exceptions import IndexStructureError
from repro.geometry.hypersphere import Hypersphere
from repro.index.sstree import SSTree
from repro.queries.knn import knn_query


def make_items(rng, n: int, d: int, radius_scale: float = 1.0):
    return [
        (
            i,
            Hypersphere(
                rng.normal(0.0, 10.0, d), float(abs(rng.normal(0.0, radius_scale)))
            ),
        )
        for i in range(n)
    ]


class TestConstruction:
    def test_parameters_validated(self):
        with pytest.raises(IndexStructureError):
            SSTree(0)
        with pytest.raises(IndexStructureError):
            SSTree(2, max_entries=3)

    def test_empty_tree(self):
        tree = SSTree(3)
        assert len(tree) == 0
        assert tree.height == 1
        assert list(tree) == []

    def test_insert_wrong_dimension(self):
        tree = SSTree(2)
        with pytest.raises(IndexStructureError):
            tree.insert("x", Hypersphere([0.0], 1.0))

    def test_bulk_load_empty_rejected(self):
        with pytest.raises(IndexStructureError):
            SSTree.bulk_load([])

    def test_incremental_growth(self, rng):
        tree = SSTree(3, max_entries=8)
        items = make_items(rng, 300, 3)
        for i, (key, sphere) in enumerate(items):
            tree.insert(key, sphere)
            assert len(tree) == i + 1
        tree.validate()
        assert tree.height >= 2
        assert sorted(key for key, _ in tree) == sorted(k for k, _ in items)

    def test_bulk_load_various_sizes(self, rng):
        # Sizes chosen around capacity boundaries, including the
        # remainder-distribution edge (n = capacity*k + 1).
        for n in (1, 2, 16, 17, 33, 100, 161, 257):
            items = make_items(rng, n, 2)
            tree = SSTree.bulk_load(items, max_entries=16)
            tree.validate()
            assert len(tree) == n
            assert sorted(key for key, _ in tree) == list(range(n))

    def test_duplicate_centers_handled(self):
        items = [(i, Hypersphere([1.0, 1.0], 0.5)) for i in range(40)]
        tree = SSTree.bulk_load(items, max_entries=8)
        tree.validate()
        incremental = SSTree(2, max_entries=8)
        for key, sphere in items:
            incremental.insert(key, sphere)
        incremental.validate()


class TestTiling:
    @pytest.mark.parametrize("seed", (0, 1))
    def test_bulk_load_lets_knn_prune_clustered_data(self, seed):
        # Splitting every tile recursively on its widest axis keeps the
        # leaves compact, so a kNN query reads a small share of the
        # entries; tiles cut as slabs of one axis read 88-91% here.
        dataset = synthetic_dataset(2000, 3, mu=0.5, seed=seed)
        tree = SSTree.bulk_load(dataset.items())
        tree.validate()
        considered = [
            knn_query(tree, query, 10).entries_considered
            for query in knn_queries(dataset, count=40, seed=seed)
        ]
        assert np.mean(considered) <= 0.25 * len(dataset)


class TestInvariants:
    @given(
        st.integers(min_value=1, max_value=200),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=4, max_value=24),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=30)
    def test_insertion_preserves_invariants(self, n, d, cap, seed):
        rng = np.random.default_rng(seed)
        tree = SSTree(d, max_entries=cap)
        for key, sphere in make_items(rng, n, d):
            tree.insert(key, sphere)
        tree.validate()
        assert len(tree) == n

    @given(
        st.integers(min_value=1, max_value=400),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=30)
    def test_bulk_load_preserves_invariants(self, n, d, seed):
        rng = np.random.default_rng(seed)
        tree = SSTree.bulk_load(make_items(rng, n, d))
        tree.validate()
        assert len(tree) == n

    def test_covering_radius_wraps_every_object(self, rng):
        items = make_items(rng, 500, 3)
        tree = SSTree.bulk_load(items)
        root = tree.root.sphere
        for _, sphere in items:
            gap = float(np.linalg.norm(sphere.center - root.center))
            assert gap + sphere.radius <= root.radius + 1e-6

    def test_node_bounds_bracket_object_distances(self, rng):
        """Node MinDist/MaxDist must bound every member's distances."""
        from repro.geometry.distance import max_dist, min_dist

        items = make_items(rng, 300, 3)
        tree = SSTree.bulk_load(items, max_entries=8)
        query = Hypersphere(rng.normal(0.0, 10.0, 3), 2.0)

        def walk(node):
            lower = node.min_dist(query)
            upper = node.max_dist(query)
            if node.is_leaf:
                for _, sphere in node.entries:
                    assert min_dist(sphere, query) >= lower - 1e-9
                    assert max_dist(sphere, query) <= upper + 1e-9
            else:
                for child in node.children:
                    walk(child)

        walk(tree.root)


class TestQueries:
    def test_range_query_matches_linear_scan(self, rng):
        items = make_items(rng, 400, 2)
        tree = SSTree.bulk_load(items, max_entries=8)
        for _ in range(10):
            query = Hypersphere(rng.normal(0.0, 10.0, 2), float(rng.uniform(0, 6)))
            found = {key for key, _ in tree.range_query(query)}
            expected = {
                key for key, sphere in items if sphere.overlaps(query)
            }
            assert found == expected

    def test_range_query_on_insert_built_tree(self, rng):
        items = make_items(rng, 200, 3)
        tree = SSTree(3, max_entries=8)
        for key, sphere in items:
            tree.insert(key, sphere)
        query = Hypersphere(np.zeros(3), 5.0)
        found = {key for key, _ in tree.range_query(query)}
        expected = {key for key, sphere in items if sphere.overlaps(query)}
        assert found == expected


class TestStatistics:
    def test_height_and_node_count_grow(self, rng):
        small = SSTree.bulk_load(make_items(rng, 10, 2), max_entries=8)
        large = SSTree.bulk_load(make_items(rng, 1000, 2), max_entries=8)
        assert large.height > small.height
        assert large.node_count() > small.node_count()

    def test_validate_detects_corruption(self, rng):
        tree = SSTree.bulk_load(make_items(rng, 100, 2), max_entries=8)
        tree.root.radius = 0.001  # break the covering invariant
        with pytest.raises(IndexStructureError):
            tree.validate()

    def test_validate_detects_count_corruption(self, rng):
        tree = SSTree.bulk_load(make_items(rng, 100, 2), max_entries=8)
        tree.root.count = 7
        with pytest.raises(IndexStructureError):
            tree.validate()


class TestRemoval:
    def test_remove_existing_entry(self, rng):
        items = make_items(rng, 100, 3)
        tree = SSTree.bulk_load(items, max_entries=8)
        key, sphere = items[42]
        assert tree.remove(key, sphere)
        tree.validate()
        assert len(tree) == 99
        assert key not in {k for k, _ in tree}

    def test_remove_missing_entry(self, rng):
        items = make_items(rng, 50, 2)
        tree = SSTree.bulk_load(items, max_entries=8)
        assert not tree.remove("ghost", Hypersphere([0.0, 0.0], 1.0))
        assert len(tree) == 50
        tree.validate()

    def test_remove_wrong_dimension(self, rng):
        tree = SSTree.bulk_load(make_items(rng, 10, 2))
        import pytest as _pytest

        with _pytest.raises(IndexStructureError):
            tree.remove(0, Hypersphere([0.0], 1.0))

    def test_remove_everything(self, rng):
        items = make_items(rng, 120, 2)
        tree = SSTree.bulk_load(items, max_entries=8)
        order = list(items)
        rng.shuffle(order)
        for i, (key, sphere) in enumerate(order):
            assert tree.remove(key, sphere), key
            tree.validate()
            assert len(tree) == len(items) - i - 1
        assert list(tree) == []

    def test_interleaved_insert_remove(self, rng):
        tree = SSTree(3, max_entries=8)
        alive = {}
        items = make_items(rng, 400, 3)
        for step, (key, sphere) in enumerate(items):
            tree.insert(key, sphere)
            alive[key] = sphere
            if step % 3 == 2:  # remove a random survivor
                victim = list(alive)[int(rng.integers(len(alive)))]
                assert tree.remove(victim, alive.pop(victim))
        tree.validate()
        assert {k for k, _ in tree} == set(alive)
        assert len(tree) == len(alive)

    def test_queries_correct_after_removals(self, rng):
        from repro.queries.knn import knn_query, knn_reference

        items = make_items(rng, 300, 2)
        tree = SSTree.bulk_load(items, max_entries=8)
        survivors = dict(items)
        for key, sphere in items[::3]:
            tree.remove(key, sphere)
            del survivors[key]
        query = Hypersphere([0.0, 0.0], 1.0)
        expected = knn_reference(list(survivors.items()), query, 5).key_set()
        got = knn_query(tree, query, 5)
        assert got.key_set() == expected
