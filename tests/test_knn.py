"""Integration tests for the kNN query layer (Section 6)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.synthetic import synthetic_dataset
from repro.exceptions import ExperimentError, QueryError, ValidationError
from repro.experiments.incremental import incremental_knn
from repro.geometry.hypersphere import Hypersphere
from repro.index.linear import LinearIndex
from repro.index.mtree import MTree
from repro.index.sstree import SSTree
from repro.index.vptree import VPTree
from repro.queries.knn import knn_query, knn_reference


def _index(kind, items):
    """*items* under one index kind, with nodes small enough to split."""
    return {
        "sstree": lambda: SSTree.bulk_load(items, max_entries=4),
        "vptree": lambda: VPTree.build(items, leaf_capacity=4),
        "mtree": lambda: MTree.build(items, max_entries=4),
        "linear": lambda: LinearIndex(items),
    }[kind]()


@pytest.fixture(scope="module")
def world():
    """A moderately overlapping dataset, its indexes and some queries."""
    dataset = synthetic_dataset(800, 3, mu=8.0, seed=11)
    tree = SSTree.bulk_load(dataset.items(), max_entries=12)
    flat = LinearIndex(dataset.items())
    rng = np.random.default_rng(5)
    queries = [dataset.sphere(int(i)) for i in rng.integers(0, 800, size=6)]
    return dataset, tree, flat, queries


class TestReference:
    def test_contains_the_anchor(self, world):
        _, _, flat, queries = world
        for query in queries:
            result = knn_reference(flat, query, 5)
            maxdists = flat.max_dists(query)
            anchor_key = flat.keys[int(np.argsort(maxdists)[4])]
            assert anchor_key in result.key_set()

    def test_k_equals_dataset_size(self, world):
        dataset, _, flat, queries = world
        result = knn_reference(flat, queries[0], len(dataset))
        assert result.key_set() == set(flat.keys)  # nothing can be dominated

    def test_k1_contains_closest(self, world):
        _, _, flat, queries = world
        for query in queries:
            result = knn_reference(flat, query, 1)
            closest = flat.keys[int(np.argmin(flat.max_dists(query)))]
            assert closest in result.key_set()

    def test_accepts_item_list(self, world):
        dataset, _, flat, queries = world
        from_list = knn_reference(list(dataset.items()), queries[0], 3)
        from_index = knn_reference(flat, queries[0], 3)
        assert from_list.key_set() == from_index.key_set()

    def test_invalid_k(self, world):
        _, _, flat, queries = world
        with pytest.raises(QueryError):
            knn_reference(flat, queries[0], 0)
        with pytest.raises(QueryError):
            knn_reference(flat, queries[0], len(flat) + 1)


class TestTwoPhaseExactness:
    def test_tree_matches_reference(self, world):
        _, tree, flat, queries = world
        for query in queries:
            expected = knn_reference(flat, query, 10)
            got = knn_query(tree, query, 10)
            assert got.key_set() == expected.key_set()
            assert got.distk == pytest.approx(expected.distk)

    def test_linear_matches_reference(self, world):
        _, _, flat, queries = world
        for query in queries:
            expected = knn_reference(flat, query, 7)
            got = knn_query(flat, query, 7)
            assert got.key_set() == expected.key_set()

    def test_prunes_subtrees(self, world):
        """Tree traversal must visit fewer nodes than exist for k=1."""
        _, tree, _, queries = world
        result = knn_query(tree, queries[0], 1)
        assert result.nodes_visited < tree.node_count() * 2  # two passes


class TestTiesAtDistk:
    """Every object attaining distk is an anchor, on every index."""

    CENTERS = {
        "A": [1.0, 0.0],
        "B": [-1.0, 0.0],
        "C": [-1.3, 0.0],
        "D": [1.3, 0.0],
        "E": [0.0, 5.0],
        "F": [0.0, -5.0],
    }

    @pytest.mark.parametrize("kind", ("sstree", "vptree", "mtree", "linear"))
    def test_every_tied_object_anchors(self, kind):
        # A and B tie at the k=1 MaxDist; B dominates C and A dominates
        # D, so anchoring on only one of A, B would wrongly keep C or D.
        items = [
            (key, Hypersphere(center, 0.1)) for key, center in self.CENTERS.items()
        ]
        query = Hypersphere([0.0, 0.0], 0.1)
        assert knn_reference(items, query, 1).key_set() == {"A", "B"}
        result = knn_query(_index(kind, items), query, 1)
        assert result.key_set() == {"A", "B"}
        assert result.distk == pytest.approx(1.2)


class TestIncrementalAlgorithm:
    """The paper's single-pass list maintenance (Section 6).

    It is kept only to regenerate the paper's figures, in
    :mod:`repro.experiments.incremental`.
    """

    @pytest.mark.parametrize("strategy", ("hs", "df"))
    def test_subset_of_truth_with_exact_criterion(self, world, strategy):
        _, tree, flat, queries = world
        for query in queries:
            truth = knn_reference(flat, query, 10).key_set()
            got = incremental_knn(tree, query, 10, strategy=strategy)
            assert got.key_set() <= truth  # precision is always 100%

    def test_finds_the_true_distk(self, world):
        _, tree, flat, queries = world
        for query in queries:
            expected = knn_reference(flat, query, 10)
            for strategy in ("hs", "df"):
                got = incremental_knn(tree, query, 10, strategy=strategy)
                assert got.distk == pytest.approx(expected.distk)

    def test_unsound_criteria_return_supersets(self, world):
        _, tree, _, queries = world
        for query in queries:
            exact = incremental_knn(tree, query, 10, criterion="hyperbola").key_set()
            for name in ("minmax", "mbr", "gp"):
                loose = incremental_knn(tree, query, 10, criterion=name).key_set()
                assert exact <= loose, name

    def test_linear_and_tree_agree(self, world):
        _, tree, flat, queries = world
        for query in queries:
            tree_result = incremental_knn(tree, query, 5, strategy="hs")
            flat_result = incremental_knn(flat, query, 5)
            # Both run the same list maintenance; the visit order differs,
            # so the outputs may differ slightly — but both must sit
            # between the exact answer's core and the full truth.
            truth = knn_reference(flat, query, 5).key_set()
            assert tree_result.key_set() <= truth
            assert flat_result.key_set() <= truth

    def test_statistics_populated(self, world):
        _, tree, _, queries = world
        result = incremental_knn(tree, queries[0], 10)
        assert result.nodes_visited > 0
        assert result.entries_considered > 0
        assert result.dominance_checks >= 0
        assert len(result.keys) == len(result.spheres) == len(result)


class TestValidation:
    def test_invalid_k(self, world):
        _, tree, _, queries = world
        with pytest.raises(QueryError):
            knn_query(tree, queries[0], 0)
        with pytest.raises(QueryError):
            knn_query(tree, queries[0], len(tree) + 1)

    def test_unknown_strategy(self, world):
        # The served query has one traversal; only the paper's
        # incremental algorithm still picks between DF and HS.
        _, tree, _, queries = world
        with pytest.raises(TypeError):
            knn_query(tree, queries[0], 3, strategy="hs")
        with pytest.raises(ExperimentError):
            incremental_knn(tree, queries[0], 3, strategy="bfs")

    def test_unknown_algorithm(self, world):
        # The exact two-phase search is the only served algorithm.
        _, tree, _, queries = world
        with pytest.raises(TypeError):
            knn_query(tree, queries[0], 3, algorithm="two-phase")

    @pytest.mark.parametrize("flat_base", (False, True), ids=("tree", "linear"))
    def test_k_beyond_the_live_rows_of_an_overlay(self, world, flat_base):
        from repro.stream.overlay import DeltaOverlay

        _, tree, flat, queries = world
        overlay = DeltaOverlay()
        for key in flat.keys[3:]:
            overlay.delete(key)
        overlay.insert("fresh", queries[0])
        index = flat if flat_base else tree
        assert knn_query(index, queries[0], 4, overlay=overlay).key_set()
        with pytest.raises(ValidationError, match="k=5 exceeds the dataset size 4"):
            knn_query(index, queries[0], 5, overlay=overlay)

    def test_criterion_by_name_and_instance(self, world):
        from repro.core import get_criterion

        _, tree, _, queries = world
        by_name = knn_query(tree, queries[0], 5, criterion="minmax")
        by_instance = knn_query(tree, queries[0], 5, criterion=get_criterion("minmax"))
        assert by_name.key_set() == by_instance.key_set()


class TestEdgeCases:
    def test_k_equals_n_returns_everything(self):
        items = [
            (i, Hypersphere([float(i), 0.0], 0.3)) for i in range(20)
        ]
        tree = SSTree.bulk_load(items, max_entries=4)
        query = Hypersphere([0.0, 0.0], 0.5)
        result = knn_query(tree, query, 20)
        assert result.key_set() == set(range(20))

    @pytest.mark.parametrize("kind", ("sstree", "vptree", "mtree"))
    def test_node_bound_rounding_never_prunes_sk(self, kind):
        # A node's MinDist bound can round above the MaxDist of the
        # object defining distk (SS-tree: |centroid - q| - radius is
        # 0.4200000000000004, MaxDist(c) is 0.42000000000000015); a
        # strict comparison pruned the leaf holding Sk and answered {}.
        items = [
            ("a", Hypersphere([-3.44], 0.0)),
            ("b", Hypersphere([-2.88], 0.0)),
            ("c", Hypersphere([1.66], 0.0)),
        ]
        query = Hypersphere([2.08], 0.0)
        assert knn_query(_index(kind, items), query, 1).key_set() == {"c"}

    def test_point_objects_and_point_query(self):
        items = [(i, Hypersphere([float(i), 0.0], 0.0)) for i in range(50)]
        tree = SSTree.bulk_load(items, max_entries=8)
        query = Hypersphere([2.2, 0.0], 0.0)
        result = knn_query(tree, query, 1)
        # With points, dominance is decisive: exactly the nearest remains.
        assert result.key_set() == {2}

    def test_separated_clusters_give_crisp_answers(self):
        rng = np.random.default_rng(0)
        items = []
        for c, offset in enumerate((0.0, 1000.0)):
            for i in range(30):
                center = rng.normal(0.0, 1.0, 2) + offset
                items.append((c * 30 + i, Hypersphere(center, 0.01)))
        tree = SSTree.bulk_load(items)
        query = Hypersphere([0.0, 0.0], 0.01)
        result = knn_query(tree, query, 5)
        assert all(key < 30 for key in result.keys)  # never the far cluster
