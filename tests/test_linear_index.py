"""Tests for the flat LinearIndex baseline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import IndexStructureError
from repro.geometry.distance import max_dist, min_dist
from repro.geometry.hypersphere import Hypersphere
from repro.index.linear import LinearIndex


def make_items(rng, n: int, d: int):
    return [
        (f"k{i}", Hypersphere(rng.normal(0, 5, d), float(abs(rng.normal(0, 1)))))
        for i in range(n)
    ]


class TestConstruction:
    def test_empty_rejected(self):
        with pytest.raises(IndexStructureError):
            LinearIndex([])

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(IndexStructureError):
            LinearIndex(
                [("a", Hypersphere([0.0], 1.0)), ("b", Hypersphere([0.0, 0.0], 1.0))]
            )

    def test_iteration_preserves_order(self, rng):
        items = make_items(rng, 20, 3)
        index = LinearIndex(items)
        assert list(index) == items
        assert len(index) == 20
        assert index.dimension == 3


class TestVectorisedDistances:
    def test_match_scalar_helpers(self, rng):
        items = make_items(rng, 50, 4)
        index = LinearIndex(items)
        query = Hypersphere(rng.normal(0, 5, 4), 1.5)
        maxs = index.max_dists(query)
        mins = index.min_dists(query)
        for i, (_, sphere) in enumerate(items):
            assert maxs[i] == pytest.approx(max_dist(sphere, query))
            assert mins[i] == pytest.approx(min_dist(sphere, query))

    def test_min_dists_clamped_at_zero(self, rng):
        index = LinearIndex([("a", Hypersphere([0.0, 0.0], 2.0))])
        query = Hypersphere([0.5, 0.0], 1.0)
        assert index.min_dists(query)[0] == 0.0


def brute_reach(items):
    """``min over a != b of MaxDist(Sa, Sb) - rb``, one pair at a time."""
    return [
        min(
            (max_dist(sa, sb) - sb.radius for a, (_, sa) in enumerate(items) if a != b),
            default=np.inf,
        )
        for b, (_, sb) in enumerate(items)
    ]


class TestNearestReach:
    """The per-object MinMax table behind RkNN's O(n) pre-filter."""

    @pytest.mark.parametrize("d", (1, 3, 8))
    def test_equals_the_brute_force_min_over_max_dist(self, rng, d):
        items = make_items(rng, 70, d)
        reach = LinearIndex(items).nearest_reach()
        assert reach == pytest.approx(brute_reach(items), rel=1e-14, abs=1e-14)

    def test_prefilter_equals_the_pairwise_test_bit_for_bit(self, rng):
        # Every object's verdict matches "some competitor's MaxDist is
        # below MinDist(Sq, Sb)" taken over the full pair matrix.
        items = make_items(rng, 90, 3)
        index = LinearIndex(items)
        reach = index.nearest_reach()
        gaps = np.linalg.norm(
            index.centers[:, None, :] - index.centers[None, :, :], axis=2
        )
        max_dists = gaps + index.radii[:, None] + index.radii
        np.fill_diagonal(max_dists, np.inf)
        for _ in range(20):
            query = Hypersphere(rng.normal(0, 8, 3), float(abs(rng.normal(0, 1))))
            min_dist_q = index.min_dists(query)
            pairwise = np.any(max_dists < min_dist_q, axis=0)
            assert np.array_equal(reach + index.radii < min_dist_q, pairwise)

    def test_a_lone_object_has_no_competitor(self):
        from repro.queries.rknn import rnn_candidates

        index = LinearIndex([("only", Hypersphere([0.0, 0.0], 1.0))])
        assert index.nearest_reach().tolist() == [np.inf]
        assert rnn_candidates(index, Hypersphere([50.0, 50.0], 0.5)) == ["only"]

    def test_duplicates_and_zero_radii(self):
        items = [
            ("a", Hypersphere([0.0, 0.0], 0.0)),
            ("b", Hypersphere([0.0, 0.0], 0.0)),
            ("c", Hypersphere([3.0, 4.0], 2.0)),
            ("d", Hypersphere([3.0, 4.0], 2.0)),
        ]
        reach = LinearIndex(items).nearest_reach()
        assert reach.tolist() == [0.0, 0.0, 2.0, 2.0]
        assert reach.tolist() == brute_reach(items)

    def test_built_once(self, rng):
        index = LinearIndex(make_items(rng, 30, 2))
        assert index.nearest_reach() is index.nearest_reach()

    def test_objects_past_a_budget_cut_stay_candidates(self):
        # A query far from a tight cluster: the pre-filter refutes every
        # object, yet objects past the budget cut were never examined
        # and must stay candidates.
        from repro.queries.rknn import rnn_candidates
        from repro.resilience import Budget, scope

        items = [
            (f"k{i}", Hypersphere([float(i % 7), float(i // 7)], 0.1))
            for i in range(60)
        ]
        index = LinearIndex(items)
        query = Hypersphere([500.0, 500.0], 0.5)
        prefiltered = index.nearest_reach() + index.radii < index.min_dists(query)
        assert prefiltered.all()
        assert rnn_candidates(index, query) == []
        with scope(Budget(max_candidates=25)):
            cut = rnn_candidates(index, query)
        assert not cut.complete
        assert list(cut) == [key for key, _ in items[25:]]
