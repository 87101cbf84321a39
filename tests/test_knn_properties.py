"""Property-based tests for the kNN layer over random mini-worlds."""

from __future__ import annotations

import numpy as np
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from repro.experiments.incremental import incremental_knn
from repro.geometry.hypersphere import Hypersphere
from repro.index.linear import LinearIndex
from repro.index.mtree import MTree
from repro.index.sstree import SSTree
from repro.index.vptree import VPTree
from repro.queries.knn import knn_query, knn_reference
from repro.resilience import Budget, PartialResult, scope
from repro.stream.overlay import DeltaOverlay

GENEROUS = dict(max_candidates=10**9, max_escalations=10**9, deadline_s=3600.0)


def _sphere(rng, d, mu):
    return Hypersphere(
        rng.normal(0.0, 10.0, d),
        float(max(rng.normal(mu, mu / 4.0 + 0.1), 0.0)),
    )


@st.composite
def mini_worlds(draw):
    """A small random dataset plus a query sphere and a k."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    n = draw(st.integers(min_value=5, max_value=60))
    d = draw(st.integers(min_value=1, max_value=4))
    mu = draw(st.sampled_from([0.0, 0.5, 3.0]))
    rng = np.random.default_rng(seed)
    items = [(i, _sphere(rng, d, mu)) for i in range(n)]
    query = Hypersphere(
        rng.normal(0.0, 10.0, d), float(max(rng.normal(mu, 1.0), 0.0))
    )
    k = draw(st.integers(min_value=1, max_value=min(n, 10)))
    return items, query, k


@st.composite
def overlaid_worlds(draw):
    """A mini-world plus a random overlay: deletes, re-inserts, inserts."""
    items, query, k = draw(mini_worlds())
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    d = query.dimension
    mu = float(np.mean([sphere.radius for _, sphere in items]))
    overlay = DeltaOverlay()
    keys = [key for key, _ in items]
    for key in draw(st.lists(st.sampled_from(keys), max_size=len(keys))):
        if draw(st.booleans()):
            overlay.delete(key)
        else:
            overlay.insert(key, _sphere(rng, d, mu))  # new geometry
    for i in range(draw(st.integers(min_value=0, max_value=12))):
        overlay.insert(f"new{i}", _sphere(rng, d, mu))
    live = len(overlay.fold(items))
    assume(live >= 1)
    return items, query, min(k, live), overlay


@st.composite
def grid_worlds(draw):
    """Integer centers and radii on a small grid: MaxDist ties are common.

    MaxDist is then ``sqrt(integer) + integer``, computed identically for
    equal integers, so several objects often share the k-th MaxDist and
    every one of them must anchor.
    """
    d = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=2, max_value=40))
    coordinate = st.integers(min_value=-3, max_value=3).map(float)
    radius = st.integers(min_value=0, max_value=2).map(float)
    point = st.lists(coordinate, min_size=d, max_size=d)
    items = [(i, Hypersphere(draw(point), draw(radius))) for i in range(n)]
    query = Hypersphere(draw(point), draw(radius))
    k = draw(st.integers(min_value=1, max_value=min(n, 8)))
    return items, query, k


def _indexes(items):
    return (
        SSTree.bulk_load(items, max_entries=4),
        VPTree.build(items, leaf_capacity=4),
        MTree.build(items, max_entries=4),
        LinearIndex(items),
    )


def _assert_same(got, expected):
    # Tree leaves, the memtable and the flat scan bound rows with the
    # reference's own NumPy sweep, so distk matches to the last bit.
    assert got.key_set() == expected.key_set()
    assert got.distk == expected.distk


class TestTwoPhaseProperties:
    """``knn_query`` equals ``knn_reference`` on every index kind."""

    @given(mini_worlds())
    @settings(max_examples=40)
    def test_exact_on_both_indexes(self, world):
        items, query, k = world
        expected = knn_reference(items, query, k)
        for index in _indexes(items):
            _assert_same(knn_query(index, query, k), expected)

    @given(grid_worlds())
    @settings(max_examples=60)
    def test_exact_when_objects_tie_at_distk(self, world):
        items, query, k = world
        expected = knn_reference(items, query, k)
        for index in _indexes(items):
            _assert_same(knn_query(index, query, k), expected)

    @given(overlaid_worlds())
    @settings(max_examples=40)
    def test_exact_with_an_overlay(self, world):
        items, query, k, overlay = world
        for index in _indexes(items):
            expected = knn_reference(overlay.fold(index), query, k)
            _assert_same(knn_query(index, query, k, overlay=overlay), expected)

    @given(overlaid_worlds())
    @settings(max_examples=25)
    def test_exact_under_a_budget_that_does_not_run_out(self, world):
        items, query, k, overlay = world
        for index in _indexes(items):
            for merge in (None, overlay):
                clean = knn_query(index, query, k, overlay=merge)
                with scope(Budget(**GENEROUS)):
                    budgeted = knn_query(index, query, k, overlay=merge)
                assert isinstance(budgeted, PartialResult)
                assert budgeted.complete and not budgeted.degraded
                assert budgeted.key_set() == clean.key_set()
                assert budgeted.distk == clean.distk


def test_overlay_merge_builds_no_linear_index(monkeypatch):
    """The overlay merges inside the scan, never through a folded copy."""
    rng = np.random.default_rng(3)
    items = [(i, _sphere(rng, 3, 0.5)) for i in range(200)]
    tree = SSTree.bulk_load(items)
    overlay = DeltaOverlay()
    for key, _ in items[:20]:
        overlay.delete(key)
    for i in range(20):
        overlay.insert(f"new{i}", _sphere(rng, 3, 0.5))
    built = []
    original = LinearIndex.__init__

    def counting_init(self, entries):
        built.append(self)
        original(self, entries)

    monkeypatch.setattr(LinearIndex, "__init__", counting_init)
    knn_query(tree, items[50][1], 5, overlay=overlay)
    assert built == []


class TestIncrementalProperties:
    """The paper's incremental list (kept for the figures only)."""

    @given(mini_worlds())
    @settings(max_examples=40)
    def test_subset_anchor_and_monotonicity(self, world):
        items, query, k = world
        truth = knn_reference(items, query, k)
        tree = SSTree.bulk_load(items, max_entries=4)
        exact = incremental_knn(tree, query, k)
        # Precision-100% subset property.
        assert exact.key_set() <= truth.key_set()
        # The anchor distance is found exactly.
        assert abs(exact.distk - truth.distk) <= 1e-9 * (1.0 + truth.distk)
        # Correct-but-unsound criteria only ever add results.
        for name in ("minmax", "mbr", "gp"):
            loose = incremental_knn(tree, query, k, criterion=name)
            assert exact.key_set() <= loose.key_set()

    @given(mini_worlds())
    @settings(max_examples=25)
    def test_answer_contains_topk_by_maxdist(self, world):
        """Everything with MaxDist <= distk must always be returned."""
        items, query, k = world
        flat = LinearIndex(items)
        tree = SSTree.bulk_load(items, max_entries=4)
        result = incremental_knn(tree, query, k)
        maxdists = flat.max_dists(query)
        core = {
            key
            for key, dist_max in zip(flat.keys, maxdists)
            if dist_max <= result.distk
        }
        assert core <= result.key_set()
