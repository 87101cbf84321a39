"""Exactness properties of the flat scans: RkNN and top-k dominating.

Both queries sweep the n x n pair matrix in blocks, deciding each block
with one batch-kernel call (or, for criteria without a kernel, one
scalar call per pair).  These properties check them against
brute-force oracles that ask the scalar criterion about every pair, on
random float worlds large enough that the matrix spans several blocks,
with and without a streaming overlay, and under a budget that does not
run out.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from repro.core import get_criterion
from repro.core.batch import available_kernels
from repro.geometry.distance import max_dist, min_dist
from repro.geometry.hypersphere import Hypersphere
from repro.queries.blocks import blocks
from repro.queries.dominating import dominance_scores
from repro.queries.rknn import rnn_candidates
from repro.resilience import Budget, PartialResult, scope
from repro.stream.overlay import DeltaOverlay

GENEROUS = dict(max_candidates=10**9, max_escalations=10**9, deadline_s=3600.0)
KERNELS = tuple(available_kernels())
RKNN_CRITERIA = KERNELS + ("cascade", "verified")


def _sphere(rng, d, mu):
    return Hypersphere(
        rng.normal(0.0, 10.0, d),
        float(max(rng.normal(mu, mu / 4.0 + 0.1), 0.0)),
    )


@st.composite
def flat_worlds(draw):
    """A random float dataset whose pair matrix spans several blocks."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    n = draw(st.integers(min_value=72, max_value=100))
    d = draw(st.integers(min_value=1, max_value=4))
    mu = draw(st.sampled_from([0.0, 0.5, 3.0]))
    rng = np.random.default_rng(seed)
    items = [(i, _sphere(rng, d, mu)) for i in range(n)]
    query = Hypersphere(
        rng.normal(0.0, 10.0, d), float(max(rng.normal(mu, 1.0), 0.0))
    )
    return items, query


@st.composite
def overlaid_worlds(draw):
    """A flat world plus a random overlay: deletes, re-inserts, inserts."""
    items, query = draw(flat_worlds())
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=10_000)))
    d = query.dimension
    mu = float(np.mean([sphere.radius for _, sphere in items]))
    overlay = DeltaOverlay()
    keys = [key for key, _ in items]
    for key in draw(st.lists(st.sampled_from(keys), max_size=20)):
        if draw(st.booleans()):
            overlay.delete(key)
        else:
            overlay.insert(key, _sphere(rng, d, mu))  # new geometry
    for i in range(draw(st.integers(min_value=0, max_value=12))):
        overlay.insert(f"new{i}", _sphere(rng, d, mu))
    assume(overlay)
    return items, query, overlay


def rknn_oracle(items, query, name):
    """Keys no other object refutes, deciding pair by pair.

    The scan refutes by the MinMax pre-filter or by the criterion on a
    plausible pair (``MinDist(Sa, Sb) <= MaxDist(Sq, Sb)``).  For an
    exact criterion both extra terms are implied by the criterion
    itself; they matter only for the unsound and the incorrect ones.
    """
    criterion = get_criterion(name)
    minmax = get_criterion("minmax")

    def refutes(sa, sb):
        decided = criterion.dominates(sa, query, sb)
        plausible = min_dist(sa, sb) <= max_dist(query, sb)
        return minmax.dominates(sa, query, sb) or (plausible and decided)

    return [
        key_b
        for b, (key_b, sb) in enumerate(items)
        if not any(refutes(sa, sb) for a, (_, sa) in enumerate(items) if a != b)
    ]


def score_oracle(items, query, name):
    """How many other objects each object dominates, pair by pair."""
    criterion = get_criterion(name)
    return [
        sum(
            criterion.dominates(sa, sb, query)
            for b, (_, sb) in enumerate(items)
            if a != b
        )
        for a, (_, sa) in enumerate(items)
    ]


def test_worlds_span_several_blocks():
    assert len(list(blocks(72))) >= 2
    assert len(list(blocks(100))) >= 3


class TestRknnExactness:
    @pytest.mark.parametrize("name", RKNN_CRITERIA)
    @given(world=flat_worlds())
    @settings(max_examples=4)
    def test_matches_the_pairwise_oracle(self, name, world):
        items, query = world
        expected = rknn_oracle(items, query, name)
        assert rnn_candidates(items, query, criterion=name) == expected

    @given(world=overlaid_worlds(), name=st.sampled_from(RKNN_CRITERIA))
    @settings(max_examples=8)
    def test_matches_the_oracle_with_an_overlay(self, world, name):
        items, query, overlay = world
        expected = rknn_oracle(overlay.fold(items), query, name)
        got = rnn_candidates(items, query, criterion=name, overlay=overlay)
        assert got == expected

    @given(world=overlaid_worlds(), name=st.sampled_from(RKNN_CRITERIA))
    @settings(max_examples=15)
    def test_generous_budget_returns_the_same_complete_answer(self, world, name):
        items, query, overlay = world
        for merge in (None, overlay):
            clean = rnn_candidates(items, query, criterion=name, overlay=merge)
            with scope(Budget(**GENEROUS)):
                budgeted = rnn_candidates(
                    items, query, criterion=name, overlay=merge
                )
            assert isinstance(budgeted, PartialResult)
            assert budgeted.complete and not budgeted.degraded
            assert budgeted.value == clean


class TestDominanceScoreExactness:
    @pytest.mark.parametrize("name", KERNELS)
    @given(world=flat_worlds())
    @settings(max_examples=4)
    def test_matches_the_pairwise_oracle(self, name, world):
        items, query = world
        scored = dominance_scores(items, query, criterion=name)
        assert [s.key for s in scored] == [key for key, _ in items]
        assert [s.score for s in scored] == score_oracle(items, query, name)

    @given(world=overlaid_worlds(), name=st.sampled_from(KERNELS))
    @settings(max_examples=6)
    def test_matches_the_oracle_with_an_overlay(self, world, name):
        items, query, overlay = world
        effective = overlay.fold(items)
        scored = dominance_scores(items, query, criterion=name, overlay=overlay)
        assert [s.key for s in scored] == [key for key, _ in effective]
        assert [s.score for s in scored] == score_oracle(effective, query, name)

    @given(world=overlaid_worlds(), name=st.sampled_from(KERNELS))
    @settings(max_examples=15)
    def test_generous_budget_returns_the_same_complete_scores(self, world, name):
        items, query, overlay = world
        for merge in (None, overlay):
            clean = dominance_scores(items, query, criterion=name, overlay=merge)
            with scope(Budget(**GENEROUS)):
                budgeted = dominance_scores(
                    items, query, criterion=name, overlay=merge
                )
            assert isinstance(budgeted, PartialResult)
            assert budgeted.complete and not budgeted.degraded
            assert budgeted.value == clean
