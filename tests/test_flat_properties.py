"""Exactness properties of the flat scans: RkNN and top-k dominating.

Both queries sweep the n x n pair matrix in blocks, settle most pairs
with cheap bounds, and send the rest to batch-kernel calls (or, for
criteria without a kernel, to one scalar call per pair).  These
properties check them against brute-force oracles that ask the scalar
criterion about every pair, on random float worlds large enough that
the matrix spans several blocks, with and without a streaming overlay,
and under a budget that does not run out.

A third oracle runs the batch kernel over every ordered pair, with no
bound in front of it.  It pins the bounds to the kernel's decisions
bit for bit, also on worlds built to sit on the bounds' edges, where
the scalar and batch kernels may disagree (nearly flat hyperbolas).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from repro import obs
from repro.core import get_criterion
from repro.core.batch import available_kernels, batch_evaluate
from repro.data.synthetic import synthetic_dataset
from repro.data.workload import knn_queries
from repro.exceptions import ValidationError
from repro.geometry.distance import max_dist, min_dist
from repro.geometry.hypersphere import Hypersphere
from repro.index.linear import LinearIndex
from repro.obs import names
from repro.queries.blocks import blocks
from repro.queries.dominating import dominance_scores, top_k_dominating
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


@st.composite
def edge_worlds(draw):
    """A world on the bounds' edges: the cases a guard must get right.

    Duplicated spheres tie scores (with zero radii they sit exactly on
    the center test), zero radii and point queries (``rq = 0``) collapse
    the MinMax band, d = 1 takes the kernel's vertex path, and tiny
    radii make nearly flat hyperbolas (rab/gap < 1e-2).  Touching
    spheres get the radius that puts a pair on the center test or the
    MinMax test up to rounding, in either scan's orientation.
    """
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    d = draw(st.sampled_from([1, 2, 3]))
    n = draw(st.integers(min_value=24, max_value=90))
    centers = rng.normal(0.0, 10.0, (n, d))
    shape = draw(st.sampled_from(["zero", "flat", "mixed"]))
    if shape == "zero":
        radii = np.zeros(n)
    elif shape == "flat":
        radii = rng.uniform(0.0, 1e-3, n)
    else:
        radii = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(0.0, 3.0, n))
    rq = draw(st.sampled_from([0.0, 1e-3, 0.5, 3.0]))
    if draw(st.booleans()):
        cq = centers[int(rng.integers(n))].copy()  # the query is a dataset center
    else:
        cq = rng.normal(0.0, 10.0, d)
    gaps_q = np.linalg.norm(centers - cq, axis=1)
    for _ in range(draw(st.integers(min_value=0, max_value=n))):
        a, b = rng.choice(n, size=2, replace=False)
        if rng.random() < 0.5:  # dominating: v_b = u_a (+ 2 rq)
            edge = gaps_q[b] - gaps_q[a] - radii[a] - rng.choice([0.0, 2.0 * rq])
            radii[b] = max(edge, 0.0)
        else:  # RkNN: |cq - cb| - |ca - cb| = ra + rq
            edge = gaps_q[b] - np.linalg.norm(centers[a] - centers[b]) - rq
            radii[a] = max(edge, 0.0)
    # Copy some spheres over others: exact duplicates, tied scores.
    copies = draw(st.integers(min_value=1, max_value=n // 3))
    targets = rng.choice(n, size=copies, replace=False)
    sources = rng.integers(0, n, size=copies)
    centers[targets] = centers[sources]
    radii[targets] = radii[sources]
    items = [(i, Hypersphere(centers[i], float(radii[i]))) for i in range(n)]
    return items, Hypersphere(cq, rq)


def _arrays(items):
    centers = np.stack([sphere.center for _, sphere in items])
    radii = np.array([sphere.radius for _, sphere in items])
    return centers, radii


def matrix_scores(items, query, name):
    """Scores from one kernel call over every ordered pair."""
    centers, radii = _arrays(items)
    n, d = centers.shape
    a = np.repeat(np.arange(n), n)
    b = np.tile(np.arange(n), n)
    dominated = batch_evaluate(
        name,
        centers[a],
        centers[b],
        np.broadcast_to(query.center, (n * n, d)),
        radii[a],
        radii[b],
        np.full(n * n, query.radius),
    ).reshape(n, n)
    np.fill_diagonal(dominated, False)
    return [int(count) for count in dominated.sum(axis=1)]


def matrix_rknn(items, query, name):
    """Unrefuted keys from the MinMax pre-filter, the plausibility mask
    and one kernel call over every plausible ordered pair."""
    centers, radii = _arrays(items)
    n, d = centers.shape
    rq = query.radius
    gaps_q = np.linalg.norm(centers - query.center, axis=1)
    gaps = np.linalg.norm(centers[:, None, :] - centers[None, :, :], axis=2)
    others = ~np.eye(n, dtype=bool)
    minmax = gaps + radii[:, None] + radii < np.maximum(gaps_q - rq - radii, 0.0)
    plausible = others & (gaps - radii[:, None] - radii <= gaps_q + rq + radii)
    a, b = np.nonzero(plausible)
    decided = np.zeros((n, n), dtype=bool)
    decided[a, b] = batch_evaluate(
        name,
        centers[a],
        np.broadcast_to(query.center, (a.size, d)),
        centers[b],
        radii[a],
        np.full(a.size, rq),
        radii[b],
    )
    refuted = np.any(others & (minmax | decided), axis=0)
    return [key for (key, _), gone in zip(items, refuted) if not gone]


def ranked(items, scores, k):
    """The top k ``(key, score)`` pairs, by (-score, dataset order)."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return [(items[i][0], scores[i]) for i in order[:k]]


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


class TestKernelMatrixExactness:
    """The bounds decide every pair exactly as the kernel would."""

    @pytest.mark.parametrize("name", KERNELS)
    @given(world=st.one_of(flat_worlds(), edge_worlds()))
    @settings(max_examples=12)
    def test_scores_and_top_k_equal_the_kernel_matrix(self, name, world):
        items, query = world
        expected = matrix_scores(items, query, name)
        scored = dominance_scores(items, query, criterion=name)
        assert [s.score for s in scored] == expected
        for k in (1, 5, len(items)):
            top = top_k_dominating(items, query, k, criterion=name)
            assert [(s.key, s.score) for s in top] == ranked(items, expected, k)

    @pytest.mark.parametrize("name", KERNELS)
    @given(world=st.one_of(flat_worlds(), edge_worlds()))
    @settings(max_examples=12)
    def test_rknn_equals_the_kernel_matrix(self, name, world):
        items, query = world
        expected = matrix_rknn(items, query, name)
        assert rnn_candidates(items, query, criterion=name) == expected


class TestBudgetCutTopK:
    @given(
        world=flat_worlds(),
        name=st.sampled_from(KERNELS),
        rows=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=15)
    def test_cut_scores_only_undercount(self, world, name, rows):
        """A cut top-k reports every key at most at its clean score."""
        items, query = world
        n = len(items)
        clean = {
            s.key: s.score for s in dominance_scores(items, query, criterion=name)
        }
        with scope(Budget(max_candidates=n * min(rows, n - 1))):
            cut = top_k_dominating(items, query, 5, criterion=name)
        assert not cut.complete
        assert len(cut) == 5
        assert all(s.score <= clean[s.key] for s in cut)


class TestBoundsSettleMostPairs:
    """Deterministic work counts on the perfbench ``flat-scans`` shape."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_kernel_rows_per_query(self, seed):
        dataset = synthetic_dataset(200, 3, mu=10.0, seed=seed)
        flat = LinearIndex(dataset.items())
        queries = knn_queries(dataset, count=20, seed=seed)
        n_sq = len(flat) ** 2
        rows = {}
        for kind, run in (
            ("dominating", lambda q: top_k_dominating(flat, q, 5)),
            ("rknn", lambda q: rnn_candidates(flat, q)),
        ):
            with obs.enabled_scope(True), obs.scope():
                for query in queries:
                    run(query)
                counters = obs.collect()["counters"]
            rows[kind] = counters[names.BATCH_HYPERBOLA_ROWS] / len(queries)
        # Every pair reached the kernel before the bounds: n^2 rows for
        # dominating, ~0.4 n^2 for RkNN after its MinMax pre-filter.
        assert rows["dominating"] <= 0.10 * n_sq
        assert rows["rknn"] <= 0.05 * n_sq


class TestEmptiedDataset:
    """An overlay that deletes every object leaves nothing to scan."""

    @pytest.fixture()
    def emptied(self):
        items = [(i, Hypersphere([float(i), 0.0], 0.5)) for i in range(4)]
        overlay = DeltaOverlay()
        for key, _ in items:
            overlay.delete(key)
        return LinearIndex(items), overlay

    def test_rknn_answers_nothing(self, emptied):
        base, overlay = emptied
        query = Hypersphere([0.0, 0.0], 0.5)
        assert rnn_candidates(base, query, overlay=overlay) == []
        with scope(Budget(**GENEROUS)):
            budgeted = rnn_candidates(base, query, overlay=overlay)
        assert budgeted.complete and budgeted.value == []

    def test_scores_are_empty_and_top_k_rejects_every_k(self, emptied):
        base, overlay = emptied
        query = Hypersphere([0.0, 0.0], 0.5)
        assert dominance_scores(base, query, overlay=overlay) == []
        with pytest.raises(ValidationError, match="exceeds the dataset size 0"):
            top_k_dominating(base, query, 1, overlay=overlay)

    def test_query_dimension_is_still_checked(self, emptied):
        base, overlay = emptied
        with pytest.raises(ValidationError, match="dimension"):
            rnn_candidates(base, Hypersphere([0.0], 0.5), overlay=overlay)
