"""Property tests: random mutation interleavings vs a linear-scan oracle.

The oracle is deliberately dumb: replay the mutation history into a
plain dict (insert = assignment, delete = pop) and query the resulting
entries through a from-scratch :class:`LinearIndex`.  Whatever the
streaming engine's WAL, overlay and merge machinery do, the answers
must be exactly those — with and without an execution budget, before
and after a mid-sequence checkpoint, and across a reopen.

Disk I/O per example is real (WAL fsyncs), so example counts stay
modest; the non-durable overlay merge is exercised with more examples
directly against :class:`DeltaOverlay`.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
import hypothesis.strategies as st

from repro.geometry.hypersphere import Hypersphere
from repro.index.linear import LinearIndex
from repro.index.sstree import SSTree
from repro.queries.dominating import dominance_scores, top_k_dominating
from repro.queries.knn import knn_query, knn_reference
from repro.queries.rknn import rnn_candidates
from repro.resilience import Budget, PartialResult, scope
from repro.stream.engine import StreamingIndex
from repro.stream.overlay import DeltaOverlay

DIMENSION = 3


def _sphere(rng: np.random.Generator) -> Hypersphere:
    return Hypersphere(
        rng.normal(0.0, 10.0, DIMENSION),
        float(abs(rng.normal(0.8, 0.5))),
    )


@st.composite
def histories(draw):
    """A base dataset plus a random insert/delete interleaving."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    n = draw(st.integers(min_value=8, max_value=40))
    steps = draw(st.integers(min_value=1, max_value=25))
    rng = np.random.default_rng(seed)
    base = [(i, _sphere(rng)) for i in range(n)]
    # Keys deliberately collide: deletes of live, dead and never-seen
    # keys; inserts both fresh and re-using base/deleted keys.
    key_space = list(range(n + 10))
    history = []
    for _ in range(steps):
        key = int(rng.choice(key_space))
        if rng.random() < 0.4:
            history.append(("delete", key, None))
        else:
            history.append(("insert", key, _sphere(rng)))
    query = _sphere(rng)
    k = draw(st.integers(min_value=1, max_value=5))
    return base, history, query, k


def oracle_entries(base, history):
    """The dumb replay: dict assignment and pop, nothing clever."""
    table = dict(base)
    for op, key, sphere in history:
        if op == "insert":
            table[key] = sphere
        else:
            table.pop(key, None)
    return list(table.items())


def assert_same_answers(stream_like, oracle, query, k):
    """All three merged queries match the linear-scan ground truth."""
    knn = stream_like.query_knn(query, k)
    truth = knn_reference(oracle, query, k)
    assert knn.key_set() == truth.key_set()
    assert knn.distk == pytest.approx(truth.distk, rel=1e-9)

    assert set(stream_like.query_rknn(query)) == set(
        rnn_candidates(oracle, query)
    )
    # Dominating: ties at the k-th score break by dataset order, and the
    # folded dataset's order is the base index's iteration order — so
    # the check is on *scores*, which are order-free: every returned
    # key's score must be its true score, and the returned score vector
    # must be the true top-k.
    merged = stream_like.query_dominating(query, k)
    true_scores = {s.key: s.score for s in dominance_scores(oracle, query)}
    assert all(true_scores[s.key] == s.score for s in merged)
    assert sorted((s.score for s in merged), reverse=True) == sorted(
        true_scores.values(), reverse=True
    )[: len(merged)]
    assert len(merged) == min(k, len(oracle))


class _OverlayHarness:
    """Adapts (base index, overlay) to the stream query interface."""

    def __init__(self, base, overlay):
        self.base, self.overlay = base, overlay

    def query_knn(self, query, k, **kwargs):
        return knn_query(self.base, query, k, overlay=self.overlay, **kwargs)

    def query_rknn(self, query, **kwargs):
        return rnn_candidates(self.base, query, overlay=self.overlay, **kwargs)

    def query_dominating(self, query, k, **kwargs):
        return top_k_dominating(
            self.base, query, k, overlay=self.overlay, **kwargs
        )


class TestOverlayMergeProperty:
    @given(histories())
    @settings(max_examples=60, deadline=None)
    def test_merged_queries_equal_linear_scan_oracle(self, world):
        base, history, query, k = world
        overlay = DeltaOverlay()
        for op, key, sphere in history:
            if op == "insert":
                overlay.insert(key, sphere)
            else:
                overlay.delete(key)
        oracle = oracle_entries(base, history)
        if len(oracle) < k:
            return  # k outgrew the surviving dataset; nothing to check
        harness = _OverlayHarness(SSTree.bulk_load(base, max_entries=4), overlay)
        assert_same_answers(harness, oracle, query, k)

    @given(histories())
    @settings(max_examples=25, deadline=None)
    def test_budgeted_merge_stays_honest(self, world):
        # The resilience contract over a merged dataset: a budget
        # changes what is *reported*, never silently what is true.  A
        # roomy budget answers exactly like the unbudgeted merge; a
        # tight one may deviate, but only with a degradation flag (an
        # un-pruned answer can widen, an exhausted one can shrink).
        base, history, query, k = world
        overlay = DeltaOverlay()
        for op, key, sphere in history:
            if op == "insert":
                overlay.insert(key, sphere)
            else:
                overlay.delete(key)
        oracle = oracle_entries(base, history)
        if len(oracle) < k:
            return
        tree = SSTree.bulk_load(base, max_entries=4)
        unbudgeted = knn_query(tree, query, k, overlay=overlay)

        with scope(Budget(deadline_s=3600.0)):
            roomy = knn_query(tree, query, k, overlay=overlay)
        assert isinstance(roomy, PartialResult)
        assert roomy.complete
        assert roomy.key_set() == unbudgeted.key_set()

        with scope(Budget(max_candidates=10)):
            tight = knn_query(tree, query, k, overlay=overlay)
        assert isinstance(tight, PartialResult)
        if tight.key_set() != unbudgeted.key_set():
            assert not tight.complete or tight.report.degraded


class TestDurableEngineProperty:
    @given(world=histories())
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_engine_checkpoint_and_reopen_match_oracle(
        self, tmp_path_factory, world
    ):
        base, history, query, k = world
        oracle = oracle_entries(base, history)
        if len(oracle) < max(k, 1):
            return
        directory = str(tmp_path_factory.mktemp("stream-prop"))
        checkpoint_at = len(history) // 2
        with StreamingIndex.create(directory, base, kind="sstree") as stream:
            for step, (op, key, sphere) in enumerate(history):
                if op == "insert":
                    stream.insert(key, sphere)
                else:
                    stream.delete(key)
                if step == checkpoint_at and stream.overlay:
                    if len(stream) > 0:
                        stream.checkpoint()
            if len(stream) == 0:
                return  # history deleted everything; no index to query
            assert dict(stream.effective_entries()) == dict(oracle)
            assert_same_answers(stream, oracle, query, k)
        with StreamingIndex.open(directory) as reopened:
            assert dict(reopened.effective_entries()) == dict(oracle)
            assert_same_answers(reopened, oracle, query, k)
