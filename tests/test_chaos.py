"""Chaos suite: the degradation invariant across every fault seam.

The contract (stated in :mod:`repro.resilience.partial`): **faults
change what is reported, never silently what is true**.  For every
``seam x mode`` combination of :mod:`repro.robust.faults`, a query
result that carries *no* degradation flag (no absorbed faults, no
uncertain decisions, no degraded checks, complete) must equal the
fault-free answer exactly; any deviation must be flagged.  Snapshot
faults may only surface as typed errors; clock faults may only
exhaust a budget conservatively.

This file is also the body of ``make chaos`` / the CI chaos job.
"""

from __future__ import annotations

import math

import pytest

from repro import obs
from repro.data.synthetic import synthetic_dataset
from repro.data.workload import knn_queries
from repro.exceptions import SnapshotError
from repro.index import snapshot as snap
from repro.index.sstree import SSTree
from repro.obs import names
from repro.queries.dominating import dominance_scores
from repro.queries.knn import knn_query
from repro.queries.rknn import rnn_candidates
from repro.resilience import Budget, PartialResult, scope
from repro.robust import faults

#: Every seam a query-layer fault can corrupt.  Served decisions no
#: longer solve the Equation (14) quartic, so its seam never fires
#: during a query; the invariant must still hold under it.
QUERY_SEAMS = ("dmin", "quartic", "frame", "distance", "index")
#: The seams a served kNN query reaches.
KNN_SEAMS = ("dmin", "frame", "distance", "index")
N, DIMENSION, K = 130, 3, 8
GENEROUS = dict(max_candidates=10**9, max_escalations=10**9, deadline_s=3600.0)


@pytest.fixture(scope="module")
def dataset():
    return synthetic_dataset(N, DIMENSION, mu=0.15, seed=17)


@pytest.fixture(scope="module")
def tree(dataset):
    return SSTree.bulk_load(dataset.items(), max_entries=8)


@pytest.fixture(scope="module")
def queries(dataset, tree):
    """Three queries whose kNN phase 2 reaches the Hyperbola kernel.

    Most queries settle every candidate by MinMax (Lemma 9) or a
    Hyperbola fast path, which would leave the dmin and frame seams
    idle and the invariant unchecked for them.  These are the first
    three of a seeded stream whose clean run reaches the dmin solver.
    """
    picked = []
    for query in knn_queries(dataset, count=60, seed=23):
        with obs.enabled_scope(True), obs.scope():
            knn_query(tree, query, K)
            solved = obs.collect()["counters"].get(names.HYPERBOLA_QUARTIC, 0)
        if solved:
            picked.append(query)
        if len(picked) == 3:
            return picked
    raise AssertionError("no query reaches the Hyperbola kernel")


@pytest.fixture(scope="module")
def flat_queries(dataset):
    """Two queries whose RkNN and dominating sweeps reach the dmin solver.

    A query far from the data settles every pair on a fast path, which
    would leave the dmin seam idle.  These are the first two of a
    seeded stream whose clean runs of both kinds reach the solver.
    """
    items = list(dataset.items())
    picked = []
    for query in knn_queries(dataset, count=60, seed=29):
        solved = []
        for run in (rnn_candidates, dominance_scores):
            with obs.enabled_scope(True), obs.scope():
                run(items, query)
                counters = obs.collect()["counters"]
            solved.append(
                counters.get(names.HYPERBOLA_QUARTIC, 0)
                + counters.get(names.BATCH_HYPERBOLA_QUARTIC_ROWS, 0)
            )
        if all(solved):
            picked.append(query)
        if len(picked) == 2:
            return picked
    raise AssertionError("no query reaches the dmin solver in both flat scans")


@pytest.fixture(scope="module")
def clean_answers(tree, queries):
    """Fault-free kNN baselines, one per query, per criterion."""
    return {
        criterion: [
            knn_query(tree, query, K, criterion=criterion) for query in queries
        ]
        for criterion in ("hyperbola", "verified")
    }


def _flagged(result) -> bool:
    """Whether *result* admits any deviation from the clean answer."""
    return (
        result.absorbed_faults > 0
        or result.uncertain_decisions > 0
        or result.degraded_checks > 0
    )


class TestQuerySeamInvariant:
    """kNN under corrupted kernels and index bounds never silently lies."""

    @pytest.mark.parametrize("seam", QUERY_SEAMS)
    @pytest.mark.parametrize("mode", faults.MODES)
    @pytest.mark.parametrize("every", (1, 3))
    def test_unflagged_knn_equals_clean(
        self, tree, queries, clean_answers, seam, mode, every
    ):
        for query, clean in zip(queries, clean_answers["verified"]):
            with faults.inject(seam, mode, every=every):
                result = knn_query(tree, query, K, criterion="verified")
            assert not isinstance(result, PartialResult)
            # distk is a reported statistic: the perturb mode nudges it
            # by its 1e-12 magnitude without touching the answer set,
            # so it is compared up to that certified bound.
            deviates = result.key_set() != clean.key_set() or not math.isclose(
                result.distk, clean.distk, rel_tol=1e-9
            )
            assert not deviates or _flagged(result), (
                f"silent deviation under {seam}/{mode}: "
                f"{sorted(result.key_set() ^ clean.key_set())}"
            )

    @pytest.mark.parametrize("seam", KNN_SEAMS)
    def test_raising_kernels_are_tallied_as_absorbed(self, tree, queries, seam):
        # With the plain criterion there is no escalation ladder to hide
        # behind: every explosion must reach a query-layer guard and be
        # counted, never swallowed silently.
        hits = 0
        absorbed = 0
        for query in queries:
            with faults.inject(seam, "raise") as fault:
                result = knn_query(tree, query, K)
            hits += fault.hits
            absorbed += result.absorbed_faults
        assert hits > 0, f"the {seam} seam never fired during kNN"
        assert absorbed > 0

    @pytest.mark.parametrize("mode", ("nan", "overflow", "raise"))
    def test_index_faults_are_absorbed_without_changing_the_answer(
        self, tree, queries, clean_answers, mode
    ):
        # Corrupted node bounds collapse to "never prune": with every
        # bound poisoned the traversal degenerates to a full scan and
        # the answer is *exactly* the clean one, only more expensive.
        for query, clean in zip(queries, clean_answers["hyperbola"]):
            with faults.inject("index", mode):
                result = knn_query(tree, query, K)
            assert result.key_set() == clean.key_set()
            assert result.distk == clean.distk
            assert result.absorbed_faults > 0

    def test_raising_criterion_keeps_rnn_candidates(self, dataset, flat_queries):
        # Refute-only degradation: a raising block kernel sends its block
        # through the scalar per-pair pass, where a raising pair stays
        # unrefuted, so the candidate set only ever widens.
        items = list(dataset.items())
        hits = 0
        absorbed = 0
        for query in flat_queries:
            clean = rnn_candidates(items, query)
            with faults.inject("dmin", "raise", every=2) as fault:
                with scope(Budget(**GENEROUS)):
                    faulted = rnn_candidates(items, query)
            assert faulted.complete
            assert set(clean) <= set(faulted)
            hits += fault.hits
            absorbed += faulted.report.absorbed_faults
        assert hits > 0, "the dmin seam never fired during RkNN"
        assert absorbed > 0

    def test_raising_kernel_only_undercounts_dominance_scores(
        self, dataset, flat_queries
    ):
        # A raising block kernel rescores its block with MinMax, which
        # can only undercount dominations.
        items = list(dataset.items())
        hits = 0
        absorbed = 0
        for query in flat_queries:
            clean = dominance_scores(items, query)
            with faults.inject("dmin", "raise", every=2) as fault:
                with scope(Budget(**GENEROUS)):
                    faulted = dominance_scores(items, query)
            assert faulted.complete
            assert [s.key for s in faulted] == [s.key for s in clean]
            assert all(
                got.score <= want.score for got, want in zip(faulted, clean)
            )
            hits += fault.hits
            absorbed += faulted.report.absorbed_faults
        assert hits > 0, "the dmin seam never fired during dominating"
        assert absorbed > 0


class TestSnapshotSeamInvariant:
    """Disk faults surface as typed errors, never as a wrong index."""

    @pytest.mark.parametrize("mode", faults.MODES)
    @pytest.mark.parametrize("every", (1, 4))
    def test_snapshot_faults_never_load_a_wrong_index(
        self, tree, queries, clean_answers, tmp_path, mode, every
    ):
        path = tmp_path / f"chaos-{mode}-{every}.snap"
        try:
            with faults.inject("snapshot", mode, every=every):
                snap.save(tree, path)
                loaded = snap.load(path)
        except (SnapshotError, faults.FaultInjected):
            return  # a typed refusal is the honest outcome
        # The fault happened to miss every load-relevant byte: then the
        # loaded index must answer exactly like the original.
        for query, clean in zip(queries, clean_answers["hyperbola"]):
            result = knn_query(loaded, query, K)
            assert result.key_set() == clean.key_set()
            assert result.distk == clean.distk


class TestClockSeamInvariant:
    """A broken clock degrades budgeted queries, never unbudgeted ones."""

    @pytest.mark.parametrize("mode", faults.MODES)
    def test_budgeted_query_honours_the_invariant(
        self, tree, queries, clean_answers, mode
    ):
        for query, clean in zip(queries, clean_answers["hyperbola"]):
            with faults.inject("clock", mode):
                with scope(Budget(deadline_s=3600.0)):
                    result = knn_query(tree, query, K)
            assert isinstance(result, PartialResult)
            deviates = result.key_set() != clean.key_set()
            assert not deviates or result.report.degraded

    @pytest.mark.parametrize("mode", ("nan", "overflow", "raise"))
    def test_unreadable_clock_exhausts_conservatively(self, tree, queries, mode):
        with faults.inject("clock", mode):
            with scope(Budget(deadline_s=3600.0)):
                result = knn_query(tree, queries[0], K)
        assert not result.complete
        assert result.report.exhausted == "clock"

    def test_unbudgeted_queries_ignore_the_clock(
        self, tree, queries, clean_answers
    ):
        for query, clean in zip(queries, clean_answers["hyperbola"]):
            with faults.inject("clock", "raise"):
                result = knn_query(tree, query, K)
            assert result.key_set() == clean.key_set()


class TestCombinedPressure:
    """Budget exhaustion and kernel faults composing stay honest."""

    def test_faulted_and_budgeted_knn_is_flagged(self, tree, queries):
        with faults.inject("index", "nan"):
            with scope(Budget(max_candidates=25)):
                result = knn_query(tree, queries[0], K)
        assert isinstance(result, PartialResult)
        assert not result.complete
        assert result.report.degraded
        assert result.report.absorbed_faults > 0

    def test_exhausted_budget_with_raising_criterion_never_raises(
        self, tree, queries
    ):
        with faults.inject("dmin", "raise"):
            with scope(Budget(max_candidates=25)):
                result = knn_query(tree, queries[0], K, criterion="verified")
        assert isinstance(result, PartialResult)
        assert result.report.degraded
