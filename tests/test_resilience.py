"""Deadline-aware execution: budgets, partial results, degradation.

Three layers under test:

- :class:`repro.resilience.Budget` mechanics — quotas, deadlines, the
  sticky exhaustion reason, the guarded clock, contextvar scoping;
- the :class:`repro.resilience.PartialResult` envelope and its
  attribute forwarding (experiment code written against the raw answer
  must keep working when a budget is activated around it);
- budgeted behaviour of the three query families (kNN, RkNN, top-k
  dominating) and the ladder's escalation seam: a generous budget
  reproduces the clean answer and stays unflagged, a tiny one returns
  a flagged conservative partial answer — never an exception.

The input-validation regression tests for the query entry points
(satellite of the resilience PR) live at the bottom.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import VerifiedHyperbola
from repro.data.synthetic import synthetic_dataset
from repro.data.workload import knn_queries
from repro.exceptions import QueryError, ValidationError
from repro.geometry.hypersphere import Hypersphere
from repro.index.linear import LinearIndex
from repro.index.sstree import SSTree
from repro.queries.dominating import dominance_scores, top_k_dominating
from repro.queries.knn import knn_query, knn_reference
from repro.queries.rknn import rnn_candidates
from repro.resilience import (
    Budget,
    GuaranteeTier,
    PartialResult,
    ResilienceReport,
    current,
    scope,
)
from repro.robust import Verdict, decide, exact_dominates, faults
from repro.robust.ladder import DEFAULT_LADDER

GENEROUS = dict(max_candidates=10**9, max_escalations=10**9, deadline_s=3600.0)


@pytest.fixture(scope="module")
def dataset():
    return synthetic_dataset(250, 3, mu=0.1, seed=11)


@pytest.fixture(scope="module")
def tree(dataset):
    return SSTree.bulk_load(dataset.items(), max_entries=16)


@pytest.fixture(scope="module")
def queries(dataset):
    return list(knn_queries(dataset, count=4, seed=5))


class TestBudgetMechanics:
    def test_constructor_rejects_bad_limits(self):
        with pytest.raises(ValidationError):
            Budget(deadline_s=-1.0)
        with pytest.raises(ValidationError):
            Budget(deadline_s=float("nan"))
        with pytest.raises(ValidationError):
            Budget(deadline_s=float("inf"))
        with pytest.raises(ValidationError):
            Budget(max_candidates=-1)
        with pytest.raises(ValidationError):
            Budget(max_escalations=-5)

    def test_candidate_quota_and_sticky_exhaustion(self):
        budget = Budget(max_candidates=2).start()
        assert budget.charge_candidate() is None
        assert budget.charge_candidate() is None
        assert budget.charge_candidate() == "candidates"
        # Sticky: every later charge, of any kind, reports the same
        # reason without re-deciding.
        assert budget.charge_node() == "candidates"
        assert budget.charge_escalation() == "candidates"
        assert budget.exhausted() == "candidates"
        assert budget.candidates_charged == 3

    def test_bulk_candidate_charge(self):
        budget = Budget(max_candidates=10).start()
        assert budget.charge_candidate(10) is None
        assert budget.charge_candidate(1) == "candidates"

    def test_escalation_quota(self):
        budget = Budget(max_escalations=1).start()
        assert budget.charge_escalation() is None
        assert budget.charge_escalation() == "escalations"
        assert budget.escalations_charged == 2

    def test_zero_deadline_exhausts_on_first_node(self):
        budget = Budget(deadline_s=0.0).start()
        assert budget.charge_node() == "deadline"
        assert budget.exhausted() == "deadline"

    def test_distant_deadline_does_not_exhaust(self):
        budget = Budget(deadline_s=3600.0).start()
        assert budget.charge_node() is None
        assert all(budget.charge_candidate() is None for _ in range(100))
        assert budget.exhausted() is None

    def test_candidate_charges_probe_deadline_on_a_stride(self):
        # A zero deadline only surfaces when the stride-gated probe
        # actually reads the clock; the charges before it are free.
        from repro.resilience.budget import _PROBE_STRIDE

        budget = Budget(deadline_s=0.0).start()
        results = [budget.charge_candidate() for _ in range(_PROBE_STRIDE)]
        assert results[:-1] == [None] * (_PROBE_STRIDE - 1)
        assert results[-1] == "deadline"

    def test_start_is_idempotent(self):
        budget = Budget(deadline_s=3600.0)
        assert not budget.started
        first = budget._deadline_at is None
        budget.start()
        anchored = budget._deadline_at
        budget.start()
        assert first and budget.started
        assert budget._deadline_at == anchored

    def test_no_deadline_budget_counts_as_started(self):
        assert Budget(max_candidates=1).started

    def test_from_deadline_ms(self):
        assert Budget.from_deadline_ms(250.0).deadline_s == 0.25

    def test_unlimited_budget_never_exhausts(self):
        budget = Budget().start()
        assert budget.charge_node() is None
        assert budget.charge_candidate(10**6) is None
        assert budget.charge_escalation() is None

    def test_repr_names_limits_and_reason(self):
        budget = Budget(deadline_s=1.0, max_candidates=3)
        text = repr(budget)
        assert "deadline_s=1" in text and "max_candidates=3" in text
        budget.start()
        while budget.charge_candidate() is None:
            pass
        assert "exhausted='candidates'" in repr(budget)

    @pytest.mark.parametrize("mode", ("nan", "overflow", "raise"))
    def test_broken_clock_degrades_conservatively(self, mode):
        # A clock the budget cannot read collapses to "exhausted", the
        # conservative direction — it never silently disarms a deadline.
        with faults.inject("clock", mode):
            budget = Budget(deadline_s=3600.0)
            budget.start()
            assert budget.charge_node() == "clock"
            assert budget.exhausted() == "clock"

    def test_clock_restored_after_injection(self):
        import time

        from repro.resilience import budget as budget_mod

        with faults.inject("clock", "nan"):
            pass
        assert budget_mod._monotonic is time.monotonic


class TestScope:
    def test_default_is_unbudgeted(self):
        assert current() is None

    def test_scope_activates_and_restores(self):
        budget = Budget(max_candidates=5)
        with scope(budget) as active:
            assert active is budget
            assert current() is budget
        assert current() is None

    def test_nested_scopes_stack(self):
        outer, inner = Budget(), Budget()
        with scope(outer):
            with scope(inner):
                assert current() is inner
            assert current() is outer

    def test_scope_none_shields_from_outer_budget(self):
        with scope(Budget(max_candidates=1)):
            with scope(None):
                assert current() is None

    def test_scope_anchors_the_deadline(self):
        budget = Budget(deadline_s=3600.0)
        with scope(budget):
            assert budget.started

    def test_threads_do_not_inherit_the_budget(self):
        seen = []
        with scope(Budget(max_candidates=1)):
            thread = threading.Thread(target=lambda: seen.append(current()))
            thread.start()
            thread.join()
        assert seen == [None]


class TestPartialResult:
    def test_fresh_report_is_undegraded(self):
        report = ResilienceReport()
        assert report.complete
        assert report.tier is GuaranteeTier.OPTIMAL
        assert not report.degraded

    def test_mark_incomplete_first_reason_wins(self):
        report = ResilienceReport()
        report.mark_incomplete("deadline")
        report.mark_incomplete("candidates")
        assert not report.complete
        assert report.exhausted == "deadline"
        assert report.tier is GuaranteeTier.CONSERVATIVE
        assert report.degraded

    def test_mark_conservative_dedupes_notes(self):
        report = ResilienceReport()
        report.mark_conservative("fell back")
        report.mark_conservative("fell back")
        assert report.notes == ["fell back"]
        assert report.degraded

    def test_absorbed_faults_count_as_degradation(self):
        report = ResilienceReport()
        report.absorbed_faults = 1
        assert report.degraded

    def test_to_dict_round_trip_fields(self):
        report = ResilienceReport()
        report.mark_incomplete("candidates")
        payload = report.to_dict()
        assert payload["complete"] is False
        assert payload["tier"] == "conservative"
        assert payload["exhausted"] == "candidates"
        assert payload["degraded"] is True

    def test_forwards_to_the_wrapped_value(self):
        wrapped = PartialResult([3, 1, 4], ResilienceReport())
        assert len(wrapped) == 3
        assert list(wrapped) == [3, 1, 4]
        assert 4 in wrapped and 9 not in wrapped
        assert wrapped.value == [3, 1, 4]
        assert wrapped.complete and not wrapped.degraded
        assert wrapped.tier is GuaranteeTier.OPTIMAL

    def test_forwards_attributes_but_own_fields_win(self):
        class Answer:
            keys = ["a"]
            report = "shadowed"

        report = ResilienceReport()
        wrapped = PartialResult(Answer(), report)
        assert wrapped.keys == ["a"]
        assert wrapped.report is report
        with pytest.raises(AttributeError):
            wrapped.nonexistent


class TestBudgetedKNN:
    def test_generous_budget_reproduces_the_clean_answer(self, tree, queries):
        for query in queries:
            clean = knn_query(tree, query, 10)
            with scope(Budget(**GENEROUS)):
                budgeted = knn_query(tree, query, 10)
            assert isinstance(budgeted, PartialResult)
            assert budgeted.complete and not budgeted.degraded
            assert budgeted.key_set() == clean.key_set()
            assert budgeted.distk == clean.distk

    def test_unbudgeted_query_returns_a_plain_result(self, tree, queries):
        result = knn_query(tree, queries[0], 5)
        assert not isinstance(result, PartialResult)

    def test_candidate_quota_yields_flagged_partial(self, tree, queries):
        with scope(Budget(max_candidates=10)):
            result = knn_query(tree, queries[0], 10)
        assert isinstance(result, PartialResult)
        assert not result.complete
        assert result.report.exhausted == "candidates"
        assert result.tier is GuaranteeTier.CONSERVATIVE

    def test_zero_deadline_yields_flagged_partial(self, tree, queries):
        with scope(Budget(deadline_s=0.0)):
            result = knn_query(tree, queries[0], 10)
        assert isinstance(result, PartialResult)
        assert not result.complete
        assert result.report.exhausted == "deadline"

    @pytest.mark.parametrize("traversal", ("hs", "df"))
    def test_both_traversals_respect_the_budget(self, tree, queries, traversal):
        # Phase 1 is a best-first (HS) search and runs first, so a tiny
        # quota cuts it; a quota just short of a full run cuts phase 2's
        # depth-first (DF) walk instead.
        with scope(Budget(**GENEROUS)) as budget:
            clean = knn_query(tree, queries[0], 10)
        quota = 10 if traversal == "hs" else budget.candidates_charged - 5
        with scope(Budget(max_candidates=quota)):
            result = knn_query(tree, queries[0], 10)
        assert isinstance(result, PartialResult)
        assert not result.complete
        assert result.report.exhausted == "candidates"
        if traversal == "df":
            # The anchors were found: what was collected is filtered.
            assert result.key_set() <= clean.key_set()
            assert result.distk == clean.distk

    def test_linear_scan_respects_the_budget(self, dataset, queries):
        index = LinearIndex(dataset.items())
        with scope(Budget(max_candidates=10)):
            result = knn_query(index, queries[0], 10)
        assert isinstance(result, PartialResult)
        assert not result.complete

    def test_two_phase_budget_cut_skips_the_dominance_filter(
        self, dataset, queries
    ):
        # Out of budget, the criterion filter is skipped (degraded,
        # answers kept) rather than spending more work; only the MinMax
        # prune of Lemma 9, which needs no criterion, still applies.
        index = LinearIndex(dataset.items())
        degraded = 0
        for query in queries:
            clean = knn_query(index, query, 10)
            with scope(Budget(max_candidates=len(index) // 2)):
                result = knn_query(index, query, 10)
            assert isinstance(result, PartialResult)
            assert not result.complete
            assert result.tier is GuaranteeTier.CONSERVATIVE
            # Skipping the filter keeps candidates: a superset, never a cut.
            assert clean.key_set() <= result.key_set()
            degraded += result.degraded_checks
        assert degraded > 0

    def test_partial_result_forwards_knn_attributes(self, tree, queries):
        with scope(Budget(max_candidates=10)):
            result = knn_query(tree, queries[0], 10)
        # Call sites written against KNNResult keep working unchanged.
        assert result.key_set() == set(result.keys)
        assert len(result) == len(result.value.keys)
        assert result.nodes_visited >= 0

    def test_budget_is_shared_across_queries_in_one_scope(self, tree, queries):
        with scope(Budget(max_candidates=10)) as budget:
            knn_query(tree, queries[0], 5)
            second = knn_query(tree, queries[1], 5)
        assert budget.exhausted() == "candidates"
        assert not second.complete

    def test_reference_is_budget_blind(self, dataset, queries):
        clean = knn_reference(dataset.items(), queries[0], 10)
        with scope(Budget(max_candidates=1)):
            budgeted = knn_reference(dataset.items(), queries[0], 10)
        assert budgeted.key_set() == clean.key_set()
        assert not isinstance(budgeted, PartialResult)


class TestBudgetedRNN:
    @pytest.fixture(scope="class")
    def small(self):
        return list(synthetic_dataset(80, 2, mu=0.2, seed=3).items())

    @pytest.fixture(scope="class")
    def query(self):
        return Hypersphere([0.3, -0.2], 0.1)

    def test_generous_budget_reproduces_the_clean_answer(self, small, query):
        clean = rnn_candidates(small, query)
        with scope(Budget(**GENEROUS)):
            budgeted = rnn_candidates(small, query)
        assert isinstance(budgeted, PartialResult)
        assert budgeted.complete and not budgeted.degraded
        assert list(budgeted) == clean

    def test_exhausted_budget_keeps_unexamined_objects(self, small, query):
        clean = rnn_candidates(small, query)
        with scope(Budget(max_candidates=15)):
            budgeted = rnn_candidates(small, query)
        assert isinstance(budgeted, PartialResult)
        assert not budgeted.complete
        assert budgeted.report.exhausted == "candidates"
        # Refute-only degradation: the candidate set only ever widens.
        assert set(clean) <= set(budgeted)
        # The 15 charged objects were examined exactly; every later one
        # is kept unexamined.
        keys = [key for key, _ in small]
        assert [key in budgeted for key in keys[:15]] == [
            key in clean for key in keys[:15]
        ]
        assert all(key in budgeted for key in keys[15:])

    def test_unbudgeted_returns_a_plain_list(self, small, query):
        assert isinstance(rnn_candidates(small, query), list)


class TestBudgetedDominating:
    @pytest.fixture(scope="class")
    def small(self):
        return list(synthetic_dataset(60, 2, mu=0.3, seed=9).items())

    @pytest.fixture(scope="class")
    def query(self):
        return Hypersphere([0.0, 0.0], 0.2)

    def test_generous_budget_reproduces_the_clean_scores(self, small, query):
        clean = dominance_scores(small, query)
        with scope(Budget(**GENEROUS)):
            budgeted = dominance_scores(small, query)
        assert isinstance(budgeted, PartialResult)
        assert budgeted.complete and not budgeted.degraded
        assert list(budgeted) == clean

    def test_exhausted_budget_zero_scores_the_remaining_rows(self, small, query):
        with scope(Budget(max_candidates=10 * len(small))):
            budgeted = dominance_scores(small, query)
        assert isinstance(budgeted, PartialResult)
        assert not budgeted.complete
        # Every key still appears: the 10 charged rows scored exactly,
        # the later rows at the universal lower bound.
        clean = dominance_scores(small, query)
        assert len(budgeted) == len(small)
        assert list(budgeted)[:10] == clean[:10]
        assert all(score.score == 0 for score in list(budgeted)[10:])

    def test_top_k_under_budget_carries_the_scoring_report(self, small, query):
        with scope(Budget(max_candidates=10 * len(small))):
            top = top_k_dominating(small, query, 5)
        assert isinstance(top, PartialResult)
        assert len(top) == 5
        assert not top.complete

    def test_top_k_generous_budget_matches_clean(self, small, query):
        clean = top_k_dominating(small, query, 5)
        with scope(Budget(**GENEROUS)):
            budgeted = top_k_dominating(small, query, 5)
        assert list(budgeted) == clean


class TestLadderEscalationSeam:
    def _quartic_bound_triples(self, count=60):
        rng = np.random.default_rng(7)
        for _ in range(count):
            yield (
                Hypersphere(rng.normal(size=3) * 3.0, rng.uniform(0.1, 1.0)),
                Hypersphere(rng.normal(size=3) * 3.0, rng.uniform(0.1, 1.0)),
                Hypersphere(rng.normal(size=3) * 3.0, rng.uniform(0.1, 1.0)),
            )

    def test_denied_escalation_collapses_to_uncertain(self):
        # With every float stage blown up, only the exact arbiter can
        # certify — and reaching it is an escalation the budget denies.
        denied = 0
        with faults.inject("quartic", "raise"):
            for triple in self._quartic_bound_triples():
                free = decide(*triple)
                with scope(Budget(max_escalations=0)):
                    capped = decide(*triple)
                if free.verdict is Verdict.UNCERTAIN:
                    continue  # settled by a stage the fault cannot reach
                if capped.verdict is Verdict.UNCERTAIN:
                    denied += 1
                    # The unbudgeted climb still reaches the truth.
                    assert (free.verdict is Verdict.TRUE) == exact_dominates(
                        *triple
                    )
        assert denied > 0

    def test_generous_escalation_budget_certifies(self):
        with faults.inject("quartic", "raise"):
            for triple in self._quartic_bound_triples(20):
                with scope(Budget(max_escalations=len(DEFAULT_LADDER))):
                    capped = decide(*triple)
                assert capped.verdict is not Verdict.UNCERTAIN

    def test_verified_criterion_counts_denied_escalations(self):
        criterion = VerifiedHyperbola()
        with faults.inject("quartic", "raise"):
            with scope(Budget(max_escalations=0)):
                for triple in self._quartic_bound_triples(30):
                    criterion.dominates(*triple)
        assert criterion.uncertain_count > 0


class TestQueryValidation:
    """Regression tests for the entry-point validation satellite."""

    @pytest.fixture(scope="class")
    def small_tree(self):
        return SSTree.bulk_load(
            synthetic_dataset(40, 2, seed=1).items(), max_entries=8
        )

    @pytest.fixture(scope="class")
    def query(self):
        return Hypersphere([0.0, 0.0], 0.1)

    @pytest.mark.parametrize("bad_k", (True, False, 2.5, "3", None))
    def test_non_integer_k_rejected(self, small_tree, query, bad_k):
        with pytest.raises(ValidationError, match="k"):
            knn_query(small_tree, query, bad_k)

    @pytest.mark.parametrize("bad_k", (0, -1, 41, 10**9))
    def test_out_of_range_k_rejected(self, small_tree, query, bad_k):
        with pytest.raises(ValidationError):
            knn_query(small_tree, query, bad_k)

    def test_numpy_integer_k_accepted(self, small_tree, query):
        result = knn_query(small_tree, query, np.int64(3))
        assert result.distk >= 0.0

    def test_dimension_mismatch_rejected(self, small_tree):
        with pytest.raises(ValidationError):
            knn_query(small_tree, Hypersphere([0.0, 0.0, 0.0], 0.1), 3)

    def test_poisoned_radius_rejected(self, small_tree):
        bad = Hypersphere([0.0, 0.0], 0.1)
        object.__setattr__(bad, "_radius", float("inf"))
        with pytest.raises(ValidationError, match="radius"):
            knn_query(small_tree, bad, 3)
        object.__setattr__(bad, "_radius", float("nan"))
        with pytest.raises(ValidationError, match="radius"):
            knn_query(small_tree, bad, 3)
        object.__setattr__(bad, "_radius", -0.5)
        with pytest.raises(ValidationError, match="radius"):
            knn_query(small_tree, bad, 3)

    def test_poisoned_center_rejected(self, small_tree):
        bad = Hypersphere([0.0, 0.0], 0.1)
        poisoned = np.array([np.nan, 0.0])
        object.__setattr__(bad, "_center", poisoned)
        with pytest.raises(ValidationError, match="center"):
            knn_query(small_tree, bad, 3)

    def test_non_hypersphere_query_rejected(self, small_tree):
        with pytest.raises(ValidationError):
            knn_query(small_tree, (0.0, 0.0), 3)

    def test_validation_error_is_a_query_error(self, small_tree, query):
        # Call sites catching the historical QueryError keep working.
        assert issubclass(ValidationError, QueryError)
        with pytest.raises(QueryError):
            knn_query(small_tree, query, 0)

    def test_reference_validates_too(self):
        items = list(synthetic_dataset(20, 2, seed=2).items())
        with pytest.raises(ValidationError):
            knn_reference(items, Hypersphere([0.0, 0.0], 0.1), 0)
        with pytest.raises(ValidationError):
            knn_reference(items, Hypersphere([0.0], 0.1), 3)

    def test_rnn_validates_the_query(self):
        items = list(synthetic_dataset(20, 2, seed=2).items())
        with pytest.raises(ValidationError):
            rnn_candidates(items, Hypersphere([0.0], 0.1))

    def test_dominating_validates_query_and_k(self):
        items = list(synthetic_dataset(20, 2, seed=2).items())
        with pytest.raises(ValidationError):
            dominance_scores(items, Hypersphere([0.0], 0.1))
        with pytest.raises(ValidationError):
            top_k_dominating(items, Hypersphere([0.0, 0.0], 0.1), 0)
        with pytest.raises(ValidationError):
            top_k_dominating(items, Hypersphere([0.0, 0.0], 0.1), 21)
