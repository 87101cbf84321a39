"""The tri-state Decision vocabulary, the ladder, and VerifiedHyperbola."""

from __future__ import annotations

import math

import pytest

from repro import Decision, Verdict, VerifiedHyperbola, obs
from repro.core.base import get_criterion
from repro.core.hyperbola import HyperbolaCriterion, min_distance_to_boundary
from repro.exceptions import DimensionalityMismatchError
from repro.geometry.hypersphere import Hypersphere
from repro.robust import DEFAULT_LADDER, FLOAT_LADDER, decide

SA = Hypersphere([0.0, 0.0], 1.0)
SB = Hypersphere([10.0, 0.0], 1.0)
SQ = Hypersphere([-3.0, 0.0], 0.5)


def _boundary_query(factor: float) -> Hypersphere:
    """A query sphere whose radius sits *factor* times the exact margin."""
    dmin = min_distance_to_boundary(SA, SB, SQ.center)
    return Hypersphere(SQ.center, dmin * factor)


class TestVerdict:
    def test_is_tri_state(self):
        assert {Verdict.TRUE, Verdict.FALSE, Verdict.UNCERTAIN} == set(Verdict)

    def test_refuses_boolean_coercion(self):
        with pytest.raises(TypeError, match="tri-state"):
            bool(Verdict.TRUE)
        with pytest.raises(TypeError):
            if Verdict.UNCERTAIN:  # pragma: no cover - the raise is the test
                pass


class TestDecision:
    def test_certified_flags(self):
        assert Decision(Verdict.TRUE).certified
        assert Decision(Verdict.FALSE).certified
        assert not Decision(Verdict.UNCERTAIN).certified

    def test_as_bool_collapses_certified(self):
        assert Decision(Verdict.TRUE).as_bool() is True
        assert Decision(Verdict.FALSE).as_bool() is False

    def test_as_bool_uses_fallback_when_uncertain(self):
        assert Decision(Verdict.UNCERTAIN, fallback=True).as_bool() is True
        assert Decision(Verdict.UNCERTAIN, fallback=False).as_bool() is False
        # No fallback computed: the conservative direction is "keep".
        assert Decision(Verdict.UNCERTAIN).as_bool() is False

    def test_frozen(self):
        with pytest.raises(AttributeError):
            Decision(Verdict.TRUE).verdict = Verdict.FALSE

    def test_repr_mentions_stage_and_fallback(self):
        text = repr(Decision(Verdict.UNCERTAIN, stage="exact", fallback=True))
        assert "UNCERTAIN" in text and "exact" in text and "fallback=True" in text


class TestLadder:
    def test_easy_case_decided_by_first_stage(self):
        decision = decide(SA, SB, SQ)
        assert decision.verdict is Verdict.TRUE
        assert decision.stage == "float64"
        assert decision.margin > decision.bound > 0.0

    def test_clear_negative_decided_cheaply(self):
        decision = decide(SB, SA, SQ)  # roles swapped: clearly not dominating
        assert decision.verdict is Verdict.FALSE
        assert decision.stage == "float64"
        assert decision.margin < 0.0

    def test_boundary_case_escalates_to_exact(self):
        for factor in (1.0 - 3e-13, 1.0 + 3e-13):
            decision = decide(SA, SB, _boundary_query(factor))
            assert decision.certified
            assert decision.stage in ("longdouble", "exact")

    def test_exact_stage_verdict_matches_sign(self):
        inside = decide(SA, SB, _boundary_query(1.0 - 3e-13))
        outside = decide(SA, SB, _boundary_query(1.0 + 3e-13))
        assert inside.verdict is Verdict.TRUE
        assert outside.verdict is Verdict.FALSE

    def test_full_ladder_never_uncertain(self):
        # The exact arbiter always terminates with a verdict, even at
        # the exactly-critical radius.
        decision = decide(SA, SB, _boundary_query(1.0))
        assert decision.certified

    def test_truncated_ladder_goes_uncertain_on_boundary(self):
        decision = decide(SA, SB, _boundary_query(1.0), FLOAT_LADDER)
        assert decision.verdict is Verdict.UNCERTAIN
        assert decision.stage == "longdouble"
        assert math.isfinite(decision.margin)
        assert decision.bound > 0.0

    def test_stage_counters_recorded(self):
        with obs.enabled_scope(True), obs.scope():
            decide(SA, SB, _boundary_query(1.0))
            counters = obs.collect()["counters"]
        assert counters.get("verified.stage.float64", 0) == 1
        assert counters.get("verified.stage.exact", 0) == 1

    def test_overlapping_spheres_false(self):
        a = Hypersphere([0.0, 0.0], 2.0)
        b = Hypersphere([1.0, 0.0], 2.0)
        decision = decide(a, b, SQ)
        assert decision.verdict is Verdict.FALSE

    def test_coincident_centers_false(self):
        decision = decide(SA, SA, SQ)
        assert decision.verdict is Verdict.FALSE

    def test_one_dimensional(self):
        a = Hypersphere([0.0], 0.5)
        b = Hypersphere([50.0], 0.5)
        q = Hypersphere([-1.0], 0.25)
        assert decide(a, b, q).verdict is Verdict.TRUE

    def test_point_radii(self):
        a = Hypersphere([0.0, 0.0], 0.0)
        b = Hypersphere([10.0, 0.0], 0.0)
        q = Hypersphere([-1.0, 0.0], 0.0)
        assert decide(a, b, q).verdict is Verdict.TRUE


class TestVerifiedHyperbola:
    def test_registered_and_flagged(self):
        criterion = get_criterion("verified")
        assert isinstance(criterion, VerifiedHyperbola)
        assert isinstance(criterion, HyperbolaCriterion)
        assert criterion.is_correct and criterion.is_sound

    def test_boolean_protocol_matches_decide(self):
        criterion = VerifiedHyperbola()
        assert criterion.dominates(SA, SB, SQ) is True
        assert criterion.decide(SA, SB, SQ).verdict is Verdict.TRUE
        assert criterion.dominates(SB, SA, SQ) is False

    def test_validates_dimensions(self):
        criterion = VerifiedHyperbola()
        with pytest.raises(DimensionalityMismatchError):
            criterion.decide(SA, SB, Hypersphere([0.0], 1.0))
        with pytest.raises(DimensionalityMismatchError):
            criterion.dominates(SA, Hypersphere([0.0], 1.0), SQ)

    def test_non_strict_uses_float_fast_path(self):
        relaxed = VerifiedHyperbola(strict=False)
        plain = HyperbolaCriterion()
        assert relaxed.dominates(SA, SB, SQ) == plain.dominates(SA, SB, SQ)
        # decide() still certifies regardless of the flag.
        assert relaxed.decide(SA, SB, SQ).certified

    def test_uncertain_counted_and_fallback_attached(self):
        criterion = VerifiedHyperbola(ladder=FLOAT_LADDER)
        decision = criterion.decide(SA, SB, _boundary_query(1.0))
        assert decision.verdict is Verdict.UNCERTAIN
        assert decision.fallback in (True, False)
        assert criterion.uncertain_count == 1
        criterion.decide(SA, SB, SQ)  # easy case: counter unchanged
        assert criterion.uncertain_count == 1

    def test_uncertain_fallback_is_conservative(self):
        # On a borderline configuration the fallback may only say True
        # if a *correct* criterion proved it: verify it against the
        # exact arbiter.
        from repro.robust import exact_dominates

        criterion = VerifiedHyperbola(ladder=FLOAT_LADDER)
        query = _boundary_query(1.0)
        decision = criterion.decide(SA, SB, query)
        if decision.fallback:
            assert exact_dominates(SA, SB, query)

    def test_default_ladder_is_full(self):
        assert VerifiedHyperbola()._ladder is DEFAULT_LADDER


class TestQueryIntegration:
    def test_knn_counts_uncertain_decisions(self):
        from repro.index.linear import LinearIndex
        from repro.queries.knn import knn_query

        spheres = [
            ("a", Hypersphere([0.0, 0.0], 0.3)),
            ("b", Hypersphere([1.0, 0.0], 0.3)),
            ("c", Hypersphere([4.0, 0.0], 0.3)),
            ("d", Hypersphere([9.0, 0.0], 0.3)),
        ]
        index = LinearIndex(spheres)
        query = Hypersphere([0.2, 0.1], 0.1)
        result = knn_query(index, query, 2, criterion=VerifiedHyperbola())
        assert result.uncertain_decisions == 0  # well-separated data
        reference = knn_query(index, query, 2, criterion="hyperbola")
        assert result.key_set() == reference.key_set()

    def test_rnn_with_verified_matches_hyperbola(self):
        from repro.queries.rknn import rnn_candidates

        spheres = [
            ("a", Hypersphere([0.0, 0.0], 0.2)),
            ("b", Hypersphere([2.0, 0.0], 0.2)),
            ("c", Hypersphere([8.0, 0.0], 0.2)),
        ]
        query = Hypersphere([0.5, 0.5], 0.1)
        assert rnn_candidates(spheres, query, criterion=VerifiedHyperbola()) == (
            rnn_candidates(spheres, query, criterion="hyperbola")
        )
