"""Fault injection: certified decisions degrade gracefully, never lie.

The acceptance bar: under **every** seam x mode combination, a
``VerifiedHyperbola`` verdict is either the correct boolean (the exact
arbiter is out of the seams' reach) or an honest ``UNCERTAIN`` — never
a wrong certified TRUE/FALSE.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import VerifiedHyperbola, obs
from repro.core.hyperbola import HyperbolaCriterion
from repro.exceptions import ReproError
from repro.geometry import distance, quartic
from repro.geometry.hypersphere import Hypersphere
from repro.geometry.transform import FocalFrame
from repro.index.packed import LeafDirectory
from repro.index.sstree import SSTree
from repro.robust import FLOAT_LADDER, exact_dominates, faults

SEAM_MODE_MATRIX = [
    (seam, mode) for seam in faults.SEAMS for mode in faults.MODES
]


def _triples(rng, count):
    for _ in range(count):
        dimension = int(rng.integers(1, 5))
        yield (
            Hypersphere(rng.normal(size=dimension) * 4.0, rng.uniform(0.0, 1.5)),
            Hypersphere(rng.normal(size=dimension) * 4.0, rng.uniform(0.0, 1.5)),
            Hypersphere(rng.normal(size=dimension) * 4.0, rng.uniform(0.0, 1.5)),
        )


class TestInjectionMechanics:
    def test_unknown_seam_or_mode_rejected(self):
        with pytest.raises(ReproError, match="seam"):
            with faults.inject("nonsense", "nan"):
                pass
        with pytest.raises(ReproError, match="mode"):
            with faults.inject("quartic", "nonsense"):
                pass
        with pytest.raises(ReproError, match="positive"):
            with faults.inject("quartic", "nan", every=0):
                pass

    def test_seams_restored_after_exit(self):
        originals = (
            quartic.solve_quartic_real,
            quartic.solve_quartic_real_closed,
            quartic.solve_quartic_real_batch,
            FocalFrame.reduce,
            distance.dist,
            distance.dists,
            LeafDirectory.bounds,
        )
        for seam in faults.SEAMS:
            with faults.inject(seam, "nan"):
                pass
        assert (
            quartic.solve_quartic_real,
            quartic.solve_quartic_real_closed,
            quartic.solve_quartic_real_batch,
            FocalFrame.reduce,
            distance.dist,
            distance.dists,
            LeafDirectory.bounds,
        ) == originals

    def test_seams_restored_even_when_body_raises(self):
        original = distance.dist
        with pytest.raises(RuntimeError):
            with faults.inject("distance", "raise"):
                raise RuntimeError("boom")
        assert distance.dist is original

    def test_deterministic_every(self):
        with faults.inject("distance", "nan", every=3) as fault:
            values = [distance.dist([0.0], [1.0]) for _ in range(9)]
        # Fires on calls 1, 4, 7 (counted from the first call).
        assert [i for i, v in enumerate(values) if np.isnan(v)] == [0, 3, 6]
        assert fault.calls == 9
        assert fault.hits == 3

    def test_row_sweep_is_one_call_of_the_distance_seam(self):
        points = np.array([[0.0, 0.0], [3.0, 4.0]])
        with faults.inject("distance", "nan", every=2) as fault:
            first = distance.dists(points, np.zeros(2))
            second = distance.dists(points, np.zeros(2))
        assert np.isnan(first).all()
        assert second.tolist() == [0.0, 5.0]
        assert (fault.calls, fault.hits) == (2, 1)

    def test_directory_sweep_is_one_call_of_the_index_seam(self):
        items = [(i, Hypersphere([float(i), 0.0], 0.25)) for i in range(40)]
        directory = SSTree.bulk_load(items, max_entries=4).leaf_directory()
        query = Hypersphere([0.0, 0.0], 0.5)
        with faults.inject("index", "nan", every=2) as fault:
            first = directory.bounds(query)
            second = directory.bounds(query)
        assert all(np.isnan(bound).all() for bound in first)
        assert all(np.isfinite(bound).all() for bound in second)
        assert len(first[0]) == len(directory) > 1
        assert (fault.calls, fault.hits) == (2, 1)

    def test_raise_mode_raises_arithmetic_error(self):
        with faults.inject("distance", "raise"):
            with pytest.raises(ArithmeticError):
                distance.dist([0.0], [1.0])

    def test_perturb_mode_is_tiny(self):
        with faults.inject("distance", "perturb", magnitude=1e-12):
            value = distance.dist([0.0], [3.0])
        assert value == pytest.approx(3.0, rel=1e-11)
        assert value != 3.0

    def test_hits_counted_through_obs(self):
        with obs.enabled_scope(True), obs.scope():
            with faults.inject("distance", "overflow"):
                distance.dist([0.0], [1.0])
            counters = obs.collect()["counters"]
        assert counters.get("faults.distance.overflow", 0) == 1


class TestGracefulDegradation:
    """The acceptance matrix: correct verdict or UNCERTAIN, never wrong."""

    @pytest.mark.parametrize("seam,mode", SEAM_MODE_MATRIX)
    def test_verified_never_certifies_a_wrong_answer(self, seam, mode, rng):
        criterion = VerifiedHyperbola()
        for sa, sb, sq in _triples(rng, 25):
            truth = exact_dominates(sa, sb, sq)
            with faults.inject(seam, mode):
                decision = criterion.decide(sa, sb, sq)
            if decision.certified:
                assert decision.as_bool() == truth, (seam, mode, decision)

    @pytest.mark.parametrize("seam,mode", SEAM_MODE_MATRIX)
    def test_full_ladder_heals_every_fault(self, seam, mode, rng):
        # With the exact arbiter on the ladder the boolean answer is
        # not merely "not wrong" — it is *right*, because the last rung
        # shares no code with the faulted kernels.
        criterion = VerifiedHyperbola()
        for sa, sb, sq in _triples(rng, 15):
            truth = exact_dominates(sa, sb, sq)
            with faults.inject(seam, mode):
                assert criterion.dominates(sa, sb, sq) == truth, (seam, mode)

    @pytest.mark.parametrize("mode", ["nan", "overflow", "raise"])
    def test_truncated_ladder_goes_uncertain_not_wrong(self, mode, rng):
        # Without the exact rung a hard fault on every float stage's
        # dmin solver leaves UNCERTAIN (with a conservative
        # fallback), never a wrong certified verdict.
        criterion = VerifiedHyperbola(ladder=FLOAT_LADDER)
        for sa, sb, sq in _triples(rng, 25):
            truth = exact_dominates(sa, sb, sq)
            with faults.inject("dmin", mode):
                decision = criterion.decide(sa, sb, sq)
            if decision.certified:
                assert decision.as_bool() == truth, (mode, decision)
            elif decision.fallback:
                # A True fallback claims a safe prune: it must be real.
                assert truth

    def test_perturbation_absorbed_by_certification(self, rng):
        # A 1e-12 relative perturbation sits inside every stage's error
        # bound, so verdicts on well-separated triples stay certified
        # and correct without ever reaching the exact stage.
        criterion = VerifiedHyperbola()
        checked = 0
        for sa, sb, sq in _triples(rng, 40):
            clean = criterion.decide(sa, sb, sq)
            if clean.stage != "float64":
                continue
            with faults.inject("dmin", "perturb", magnitude=1e-12):
                with faults.inject("distance", "perturb", magnitude=1e-12):
                    faulted = criterion.decide(sa, sb, sq)
            assert faulted.verdict is clean.verdict
            checked += 1
        assert checked > 10

    def test_plain_hyperbola_fails_loudly_not_wrongly_on_nan(self):
        # The non-certified kernel's own regression: a nan dmin raises
        # instead of silently inflating the boundary distance.
        criterion = HyperbolaCriterion()
        sa = Hypersphere([0.0, 0.0], 1.0)
        sb = Hypersphere([10.0, 0.0], 1.0)
        sq = Hypersphere([-2.0, 0.0], 0.5)
        with faults.inject("dmin", "nan"):
            with pytest.raises(ArithmeticError):
                criterion.dominates(sa, sb, sq)

    def test_stage_failures_counted(self, rng):
        criterion = VerifiedHyperbola()
        sa = Hypersphere([0.0, 0.0], 1.0)
        sb = Hypersphere([10.0, 0.0], 1.0)
        sq = Hypersphere([-2.0, 0.0], 0.5)
        with obs.enabled_scope(True), obs.scope():
            with faults.inject("dmin", "raise"):
                criterion.dominates(sa, sb, sq)
            counters = obs.collect()["counters"]
        assert counters.get("verified.stage.float64.failed", 0) == 1
        assert counters.get("verified.stage.longdouble.failed", 0) == 1
        assert counters.get("faults.dmin.raise", 0) >= 2
