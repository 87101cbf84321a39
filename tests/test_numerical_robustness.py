"""Numerical robustness: extreme scales, dimensions and degeneracies.

The dominance kernel squares radii twice (the quartic coefficients
involve ``rab^4``), so inputs spanning many orders of magnitude are the
natural way to break a naive implementation.  These tests pin the
behaviour at the extremes: no crashes, no NaN verdicts, and agreement
with the oracle wherever the configuration is decisively inside or
outside the dominance region.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import get_criterion, min_margin
from repro.core.batch import batch_evaluate
from repro.geometry.hypersphere import Hypersphere
from repro.robust import DEFAULT_LADDER, Verdict, decide
from repro.robust.exact import exact_dominates

HYPERBOLA = get_criterion("hyperbola")


def assert_decisive_agreement(sa, sb, sq):
    """Hyperbola matches the oracle unless the margin is borderline."""
    margin = min_margin(sa, sb, sq, resolution=1024) - (sa.radius + sb.radius)
    scale = 1.0 + sa.radius + sb.radius + float(np.abs(sq.center).max())
    if abs(margin) < 1e-9 * scale:
        return  # genuinely ambiguous at float resolution
    want = (not sa.overlaps(sb)) and margin > 0.0
    assert HYPERBOLA.dominates(sa, sb, sq) == want


class TestScaleExtremes:
    @pytest.mark.parametrize("scale", (1e-8, 1e-3, 1.0, 1e3, 1e8))
    def test_uniform_rescaling_preserves_the_verdict(self, scale):
        """Dominance is scale-invariant; every float decision must be too.

        The second base configuration puts the query near ``Ra``'s
        boundary, where a quartic solved in the scene's own units lost
        its nearest root on small scenes and claimed a false dominance.
        """
        bases = (
            (
                Hypersphere([0.0, 0.0], 1.0),
                Hypersphere([10.0, 0.0], 1.0),
                Hypersphere([-3.0, 1.0], 1.5),
            ),
            (
                Hypersphere([-1.0, 0.0], 0.105),
                Hypersphere([1.0, 0.0], 0.105),
                Hypersphere([-0.482, 2.311], 0.3),
            ),
        )
        for base in bases:
            scaled = tuple(s.scaled(scale) for s in base)
            want = exact_dominates(*scaled)
            for name in ("hyperbola", "cascade", "verified"):
                assert get_criterion(name).dominates(*scaled) == want, name
            wrong = Verdict.FALSE if want else Verdict.TRUE
            for stage in DEFAULT_LADDER:  # no rung certifies the wrong verdict
                assert decide(*scaled, ladder=(stage,)).verdict is not wrong, stage[0]
            rows = [np.array([s.center]) for s in scaled]
            radii = [np.array([s.radius]) for s in scaled]
            assert batch_evaluate("hyperbola", *rows, *radii)[0] == want

    @pytest.mark.parametrize("scale", (1e-6, 1e6))
    def test_random_configurations_at_extreme_scales(self, scale, rng):
        for _ in range(60):
            d = int(rng.integers(1, 5))
            ca = rng.normal(0.0, 10.0, d) * scale
            direction = rng.normal(0.0, 1.0, d)
            direction /= np.linalg.norm(direction)
            ra = float(abs(rng.normal(0.0, 1.0))) * scale
            rb = float(abs(rng.normal(0.0, 1.0))) * scale
            cb = ca + direction * (ra + rb + float(rng.uniform(0.5, 5.0)) * scale)
            cq = ca - direction * float(rng.uniform(0.0, 5.0)) * scale
            rq = float(abs(rng.normal(0.0, 1.0))) * scale
            assert_decisive_agreement(
                Hypersphere(ca, ra), Hypersphere(cb, rb), Hypersphere(cq, rq)
            )

    def test_mixed_scales_radius_tiny_vs_huge_distance(self):
        sa = Hypersphere([0.0, 0.0], 1e-9)
        sb = Hypersphere([1e9, 0.0], 1e-9)
        sq = Hypersphere([-1e3, 0.0], 1.0)
        assert HYPERBOLA.dominates(sa, sb, sq)
        assert not HYPERBOLA.dominates(sb, sa, sq)

    def test_far_offset_configuration(self):
        """The whole scene translated far from the origin."""
        offset = np.array([1e7, -1e7])
        sa = Hypersphere(offset + [0.0, 0.0], 1.0)
        sb = Hypersphere(offset + [10.0, 0.0], 1.0)
        sq = Hypersphere(offset + [-3.0, 0.0], 0.5)
        assert HYPERBOLA.dominates(sa, sb, sq)


class TestDimensionExtremes:
    @pytest.mark.parametrize("d", (32, 128, 512))
    def test_high_dimensional_verdicts(self, d, rng):
        ca = rng.normal(0.0, 1.0, d)
        direction = rng.normal(0.0, 1.0, d)
        direction /= np.linalg.norm(direction)
        sa = Hypersphere(ca, 0.5)
        sb = Hypersphere(ca + direction * 20.0, 0.5)
        sq = Hypersphere(ca - direction * 2.0, 0.5)
        assert HYPERBOLA.dominates(sa, sb, sq)
        assert not HYPERBOLA.dominates(sb, sa, sq)

    def test_all_criteria_return_bools_in_high_d(self, rng):
        d = 256
        spheres = [
            Hypersphere(rng.normal(0, 5, d), float(abs(rng.normal(0, 1))))
            for _ in range(3)
        ]
        for name in ("hyperbola", "minmax", "mbr", "gp", "trigonometric"):
            verdict = get_criterion(name).dominates(*spheres)
            assert isinstance(verdict, bool) or verdict in (True, False)


class TestDegenerateShapes:
    def test_all_three_identical_points(self):
        p = Hypersphere([1.0, 2.0], 0.0)
        for name in ("hyperbola", "minmax", "mbr", "gp"):
            assert not get_criterion(name).dominates(p, p, p)

    def test_nearly_touching_spheres(self):
        """The hyperbola is extremely eccentric (rab -> 2*alpha).

        The dominance region degenerates to a needle around the focal
        axis: its half-width at x = -5 is sqrt(gap_excess * (25 - 1))
        (plus higher-order terms), so whether a given query ball fits is
        a genuine geometric question — checked against the needle-width
        closed form and, independently, against the oracle.
        """
        for gap_excess in (1e-3, 1e-6, 1e-9):
            sa = Hypersphere([0.0, 0.0], 1.0)
            sb = Hypersphere([2.0 + gap_excess, 0.0], 1.0)
            needle_half_width = np.sqrt(
                (2.0 + gap_excess) ** 2 / 4.0 - 1.0
            ) * np.sqrt(24.0)
            for rq, expected in (
                (needle_half_width * 0.2, True),
                (needle_half_width * 5.0, False),
            ):
                sq = Hypersphere([-5.0, 0.0], float(rq))
                assert HYPERBOLA.dominates(sa, sb, sq) == expected, (
                    gap_excess,
                    rq,
                )
                assert_decisive_agreement(sa, sb, sq)

    def test_nearly_degenerate_radii(self):
        """rab tiny but nonzero: the bisector threshold path."""
        sa = Hypersphere([0.0, 0.0], 1e-300)
        sb = Hypersphere([10.0, 0.0], 1e-300)
        assert HYPERBOLA.dominates(sa, sb, Hypersphere([-1.0, 0.0], 1.0))
        assert not HYPERBOLA.dominates(sa, sb, Hypersphere([4.9, 0.0], 0.5))

    def test_query_far_beyond_the_scene(self):
        sa = Hypersphere([0.0, 0.0], 1.0)
        sb = Hypersphere([10.0, 0.0], 1.0)
        sq = Hypersphere([-1e12, 3.0], 1.0)
        assert HYPERBOLA.dominates(sa, sb, sq)

    def test_batch_kernels_never_produce_nan_verdicts(self, rng):
        n, d = 200, 3
        magnitudes = 10.0 ** rng.uniform(-8, 8, n)
        ca = rng.normal(0, 1, (n, d)) * magnitudes[:, None]
        cb = rng.normal(0, 1, (n, d)) * magnitudes[:, None]
        cq = rng.normal(0, 1, (n, d)) * magnitudes[:, None]
        ra = np.abs(rng.normal(0, 1, n)) * magnitudes
        rb = np.abs(rng.normal(0, 1, n)) * magnitudes
        rq = np.abs(rng.normal(0, 1, n)) * magnitudes
        for name in ("hyperbola", "minmax", "mbr", "gp", "trigonometric"):
            out = batch_evaluate(name, ca, cb, cq, ra, rb, rq)
            assert out.dtype == np.bool_
            assert out.shape == (n,)

    def test_scalar_batch_agreement_across_magnitudes(self, rng):
        n, d = 150, 2
        magnitudes = 10.0 ** rng.uniform(-5, 5, n)
        ca = rng.normal(0, 1, (n, d)) * magnitudes[:, None]
        direction = rng.normal(0, 1, (n, d))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        ra = np.abs(rng.normal(0, 0.3, n)) * magnitudes
        rb = np.abs(rng.normal(0, 0.3, n)) * magnitudes
        cb = ca + direction * (ra + rb + magnitudes)[:, None]
        cq = ca - direction * (rng.uniform(0, 2, n) * magnitudes)[:, None]
        rq = np.abs(rng.normal(0, 0.3, n)) * magnitudes
        vec = batch_evaluate("hyperbola", ca, cb, cq, ra, rb, rq)
        for i in range(n):
            scalar = HYPERBOLA.dominates(
                Hypersphere(ca[i], float(ra[i])),
                Hypersphere(cb[i], float(rb[i])),
                Hypersphere(cq[i], float(rq[i])),
            )
            assert vec[i] == scalar, i
