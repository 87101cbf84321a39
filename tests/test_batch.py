"""The vectorised kernels must agree with the scalar criteria exactly."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from repro.core import batch, get_criterion
from repro.core.batch import (
    _batch_distance_to_hyperbola,
    _dmin_bracket,
    _reduce_to_half_plane,
    batch_evaluate,
    batch_gp,
    batch_hyperbola,
    batch_mbr,
    batch_minmax,
    batch_trigonometric,
)
from repro.geometry.hypersphere import Hypersphere
from repro.robust.exact import exact_dominates

ALL_KERNELS = ("hyperbola", "minmax", "mbr", "gp", "trigonometric")


def random_workload(rng, n: int, d: int):
    """A mixed workload: raw random, aligned, overlapping, degenerate."""
    ca = rng.normal(0.0, 10.0, (n, d))
    cb = rng.normal(0.0, 10.0, (n, d))
    cq = rng.normal(0.0, 10.0, (n, d))
    ra = np.abs(rng.normal(0.0, 2.0, n))
    rb = np.abs(rng.normal(0.0, 2.0, n))
    rq = np.abs(rng.normal(0.0, 2.0, n))
    # Mix in structured sub-populations that stress specific paths:
    quarter = n // 4
    if quarter:
        # aligned triples (dominance plausible)
        direction = rng.normal(0.0, 1.0, (quarter, d))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        cb[:quarter] = ca[:quarter] + direction * (
            ra[:quarter] + rb[:quarter] + rng.uniform(0.5, 8.0, quarter)
        )[:, None]
        cq[:quarter] = ca[:quarter] - direction * rng.uniform(
            0.0, 6.0, (quarter, 1)
        )
        # exact duplicates of Sa as Sb (overlap path)
        cb[quarter : quarter + quarter // 2] = ca[quarter : quarter + quarter // 2]
        # point spheres (rab == 0 bisector path)
        ra[2 * quarter : 3 * quarter] = 0.0
        rb[2 * quarter : 3 * quarter] = 0.0
        rq[3 * quarter :] = 0.0  # point queries
    return ca, cb, cq, ra, rb, rq


def scalar_answers(name: str, arrays) -> np.ndarray:
    criterion = get_criterion(name)
    ca, cb, cq, ra, rb, rq = arrays
    out = np.zeros(ca.shape[0], dtype=bool)
    for i in range(ca.shape[0]):
        out[i] = criterion.dominates(
            Hypersphere(ca[i], float(ra[i])),
            Hypersphere(cb[i], float(rb[i])),
            Hypersphere(cq[i], float(rq[i])),
        )
    return out


class TestScalarAgreement:
    @pytest.mark.parametrize("name", ALL_KERNELS)
    @pytest.mark.parametrize("d", (1, 2, 3, 6))
    def test_mixed_workload(self, name, d, rng):
        arrays = random_workload(rng, 200, d)
        vectorised = batch_evaluate(name, *arrays)
        scalar = scalar_answers(name, arrays)
        disagree = np.flatnonzero(vectorised != scalar)
        assert disagree.size == 0, f"rows {disagree[:5]} disagree for {name}"

    @given(st.integers(min_value=0, max_value=10_000), st.integers(1, 5))
    def test_hyperbola_single_rows(self, seed, d):
        rng = np.random.default_rng(seed)
        arrays = random_workload(rng, 8, d)
        assert np.array_equal(
            batch_hyperbola(*arrays), scalar_answers("hyperbola", arrays)
        )


class TestInterface:
    def test_unknown_kernel(self):
        arrays = random_workload(np.random.default_rng(0), 4, 2)
        with pytest.raises(ValueError, match="no batch kernel"):
            batch_evaluate("bogus", *arrays)

    def test_shape_validation(self):
        ca = np.zeros((4, 2))
        with pytest.raises(ValueError):
            batch_minmax(ca, ca, np.zeros((5, 2)), *(np.zeros(4),) * 3)
        with pytest.raises(ValueError):
            batch_minmax(ca, ca, ca, np.zeros(3), np.zeros(4), np.zeros(4))

    def test_empty_workload(self):
        empty = (np.zeros((0, 3)),) * 3 + (np.zeros(0),) * 3
        for kernel in (batch_minmax, batch_mbr, batch_gp, batch_trigonometric,
                       batch_hyperbola):
            assert kernel(*empty).shape == (0,)

    def test_result_dtype_is_bool(self, rng):
        arrays = random_workload(rng, 16, 3)
        for name in ALL_KERNELS:
            assert batch_evaluate(name, *arrays).dtype == np.bool_


class TestKnownAnswers:
    def test_clear_dominance_row(self):
        ca = np.array([[0.0, 0.0]])
        cb = np.array([[100.0, 0.0]])
        cq = np.array([[-2.0, 0.0]])
        radii = (np.array([1.0]), np.array([1.0]), np.array([0.5]))
        for name in ALL_KERNELS:
            assert batch_evaluate(name, ca, cb, cq, *radii)[0], name

    def test_overlap_row_false_for_correct_kernels(self):
        ca = np.array([[0.0, 0.0]])
        cb = np.array([[0.5, 0.0]])
        cq = np.array([[-2.0, 0.0]])
        radii = (np.array([1.0]), np.array([1.0]), np.array([0.5]))
        for name in ("hyperbola", "minmax", "mbr", "gp"):
            assert not batch_evaluate(name, ca, cb, cq, *radii)[0], name


class TestNaNPaddingContainment:
    """Regression: batch quartic nan padding must never leak into verdicts.

    ``solve_quartic_real_batch`` pads rows having fewer than four real
    roots with ``nan``.  The batch Hyperbola kernel masks those slots to
    ``inf`` distance before the row minimum; if the mask ever regressed,
    nan would propagate through the min (or silently lose every
    comparison) and corrupt the verdict.  These tests pin the seal.
    """

    def test_padded_rows_match_scalar(self, rng):
        ca, cb, cq, ra, rb, rq = random_workload(rng, 64, 3)
        rq = np.maximum(rq, 1e-3)  # force the quartic path on live rows
        arrays = (ca, cb, cq, ra, rb, rq)
        result = batch_hyperbola(*arrays)
        criterion = get_criterion("hyperbola")
        for i in range(ca.shape[0]):
            expected = criterion.dominates(
                Hypersphere(ca[i], ra[i]),
                Hypersphere(cb[i], rb[i]),
                Hypersphere(cq[i], rq[i]),
            )
            assert bool(result[i]) == expected, f"row {i}"

    def test_batch_solver_pads_with_nan(self):
        from repro.geometry.quartic import solve_quartic_real_batch

        # x^4 + 1 = 0 has no real roots: the row must be all-nan ...
        no_real = np.array([[1.0, 0.0, 0.0, 0.0, 1.0]])
        assert np.all(np.isnan(solve_quartic_real_batch(no_real)))
        # ... and (x^2 - 1)(x^2 + 1) = x^4 - 1 has exactly two.
        two_real = np.array([[1.0, 0.0, 0.0, 0.0, -1.0]])
        roots = solve_quartic_real_batch(two_real)[0]
        assert np.isnan(roots).sum() == 2
        np.testing.assert_allclose(np.sort(roots[:2]), [-1.0, 1.0], atol=1e-9)

    def test_all_nan_root_rows_still_yield_finite_verdicts(self):
        # A configuration whose quartic row has < 4 real roots: verdict
        # must still be a clean boolean decided by the closed-form
        # candidates (vertices / ring), not nan-contaminated.
        ca = np.array([[0.0, 0.0]])
        cb = np.array([[10.0, 0.0]])
        cq = np.array([[-2.0, 0.0]])
        ra = np.array([1.0])
        rb = np.array([1.0])
        rq = np.array([0.5])
        result = batch_hyperbola(ca, cb, cq, ra, rb, rq)
        assert result.dtype == np.bool_
        assert bool(result[0]) is True


def focal_rows(rng, n, d, alpha, flatness, t_span, rho_span):
    """*n* ``(ca, cb, cq, ra, rb)`` rows placed by focal-frame coordinates.

    The foci sit *alpha* either side of a random origin along a random
    axis and ``ra + rb = 2 * alpha * flatness``.  The query center sits
    at ``t = -alpha * 10**u`` along the axis and ``rho = alpha * 10**v``
    off it, with ``u`` and ``v`` uniform over the log10 spans.
    """
    axis = rng.normal(size=(n, d))
    axis /= np.linalg.norm(axis, axis=1, keepdims=True)
    perp = rng.normal(size=(n, d))
    perp -= np.einsum("ij,ij->i", perp, axis)[:, None] * axis
    perp /= np.linalg.norm(perp, axis=1, keepdims=True)
    origin = rng.normal(0.0, 10.0 * alpha, (n, d))
    t = -alpha * 10.0 ** rng.uniform(*t_span, n)
    rho = alpha * 10.0 ** rng.uniform(*rho_span, n)
    rab = 2.0 * alpha * flatness
    ra = rab * rng.uniform(0.1, 0.9, n)
    return (
        origin - alpha * axis,
        origin + alpha * axis,
        origin + t[:, None] * axis + rho[:, None] * perp,
        ra,
        rab - ra,
    )


def reduced(ca, cb, cq, ra, rb):
    """The ``(t, rho, alpha, rab)`` the kernel computes for each row."""
    gap = np.linalg.norm(cb - ca, axis=1)
    t, rho = _reduce_to_half_plane(ca, cb, cq, gap)
    return t, rho, gap / 2.0, ra + rb


def all_rows_quartic(*arrays):
    """The Hyperbola kernel with every curved row going to the solver."""

    def unbounded(t, rho, alpha, rab):
        return np.full_like(t, -np.inf), np.full_like(t, np.inf), np.zeros_like(t)

    with mock.patch.object(batch, "_dmin_bracket", unbounded):
        return batch_hyperbola(*arrays)


class TestDminBracket:
    """The closed-form dmin bracket settles rows, never changing a right one."""

    @given(st.integers(0, 10_000), st.integers(2, 5), st.integers(-6, 6))
    def test_bracket_agrees_with_the_all_rows_quartic(self, seed, d, exponent):
        rng = np.random.default_rng(seed)
        alpha = 10.0**exponent
        flatness = 10.0 ** rng.uniform(-2.0, -0.05, 64)
        ca, cb, cq, ra, rb = focal_rows(rng, 64, d, alpha, flatness, (-4, 1), (-4, 1))
        rq = alpha * 10.0 ** rng.uniform(-4.0, 1.0, 64)
        arrays = (ca, cb, cq, ra, rb, rq)
        assert np.array_equal(batch_hyperbola(*arrays), all_rows_quartic(*arrays))

        # Rows the bracket sees: the query center strictly inside Ra.
        inside = (
            np.linalg.norm(cb - cq, axis=1) - np.linalg.norm(ca - cq, axis=1)
            > ra + rb
        )
        t, rho, half_gap, rab = (x[inside] for x in reduced(ca, cb, cq, ra, rb))
        dmin = _batch_distance_to_hyperbola(t, rho, half_gap, rab)
        lower, upper, guard = _dmin_bracket(t, rho, half_gap, rab)
        assert np.all(lower <= dmin + guard)
        assert np.all(dmin <= upper + guard)

    @given(st.integers(0, 10_000), st.integers(2, 5), st.integers(-6, 6))
    def test_nearly_flat_rows_just_outside_the_bracket(self, seed, d, exponent):
        """The quartic overestimates dmin on many nearly flat rows; the
        bracket must settle the rows clear of it exactly."""
        rng = np.random.default_rng(seed)
        alpha = 10.0**exponent
        flatness = 10.0 ** rng.uniform(-8.0, -2.0, 16)
        ca, cb, cq, ra, rb = focal_rows(
            rng, 16, d, alpha, flatness, (np.log10(5e-2), 1), (-4, 0)
        )
        lower, upper, _ = _dmin_bracket(*reduced(ca, cb, cq, ra, rb))
        rq = np.where(
            rng.random(16) < 0.5, upper * (1.0 + 1e-6), lower * (1.0 - 1e-6)
        )
        want = [
            exact_dominates(
                Hypersphere(ca[i], float(ra[i])),
                Hypersphere(cb[i], float(rb[i])),
                Hypersphere(cq[i], float(rq[i])),
            )
            for i in range(16)
        ]
        assert batch_hyperbola(ca, cb, cq, ra, rb, rq).tolist() == want
