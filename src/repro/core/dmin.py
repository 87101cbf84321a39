"""``dmin``: the distance from the query center to the boundary of ``Ra``.

Algorithm 1 decides dominance by ``dmin > rq``, once the query center is
known to lie inside ``Ra``.  The paper finds ``dmin`` from the real
roots of the Equation (14) quartic; on nearly flat hyperbolas (``rab``
much smaller than the focal gap) those roots lose their digits and the
quartic's ``dmin`` lands above the true one, which reads as a false
"dominates".  This module finds it instead as the root of one monotone
function, the method Eberly gives for the distance from a point to an
ellipse (Geometric Tools, *Distance from a Point to an Ellipse, an
Ellipsoid, or a Hyperellipsoid*), carried over to the hyperbola.

Everything runs in units of ``alpha`` (half the focal gap).  With
``a = rab / (2 alpha)`` and ``b = sqrt(1 - a^2)`` the near branch is
``x = -a cosh(theta)``, ``y = b sinh(theta)``, and the squared distance
from the reduced query ``(t, rho)`` is::

    D(theta) = (|t| - a cosh theta)^2 + (rho - b sinh theta)^2
    D'(theta) = sinh(2 theta) * K(theta)
    K(theta) = 1 - p sech(theta) - q csch(theta),  p = a|t|, q = b rho

``K`` strictly increases on ``theta > 0``, so the nearest point is its
unique root ``theta*``.  The solver works in ``s = sinh(theta)``, on
``g(s) = s K = s - p s / sqrt(1 + s^2) - q``, which has the same root
and is convex and increasing on the closed-form bracket::

    max(q, sqrt(p^2 - 1), cusp) <= sinh(theta*) <= p + q

``cusp`` is ``(2q/p)^(1/3)`` for ``p > 1`` and ``min(q / (2(1 - p)),
(q/p)^(1/3))`` otherwise; it follows from ``1/sqrt(1 + s^2) >= 1 -
s^2/2`` and keeps queries near the vertex's center of curvature
(``p ~ 1``, ``q ~ 0``), where ``g`` is nearly cubic, from starting far
below the root.  When ``rho = 0`` the vertex ``theta = 0`` competes
with the root (and is the nearest point when ``p <= 1``).

The solver starts at the query's radial projection onto the branch,
clipped into the bracket, and takes :data:`PASSES` safeguarded Newton
steps: a step that leaves the bracket is replaced by bisection, and one
that lands on a bracket end is accepted.  The pass count is fixed, so a
decision stays O(d).

:func:`solve` also returns a bound on its solve error.  The final
bracket ``[lo, hi]`` holds ``s`` and ``s* = sinh(theta*)``; as ``g`` is
convex and increasing there, ``|s - s*| <= |g(s)| / g'(lo)``, and as
``|K|`` only shrinks toward the root, ``D(s) - D(theta*)`` is at most
that distance times ``sinh(2 theta) |K(s)|`` at its far end.  ``g`` is
taken with its own evaluation error, and the rounding of ``D`` itself
is added.  Both float rungs of the certified ladder
(:mod:`repro.robust.ladder`) certify from that bound; :func:`solve`
runs on :class:`numpy.longdouble` scalars for the extended rung.

:func:`solve` (one row) and :func:`solve_batch` (row-wise over arrays,
``dmin`` only) are the ``"dmin"`` fault seam of
:mod:`repro.robust.faults`: callers resolve them as module attributes at
call time and reject a non-finite result.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["PASSES", "solve", "solve_batch"]

#: Newton passes per solve.  On the flat-scan band rows decisions stop
#: changing from four passes on; eight leave the root at rounding level.
PASSES = 8

#: Unit roundoffs charged per evaluation of ``K`` and of ``D``.
_ROUNDING = 4.0


def solve(t: float, rho: float, alpha: float, rab: float) -> "tuple[float, float]":
    """``(dmin, error)`` for one reduced query ``(t, rho)``.

    Requires ``0 < rab < 2 * alpha`` and ``rho >= 0``.  Computes in the
    inputs' precision: Python floats, or :class:`numpy.longdouble`
    scalars.  Raises :class:`ArithmeticError` on a non-finite input,
    which would otherwise lose every comparison and inflate ``dmin``.
    """
    if not (
        math.isfinite(t)
        and math.isfinite(rho)
        and math.isfinite(alpha)
        and math.isfinite(rab)
    ):
        raise ArithmeticError("non-finite inputs to the boundary-distance search")
    if isinstance(t, np.longdouble):
        sqrt, eps = np.sqrt, float(np.finfo(np.longdouble).eps)
    else:
        sqrt, eps = math.sqrt, 2.0**-52
    a = rab / (2.0 * alpha)
    b = sqrt((1.0 - a) * (1.0 + a))
    u = abs(t) / alpha
    v = rho / alpha
    p = a * u
    q = b * v
    if p > 1.0:
        cusp = (2.0 * q / p) ** (1.0 / 3.0)
    else:
        cusp = q / (2.0 * (1.0 - p)) if p < 1.0 else math.inf
        if p > 0.0:
            cusp = min(cusp, (q / p) ** (1.0 / 3.0))
    lo = max(q, sqrt(max((p - 1.0) * (p + 1.0), 0.0)), cusp)
    hi = max(p + q, lo)
    s = lo
    if q > 0.0:
        # Radial projection: the branch point on the ray through (t, rho).
        ratio = a * v / (b * u) if b * u > 0.0 else 1.0
        if ratio < 1.0:
            s = min(max(ratio / sqrt((1.0 - ratio) * (1.0 + ratio)), lo), hi)
        else:
            s = hi
        for _ in range(PASSES):  # domlint: ignore[hot-path-loop]
            w = sqrt(1.0 + s * s)
            g = s - p * s / w - q
            if g < 0.0:
                lo = s
            elif g > 0.0:
                hi = s
            else:
                break
            step = s - g / (1.0 - p / (w * w * w))
            s = step if lo <= step <= hi else 0.5 * (lo + hi)
    c = sqrt(1.0 + s * s)
    dx = u - a * c
    dy = v - b * s
    best = dx * dx + dy * dy
    if q == 0.0 and (u - a) * (u - a) < best:
        s, c, best = 0.0, 1.0, (u - a) * (u - a)
    eps *= _ROUNDING
    dmin = sqrt(best)
    solved = 0.0
    if s > 0.0:
        residual = abs(s - p * s / c - q) + eps * (s + p * s / c + q)
        # g is convex and increasing on [lo, hi], so its slope at lo
        # bounds how far s can sit from the root.
        lo_w = sqrt(1.0 + lo * lo)
        slope = 1.0 - p / (lo_w * lo_w * lo_w)
        ds = min(residual / slope if slope > 0.0 else math.inf, hi - lo)
        far = min(s + ds, hi)
        gap = ds * 2.0 * far * sqrt(1.0 + far * far) * residual / s
        # D(s) >= D(theta*) >= D(s) - gap: dmin sits at most this far
        # above the true one.
        floor = dmin + sqrt(max(best - gap, 0.0))
        solved = gap / floor if floor > 0.0 else 0.0
    rounding = eps * (u + v + a * c + b * s)
    return alpha * dmin, alpha * (solved + rounding)


def solve_batch(
    t: np.ndarray, rho: np.ndarray, alpha: np.ndarray, rab: np.ndarray
) -> np.ndarray:
    """Row-wise ``dmin`` over float64 arrays, as :func:`solve` finds it."""
    if not (
        np.all(np.isfinite(t))
        and np.all(np.isfinite(rho))
        and np.all(np.isfinite(alpha))
        and np.all(np.isfinite(rab))
    ):
        raise ArithmeticError("non-finite inputs to the boundary-distance search")
    a = rab / (2.0 * alpha)
    b = np.sqrt((1.0 - a) * (1.0 + a))
    u = np.abs(t) / alpha
    v = rho / alpha
    p = a * u
    q = b * v
    # fmax drops the nan of 0/0, which only the origin (never inside Ra)
    # produces; an on-axis row (q == 0) starts on its root.
    with np.errstate(divide="ignore", invalid="ignore"):
        cusp = np.where(
            p > 1.0,
            np.cbrt(2.0 * q / p),
            np.fmin(np.where(p < 1.0, q / (2.0 * (1.0 - p)), np.inf), np.cbrt(q / p)),
        )
        lo = np.fmax(np.fmax(q, np.sqrt(np.maximum((p - 1.0) * (p + 1.0), 0.0))), cusp)
        hi = np.maximum(p + q, lo)
        ratio = a * v / (b * u)
        start = np.where(
            ratio < 1.0, ratio / np.sqrt((1.0 - ratio) * (1.0 + ratio)), np.inf
        )
        s = np.minimum(np.maximum(start, lo), hi)
        for _ in range(PASSES):
            w = np.sqrt(1.0 + s * s)
            g = s - p * s / w - q
            np.copyto(lo, s, where=g < 0.0)
            np.copyto(hi, s, where=g > 0.0)
            step = s - g / (1.0 - p / (w * w * w))
            s = np.where((step >= lo) & (step <= hi), step, 0.5 * (lo + hi))
    best = (u - a * np.sqrt(1.0 + s * s)) ** 2 + (v - b * s) ** 2
    best = np.where(q > 0.0, best, np.minimum(best, (u - a) ** 2))
    return alpha * np.sqrt(best)
