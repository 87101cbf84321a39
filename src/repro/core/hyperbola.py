"""Algorithm Hyperbola — the paper's optimal dominance decision (Section 4).

The decision rests on the *minimum distance difference* (MDD) condition
(Section 3.2): ``Dom(Sa, Sb, Sq)`` holds iff

    min_{q in Sq} ( Dist(cb, q) - Dist(ca, q) )  >  ra + rb.

Geometrically, the locus ``Dist(cb, x) - Dist(ca, x) = ra + rb`` is one
branch of a hyperbola (hyperboloid sheet in d dimensions) with foci
``ca`` and ``cb``; the region ``Ra`` on ``ca``'s side of that branch is
exactly where the margin exceeds ``ra + rb``, and ``Dom`` holds iff the
whole query sphere lies in ``Ra`` (Lemma 7).  The algorithm therefore:

1. returns false immediately if ``Sa`` and ``Sb`` overlap (Lemma 1);
2. returns false if the query *center* is not in ``Ra``;
3. otherwise computes ``dmin``, the distance from ``cq`` to the
   boundary, and answers ``dmin > rq``.

``dmin`` is found in O(d): after an isometric change of frame the whole
problem lives in the 2-D half-plane spanned by the focal axis and the
query center (``(t, rho)`` coordinates, see
:class:`~repro.geometry.transform.FocalFrame`).  The paper solves the
Lagrange conditions there through the quartic Equation (14); the
served kernel instead finds the nearest branch point as the root of one
monotone function (:mod:`repro.core.dmin`), which stays exact on the
nearly flat hyperbolas where the quartic's roots lose their digits.
The paper's quartic search lives on in
:mod:`repro.experiments.quartic`, for the figures that time it.

When ``ra + rb == 0`` the locus degenerates to the perpendicular
bisector hyperplane of the segment ``ca cb`` and ``dmin = |t|``.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro import obs
from repro.core import dmin as _dmin
from repro.core.base import DominanceCriterion, register_criterion
from repro.geometry.distance import dist
from repro.geometry.hypersphere import Hypersphere
from repro.geometry.transform import FocalFrame
from repro.obs import names

__all__ = [
    "HyperbolaCriterion",
    "min_distance_to_boundary",
    "boundary_margin",
    "dominates_with_margin",
]


def boundary_margin(
    sa: Hypersphere, sb: Hypersphere, point: Sequence[float] | np.ndarray
) -> float:
    """``Dist(cb, point) - Dist(ca, point) - (ra + rb)``.

    Positive values place *point* strictly inside the region ``Ra``.
    """
    return (
        dist(sb.center, point)
        - dist(sa.center, point)
        - (sa.radius + sb.radius)
    )


def _solved_dmin(t: float, rho: float, alpha: float, rab: float) -> float:
    """``dmin`` for a curved row ``0 < rab < 2 alpha``, from the solver.

    Resolves :func:`repro.core.dmin.solve` at call time (the ``"dmin"``
    fault seam) and raises :class:`ArithmeticError` on a non-finite
    answer: a silent ``nan`` would lose the ``dmin > rq`` comparison
    and an ``inf`` would win it, turning numerical corruption into a
    wrong verdict.
    """
    distance = _dmin.solve(t, rho, alpha, rab)[0]
    if not math.isfinite(distance):
        raise ArithmeticError("the dmin solver returned a non-finite distance")
    return distance


def min_distance_to_boundary(
    sa: Hypersphere, sb: Hypersphere, point: "Sequence[float] | np.ndarray"
) -> float:
    """Distance from *point* to the boundary of ``Ra`` (the hyperbola).

    Exposed for diagnostics, examples and tests.  Requires ``Sa`` and
    ``Sb`` not to overlap (otherwise the boundary does not exist).
    """
    from repro.exceptions import CriterionError

    sa.require_same_dimension(sb)
    if sa.overlaps(sb):
        raise CriterionError("the boundary only exists for non-overlapping spheres")
    frame = FocalFrame(sa.center, sb.center)
    t, rho = frame.reduce(point)
    rab = sa.radius + sb.radius
    if sa.dimension == 1:
        return abs(t + rab / 2.0)
    if rab == 0.0:
        return abs(t)
    return _solved_dmin(t, rho, frame.alpha, rab)


def dominates_with_margin(
    sa: Hypersphere,
    sb: Hypersphere,
    sq: Hypersphere,
    epsilon: float,
) -> bool:
    """Dominance with a safety margin: ``min_q margin > ra + rb + epsilon``.

    Useful when the inputs themselves carry measurement error: a
    positive *epsilon* demands the strict inequality of Definition 1 to
    hold with room to spare, so small perturbations of the spheres
    cannot flip the answer to a false positive.  Exact via the identity
    that inflating ``Sa``'s radius by *epsilon* shifts the MDD threshold
    by exactly *epsilon*.
    """
    from repro.exceptions import CriterionError

    if epsilon < 0.0:
        raise CriterionError(f"epsilon must be non-negative, got {epsilon}")
    inflated = sa.with_radius(sa.radius + epsilon)
    return HyperbolaCriterion().dominates(inflated, sb, sq)


@register_criterion
class HyperbolaCriterion(DominanceCriterion):
    """The paper's optimal (correct + sound + O(d)) decision procedure."""

    name = "hyperbola"
    is_correct = True
    is_sound = True

    def _decide(self, sa: Hypersphere, sb: Hypersphere, sq: Hypersphere) -> bool:
        if obs.ENABLED:
            obs.incr(names.HYPERBOLA_CALLS)
        # Lemma 1: overlapping spheres never dominate.
        if sa.overlaps(sb):
            if obs.ENABLED:
                obs.incr(names.HYPERBOLA_FAST_PATH_OVERLAP)
            return False
        # Step 2 side test: the query center itself must be inside Ra.
        # The plain float64 kernel is deliberately tolerance-free (the
        # certified path lives in repro.robust.ladder); Lemma 7 makes
        # the sign of the raw margin the exact decision in real
        # arithmetic.
        if boundary_margin(sa, sb, sq.center) <= 0.0:  # domlint: ignore[margin-compare]
            if obs.ENABLED:
                obs.incr(names.HYPERBOLA_FAST_PATH_CENTER_OUTSIDE)
            return False
        if sq.radius == 0.0:
            # A point query strictly inside the open region Ra is dominated.
            if obs.ENABLED:
                obs.incr(names.HYPERBOLA_FAST_PATH_POINT_QUERY)
            return True
        # Step 1: distance from cq to the boundary of Ra.
        frame = FocalFrame(sa.center, sb.center)
        t, rho = frame.reduce(sq.center)
        rab = sa.radius + sb.radius
        if sa.dimension == 1:
            # No perpendicular dimension exists: the boundary of Ra is
            # the single point at the hyperbola vertex t = -rab/2.
            if obs.ENABLED:
                obs.incr(names.HYPERBOLA_VERTEX_1D)
            dmin = abs(t + rab / 2.0)
        elif rab == 0.0:
            # Point objects: the boundary is the bisector hyperplane.
            # Any rab > 0, however small, bends it and goes to the
            # solver: flattening it would overstate dmin by up to rab/2.
            if obs.ENABLED:
                obs.incr(names.HYPERBOLA_BISECTOR)
            dmin = abs(t)
        else:
            if obs.ENABLED:
                obs.incr(names.HYPERBOLA_QUARTIC)
            dmin = self._curved_dmin(t, rho, frame.alpha, rab)
        return dmin > sq.radius

    def _curved_dmin(self, t: float, rho: float, alpha: float, rab: float) -> float:
        """Step 1 on a curved row; the paper's figures swap in Eq. (14)."""
        return _solved_dmin(t, rho, alpha, rab)
