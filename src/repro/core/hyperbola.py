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
:class:`~repro.geometry.transform.FocalFrame`), where the Lagrange
conditions for the constrained minimisation reduce to the quartic
Equation (14) of the paper.  The candidate stationary points are:

- the (up to four) points obtained from the real quartic roots through
  Equations (12) and (13);
- the two hyperbola vertices ``(+-(ra+rb)/2, 0)``, which satisfy the
  quadric equation identically and cover the degenerate Lagrange branch
  that appears when ``cq`` lies on the focal axis (``rho == 0``);
- the off-axis critical ring at ``lambda = -1/(4 rab^2)``, the other
  degenerate branch of the same case.

Squaring during the derivation makes ``F(x) = 0`` describe *both*
branches of the hyperbola, but when ``cq`` is inside ``Ra`` the near
branch is ``Ra``'s boundary (mirror symmetry in the focal bisector), so
the distance to the quadric equals the distance to the boundary.

When ``ra + rb == 0`` the locus degenerates to the perpendicular
bisector hyperplane of the segment ``ca cb`` and ``dmin = |t|``.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from repro import obs
from repro.core.base import DominanceCriterion, register_criterion
from repro.geometry import quartic
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

# A denominator in Equations (12)/(13) smaller than this (relative to the
# coefficient scale) marks a degenerate Lagrange branch; those branches are
# covered by the explicit vertex / ring candidates instead.
_DENOM_EPS = 1e-12

# When ra + rb is this small relative to alpha the hyperbola is flat to
# within float resolution (its vertex offset is rab/2 << any distance the
# decision compares), so the perpendicular-bisector formula is used.  This
# also shields the quartic coefficients (powers up to rab^4) from
# underflow when the radii are subnormal.
_BISECTOR_THRESHOLD = 1e-9


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


def _distance_to_hyperbola_2d(
    t: float,
    rho: float,
    alpha: float,
    rab: float,
    solver: "Callable[[Sequence[float]], np.ndarray] | None" = None,
) -> float:
    """Minimum distance from ``(t, rho)`` to the quadric ``F = 0``.

    Works entirely in the reduced half-plane: the quadric is
    ``x^2 / (rab/2)^2 - y^2 / (alpha^2 - (rab/2)^2) = 1`` and the query
    point is ``(t, rho)`` with ``rho >= 0``.  Requires ``0 < rab <
    2*alpha`` (the caller guarantees it via the overlap fast-path).

    The search runs in units of ``alpha``: ``t``, ``rho`` and ``rab``
    are divided by ``alpha``, the quartic is solved with ``alpha = 1``
    and the distance is scaled back.  The Equation (14) coefficients
    span a ratio that grows as ``alpha^8`` with the scene's length
    scale, so on a small scene the solver would otherwise trim the
    leading coefficient as zero and lose the nearest point's root.

    *solver* substitutes a different quartic root solver (used by the
    :mod:`repro.robust` escalation ladder to drive the same candidate
    enumeration through each precision stage); the default resolves
    :func:`repro.geometry.quartic.solve_quartic_real` at call time.

    Raises :class:`ArithmeticError` when a non-finite root or input
    corrupts the candidate search — a silent ``nan`` would be dropped by
    the float comparisons and *inflate* the minimum, turning numerical
    corruption into a wrong "dominates" answer.
    """
    if solver is None:
        solver = quartic.solve_quartic_real
    unit = alpha
    t, rho, rab, alpha = t / unit, rho / unit, rab / unit, 1.0
    rab_sq = rab * rab
    alpha_sq = alpha * alpha
    # Coefficients from Section 4.3.2 of the paper.
    a1 = (16.0 * alpha_sq - 4.0 * rab_sq) * t * t
    a2 = rab_sq * rab_sq - 4.0 * rab_sq * alpha_sq
    a3 = 4.0 * rab_sq * rho * rho
    a4 = 4.0 * rab_sq
    a5 = 4.0 * rab_sq - 16.0 * alpha_sq

    best_sq = math.inf
    candidates = 0

    def consider(x: float, y: float) -> None:
        nonlocal best_sq
        dx = t - x
        dy = rho - y
        candidate = dx * dx + dy * dy
        if candidate < best_sq:
            best_sq = candidate

    def quadric_y_sq(x: float) -> float:
        """``y^2`` such that ``(x, y)`` lies on ``F = 0`` (may be < 0)."""
        return (
            (16.0 * alpha_sq - 4.0 * rab_sq) * x * x / (4.0 * rab_sq)
            - alpha_sq
            + rab_sq / 4.0
        )

    # Vertex candidates: always on the quadric, and they complete the
    # degenerate (rho == 0) Lagrange branch.
    half_rab = rab / 2.0
    consider(half_rab, 0.0)
    consider(-half_rab, 0.0)
    candidates += 2

    # Off-axis critical ring at lambda* = -1/a4 (the other degenerate
    # branch): x is forced, y^2 follows from F(x, y) = 0.
    x_ring = t * rab_sq / (4.0 * alpha_sq)
    y_ring_sq = quadric_y_sq(x_ring)
    if y_ring_sq >= 0.0:
        consider(x_ring, math.sqrt(y_ring_sq))
        candidates += 1

    # Generic branch: quartic Equation (14) in the Lagrange multiplier.
    coeff_a = a2 * a4 * a4 * a5 * a5
    coeff_b = 2.0 * a2 * a4 * a4 * a5 + 2.0 * a2 * a4 * a5 * a5
    coeff_c = (
        a1 * a4 * a4
        + a2 * a4 * a4
        + 4.0 * a2 * a4 * a5
        + a2 * a5 * a5
        - a3 * a5 * a5
    )
    coeff_d = 2.0 * a1 * a4 + 2.0 * a2 * a4 + 2.0 * a2 * a5 - 2.0 * a3 * a5
    coeff_e = a1 + a2 - a3
    scale = max(abs(coeff_a), abs(coeff_b), abs(coeff_c), abs(coeff_d), abs(coeff_e))
    if scale > 0.0:
        # Bounded by the quartic's degree (at most four real roots), so
        # this stays O(1) work per decision despite being a Python loop.
        for lam in solver((coeff_a, coeff_b, coeff_c, coeff_d, coeff_e)):  # domlint: ignore[hot-path-loop]
            lam = float(lam)
            if not math.isfinite(lam):
                raise ArithmeticError("quartic solver produced a non-finite root")
            denom_x = 1.0 + a5 * lam
            if abs(denom_x) < _DENOM_EPS:
                continue  # degenerate branch, handled explicitly above
            x = t / denom_x
            # Re-derive y from the quadric itself rather than trusting
            # rho / (1 + a4*lam): near-degenerate roots (e.g. the double
            # root at lambda = -1/a4 when rho == 0) would otherwise
            # yield off-quadric points that underestimate the distance.
            # Every candidate considered is therefore genuinely on the
            # quadric, so the minimum can never fall below the true one.
            y_sq = quadric_y_sq(x)
            if y_sq < 0.0:
                continue  # |x| below the vertex: no such quadric point
            consider(x, math.sqrt(y_sq))
            candidates += 1

    if obs.ENABLED:
        obs.incr(names.HYPERBOLA_STATIONARY_CANDIDATES, candidates)
    if not math.isfinite(best_sq):
        # Only possible when t/rho/alpha/rab were themselves corrupted:
        # nan candidates lose every `<` comparison and leave best_sq at
        # +inf, which would certify any query radius.
        raise ArithmeticError("non-finite inputs to the boundary-distance search")
    return unit * math.sqrt(best_sq)


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
    if rab <= _BISECTOR_THRESHOLD * frame.alpha:
        return abs(t)
    return _distance_to_hyperbola_2d(t, rho, frame.alpha, rab)


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
        elif rab <= _BISECTOR_THRESHOLD * frame.alpha:
            if obs.ENABLED:
                obs.incr(names.HYPERBOLA_BISECTOR)
            dmin = abs(t)
        else:
            if obs.ENABLED:
                obs.incr(names.HYPERBOLA_QUARTIC)
            dmin = _distance_to_hyperbola_2d(t, rho, frame.alpha, rab)
        return dmin > sq.radius
