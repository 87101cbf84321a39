"""The paper's Equation (14) ``dmin`` search, kept to time its figures.

Section 4.3.2 of the paper reduces the boundary distance to the real
roots of a quartic in the Lagrange multiplier.  The served kernels no
longer use it: on nearly flat hyperbolas its roots lose their digits
and ``dmin`` comes out too large, which reads as a false "dominates"
(:mod:`repro.core.dmin` has the solver that replaced it).  Figures 8–16
time Algorithm 1 as the paper ran it, so they take the Hyperbola
criterion from :func:`paper_criterion`, which decides through this
search.

The candidate stationary points are:

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
"""

from __future__ import annotations

import math

from repro import obs
from repro.core.base import DominanceCriterion, get_criterion
from repro.core.hyperbola import HyperbolaCriterion
from repro.geometry import quartic
from repro.obs import names

__all__ = ["QuarticHyperbola", "paper_criterion", "quartic_distance_to_hyperbola"]

# A denominator in Equations (12)/(13) smaller than this (relative to the
# coefficient scale) marks a degenerate Lagrange branch; those branches are
# covered by the explicit vertex / ring candidates instead.
_DENOM_EPS = 1e-12

# Below this rab/alpha the quartic's coefficients (powers up to rab^4)
# underflow, so the search returns the bisector distance |t| instead, as
# the served kernels did before they took dmin from repro.core.dmin.
_BISECTOR_THRESHOLD = 1e-9


def quartic_distance_to_hyperbola(
    t: float, rho: float, alpha: float, rab: float
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

    The roots come from :func:`repro.geometry.quartic.solve_quartic_real`,
    resolved at call time (the ``"quartic"`` fault seam).

    Raises :class:`ArithmeticError` when a non-finite root or input
    corrupts the candidate search — a silent ``nan`` would be dropped by
    the float comparisons and *inflate* the minimum, turning numerical
    corruption into a wrong "dominates" answer.
    """
    if rab <= _BISECTOR_THRESHOLD * alpha:
        return abs(t)
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
        coefficients = (coeff_a, coeff_b, coeff_c, coeff_d, coeff_e)
        roots = quartic.solve_quartic_real(coefficients)
        for lam in roots:  # domlint: ignore[hot-path-loop]
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


class QuarticHyperbola(HyperbolaCriterion):
    """Algorithm 1 with ``dmin`` from the Equation (14) quartic.

    Not registered: the ``"hyperbola"`` name serves the solver-based
    kernel.  Its answers differ only where the quartic is wrong.
    """

    def _curved_dmin(self, t: float, rho: float, alpha: float, rab: float) -> float:
        return quartic_distance_to_hyperbola(t, rho, alpha, rab)


def paper_criterion(name: str) -> DominanceCriterion:
    """The criterion a figure times under *name*: Hyperbola as published."""
    return QuarticHyperbola() if name == "hyperbola" else get_criterion(name)
