"""The adaptive-precision escalation ladder behind certified decisions.

A dominance verdict is *certified* when some precision stage measured
its decision margin and found it clear of that stage's error bound.
The ladder runs cheap stages first and escalates only when a stage
either **fails** (non-finite intermediate, solver exception — e.g.
under injected faults) or comes back **undecided** (margin inside the
stage's error bound):

``closed``
    Float64 kernel with the Ferrari closed-form quartic solver — the
    paper's O(1) root extraction, cheapest and least accurate.
``companion``
    Float64 kernel with the companion-matrix solver (the repository's
    default production solver).
``longdouble``
    Full recomputation in :class:`numpy.longdouble` (80-bit extended on
    x86), seeded with companion-matrix roots polished by Newton steps
    in extended precision.
``exact``
    The :mod:`repro.robust.exact` rational arbiter: error bound zero,
    cannot fail, cannot be reached by the fault-injection seams.

Stage error bounds are *engineering* tolerances — deliberately
conservative multiples of the relevant length scale, validated
empirically by the boundary-fuzz suite (a certified float verdict must
always agree with the exact arbiter).  Certification is therefore
sound-by-construction at the ``exact`` rung and sound-by-measurement at
the float rungs.

The float stages resolve their numerical kernels (distance, focal
reduction, quartic roots) through module attributes at call time, so
the fault-injection harness in :mod:`repro.robust.faults` can intercept
them; the exact stage shares none of those seams.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Sequence

import numpy as np

from repro import obs
from repro.obs import names
from repro.core import hyperbola as _hyperbola
from repro.exceptions import GeometryError, ReproError
from repro.geometry import distance as _distance
from repro.geometry import quartic as _quartic
from repro.geometry import transform as _transform
from repro.geometry.hypersphere import Hypersphere
from repro.resilience.budget import current as _current_budget
from repro.robust.decision import Decision, Verdict
from repro.robust.exact import exact_dominates

__all__ = ["decide", "DEFAULT_LADDER", "FLOAT_LADDER", "StageOutcome"]

#: Result of a successful stage: (dominates, margin, certified bound).
StageOutcome = "tuple[bool, float, float]"

# Relative error budgets per stage.  The closed-form Ferrari cascade
# loses more digits than the companion matrix (resolvent + two nested
# square roots), hence the wider bound.
_CLOSED_REL = 1e-9
_COMPANION_REL = 1e-10
# On platforms where longdouble is a float64 alias the extended stage
# can only certify what plain float64 can.
_LONGDOUBLE_REL = 1e-13 if float(np.finfo(np.longdouble).eps) < 1e-17 else 1e-11

# Exceptions that mark a stage as *failed* (as opposed to undecided).
_STAGE_FAILURES = (ArithmeticError, ValueError, GeometryError, np.linalg.LinAlgError)


class _Undecided(ReproError):
    """A stage measured a margin inside its own error bound."""

    def __init__(self, margin: float, bound: float) -> None:
        super().__init__(f"margin {margin:.3g} within bound {bound:.3g}")
        self.margin = float(margin)
        self.bound = float(bound)


def _require_finite(*values: float) -> None:
    for value in values:
        if not math.isfinite(value):
            raise ArithmeticError(f"non-finite intermediate value {value!r}")


def _classify(margin: float, bound: float) -> bool:
    """Map a measured margin to a certified boolean, or escalate."""
    _require_finite(margin)
    if margin > bound:
        return True
    if margin < -bound:
        return False
    raise _Undecided(margin, bound)


# ----------------------------------------------------------------------
# Float64 stages (closed-form and companion-matrix quartic solvers)
# ----------------------------------------------------------------------
def _float64_stage(
    sa: Hypersphere,
    sb: Hypersphere,
    sq: Hypersphere,
    solver: Callable[[Sequence[float]], np.ndarray],
    rel: float,
) -> "tuple[bool, float, float]":
    dist = _distance.dist  # resolved at call time: fault-injection seam
    rab = float(sa.radius) + float(sb.radius)
    gap = dist(sa.center, sb.center)
    _require_finite(gap)
    margin = gap - rab
    bound = rel * (gap + rab)
    if not _classify(margin, bound):
        return False, margin, bound  # Lemma 1: overlapping spheres

    to_ca = dist(sa.center, sq.center)
    to_cb = dist(sb.center, sq.center)
    _require_finite(to_ca, to_cb)
    margin = to_cb - to_ca - rab
    bound = rel * (to_ca + to_cb + rab)
    if not _classify(margin, bound):
        return False, margin, bound  # query center outside Ra

    rq = float(sq.radius)
    if rq == 0.0:
        return True, margin, bound

    frame = _transform.FocalFrame(sa.center, sb.center)
    t, rho = frame.reduce(sq.center)  # FocalFrame.reduce: injection seam
    alpha = float(frame.alpha)
    _require_finite(t, rho, alpha)
    extra = 0.0
    if sa.dimension == 1:
        dmin = abs(t + rab / 2.0)
    elif rab <= _hyperbola._BISECTOR_THRESHOLD * alpha:
        # The bisector shortcut approximates the hyperbola by its
        # asymptotic hyperplane; the vertex sits rab/2 away from it, so
        # widen the certification bound by the full approximation error.
        dmin = abs(t)
        extra = rab
    else:
        dmin = _hyperbola._distance_to_hyperbola_2d(t, rho, alpha, rab, solver=solver)
    _require_finite(dmin)
    margin = dmin - rq
    bound = rel * (alpha + abs(t) + rho + dmin + rq) + extra
    return _classify(margin, bound), margin, bound


def _stage_closed(
    sa: Hypersphere, sb: Hypersphere, sq: Hypersphere
) -> "tuple[bool, float, float]":
    return _float64_stage(
        sa, sb, sq, lambda c: _quartic.solve_quartic_real_closed(c), _CLOSED_REL
    )


def _stage_companion(
    sa: Hypersphere, sb: Hypersphere, sq: Hypersphere
) -> "tuple[bool, float, float]":
    return _float64_stage(
        sa, sb, sq, lambda c: _quartic.solve_quartic_real(c), _COMPANION_REL
    )


# ----------------------------------------------------------------------
# Extended-precision stage
# ----------------------------------------------------------------------
def _stage_longdouble(
    sa: Hypersphere, sb: Hypersphere, sq: Hypersphere
) -> "tuple[bool, float, float]":
    """Recompute the whole decision in ``np.longdouble``.

    Distances and the focal reduction are recomputed from scratch in
    extended precision (bypassing the float64 kernels and their seams);
    quartic roots are seeded from the float64 companion solver and
    polished with Newton iterations in extended precision, alongside
    the closed-form vertex and ring candidates.
    """
    ld = np.longdouble
    rel = _LONGDOUBLE_REL
    ca = np.asarray(sa.center, dtype=ld)
    cb = np.asarray(sb.center, dtype=ld)
    cq = np.asarray(sq.center, dtype=ld)
    rab = ld(float(sa.radius)) + ld(float(sb.radius))
    rq = ld(float(sq.radius))

    gap = np.sqrt(np.sum((cb - ca) ** 2))
    margin = float(gap - rab)
    bound = rel * float(gap + rab)
    if not _classify(margin, bound):
        return False, margin, bound

    to_ca = np.sqrt(np.sum((cq - ca) ** 2))
    to_cb = np.sqrt(np.sum((cq - cb) ** 2))
    margin = float(to_cb - to_ca - rab)
    bound = rel * float(to_ca + to_cb + rab)
    if not _classify(margin, bound):
        return False, margin, bound
    if rq == 0.0:
        return True, margin, bound

    # Focal reduction in extended precision.
    alpha = gap / ld(2.0)
    axis = (cb - ca) / gap
    offset = cq - (ca + cb) / ld(2.0)
    t = np.sum(offset * axis)
    rho_sq = np.sum(offset * offset) - t * t
    rho = np.sqrt(rho_sq) if rho_sq > 0.0 else ld(0.0)

    extra = 0.0
    if sa.dimension == 1:
        dmin = abs(t + rab / ld(2.0))
    elif float(rab) <= _hyperbola._BISECTOR_THRESHOLD * float(alpha):
        dmin = abs(t)
        extra = float(rab)
    else:
        dmin = _longdouble_dmin(t, rho, alpha, rab)
    _require_finite(float(dmin))
    margin = float(dmin - rq)
    bound = rel * float(alpha + abs(t) + rho + dmin + rq) + extra
    return _classify(margin, bound), margin, bound


def _longdouble_dmin(
    t: "np.floating[Any]",
    rho: "np.floating[Any]",
    alpha: "np.floating[Any]",
    rab: "np.floating[Any]",
) -> "np.floating[Any]":
    """Extended-precision variant of the kernel's candidate search.

    Runs in units of ``alpha``, as the float64 kernel does, so the
    float64 seed roots do not lose the leading coefficient on small or
    large scenes.
    """
    ld = np.longdouble
    unit = alpha
    t, rho, rab, alpha = t / unit, rho / unit, rab / unit, ld(1.0)
    rab_sq = rab * rab
    alpha_sq = alpha * alpha
    a1 = (ld(16.0) * alpha_sq - ld(4.0) * rab_sq) * t * t
    a2 = rab_sq * rab_sq - ld(4.0) * rab_sq * alpha_sq
    a3 = ld(4.0) * rab_sq * rho * rho
    a4 = ld(4.0) * rab_sq
    a5 = ld(4.0) * rab_sq - ld(16.0) * alpha_sq

    coeffs = (
        a2 * a4 * a4 * a5 * a5,
        ld(2.0) * a2 * a4 * a4 * a5 + ld(2.0) * a2 * a4 * a5 * a5,
        a1 * a4 * a4 + a2 * a4 * a4 + ld(4.0) * a2 * a4 * a5 + a2 * a5 * a5 - a3 * a5 * a5,
        ld(2.0) * a1 * a4 + ld(2.0) * a2 * a4 + ld(2.0) * a2 * a5 - ld(2.0) * a3 * a5,
        a1 + a2 - a3,
    )

    def quadric_y_sq(x: "np.floating[Any]") -> "np.floating[Any]":
        return (
            (ld(16.0) * alpha_sq - ld(4.0) * rab_sq) * x * x / (ld(4.0) * rab_sq)
            - alpha_sq
            + rab_sq / ld(4.0)
        )

    best_sq = ld(np.inf)

    def consider(x: "np.floating[Any]", y: "np.floating[Any]") -> None:
        nonlocal best_sq
        dx = t - x
        dy = rho - y
        candidate = dx * dx + dy * dy
        if candidate < best_sq:
            best_sq = candidate

    half_rab = rab / ld(2.0)
    consider(half_rab, ld(0.0))
    consider(-half_rab, ld(0.0))
    x_ring = t * rab_sq / (ld(4.0) * alpha_sq)
    y_ring_sq = quadric_y_sq(x_ring)
    if y_ring_sq >= 0.0:
        consider(x_ring, np.sqrt(y_ring_sq))

    # Seed roots from the float64 companion solver (a fault-injection
    # seam: corrupted roots either fail the finiteness guard here or
    # polish back onto the true quartic), then Newton-polish them in
    # extended precision.
    seeds = _quartic.solve_quartic_real(tuple(float(c) for c in coeffs))
    derivative = tuple(ld(4 - i) * c for i, c in enumerate(coeffs[:4]))
    for seed in seeds:
        lam = ld(float(seed))
        if not np.isfinite(lam):
            raise ArithmeticError("quartic solver produced a non-finite root")
        for _ in range(4):
            value = ((((coeffs[0] * lam + coeffs[1]) * lam) + coeffs[2]) * lam + coeffs[3]) * lam + coeffs[4]
            slope = (((derivative[0] * lam + derivative[1]) * lam) + derivative[2]) * lam + derivative[3]
            if slope == 0.0:
                break
            step = value / slope
            lam = lam - step
            if not np.isfinite(lam):
                raise ArithmeticError("Newton polishing diverged")
        denom_x = ld(1.0) + a5 * lam
        if abs(float(denom_x)) < _hyperbola._DENOM_EPS:
            continue
        x = t / denom_x
        y_sq = quadric_y_sq(x)
        if y_sq < 0.0:
            continue
        consider(x, np.sqrt(y_sq))

    if not np.isfinite(best_sq):
        raise ArithmeticError("non-finite inputs to the boundary-distance search")
    return unit * np.sqrt(best_sq)


# ----------------------------------------------------------------------
# Exact stage and the driver
# ----------------------------------------------------------------------
def _stage_exact(
    sa: Hypersphere, sb: Hypersphere, sq: Hypersphere
) -> "tuple[bool, float, float]":
    # No numeric margin to report: the sign is settled by integer
    # arithmetic with error bound zero.
    return exact_dominates(sa, sb, sq), math.nan, 0.0


#: The full ladder, cheapest stage first.
DEFAULT_LADDER: "tuple[tuple[str, Callable], ...]" = (
    ("closed", _stage_closed),
    ("companion", _stage_companion),
    ("longdouble", _stage_longdouble),
    ("exact", _stage_exact),
)

#: The ladder truncated before the exact arbiter — every rung fallible.
FLOAT_LADDER = DEFAULT_LADDER[:-1]


def decide(
    sa: Hypersphere,
    sb: Hypersphere,
    sq: Hypersphere,
    ladder: "Sequence[tuple[str, Callable]]" = DEFAULT_LADDER,
) -> Decision:
    """Run *ladder* until a stage certifies a verdict.

    Returns an ``UNCERTAIN`` :class:`Decision` (carrying the last
    measured margin/bound) when every stage fails or comes back
    undecided — only possible with a truncated ladder, under injected
    faults, or when an exhausted execution budget denies escalation,
    since the exact arbiter always terminates with a verdict.

    Escalation is a budget seam: when a
    :class:`repro.resilience.Budget` is active, every stage beyond the
    first charges :meth:`~repro.resilience.Budget.charge_escalation`; a
    denied charge abandons the climb and the decision comes back
    ``UNCERTAIN``, collapsing to the caller's conservative fallback —
    degraded, never wrong.
    """
    last_margin = math.nan
    last_bound = math.inf
    last_stage = ""
    budget = _current_budget()
    for stage_index, (name, stage) in enumerate(ladder):
        if (
            stage_index > 0
            and budget is not None
            and budget.charge_escalation() is not None
        ):
            break
        if obs.ENABLED:
            obs.incr(names.verified_stage(name))
        try:
            dominates, margin, bound = stage(sa, sb, sq)
        except _Undecided as undecided:
            last_margin, last_bound, last_stage = undecided.margin, undecided.bound, name
            if obs.ENABLED:
                obs.incr(names.verified_stage_undecided(name))
            continue
        except _STAGE_FAILURES:
            last_stage = name
            if obs.ENABLED:
                obs.incr(names.verified_stage_failed(name))
            continue
        verdict = Verdict.TRUE if dominates else Verdict.FALSE
        return Decision(verdict, margin=margin, bound=bound, stage=name)
    if obs.ENABLED:
        obs.incr(names.VERIFIED_UNCERTAIN)
    return Decision(
        Verdict.UNCERTAIN, margin=last_margin, bound=last_bound, stage=last_stage
    )
