"""The adaptive-precision escalation ladder behind certified decisions.

A dominance verdict is *certified* when some precision stage measured
its decision margin and found it clear of that stage's error bound.
The ladder runs cheap stages first and escalates only when a stage
either **fails** (non-finite intermediate, solver exception — e.g.
under injected faults) or comes back **undecided** (margin inside the
stage's error bound):

``float64``
    Float64 kernel with the ``dmin`` solver of :mod:`repro.core.dmin`
    (the one the plain kernels use), certified from the solver's own
    error bound plus a relative allowance for the focal reduction.
``longdouble``
    Full recomputation in :class:`numpy.longdouble` (80-bit extended on
    x86), the same solver run on extended-precision scalars.
``exact``
    The :mod:`repro.robust.exact` rational arbiter: error bound zero,
    cannot fail, cannot be reached by the fault-injection seams.

The ladder used to open with two float64 rungs that solved the paper's
Equation (14) quartic (Ferrari's closed form, then the companion
matrix).  On nearly flat hyperbolas both certified wrong verdicts, with
margins far outside their bounds, because the quartic's ``dmin`` itself
was wrong; the solver's float64 rung is both cheaper and right there,
so they are gone.

A float stage's error bound is the solver's own bound on ``dmin`` plus
an *engineering* tolerance for the distances and the focal reduction:
a deliberately conservative multiple of the relevant length scale,
validated empirically by the boundary-fuzz and nearly-flat suites (a
certified float verdict must always agree with the exact arbiter).
Certification is therefore sound-by-construction at the ``exact`` rung
and sound-by-measurement at the float rungs.

The float stages resolve their numerical kernels (distance, focal
reduction, the ``dmin`` solver) through module attributes at call time,
so the fault-injection harness in :mod:`repro.robust.faults` can
intercept them; the exact stage shares none of those seams.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from repro import obs
from repro.obs import names
from repro.core import dmin as _dmin
from repro.exceptions import GeometryError, ReproError
from repro.geometry import distance as _distance
from repro.geometry import transform as _transform
from repro.geometry.hypersphere import Hypersphere
from repro.resilience.budget import current as _current_budget
from repro.robust.decision import Decision, Verdict
from repro.robust.exact import exact_dominates

__all__ = ["decide", "DEFAULT_LADDER", "FLOAT_LADDER", "StageOutcome"]

#: Result of a successful stage: (dominates, margin, certified bound).
StageOutcome = "tuple[bool, float, float]"

# Relative error budgets per stage, on top of the solver's own bound:
# they cover the rounding of the distances and the focal reduction.
_FLOAT64_REL = 1e-10
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
# Float64 stage
# ----------------------------------------------------------------------
def _stage_float64(
    sa: Hypersphere, sb: Hypersphere, sq: Hypersphere
) -> "tuple[bool, float, float]":
    rel = _FLOAT64_REL
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
    elif rab == 0.0:
        dmin = abs(t)  # point objects: the bisector hyperplane, exactly
    else:
        dmin, extra = _dmin.solve(t, rho, alpha, rab)  # the "dmin" seam
    _require_finite(dmin, extra)
    margin = dmin - rq
    bound = rel * (alpha + abs(t) + rho + dmin + rq) + extra
    return _classify(margin, bound), margin, bound


# ----------------------------------------------------------------------
# Extended-precision stage
# ----------------------------------------------------------------------
def _stage_longdouble(
    sa: Hypersphere, sb: Hypersphere, sq: Hypersphere
) -> "tuple[bool, float, float]":
    """Recompute the whole decision in ``np.longdouble``.

    Distances and the focal reduction are recomputed from scratch in
    extended precision (bypassing the float64 kernels and their seams);
    ``dmin`` comes from the float64 rung's solver run on
    extended-precision scalars (the ``"dmin"`` seam).
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
    elif rab == 0.0:
        dmin = abs(t)
    else:
        dmin, error = _dmin.solve(t, rho, alpha, rab)  # the "dmin" seam
        extra = float(error)
    _require_finite(float(dmin), extra)
    margin = float(dmin - rq)
    bound = rel * float(alpha + abs(t) + rho + dmin + rq) + extra
    return _classify(margin, bound), margin, bound


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
    ("float64", _stage_float64),
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
