"""Vectorised (NumPy) evaluation of all five dominance criteria.

The paper's dominance experiments run workloads of 10,000 random
``(Sa, Sb, Sq)`` triples; evaluating those one Python call at a time
would measure interpreter overhead rather than the criteria.  This
module evaluates a whole workload at once with array kernels that
mirror the scalar implementations (the test suite asserts agreement
element-by-element).

The Hyperbola kernel filters before it refines: a closed-form bracket
``lower <= dmin <= upper`` settles every curved row whose ``rq`` falls
clear of it, and only the rows in between go to the ``dmin`` solver of
:mod:`repro.core.dmin`, the one the scalar kernel uses, so the two
kernels decide every row alike.

All functions share the same signature: six arrays describing ``n``
triples —

- ``ca, cb, cq`` : ``(n, d)`` center arrays,
- ``ra, rb, rq`` : ``(n,)`` radius arrays,

and return a boolean array of shape ``(n,)``.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro import obs
from repro.core import dmin as _dmin
from repro.obs import names

#: Anything convertible to an ``(n, d)`` float array of centers.
Centers = Sequence[Sequence[float]] | np.ndarray
#: Anything convertible to an ``(n,)`` float array of radii.
Radii = Sequence[float] | np.ndarray

__all__ = [
    "batch_minmax",
    "batch_mbr",
    "batch_gp",
    "batch_trigonometric",
    "batch_hyperbola",
    "batch_evaluate",
    "available_kernels",
]


def _validate(
    ca: Centers,
    cb: Centers,
    cq: Centers,
    ra: Radii,
    rb: Radii,
    rq: Radii,
) -> tuple[np.ndarray, ...]:
    arrays = [np.asarray(a, dtype=np.float64) for a in (ca, cb, cq)]
    radii = [np.asarray(r, dtype=np.float64) for r in (ra, rb, rq)]
    n, d = arrays[0].shape
    for a in arrays:
        if a.shape != (n, d):
            raise ValueError("center arrays must share the same (n, d) shape")
    for r in radii:
        if r.shape != (n,):
            raise ValueError("radius arrays must have shape (n,)")
    return (*arrays, *radii)


def _row_norms(x: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->i", x, x))


def batch_minmax(
    ca: Centers,
    cb: Centers,
    cq: Centers,
    ra: Radii,
    rb: Radii,
    rq: Radii,
) -> np.ndarray:
    """Vectorised MinMax criterion."""
    ca, cb, cq, ra, rb, rq = _validate(ca, cb, cq, ra, rb, rq)
    max_dist_aq = _row_norms(ca - cq) + ra + rq
    min_dist_bq = np.maximum(_row_norms(cb - cq) - rb - rq, 0.0)
    return max_dist_aq < min_dist_bq


def batch_mbr(
    ca: Centers,
    cb: Centers,
    cq: Centers,
    ra: Radii,
    rb: Radii,
    rq: Radii,
) -> np.ndarray:
    """Vectorised MBR criterion (per-dimension candidate maximisation)."""
    ca, cb, cq, ra, rb, rq = _validate(ca, cb, cq, ra, rb, rq)
    a_lo, a_hi = ca - ra[:, None], ca + ra[:, None]
    b_lo, b_hi = cb - rb[:, None], cb + rb[:, None]
    q_lo, q_hi = cq - rq[:, None], cq + rq[:, None]

    def margin(q: np.ndarray) -> np.ndarray:
        far_a = np.maximum(np.abs(q - a_lo), np.abs(a_hi - q))
        near_b = np.maximum(np.maximum(b_lo - q, q - b_hi), 0.0)
        return far_a * far_a - near_b * near_b

    best = np.maximum(margin(q_lo), margin(q_hi))
    # Interior breakpoints, clipped into the query interval (clipping to
    # an endpoint just re-evaluates an endpoint, which is harmless).
    for breakpoint in (ca, b_lo, b_hi):  # ca == midpoint of Ra's MBR
        clipped = np.clip(breakpoint, q_lo, q_hi)
        best = np.maximum(best, margin(clipped))
    return best.sum(axis=1) < 0.0


def batch_trigonometric(
    ca: Centers,
    cb: Centers,
    cq: Centers,
    ra: Radii,
    rb: Radii,
    rq: Radii,
) -> np.ndarray:
    """Vectorised Trigonometric criterion."""
    ca, cb, cq, ra, rb, rq = _validate(ca, cb, cq, ra, rb, rq)
    rab = ra + rb
    direction = cb - ca
    separation = _row_norms(direction)
    safe = np.where(separation == 0.0, 1.0, separation)
    step = direction * (rq / safe)[:, None]

    def true_margin(q: np.ndarray) -> np.ndarray:
        return _row_norms(cb - q) - _row_norms(ca - q) - rab

    margin_1 = true_margin(cq + step)
    margin_2 = true_margin(cq - step)
    rejected = (
        (margin_1 == 0.0)
        | (margin_2 == 0.0)
        | ((margin_1 > 0.0) != (margin_2 > 0.0))
    )
    result = ~rejected
    degenerate = separation == 0.0
    if np.any(degenerate):
        result[degenerate] = true_margin(cq)[degenerate] != 0.0
    return result


# A closed-form bound on ``dmin`` settles a row only when it clears
# ``rq`` by this much relative to the row's length scale
# ``alpha + |t| + rho``; closer rows go to the solver, so rounding in
# the bounds never decides a row the solver would decide otherwise.
_BRACKET_GUARD = 1e-9


def _reduce_to_half_plane(
    ca: np.ndarray, cb: np.ndarray, cq: np.ndarray, gap: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row ``(t, rho)`` coordinates of ``cq`` in the focal frame."""
    safe_gap = np.where(gap == 0.0, 1.0, gap)
    axis = (cb - ca) / safe_gap[:, None]
    offset = cq - (ca + cb) / 2.0
    t = np.einsum("ij,ij->i", offset, axis)
    rho_sq = np.einsum("ij,ij->i", offset, offset) - t * t
    return t, np.sqrt(np.maximum(rho_sq, 0.0))


def _batch_distance_to_hyperbola(
    t: np.ndarray, rho: np.ndarray, alpha: np.ndarray, rab: np.ndarray
) -> np.ndarray:
    """Row-wise ``dmin`` for rows with ``0 < rab < 2 * alpha``.

    Resolves :func:`repro.core.dmin.solve_batch` at call time, like the
    scalar kernel's solver, so the ``"dmin"`` fault seam reaches batched
    decisions too; a non-finite distance raises :class:`ArithmeticError`.
    """
    dmin = _dmin.solve_batch(t, rho, alpha, rab)
    if not np.all(np.isfinite(dmin)):
        raise ArithmeticError("the dmin solver returned a non-finite distance")
    return dmin


def _dmin_bracket(
    t: np.ndarray, rho: np.ndarray, alpha: np.ndarray, rab: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form ``lower <= dmin <= upper`` per row, and the row's guard.

    Takes the same rows as :func:`_batch_distance_to_hyperbola`, with
    the query center inside ``Ra``.  With ``a = rab / 2`` and ``b =
    sqrt(alpha^2 - a^2)``, the convex region ``Ra`` contains the cone
    whose apex is its vertex ``(-a, 0)`` and whose edges are parallel
    to the asymptotes, so the distance to that cone's edge is a lower
    bound.  ``Ra`` lies inside the asymptotic cone and inside the
    half-plane ``t <= -a``, and the vertex is a boundary point, so the
    distances to those three are upper bounds.
    """
    a = rab / 2.0
    b = np.sqrt((alpha - a) * (alpha + a))
    lower = (-b * (t + a) - a * rho) / alpha
    upper = np.minimum(
        np.minimum((-b * t - a * rho) / alpha, -t - a), np.hypot(t + a, rho)
    )
    guard = _BRACKET_GUARD * (alpha + np.abs(t) + rho)
    return lower, upper, guard


def batch_hyperbola(
    ca: Centers,
    cb: Centers,
    cq: Centers,
    ra: Radii,
    rb: Radii,
    rq: Radii,
) -> np.ndarray:
    """Vectorised Hyperbola criterion (the paper's optimal decision)."""
    ca, cb, cq, ra, rb, rq = _validate(ca, cb, cq, ra, rb, rq)
    rab = ra + rb
    gap = _row_norms(cb - ca)
    result = np.zeros(gap.shape, dtype=bool)

    live = gap > rab  # Lemma 1 fast-path: overlapping rows stay false.
    if obs.ENABLED:
        obs.incr(names.BATCH_HYPERBOLA_ROWS, int(gap.size))
        obs.incr(names.BATCH_HYPERBOLA_OVERLAP_ROWS, int(gap.size - live.sum()))
    if not np.any(live):
        return result

    margin_cq = _row_norms(cb - cq) - _row_norms(ca - cq) - rab
    center_inside = margin_cq > 0.0
    if obs.ENABLED:
        obs.incr(
            names.BATCH_HYPERBOLA_CENTER_OUTSIDE_ROWS,
            int((live & ~center_inside).sum()),
        )
    live &= center_inside
    if not np.any(live):
        return result

    # Point queries inside the open region Ra are decided already.
    point_query = live & (rq == 0.0)
    result[point_query] = True
    if obs.ENABLED:
        obs.incr(names.BATCH_HYPERBOLA_POINT_QUERY_ROWS, int(point_query.sum()))
    live &= rq > 0.0
    if not np.any(live):
        return result

    t, rho = _reduce_to_half_plane(ca, cb, cq, gap)

    if ca.shape[1] == 1:
        # One-dimensional data: the boundary of Ra is the vertex point
        # (no perpendicular dimension exists for the curve to bend into).
        result[live] = np.abs(t[live] + rab[live] / 2.0) > rq[live]
        return result

    # As in the scalar kernel, only point objects (rab == 0) take the
    # bisector hyperplane; every rab > 0 bends the boundary.
    flat = rab == 0.0
    bisector = live & flat
    result[bisector] = np.abs(t[bisector]) > rq[bisector]

    # Curved rows: the closed-form bracket settles every row whose rq
    # falls clear of it; only the band in between goes to the solver.
    idx = np.flatnonzero(live & ~flat)
    alpha = gap[idx] / 2.0
    lower, upper, guard = _dmin_bracket(t[idx], rho[idx], alpha, rab[idx])
    dominated = lower > rq[idx] + guard
    band = ~dominated & (upper >= rq[idx] - guard)
    result[idx[dominated]] = True
    solve = idx[band]
    if obs.ENABLED:
        obs.incr(names.BATCH_HYPERBOLA_BISECTOR_ROWS, int(bisector.sum()))
        obs.incr(names.BATCH_HYPERBOLA_BOUNDED_ROWS, int(idx.size - solve.size))
        obs.incr(names.BATCH_HYPERBOLA_QUARTIC_ROWS, int(solve.size))
    if solve.size:
        dmin = _batch_distance_to_hyperbola(
            t[solve], rho[solve], alpha[band], rab[solve]
        )
        result[solve] = dmin > rq[solve]
    return result


def batch_gp(
    ca: Centers,
    cb: Centers,
    cq: Centers,
    ra: Radii,
    rb: Radii,
    rq: Radii,
) -> np.ndarray:
    """Vectorised GP criterion (2-D projection anchored at ``ca``)."""
    ca, cb, cq, ra, rb, rq = _validate(ca, cb, cq, ra, rb, rq)
    if ca.shape[1] <= 2:
        return batch_hyperbola(ca, cb, cq, ra, rb, rq)

    def project(points: np.ndarray) -> np.ndarray:
        offset = points - ca
        collapsed = _row_norms(offset[:, :-1])
        return np.stack([collapsed, offset[:, -1]], axis=1)

    return batch_hyperbola(project(ca), project(cb), project(cq), ra, rb, rq)


_BATCH_KERNELS = {
    "minmax": batch_minmax,
    "mbr": batch_mbr,
    "gp": batch_gp,
    "trigonometric": batch_trigonometric,
    "hyperbola": batch_hyperbola,
}


def available_kernels() -> Iterator[str]:
    """The criterion names with a batch kernel, sorted."""
    return iter(sorted(_BATCH_KERNELS))


def batch_evaluate(
    name: str,
    ca: Centers,
    cb: Centers,
    cq: Centers,
    ra: Radii,
    rb: Radii,
    rq: Radii,
) -> np.ndarray:
    """Evaluate the named criterion over a whole workload at once."""
    try:
        kernel = _BATCH_KERNELS[name]
    except KeyError:
        known = ", ".join(sorted(_BATCH_KERNELS))
        raise ValueError(f"no batch kernel named {name!r}; known: {known}") from None
    if obs.ENABLED:
        obs.incr(names.BATCH_CALLS)
        obs.incr(names.batch_calls(name))
        obs.observe(names.BATCH_WORKLOAD_ROWS, int(np.asarray(ca).shape[0]))
    return kernel(ca, cb, cq, ra, rb, rq)
