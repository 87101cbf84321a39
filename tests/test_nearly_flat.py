"""Nearly flat hyperbolas: every ``dmin`` path against the exact arbiter.

When ``rab`` is a tiny fraction of the focal gap the boundary of ``Ra``
is a nearly flat hyperbola.  There the paper's Equation (14) quartic
loses its roots' digits and puts ``dmin`` above the upper bound that
:func:`repro.core.batch._dmin_bracket` proves, so a query radius between
the two reads as dominated when it is not.  The rows below sit in
rab/gap bands from 1e-9 to 1e-2 at length scales from 1e-6 to 1e6.  Half
place ``rq`` between the bracket's upper bound and the quartic's
``dmin`` (just above the upper bound where the quartic does not
overshoot); half place it just inside the solver's ``dmin``.  Every
served path must agree with :func:`repro.robust.exact.exact_dominates`,
and no rung of the certified ladder may certify a wrong verdict.  A
second property covers rab/gap from 1e-12 to 1e-9, where the boundary
is flatter still but not the bisector.
"""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
from hypothesis import given

from repro.core import batch, get_criterion
from repro.experiments.quartic import quartic_distance_to_hyperbola
from repro.geometry.hypersphere import Hypersphere
from repro.robust import DEFAULT_LADDER, decide, exact_dominates

ROWS = 8


def flat_rows(rng, d, alpha, band):
    """``ROWS`` rows ``(ca, cb, cq, ra, rb)``, rab/gap in ``[10^band, 10^(band+1)]``.

    The query center sits inside ``Ra`` at ``t = -alpha * 10^u`` along
    the focal axis and ``rho = alpha * 10^v`` off it.
    """
    axis = rng.normal(size=(ROWS, d))
    axis /= np.linalg.norm(axis, axis=1, keepdims=True)
    perp = rng.normal(size=(ROWS, d))
    perp -= np.einsum("ij,ij->i", perp, axis)[:, None] * axis
    perp /= np.linalg.norm(perp, axis=1, keepdims=True)
    origin = rng.normal(0.0, 10.0 * alpha, (ROWS, d))
    t = -alpha * 10.0 ** rng.uniform(np.log10(5e-2), 1.0, ROWS)
    rho = alpha * 10.0 ** rng.uniform(-4.0, 0.0, ROWS)
    rab = 2.0 * alpha * 10.0 ** rng.uniform(band, band + 1, ROWS)
    ra = rab * rng.uniform(0.1, 0.9, ROWS)
    return (
        origin - alpha * axis,
        origin + alpha * axis,
        origin + t[:, None] * axis + rho[:, None] * perp,
        ra,
        rab - ra,
    )


@given(
    st.integers(0, 10_000), st.integers(2, 5), st.integers(-6, 6), st.integers(-9, -3)
)
def test_every_path_matches_the_exact_arbiter(seed, d, exponent, band):
    rng = np.random.default_rng(seed)
    ca, cb, cq, ra, rb = flat_rows(rng, d, 10.0**exponent, band)
    gap = np.linalg.norm(cb - ca, axis=1)
    t, rho = batch._reduce_to_half_plane(ca, cb, cq, gap)
    alpha, rab = gap / 2.0, ra + rb
    lower, upper, guard = batch._dmin_bracket(t, rho, alpha, rab)
    dmin = batch._batch_distance_to_hyperbola(t, rho, alpha, rab)
    # The solver stays inside the bracket in every band and at every scale.
    assert np.all(lower - guard <= dmin)
    assert np.all(dmin <= upper + guard)

    quartic = np.array(
        [quartic_distance_to_hyperbola(*row) for row in zip(t, rho, alpha, rab)]
    )
    above = np.maximum(quartic, upper * (1.0 + 2e-6))
    rq = np.where(np.arange(ROWS) % 2 == 0, (upper + above) / 2.0, dmin * (1.0 - 1e-6))
    triples = [
        (
            Hypersphere(ca[i], float(ra[i])),
            Hypersphere(cb[i], float(rb[i])),
            Hypersphere(cq[i], float(rq[i])),
        )
        for i in range(ROWS)
    ]
    truth = [exact_dominates(*triple) for triple in triples]
    assert batch.batch_hyperbola(ca, cb, cq, ra, rb, rq).tolist() == truth
    for name in ("hyperbola", "cascade", "verified"):
        criterion = get_criterion(name)
        assert [criterion.dominates(*triple) for triple in triples] == truth, name
    for rung in DEFAULT_LADDER:
        for triple, want in zip(triples, truth):
            decision = decide(*triple, ladder=(rung,))
            assert not decision.certified or decision.as_bool() == want, rung[0]


@given(
    st.integers(0, 10_000), st.integers(2, 5), st.integers(-6, 6), st.integers(-12, -10)
)
def test_the_boundary_stays_curved_for_every_positive_rab(seed, d, exponent, band):
    """rab/gap from 1e-12 to 1e-9: the boundary of ``Ra`` sits between
    ``rab/2`` and ``rab/sqrt(2)`` nearer the query than the bisector does
    (``rho`` stays within ``alpha``), so ``rq = |t| - rab/4`` is not
    dominated, although a bisector stand-in for the curve says it is."""
    rng = np.random.default_rng(seed)
    ca, cb, cq, ra, rb = flat_rows(rng, d, 10.0**exponent, band)
    gap = np.linalg.norm(cb - ca, axis=1)
    t, _ = batch._reduce_to_half_plane(ca, cb, cq, gap)
    rab = ra + rb
    rq = np.abs(t) - np.where(np.arange(ROWS) % 2 == 0, rab / 4.0, 2.0 * rab)
    triples = [
        (
            Hypersphere(ca[i], float(ra[i])),
            Hypersphere(cb[i], float(rb[i])),
            Hypersphere(cq[i], float(rq[i])),
        )
        for i in range(ROWS)
    ]
    truth = [exact_dominates(*triple) for triple in triples]
    assert truth == [i % 2 == 1 for i in range(ROWS)]
    assert batch.batch_hyperbola(ca, cb, cq, ra, rb, rq).tolist() == truth
    for name in ("hyperbola", "cascade", "verified"):
        criterion = get_criterion(name)
        assert [criterion.dominates(*triple) for triple in triples] == truth, name
