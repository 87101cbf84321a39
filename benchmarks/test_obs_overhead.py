"""Disabled-instrumentation overhead guard for the hot dominance path.

The ``repro.obs`` call sites in :meth:`HyperbolaCriterion.dominates`
are guarded by a single module-attribute check, so with instrumentation
off the instrumented code must run within 5% of an uninstrumented
replica.  The replica below re-states the ``dominates`` body with the
guards deleted, using the same module helpers, so the two loops differ
*only* by the ``if obs.ENABLED`` checks.

Interleaved best-of-N timing keeps the comparison robust against CPU
frequency drift: each round times both variants back to back and only
the fastest round of each survives.

This file is intentionally a plain pytest test (no ``benchmark``
fixture) so ``pytest benchmarks/test_obs_overhead.py`` asserts the
bound directly.
"""

from __future__ import annotations

import time

from conftest import dominance_workload, make_synthetic

from repro import obs
from repro.core.hyperbola import HyperbolaCriterion, boundary_margin
from repro.geometry.transform import FocalFrame

ROUNDS = 20
MAX_OVERHEAD_RATIO = 1.05


class _BaselineHyperbola(HyperbolaCriterion):
    """The ``_decide`` body with every ``if obs.ENABLED`` deleted.

    The template ``dominates`` (dimension validation) is inherited
    unchanged, so the two variants still differ only by the guards.
    """

    def _decide(self, sa, sb, sq) -> bool:
        if sa.overlaps(sb):
            return False
        if boundary_margin(sa, sb, sq.center) <= 0.0:
            return False
        if sq.radius == 0.0:
            return True
        frame = FocalFrame(sa.center, sb.center)
        t, rho = frame.reduce(sq.center)
        rab = sa.radius + sb.radius
        if sa.dimension == 1:
            dmin = abs(t + rab / 2.0)
        elif rab == 0.0:
            dmin = abs(t)
        else:
            dmin = self._curved_dmin(t, rho, frame.alpha, rab)
        return dmin > sq.radius


def _run_workload_seconds(criterion, triples) -> float:
    dominates = criterion.dominates
    started = time.perf_counter()
    for sa, sb, sq in triples:
        dominates(sa, sb, sq)
    return time.perf_counter() - started


def test_disabled_instrumentation_overhead_under_five_percent():
    triples = list(dominance_workload(make_synthetic()).triples())
    instrumented = HyperbolaCriterion()
    baseline = _BaselineHyperbola()

    # Same answers, or the comparison is meaningless.
    assert all(
        instrumented.dominates(sa, sb, sq) == baseline.dominates(sa, sb, sq)
        for sa, sb, sq in triples[:50]
    )

    obs.disable()
    assert not obs.ENABLED
    # Warm-up (bytecode caches, branch predictors) before measuring.
    _run_workload_seconds(instrumented, triples)
    _run_workload_seconds(baseline, triples)

    best_instrumented = best_baseline = float("inf")
    for _ in range(ROUNDS):
        best_instrumented = min(
            best_instrumented, _run_workload_seconds(instrumented, triples)
        )
        best_baseline = min(
            best_baseline, _run_workload_seconds(baseline, triples)
        )

    ratio = best_instrumented / best_baseline
    assert ratio < MAX_OVERHEAD_RATIO, (
        f"disabled instrumentation costs {100.0 * (ratio - 1.0):.1f}% "
        f"(instrumented {best_instrumented:.4f}s vs baseline "
        f"{best_baseline:.4f}s over {len(triples)} triples)"
    )


def test_non_strict_verified_overhead_under_five_percent():
    """``VerifiedHyperbola(strict=False)`` must not tax the fast path.

    With certification off the verified criterion delegates straight to
    the plain Hyperbola ``_decide``; the only admissible extra cost is
    one attribute check per call.
    """
    from repro.robust import VerifiedHyperbola

    triples = list(dominance_workload(make_synthetic()).triples())
    plain = HyperbolaCriterion()
    relaxed = VerifiedHyperbola(strict=False)

    assert all(
        relaxed.dominates(sa, sb, sq) == plain.dominates(sa, sb, sq)
        for sa, sb, sq in triples[:50]
    )

    obs.disable()
    _run_workload_seconds(relaxed, triples)
    _run_workload_seconds(plain, triples)

    best_relaxed = best_plain = float("inf")
    for _ in range(ROUNDS):
        best_relaxed = min(best_relaxed, _run_workload_seconds(relaxed, triples))
        best_plain = min(best_plain, _run_workload_seconds(plain, triples))

    ratio = best_relaxed / best_plain
    assert ratio < MAX_OVERHEAD_RATIO, (
        f"non-strict verified criterion costs {100.0 * (ratio - 1.0):.1f}% "
        f"(verified {best_relaxed:.4f}s vs hyperbola {best_plain:.4f}s "
        f"over {len(triples)} triples)"
    )
