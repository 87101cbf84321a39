"""Certified tri-state dominance with adaptive-precision escalation.

The float64 Hyperbola kernel is optimal in exact arithmetic, but near
the decision boundary rounding can silently flip a verdict.  This
subsystem never lets that happen unnoticed:

- :mod:`repro.robust.decision` — the tri-state
  :class:`~repro.robust.decision.Decision` / ``Verdict`` vocabulary;
- :mod:`repro.robust.ladder` — the escalation ladder (the float64
  ``dmin`` solver → the same solver in ``np.longdouble`` → exact
  rational);
- :mod:`repro.robust.exact` — the :class:`fractions.Fraction` arbiter
  settling borderline signs with integer arithmetic;
- :mod:`repro.robust.verified` — the registered ``"verified"``
  criterion wrapping the ladder with conservative fallbacks;
- :mod:`repro.robust.faults` — deterministic fault injection at the
  numerical seams, for testing graceful degradation.

See ``docs/robustness.md`` for the tolerance policy and usage.
"""

from repro.robust.decision import Decision, Verdict
from repro.robust.exact import exact_dominates
from repro.robust.ladder import DEFAULT_LADDER, FLOAT_LADDER, decide
from repro.robust.verified import VerifiedHyperbola

__all__ = [
    "Decision",
    "Verdict",
    "exact_dominates",
    "decide",
    "DEFAULT_LADDER",
    "FLOAT_LADDER",
    "VerifiedHyperbola",
]
