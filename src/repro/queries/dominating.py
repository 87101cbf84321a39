"""Top-k dominating queries over hypersphere databases (extension).

The paper's introduction lists *dominating queries* among the
applications of the spatial dominance operator (citing Yiu & Mamoulis
and Lian & Chen).  Given a query hypersphere ``Sq``, the *dominance
score* of an object ``S`` is the number of other objects it dominates
with respect to ``Sq`` — objects that are *certainly farther* from every
possible query position.  A top-k dominating query returns the k
objects with the highest scores: robust "best answers" under
uncertainty, without a distance threshold.

Scoring bounds first.  One norm sweep gives every object's farthest
reach ``u_a = |ca - cq| + ra`` and nearest reach ``v_b = |cb - cq| -
rb``.  ``Sa`` can dominate ``Sb`` only if ``v_b > u_a`` (the Hyperbola
kernel's center test, a necessary condition), and surely does if ``v_b
> u_a + 2 rq`` (MinMax, a sufficient one): the complete and sufficient
test pair of Emrich et al.  With ``v`` sorted once, two
``searchsorted`` calls per row give an upper score bound ``U_a`` and a
lower one ``L_a``, and the pairs in between are one contiguous slice of
the sort order.  Each bound applies only where the criterion's own
guarantee makes it exact: the center cut for a *correct* criterion, the
MinMax cut for a *sound* one; otherwise the bound is trivial.

A row scores ``L_a`` plus its kernel hits over its band pairs.  The band
pairs of consecutive row blocks (:func:`repro.queries.blocks.blocks`)
queue up and go to one :func:`repro.core.batch.batch_evaluate` call per
:data:`repro.queries.blocks.BLOCK_PAIRS` pending pairs.  Top-k adds the
score-bound pruning of Yiu & Mamoulis: with ``τ`` the k-th largest
``L``, a row with ``U_a < τ`` cannot rank and keeps ``L_a`` unscored.
Decisions equal a kernel call over every pair; with a correct but
unsound criterion the scores are lower bounds of the true scores (some
dominations go uncounted), which the test suite asserts.

Resilience: scores only ever *undercount* under degradation, which is
the established conservative direction here (unsound criteria already
undercount).  A raising kernel call rescores its pairs with the MinMax
batch kernel (absorbed fault).  Each row block charges ``n`` candidates
per row before its band pairs are built, so an exhausted
:class:`repro.resilience.Budget` scores the same prefix of rows as a
row-at-a-time scan, scores the remaining rows 0 (a pruned prefix row
reports ``L_a``) and returns a :class:`repro.resilience.PartialResult`
flagged incomplete.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro import obs
from repro.obs import export as obs_export
from repro.obs import names
from repro.core.base import DominanceCriterion, get_criterion
from repro.core.batch import available_kernels, batch_evaluate
from repro.geometry.hypersphere import Hypersphere
from repro.index.linear import LinearIndex
from repro.queries.blocks import (
    BLOCK_PAIRS,
    PendingPairs,
    blocks,
    charge_rows,
    flat_dataset,
    pair_guard,
)
from repro.queries.explain import ExplainedResult, explain_capture
from repro.queries.validation import validate_k
from repro.resilience.budget import current as current_budget
from repro.resilience.partial import PartialResult, ResilienceReport

if TYPE_CHECKING:
    from repro.stream.overlay import DeltaOverlay

__all__ = ["DominanceScore", "dominance_scores", "top_k_dominating"]

#: Criteria with a batch kernel: the only ones a dominating scan runs.
_KERNELS = frozenset(available_kernels())


@dataclass(frozen=True)
class DominanceScore:
    """An object's key and how many other objects it dominates."""

    key: object
    score: int


def _kernel_criterion(name: str) -> DominanceCriterion:
    """The named criterion, whose guarantees pick the bounds to apply."""
    if name not in _KERNELS:
        known = ", ".join(sorted(_KERNELS))
        raise ValueError(f"no batch kernel named {name!r}; known: {known}")
    return get_criterion(name)


def dominance_scores(
    dataset: "LinearIndex | Sequence[tuple[object, Hypersphere]]",
    query: Hypersphere,
    *,
    criterion: str = "hyperbola",
    overlay: "DeltaOverlay | None" = None,
) -> "list[DominanceScore] | PartialResult":
    """The dominance score of every object, in dataset order.

    Returns a plain list normally; a
    :class:`~repro.resilience.PartialResult` wrapping one when a
    :class:`~repro.resilience.Budget` is active in the current context.
    With ``overlay`` the scores are computed over the effective
    streaming dataset (base minus shadowed keys, plus the memtable),
    which is empty once every object is deleted.
    """
    kernel = _kernel_criterion(criterion)
    flat = flat_dataset(dataset, query, overlay)
    if flat is None:
        if current_budget() is None:
            return []
        return PartialResult([], ResilienceReport())
    counts, report = _score(flat, query, kernel, None)
    scores = [
        DominanceScore(key=key, score=int(count))
        for key, count in zip(flat.keys, counts)
    ]
    return scores if report is None else PartialResult(scores, report)


def top_k_dominating(
    dataset: "LinearIndex | Sequence[tuple[object, Hypersphere]]",
    query: Hypersphere,
    k: int,
    *,
    criterion: str = "hyperbola",
    explain: bool = False,
    overlay: "DeltaOverlay | None" = None,
) -> "list[DominanceScore] | PartialResult | ExplainedResult":
    """The k objects with the highest dominance scores (ties by order).

    Returns a plain list normally; a
    :class:`~repro.resilience.PartialResult` wrapping one (and carrying
    the scoring pass's report) when a budget is active; an
    :class:`~repro.queries.explain.ExplainedResult` wrapping either when
    ``explain=True`` (costs a single branch when off).  With ``overlay``
    the ranking runs over the effective streaming dataset (base minus
    shadowed keys, plus the memtable).
    """
    kernel = _kernel_criterion(criterion)
    flat = flat_dataset(dataset, query, overlay)
    k = validate_k(k, 0 if flat is None else len(flat))
    assert flat is not None  # validate_k rejects every k of an empty dataset
    event_log = obs_export.current_event_log()
    if explain:
        params = {"k": k, "criterion": criterion, "n": len(flat)}
        with explain_capture() as capture:
            outcome = _run_top_k(flat, query, k, kernel)
            detail = capture.finish("dominating", params, outcome)
        if event_log is not None:
            event_log.emit_outcome("dominating", outcome, detail.duration_s)
        return ExplainedResult(outcome, detail)
    if event_log is None:
        return _run_top_k(flat, query, k, kernel)
    started = time.perf_counter()
    outcome = _run_top_k(flat, query, k, kernel)
    event_log.emit_outcome("dominating", outcome, time.perf_counter() - started)
    return outcome


def _run_top_k(
    dataset: LinearIndex,
    query: Hypersphere,
    k: int,
    criterion: DominanceCriterion,
) -> "list[DominanceScore] | PartialResult":
    """The validated query body (see :func:`top_k_dominating`)."""
    counts, report = _score(dataset, query, criterion, k)
    ranked = np.argsort(-counts, kind="stable")[:k]  # ties by dataset order
    top = [
        DominanceScore(key=dataset.keys[i], score=int(counts[i]))
        for i in ranked
    ]
    return top if report is None else PartialResult(top, report)


def _band_pairs(
    rows: np.ndarray, start: np.ndarray, stop: np.ndarray, order: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """Every ``(a, b)`` with ``a`` in *rows* and ``b`` in its band.

    Row ``a``'s band is ``order[start[a]:stop[a]]``, minus ``a`` itself.
    """
    lengths = stop[rows] - start[rows]
    a = np.repeat(rows, lengths)
    within = np.arange(a.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    b = order[np.repeat(start[rows], lengths) + within]
    other = a != b
    return a[other], b[other]


def _score(
    dataset: LinearIndex,
    query: Hypersphere,
    criterion: DominanceCriterion,
    k: "int | None",
) -> "tuple[np.ndarray, ResilienceReport | None]":
    """Every row's score, and the report when a budget is active.

    With *k*, rows the score bounds prove outside the top k keep their
    lower bound unscored.
    """
    budget = current_budget()
    if budget is not None:
        budget.start()
    n = len(dataset)
    centers = dataset.centers
    radii = dataset.radii
    rq = query.radius

    gaps = np.linalg.norm(centers - query.center, axis=1)
    reach = gaps + radii  # u: Sa's farthest point from cq
    near = gaps - radii  # v: Sb's nearest point to cq
    guard = pair_guard(gaps, radii, rq)
    order = np.argsort(near, kind="stable")
    near_sorted = near[order]
    # Row a's band is order[start[a]:stop[a]]: pairs before it fail the
    # center test (correct criteria), pairs after it pass MinMax (sound
    # ones).  The guard sends pairs close to either cut to the kernel.
    if criterion.is_correct:
        start = np.searchsorted(near_sorted, reach - guard, side="right")
    else:
        start = np.zeros(n, dtype=np.intp)
    if criterion.is_sound:
        stop = np.searchsorted(
            near_sorted, reach + 2.0 * rq + guard, side="right"
        )
    else:
        stop = np.full(n, n, dtype=np.intp)
    lower = n - stop
    scored = np.ones(n, dtype=bool)
    if k is not None:
        # Yiu & Mamoulis: a row whose upper bound misses the k-th largest
        # lower bound is beaten by k rows whatever its band holds.
        tau = np.partition(lower, n - k)[n - k]
        scored = n - start >= tau

    report = ResilienceReport()
    absorbed = 0
    # Rows past a budget cut keep 0, the universal lower bound.
    counts = np.zeros(n, dtype=np.int64)
    examined = n
    pending = PendingPairs()
    for lo, hi in blocks(n):
        if budget is not None:
            granted = charge_rows(budget, lo, hi, n)
            if granted < hi:
                # Out of budget: the remaining rows stay unscored and
                # the result is flagged.
                report.mark_incomplete(budget.exhausted() or "deadline")
                examined = hi = granted
        rows = lo + np.flatnonzero(scored[lo:hi])
        pending.add(*_band_pairs(rows, start, stop, order))
        if pending.size < BLOCK_PAIRS and hi < n and report.complete:
            continue  # flush at BLOCK_PAIRS pending, the last block or a cut
        a, b = pending.take()
        if a.size:
            pairs = (
                centers[a],
                centers[b],
                np.broadcast_to(query.center, (a.size, dataset.dimension)),
                radii[a],
                radii[b],
                np.full(a.size, rq),
            )
            try:
                dominated = batch_evaluate(criterion.name, *pairs)
            except ArithmeticError:
                # Broken kernel: rescore the pairs with the conservative
                # MinMax kernel, which can only undercount dominations.
                absorbed += 1
                report.mark_conservative("pairs rescored with the MinMax kernel")
                try:
                    dominated = batch_evaluate("minmax", *pairs)
                except ArithmeticError:
                    absorbed += 1
                    dominated = np.zeros(a.size, dtype=bool)
            counts += np.bincount(a[dominated], minlength=n)
        if not report.complete:
            break
    counts[:examined] += lower[:examined]

    report.absorbed_faults = absorbed
    if obs.ENABLED:
        live = np.flatnonzero(scored[:examined])
        rank = np.empty(n, dtype=np.intp)
        rank[order] = np.arange(n)
        obs.incr(names.FLAT_ROWS_PRUNED, examined - int(live.size))
        obs.incr(names.FLAT_MINMAX_RULED_IN, int(lower[live].sum()))
        obs.incr(
            names.FLAT_CENTER_RULED_OUT,
            int((start[live] - (rank[live] < start[live])).sum()),
        )
        if absorbed:
            obs.incr(names.RESILIENCE_ABSORBED_FAULTS, absorbed)
    if budget is None:
        return counts, None
    if obs.ENABLED:
        if report.degraded:
            obs.incr(names.RESILIENCE_DEGRADED_QUERIES)
        if not report.complete:
            obs.incr(names.RESILIENCE_PARTIAL_QUERIES)
    return counts, report
