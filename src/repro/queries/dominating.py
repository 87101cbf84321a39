"""Top-k dominating queries over hypersphere databases (extension).

The paper's introduction lists *dominating queries* among the
applications of the spatial dominance operator (citing Yiu & Mamoulis
and Lian & Chen).  Given a query hypersphere ``Sq``, the *dominance
score* of an object ``S`` is the number of other objects it dominates
with respect to ``Sq`` — objects that are *certainly farther* from every
possible query position.  A top-k dominating query returns the k
objects with the highest scores: robust "best answers" under
uncertainty, without a distance threshold.

The implementation sweeps the n x n pair matrix in row blocks of at
most :data:`repro.queries.blocks.BLOCK_PAIRS` pairs and scores each
block with one vectorised :func:`repro.core.batch.batch_evaluate` call
(paper Section 5.2), so scoring stays NumPy-bound rather than
Python-bound.  Any criterion with a batch kernel works; with a
correct-but-unsound criterion the scores are lower bounds of the true
scores (some dominations go uncounted), which the test suite asserts.

Resilience: scores only ever *undercount* under degradation, which is
the established conservative direction here (unsound criteria already
undercount).  A raising batch kernel falls back to the MinMax batch
kernel for that block (absorbed fault).  Each block charges ``n``
candidates per row before it is swept, so an exhausted
:class:`repro.resilience.Budget` scores the same prefix of rows as a
row-at-a-time scan, scores the remaining rows 0 and returns a
:class:`repro.resilience.PartialResult` flagged incomplete.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro import obs
from repro.obs import export as obs_export
from repro.obs import names
from repro.core.batch import batch_evaluate
from repro.geometry.hypersphere import Hypersphere
from repro.index.linear import LinearIndex
from repro.queries.blocks import blocks, charge_rows
from repro.queries.explain import ExplainedResult, explain_capture
from repro.queries.validation import validate_k, validate_query
from repro.resilience.budget import current as current_budget
from repro.resilience.partial import PartialResult, ResilienceReport

if TYPE_CHECKING:
    from repro.stream.overlay import DeltaOverlay

__all__ = ["DominanceScore", "dominance_scores", "top_k_dominating"]


@dataclass(frozen=True)
class DominanceScore:
    """An object's key and how many other objects it dominates."""

    key: object
    score: int


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
    streaming dataset (base minus shadowed keys, plus the memtable).
    """
    if overlay is not None and overlay:
        dataset = LinearIndex(overlay.fold(iter(dataset)))
        if obs.ENABLED:
            obs.incr(names.STREAM_MERGED_QUERIES)
    elif not isinstance(dataset, LinearIndex):
        dataset = LinearIndex(dataset)
    validate_query(query, dataset.dimension)
    budget = current_budget()
    if budget is not None:
        budget.start()
    n = len(dataset)
    centers = dataset.centers
    radii = dataset.radii

    report = ResilienceReport()
    absorbed = 0
    # Unscored rows keep 0, the universal lower bound.
    counts = np.zeros(n, dtype=np.int64)
    for lo, hi in blocks(n):
        if budget is not None:
            granted = charge_rows(budget, lo, hi, n)
            if granted < hi:
                # Out of budget: the remaining rows stay unscored and
                # the result is flagged.
                report.mark_incomplete(budget.exhausted() or "deadline")
                hi = granted
        if lo == hi:
            break  # cut at the block's first object
        m = hi - lo
        # Row-major (m, n) block: pair (i, j) asks whether object lo + i
        # dominates object j with respect to the query.
        pairs = (
            np.repeat(centers[lo:hi], n, axis=0),
            np.tile(centers, (m, 1)),
            np.broadcast_to(query.center, (m * n, dataset.dimension)),
            np.repeat(radii[lo:hi], n),
            np.tile(radii, m),
            np.full(m * n, query.radius),
        )
        try:
            dominated = batch_evaluate(criterion, *pairs)
        except ArithmeticError:
            # Broken kernel: redo the block with the conservative MinMax
            # batch kernel, which can only undercount dominations.
            absorbed += 1
            report.mark_conservative("block rescored with the MinMax kernel")
            try:
                dominated = batch_evaluate("minmax", *pairs)
            except ArithmeticError:
                absorbed += 1
                dominated = np.zeros(m * n, dtype=bool)
        dominated = dominated.reshape(m, n)
        dominated[np.arange(m), np.arange(lo, hi)] = False  # never itself
        counts[lo:hi] = np.count_nonzero(dominated, axis=1)
        if not report.complete:
            break
    scores = [
        DominanceScore(key=key, score=int(count))
        for key, count in zip(dataset.keys, counts)
    ]
    report.absorbed_faults = absorbed
    if obs.ENABLED and absorbed:
        obs.incr(names.RESILIENCE_ABSORBED_FAULTS, absorbed)
    if budget is None:
        return scores
    if obs.ENABLED:
        if report.degraded:
            obs.incr(names.RESILIENCE_DEGRADED_QUERIES)
        if not report.complete:
            obs.incr(names.RESILIENCE_PARTIAL_QUERIES)
    return PartialResult(scores, report)


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
    if overlay is not None and overlay:
        dataset = LinearIndex(overlay.fold(iter(dataset)))
        if obs.ENABLED:
            obs.incr(names.STREAM_MERGED_QUERIES)
    elif not isinstance(dataset, LinearIndex):
        dataset = LinearIndex(dataset)
    k = validate_k(k, len(dataset))
    event_log = obs_export.current_event_log()
    if explain:
        params = {"k": k, "criterion": criterion, "n": len(dataset)}
        with explain_capture() as capture:
            outcome = _run_top_k(dataset, query, k, criterion)
            detail = capture.finish("dominating", params, outcome)
        if event_log is not None:
            event_log.emit_outcome("dominating", outcome, detail.duration_s)
        return ExplainedResult(outcome, detail)
    if event_log is None:
        return _run_top_k(dataset, query, k, criterion)
    started = time.perf_counter()
    outcome = _run_top_k(dataset, query, k, criterion)
    event_log.emit_outcome("dominating", outcome, time.perf_counter() - started)
    return outcome


def _run_top_k(
    dataset: LinearIndex,
    query: Hypersphere,
    k: int,
    criterion: str,
) -> "list[DominanceScore] | PartialResult":
    """The validated query body (see :func:`top_k_dominating`)."""
    scored = dominance_scores(dataset, query, criterion=criterion)
    if isinstance(scored, PartialResult):
        scores: "list[DominanceScore]" = scored.value
        report = scored.report
    else:
        scores = scored
        report = None
    ranked = sorted(
        range(len(scores)), key=lambda i: (-scores[i].score, i)
    )
    top = [scores[i] for i in ranked[:k]]
    if report is None:
        return top
    return PartialResult(top, report)
