"""Reverse nearest-neighbour candidates via dominance pruning (extension).

The paper's introduction names RkNN queries as a second application of
the dominance operator: for ``k = 1``, an object ``Sb`` can be
discarded from the reverse-NN answer of a query ``Sq`` as soon as some
other object ``Sa`` dominates ``Sq`` with respect to ``Sb`` — every
realisation of ``Sa`` is then strictly closer to every realisation of
``Sb`` than ``Sq`` is, so ``Sq`` cannot be ``Sb``'s nearest neighbour.

The paper evaluates only the kNN application; this module is the
natural RNN counterpart, provided as an extension and exercised by the
test suite.  Note the asymmetric argument order: the *roles* rotate —
``dominates(Sa, Sq, Sb)`` asks whether ``Sa`` beats ``Sq`` from ``Sb``'s
point of view.

With an exact criterion the returned set is the exact set of objects
whose reverse-NN membership *cannot be refuted* by dominance (objects
whose uncertainty regions leave the outcome undecided remain
candidates); a correct-but-unsound criterion refutes less and returns a
superset, mirroring the kNN precision experiments.

The scan sweeps the n x n pair matrix in column blocks of at most
:data:`repro.queries.blocks.BLOCK_PAIRS` pairs (column ``b`` holds the
competitors ``Sa`` of object ``Sb``).  Per block the center gaps are
computed once; a vectorised MinMax pre-filter refutes what it can and a
plausibility test (``MinDist(Sa, Sb) <= MaxDist(Sq, Sb)``, self
excluded) drops pairs that cannot dominate.  Every surviving pair is
then decided by one :func:`repro.core.batch.batch_evaluate` call (paper
Section 5.2), OR-reduced per column.  Criteria without a batch kernel
(``cascade``, ``verified``) decide the pairs one scalar call at a time,
stopping at an object's first refutation.

Resilience: membership here is refute-only, so every degradation is a
*kept* candidate.  A raising batch kernel sends its block through the
scalar per-pair pass (one absorbed fault); a raising criterion on one
pair keeps that pair's candidate (absorbed fault).  Each block charges
one candidate per object before it is swept, so an exhausted
:class:`repro.resilience.Budget` keeps every not-yet-examined object,
exactly as an object-at-a-time scan would, and returns a
:class:`repro.resilience.PartialResult` — the candidate set is then a
superset of the exact one, never missing a true reverse-NN.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro import obs
from repro.obs import export as obs_export
from repro.obs import names
from repro.core.base import DominanceCriterion, get_criterion
from repro.core.batch import available_kernels, batch_evaluate
from repro.geometry.hypersphere import Hypersphere
from repro.index.linear import LinearIndex
from repro.queries.blocks import blocks, charge_rows
from repro.queries.explain import ExplainedResult, explain_capture
from repro.queries.validation import validate_query
from repro.resilience.budget import current as current_budget
from repro.resilience.partial import PartialResult, ResilienceReport

if TYPE_CHECKING:
    from repro.stream.overlay import DeltaOverlay

__all__ = ["rnn_candidates"]

#: Criteria whose pairs a block refines with one batch-kernel call.
_BATCH_KERNELS = frozenset(available_kernels())


def rnn_candidates(
    dataset: "LinearIndex | Sequence[tuple[object, Hypersphere]]",
    query: Hypersphere,
    *,
    criterion: "DominanceCriterion | str" = "hyperbola",
    explain: bool = False,
    overlay: "DeltaOverlay | None" = None,
) -> "list | PartialResult | ExplainedResult":
    """Keys of objects that may have *query* as their nearest neighbour.

    An object ``Sb`` is pruned iff some other dataset object ``Sa``
    dominates the query with respect to ``Sb``.  Candidate generation
    uses a cheap vectorised MinMax pre-filter before falling back to the
    configured criterion, so the exact operator only runs on the
    undecided pairs.

    With the certified ``"verified"`` criterion a borderline pair is
    never mis-pruned: an UNCERTAIN decision collapses to its
    conservative fallback (``True`` only when a correct criterion
    proved the prune safe) and is tallied on the
    ``rnn.uncertain_decisions`` obs counter.

    Returns a plain list normally; a
    :class:`~repro.resilience.PartialResult` wrapping one when a
    :class:`~repro.resilience.Budget` is active in the current context;
    an :class:`~repro.queries.explain.ExplainedResult` wrapping either
    when ``explain=True`` (costs a single branch when off).

    With ``overlay`` (a :class:`repro.stream.overlay.DeltaOverlay` of
    streaming mutations) the candidate universe is the *effective*
    dataset — base entries minus tombstoned/re-inserted keys, plus the
    memtable — and both membership and refutation run over that merged
    set, so a tombstoned object can neither appear as a candidate nor
    refute one.
    """
    if overlay is not None and overlay:
        dataset = LinearIndex(overlay.fold(iter(dataset)))
        if obs.ENABLED:
            obs.incr(names.STREAM_MERGED_QUERIES)
    elif not isinstance(dataset, LinearIndex):
        dataset = LinearIndex(dataset)
    validate_query(query, dataset.dimension)
    if isinstance(criterion, str):
        criterion = get_criterion(criterion)
    event_log = obs_export.current_event_log()
    if explain:
        params = {"criterion": criterion.name, "n": len(dataset)}
        with explain_capture() as capture:
            outcome = _run_rnn(dataset, query, criterion)
            detail = capture.finish("rknn", params, outcome)
        if event_log is not None:
            event_log.emit_outcome("rknn", outcome, detail.duration_s)
        return ExplainedResult(outcome, detail)
    if event_log is None:
        return _run_rnn(dataset, query, criterion)
    started = time.perf_counter()
    outcome = _run_rnn(dataset, query, criterion)
    event_log.emit_outcome("rknn", outcome, time.perf_counter() - started)
    return outcome


def _run_rnn(
    dataset: LinearIndex,
    query: Hypersphere,
    criterion: DominanceCriterion,
) -> "list | PartialResult":
    """The validated query body (see :func:`rnn_candidates`)."""
    budget = current_budget()
    if budget is not None:
        budget.start()

    n = len(dataset)
    centers = dataset.centers
    radii = dataset.radii
    spheres = dataset.spheres
    batched = criterion.name in _BATCH_KERNELS
    # Duck-typed tally of certified-criterion abstentions (see knn.py).
    uncertain_before = int(getattr(criterion, "uncertain_count", 0))
    report = ResilienceReport()
    absorbed = 0
    refuted = np.zeros(n, dtype=bool)
    examined = n
    gaps_q = np.linalg.norm(centers - query.center, axis=1)
    for lo, hi in blocks(n):
        if budget is not None:
            granted = charge_rows(budget, lo, hi, 1)
            if granted < hi:
                # Out of budget: an unexamined object cannot be refuted,
                # so it stays a candidate — the answer set only widens.
                report.mark_incomplete(budget.exhausted() or "deadline")
                examined = hi = granted
        if lo == hi:
            break  # cut at the block's first object
        own = np.arange(lo, hi)
        columns = own - lo
        rb = radii[lo:hi]
        gaps = np.linalg.norm(centers[:, None, :] - centers[None, lo:hi], axis=2)
        # Vectorised MinMax pre-filter (correct, so pruning is safe):
        # Sa dominates Sq wrt Sb when MaxDist(Sa, Sb) < MinDist(Sq, Sb).
        min_dist_q = np.maximum(gaps_q[lo:hi] - query.radius - rb, 0.0)
        max_dists = gaps + radii[:, None] + rb
        max_dists[own, columns] = np.inf  # an object never competes against itself
        block = refuted[lo:hi]  # a view: refuting a column marks refuted
        block |= np.any(max_dists < min_dist_q, axis=0)
        # Exact pass over the plausible pairs of unrefuted columns only.
        # Dominance of Sq wrt Sb needs MinDist(Sa, Sb) <= MaxDist(Sq, Sb)
        # (a necessary condition), so anything farther can be skipped.
        plausible = gaps - radii[:, None] - rb <= gaps_q[lo:hi] + query.radius + rb
        plausible[own, columns] = False
        plausible[:, block] = False
        scalar = not batched
        if batched:
            rows, cols = np.nonzero(plausible)
            try:
                hits = batch_evaluate(
                    criterion.name,
                    centers[rows],
                    np.broadcast_to(query.center, (rows.size, dataset.dimension)),
                    centers[lo + cols],
                    radii[rows],
                    np.full(rows.size, query.radius),
                    rb[cols],
                )
            except ArithmeticError:
                # A broken kernel proves nothing: redo the block pair by
                # pair, and count the absorption.
                absorbed += 1
                scalar = True
            else:
                block[cols[hits]] = True
        if scalar:
            for column in np.flatnonzero(~block):
                sphere_b = spheres[lo + column]
                for a in np.flatnonzero(plausible[:, column]):
                    try:
                        if criterion.dominates(spheres[a], query, sphere_b):
                            block[column] = True
                            break
                    except ArithmeticError:
                        # A broken kernel cannot prove a prune safe: keep
                        # the pair unrefuted and count the absorption.
                        absorbed += 1
        if not report.complete:
            break
    survivors = [
        key
        for b, key in enumerate(dataset.keys)
        if b >= examined or not refuted[b]
    ]
    report.uncertain = (
        int(getattr(criterion, "uncertain_count", 0)) - uncertain_before
    )
    report.absorbed_faults = absorbed
    if obs.ENABLED:
        obs.incr(names.RNN_QUERIES)
        obs.incr(names.RNN_UNCERTAIN_DECISIONS, report.uncertain)
        if absorbed:
            obs.incr(names.RESILIENCE_ABSORBED_FAULTS, absorbed)
    if budget is None:
        return survivors
    if obs.ENABLED:
        if report.degraded:
            obs.incr(names.RESILIENCE_DEGRADED_QUERIES)
        if not report.complete:
            obs.incr(names.RESILIENCE_PARTIAL_QUERIES)
    return PartialResult(survivors, report)
