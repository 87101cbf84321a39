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

The MinMax pre-filter comes first and costs O(n) per query: some
competitor ``Sa`` dominates ``Sq`` with respect to ``Sb`` under MinMax
exactly when ``reach[b] + rb < MinDist(Sq, Sb)``, where ``reach`` is
the index's :meth:`~repro.index.linear.LinearIndex.nearest_reach`
table (built once per index), and the test is bit for bit the pairwise
one.  The scan then sweeps the n x n pair matrix in column blocks of at
most :data:`repro.queries.blocks.BLOCK_PAIRS` pairs (column ``b`` holds
the competitors ``Sa`` of object ``Sb``), computing center gaps only
for the columns the pre-filter left open: a plausibility test
(``MinDist(Sa, Sb) <= MaxDist(Sq, Sb)``, self excluded) drops pairs that
cannot dominate, and for a *correct* criterion so does the Hyperbola
kernel's center test in RkNN's orientation, ``|cq - cb| - |ca - cb| -
(ra + rq) > 0`` (pairs within :data:`repro.queries.blocks.PAIR_GUARD`
of it stay).  The surviving pairs queue across blocks and go to one
:func:`repro.core.batch.batch_evaluate` call (paper Section 5.2) per
``BLOCK_PAIRS`` pending pairs, OR-reduced per column.  Criteria without
a batch kernel (``cascade``, ``verified``) decide the queued pairs one
scalar call at a time, stopping at an object's first refutation.

Resilience: membership here is refute-only, so every degradation is a
*kept* candidate.  A raising kernel call sends its pairs through the
scalar per-pair pass (one absorbed fault); a raising criterion on one
pair keeps that pair's candidate (absorbed fault).  Each block charges
one candidate per object before its pairs are built, so an exhausted
:class:`repro.resilience.Budget` keeps every not-yet-examined object
(even one the pre-filter would refute), exactly as an object-at-a-time
scan would, and returns a :class:`repro.resilience.PartialResult` —
the candidate set is then a superset of the exact one, never missing a
true reverse-NN.  With ``overlay`` deleting every object, the answer is
empty.
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
from repro.queries.blocks import (
    BLOCK_PAIRS,
    PendingPairs,
    blocks,
    charge_rows,
    flat_dataset,
    pair_guard,
)
from repro.queries.explain import ExplainedResult, explain_capture
from repro.resilience.budget import current as current_budget
from repro.resilience.partial import PartialResult, ResilienceReport

if TYPE_CHECKING:
    from repro.stream.overlay import DeltaOverlay

__all__ = ["rnn_candidates"]

#: Criteria whose queued pairs go to one batch-kernel call per flush.
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
    flat = flat_dataset(dataset, query, overlay)
    if isinstance(criterion, str):
        criterion = get_criterion(criterion)
    event_log = obs_export.current_event_log()
    if explain:
        size = 0 if flat is None else len(flat)
        params = {"criterion": criterion.name, "n": size}
        with explain_capture() as capture:
            outcome = _run_rnn(flat, query, criterion)
            detail = capture.finish("rknn", params, outcome)
        if event_log is not None:
            event_log.emit_outcome("rknn", outcome, detail.duration_s)
        return ExplainedResult(outcome, detail)
    if event_log is None:
        return _run_rnn(flat, query, criterion)
    started = time.perf_counter()
    outcome = _run_rnn(flat, query, criterion)
    event_log.emit_outcome("rknn", outcome, time.perf_counter() - started)
    return outcome


def _run_rnn(
    dataset: "LinearIndex | None",
    query: Hypersphere,
    criterion: DominanceCriterion,
) -> "list | PartialResult":
    """The validated query body (see :func:`rnn_candidates`)."""
    budget = current_budget()
    if budget is not None:
        budget.start()

    report = ResilienceReport()
    if dataset is None:  # every object deleted: nothing to answer
        return [] if budget is None else PartialResult([], report)

    n = len(dataset)
    centers = dataset.centers
    radii = dataset.radii
    spheres = dataset.spheres
    rq = query.radius
    batched = criterion.name in _BATCH_KERNELS
    # Duck-typed tally of certified-criterion abstentions (see knn.py).
    uncertain_before = int(getattr(criterion, "uncertain_count", 0))
    absorbed = 0
    refuted = np.zeros(n, dtype=bool)
    examined = n
    gaps_q = np.linalg.norm(centers - query.center, axis=1)
    guard = pair_guard(gaps_q, radii, rq)
    # Vectorised MinMax pre-filter (correct, so pruning is safe): some Sa
    # has MaxDist(Sa, Sb) < MinDist(Sq, Sb) iff the nearest one does.
    min_dist_q = np.maximum(gaps_q - rq - radii, 0.0)
    prefiltered = dataset.nearest_reach() + radii < min_dist_q
    pending = PendingPairs()  # (competitor, object) pairs for the kernel
    for lo, hi in blocks(n):
        if budget is not None:
            granted = charge_rows(budget, lo, hi, 1)
            if granted < hi:
                # Out of budget: an unexamined object cannot be refuted,
                # so it stays a candidate — the answer set only widens.
                report.mark_incomplete(budget.exhausted() or "deadline")
                examined = hi = granted
        refuted[lo:hi] = prefiltered[lo:hi]
        # Exact pass over the plausible pairs of unrefuted columns only.
        # Dominance of Sq wrt Sb needs MinDist(Sa, Sb) <= MaxDist(Sq, Sb)
        # (a necessary condition), so anything farther can be skipped.
        own = lo + np.flatnonzero(~prefiltered[lo:hi])
        rb = radii[own]
        gaps = np.linalg.norm(centers[:, None, :] - centers[None, own], axis=2)
        plausible = gaps - radii[:, None] - rb <= gaps_q[own] + rq + rb
        plausible[own, np.arange(own.size)] = False  # never against itself
        if criterion.is_correct:
            # For a correct criterion so is the kernel's center test in
            # RkNN's orientation, |cq - cb| - |ca - cb| - (ra + rq) > 0;
            # pairs within the guard of it go to the criterion.
            inside = gaps_q[own] - gaps - (radii[:, None] + rq) > -guard
            if obs.ENABLED:
                obs.incr(
                    names.FLAT_CENTER_RULED_OUT,
                    int(np.count_nonzero(plausible & ~inside)),
                )
            plausible &= inside
        # Column-major: each object's competitors, in dataset order.
        cols, rows = np.nonzero(plausible.T)
        pending.add(rows, own[cols])
        if pending.size < BLOCK_PAIRS and hi < n and report.complete:
            continue  # flush at BLOCK_PAIRS pending, the last block or a cut
        competitors, objects = pending.take()
        scalar = not batched
        if batched and competitors.size:
            try:
                hits = batch_evaluate(
                    criterion.name,
                    centers[competitors],
                    np.broadcast_to(
                        query.center, (competitors.size, dataset.dimension)
                    ),
                    centers[objects],
                    radii[competitors],
                    np.full(competitors.size, rq),
                    radii[objects],
                )
            except ArithmeticError:
                # A broken kernel proves nothing: redo its pairs one by
                # one, and count the absorption.
                absorbed += 1
                scalar = True
            else:
                refuted[objects[hits]] = True
        if scalar:
            candidates = zip(competitors.tolist(), objects.tolist())
            for competitor, column in candidates:
                if refuted[column]:
                    continue  # refuted already: stop at the first refutation
                try:
                    if criterion.dominates(
                        spheres[competitor], query, spheres[column]
                    ):
                        refuted[column] = True
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
