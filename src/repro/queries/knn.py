"""The kNN query on hypersphere databases (Section 6 of the paper).

Definition 2: given a query hypersphere ``Sq`` and a database ``D``,
let ``Sk`` be the object with the k-th smallest ``MaxDist`` to ``Sq``;
the answer is every object of ``D`` **not dominated by** ``Sk`` with
respect to ``Sq``.  (``Sk`` itself is always an answer, since nothing
dominates itself.)

:func:`knn_query` answers it exactly, in two phases over a tree's leaf
directory (:class:`~repro.index.packed.LeafDirectory`: every leaf's
covering sphere, packed in one array).  One vectorised call bounds
every leaf's ``MinDist`` and ``MaxDist`` from below, so a query reads
no inner node:

1. **Find Sk.**  ``distk``, the k-th smallest ``MaxDist``, comes from
   sweeping leaves in order of their ``MaxDist`` lower bound until the
   next bound clears the k-th ``MaxDist`` found so far — exact
   whatever the dominance criterion.  The objects attaining it are the
   anchors ``Sk``.
2. **Collect.**  Every leaf whose ``MinDist`` bound does not clear
   ``distk`` is collected, keeping every object no anchor dominates.  A
   leaf or object whose ``MinDist`` exceeds ``distk`` is dominated by
   MinMax (Lemma 9), which is correct, so it is pruned without asking
   the criterion; every other object with ``MaxDist > distk`` goes to
   the criterion.

With Hyperbola the answer equals :func:`knn_reference`; with a
correct-but-unsound criterion it is a superset.  A flat
:class:`~repro.index.linear.LinearIndex` runs the same two phases as
one vectorised sweep.  The paper's own single-pass best-known list
(Section 6) prunes against intermediate anchors and so returns a subset
of Definition 2; it is reproduced for the paper's figures in
:mod:`repro.experiments.incremental`.

Both phases bound the entries of a leaf in one vectorised sweep over
its packed ``centers``/``radii`` arrays (:mod:`repro.index.packed`),
computed as a flat scan computes them, and sweep each leaf once per
query: phase 2 reuses the bounds phase 1 swept.  Phase 1 offers its
top-k only the rows at or below the current k-th MaxDist; phase 2
settles Case 3 (``MinDist > distk``) and the rows with ``MaxDist <=
distk`` by mask, so the criterion runs only on the band between the
two.  Leaf bounds round differently from the row sweep, so a leaf is
skipped or pruned only when its bound clears distk by more than a
rounding hair.  EXPLAIN counts the directory sweep as one node access
at level 0 and each swept leaf as one at its depth.

A streaming :class:`~repro.stream.overlay.DeltaOverlay` merges inside
the scan, by one rule for tree and flat bases: memtable rows join
phase 1's top-k and phase 2's collection (their distance bounds come
from one vectorised sweep per query), and base rows whose key the
overlay shadows are skipped.

Resilience (``repro.resilience``)
---------------------------------

Two orthogonal defences make the query path production-safe:

**Fault absorption (always on).**  Every value that decides a *prune*
— leaf distance bounds, per-sphere MinDist/MaxDist, the dominance
criterion itself — is guarded: a raising kernel or a non-finite bound
collapses to the no-prune direction (bound 0, MaxDist ``inf``, or a
MinMax fallback decision) and is tallied on
:attr:`KNNResult.absorbed_faults`.  The directory sweep absorbs a leaf
whose bound is non-finite (bound 0: never skipped or pruned), and a
leaf sweep a row whose MaxDist is non-finite (MaxDist ``inf``, MinDist
0), once per leaf or row per query.  A corrupted value can therefore
widen the answer, never silently narrow it.

**Budgets (opt-in).**  When a :class:`repro.resilience.Budget` is
active (:func:`repro.resilience.scope`), the search charges it per
memtable row and per leaf: one ``charge_node()`` and one
``charge_candidate(m)`` for a leaf's ``m`` entries before each phase
uses them, so a cut skips the whole leaf.  On exhaustion the traversal
stops, the criterion filter is skipped for what is still collected (a
conservative superset), and the query returns a
:class:`repro.resilience.PartialResult` wrapping the
:class:`KNNResult` together with a
:class:`repro.resilience.ResilienceReport` (completeness, achieved
guarantee tier, uncertain and absorbed-fault counts) — it never raises
for running out of time.  Without an active budget the return type and
behaviour are unchanged.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence, TypeVar

import numpy as np

from repro import obs
from repro.obs import export as obs_export
from repro.obs import names
from repro.core.base import DominanceCriterion, get_criterion
from repro.exceptions import ValidationError
from repro.geometry import distance as _distance
from repro.geometry.hypersphere import Hypersphere
from repro.index.linear import LinearIndex
from repro.index.packed import LeafDirectory, pack
from repro.index.sstree import SSTree
from repro.index.vptree import VPTree
from repro.queries.explain import ExplainedResult, explain_capture
from repro.queries.validation import validate_k, validate_query
from repro.resilience.budget import Budget
from repro.resilience.budget import current as current_budget
from repro.resilience.partial import PartialResult, ResilienceReport

if TYPE_CHECKING:
    from repro.stream.overlay import DeltaOverlay

__all__ = ["KNNResult", "knn_query", "knn_reference"]

#: Rows one vectorised sweep bounded (a tree leaf, the memtable or a
#: flat scan): their ``(key, sphere)`` entries, MaxDist and MinDist.
_Block = tuple[Sequence[tuple[object, Hypersphere]], np.ndarray, np.ndarray]

#: Relative slack by which a leaf bound must exceed distk to prune
#: (see :func:`_beyond`).
_NODE_SLACK = 1e-9

#: A bound compared by :func:`_beyond`: one leaf's, or an array of them
#: (the comparison then answers per leaf).
_Bound = TypeVar("_Bound", float, np.ndarray)


def _record_traversal(index: object, result: "KNNResult") -> None:
    """Feed one query's tallies to the index stats and the obs registry.

    Duck-typed indexes without the stats mixin are simply skipped.  A
    flat :class:`LinearIndex` scan counts as one node access (the whole
    structure is one "node").
    """
    node_accesses = result.nodes_visited
    if node_accesses == 0 and isinstance(index, LinearIndex):
        node_accesses = 1
    recorder = getattr(index, "record_query", None)
    if recorder is not None:
        recorder(
            node_accesses=node_accesses,
            entries_scanned=result.entries_considered,
        )
    if obs.ENABLED:
        obs.incr(names.KNN_QUERIES)
        obs.incr(names.KNN_NODE_ACCESSES, node_accesses)
        obs.incr(names.KNN_ENTRIES_CONSIDERED, result.entries_considered)
        obs.incr(names.KNN_DOMINANCE_CHECKS, result.dominance_checks)
        obs.incr(names.KNN_PRUNED_CASE3, result.pruned_case3)
        obs.incr(names.KNN_UNCERTAIN_DECISIONS, result.uncertain_decisions)
        obs.observe(names.KNN_ANSWER_SIZE, len(result.keys))
        if result.absorbed_faults:
            obs.incr(names.RESILIENCE_ABSORBED_FAULTS, result.absorbed_faults)


def _jsonable_key(key: object) -> object:
    """Entry keys restricted to JSON scalars (tuples become lists)."""
    if key is None or isinstance(key, (bool, int, float, str)):
        return key
    if isinstance(key, tuple):
        return [_jsonable_key(item) for item in key]
    return str(key)


def _uncertain_count(criterion: object) -> int:
    """Running UNCERTAIN tally of a certified criterion (0 otherwise).

    Duck-typed on the ``uncertain_count`` attribute of
    :class:`~repro.robust.verified.VerifiedHyperbola`, so the query
    layer needs no dependency on :mod:`repro.robust`.
    """
    return int(getattr(criterion, "uncertain_count", 0))


@dataclass
class KNNResult:
    """Answer set and traversal statistics of one kNN query."""

    keys: list
    spheres: list[Hypersphere]
    distk: float
    #: Node accesses: a tree query's directory sweep plus each leaf it
    #: swept (0 for a flat scan, which the index stats count as one).
    nodes_visited: int = 0
    entries_considered: int = 0
    dominance_checks: int = 0
    #: Objects and whole leaves pruned by MinMax (Case 3, Lemma 9).
    pruned_case3: int = 0
    #: Dominance checks a certified criterion (e.g. ``"verified"``)
    #: answered UNCERTAIN during this query, falling back to its
    #: conservative boolean; always 0 for plain boolean criteria.
    uncertain_decisions: int = 0
    #: Corrupted intermediates (non-finite bounds, raising kernels) the
    #: query layer detected and absorbed by refusing to prune.
    absorbed_faults: int = 0
    #: Objects kept without the criterion filter because an execution
    #: budget ran out (the answer is then a conservative superset).
    degraded_checks: int = 0

    def __len__(self) -> int:
        return len(self.keys)

    def key_set(self) -> set:
        """The answer keys as a set (order is not meaningful)."""
        return set(self.keys)

    def to_dict(self) -> dict:
        """A JSON-friendly form: answer keys, distk and the stat tallies.

        The spheres are deliberately omitted — callers that need the
        geometry have the keys to look it up, and the serialised form is
        what crosses the CLI ``--json`` and HTTP service boundaries.
        """
        return {
            "keys": [_jsonable_key(key) for key in self.keys],
            "distk": self.distk,
            "nodes_visited": self.nodes_visited,
            "entries_considered": self.entries_considered,
            "dominance_checks": self.dominance_checks,
            "pruned_case3": self.pruned_case3,
            "uncertain_decisions": self.uncertain_decisions,
            "absorbed_faults": self.absorbed_faults,
            "degraded_checks": self.degraded_checks,
        }


def _wrap_partial(result: KNNResult, budget: Budget) -> PartialResult:
    """Assemble the :class:`ResilienceReport` for one budgeted query."""
    report = ResilienceReport()
    reason = budget.exhausted()
    if reason is not None:
        report.mark_incomplete(reason)
    if result.degraded_checks:
        report.mark_conservative(
            "dominance filtering skipped once the budget ran out"
        )
    report.uncertain = result.uncertain_decisions
    report.absorbed_faults = result.absorbed_faults
    if obs.ENABLED:
        if report.degraded:
            obs.incr(names.RESILIENCE_DEGRADED_QUERIES)
        if not report.complete:
            obs.incr(names.RESILIENCE_PARTIAL_QUERIES)
    return PartialResult(result, report)


def knn_query(
    index: "SSTree | VPTree | LinearIndex",
    query: Hypersphere,
    k: int,
    *,
    criterion: "DominanceCriterion | str" = "hyperbola",
    explain: bool = False,
    overlay: "DeltaOverlay | None" = None,
) -> "KNNResult | PartialResult | ExplainedResult":
    """Answer the Definition-2 kNN query over *index*.

    Parameters
    ----------
    index:
        An :class:`~repro.index.sstree.SSTree`,
        :class:`~repro.index.vptree.VPTree` or
        :class:`~repro.index.mtree.MTree` (searched with pruning), or a
        :class:`~repro.index.linear.LinearIndex` (one vectorised sweep).
        Any tree with a ``leaf_directory()``
        (:class:`~repro.index.packed.LeafDirectoryMixin`) works.
    query:
        The query hypersphere ``Sq``.
    k:
        Number of neighbours anchoring ``Sk`` (``1 <= k <= |D|``).
    criterion:
        Dominance criterion instance or registry name.  Hyperbola gives
        the exact answer; correct-but-unsound criteria return supersets.
    overlay:
        An optional :class:`repro.stream.overlay.DeltaOverlay` of
        streaming mutations to merge at query time: the answer is
        Definition 2 over base ⊖ shadowed ⊕ memtable.  Memtable entries
        run through the same certified cascade as base entries.
    explain:
        When true, run the query under a private enabled obs scope and
        return an :class:`~repro.queries.explain.ExplainedResult`
        carrying the answer plus a structured
        :class:`~repro.queries.explain.QueryExplain` (per-level node
        accesses, cascade tiers, pruning effectiveness, budget use).
        Costs a single branch when off.

    Returns
    -------
    A plain :class:`KNNResult` normally; a
    :class:`~repro.resilience.PartialResult` wrapping one when a
    :class:`~repro.resilience.Budget` is active in the current context
    (see :func:`repro.resilience.scope`); an
    :class:`~repro.queries.explain.ExplainedResult` wrapping either
    when ``explain=True``.
    """
    if overlay is not None and not overlay:
        overlay = None  # an empty overlay merges to the plain query
    # Shadowed base rows are only known during the scan, which raises
    # the same error when fewer than k rows turn out to be live.
    k = validate_k(k, len(index) + (len(overlay) if overlay is not None else 0))
    validate_query(query, index.dimension)
    if isinstance(criterion, str):
        criterion = get_criterion(criterion)
    event_log = obs_export.current_event_log()
    if explain:
        params = {
            "k": k,
            "criterion": criterion.name,
            "index": type(index).__name__,
        }
        if overlay is not None:
            params["overlay"] = len(overlay)
        with explain_capture() as capture:
            outcome = _run_knn(index, query, k, criterion, overlay, capture.levels)
            detail = capture.finish("knn", params, outcome)
        if event_log is not None:
            event_log.emit_outcome("knn", outcome, detail.duration_s)
        return ExplainedResult(outcome, detail)
    if event_log is None:
        return _run_knn(index, query, k, criterion, overlay)
    started = time.perf_counter()
    outcome = _run_knn(index, query, k, criterion, overlay)
    event_log.emit_outcome("knn", outcome, time.perf_counter() - started)
    return outcome


def _run_knn(
    index: "SSTree | VPTree | LinearIndex",
    query: Hypersphere,
    k: int,
    criterion: DominanceCriterion,
    overlay: "DeltaOverlay | None" = None,
    levels: "dict[int, int] | None" = None,
) -> "KNNResult | PartialResult":
    """The validated query body (see :func:`knn_query` for semantics)."""
    budget = current_budget()
    if budget is not None:
        budget.start()
    result = KNNResult(keys=[], spheres=[], distk=math.inf)
    uncertain_before = _uncertain_count(criterion)
    shadowed: "frozenset[object]" = frozenset()
    memtable: "_Block | None" = None
    cut = False
    if overlay is not None:
        shadowed = overlay.shadowed_keys()
        entries: "list[tuple[object, Hypersphere]]" = []
        # One candidate charge per memtable row, as for a flat scan.
        for key, sphere in overlay.entries():
            if budget is not None and budget.charge_candidate() is not None:
                cut = True
                break
            entries.append((key, sphere))
        if entries:
            memtable = (entries, *_sweep(*pack(entries), query, result))
    if isinstance(index, LinearIndex):
        hits = _scan_linear(
            index, query, k, criterion, result, budget, shadowed, memtable, cut
        )
    else:
        hits = _search_tree(
            index.leaf_directory(), query, k, criterion, result, budget,
            levels, shadowed, memtable, cut,
        )
    result.uncertain_decisions = _uncertain_count(criterion) - uncertain_before
    if overlay is not None and obs.ENABLED:
        obs.incr(names.STREAM_MERGED_QUERIES)
        if hits:
            obs.incr(names.STREAM_TOMBSTONE_HITS, hits)
    _record_traversal(index, result)
    if budget is None:
        return result
    return _wrap_partial(result, budget)


def _sweep(
    centers: np.ndarray, radii: np.ndarray, query: Hypersphere, result: KNNResult
) -> "tuple[np.ndarray, np.ndarray]":
    """MaxDist and MinDist of packed rows to *query*, in one vectorised sweep.

    The bounds are computed as
    :meth:`~repro.index.linear.LinearIndex.max_dists` and
    :meth:`~repro.index.linear.LinearIndex.min_dists` compute them; a
    row with a non-finite MaxDist is absorbed (MaxDist ``inf``, MinDist
    0: never pruned) and tallied, as :func:`_bound_leaves` absorbs a
    leaf bound, and a raising distance kernel absorbs every row of the
    sweep.
    """
    try:
        # Resolved at call time: the "distance" fault seam.
        gaps = _distance.dists(centers, query.center)
    except ArithmeticError:
        gaps = np.full(radii.size, math.nan)
    dist_max = gaps + radii + query.radius
    dist_min = np.maximum(gaps - radii - query.radius, 0.0)
    corrupt = ~np.isfinite(dist_max)
    if corrupt.any():
        result.absorbed_faults += int(corrupt.sum())
        dist_max[corrupt], dist_min[corrupt] = math.inf, 0.0
    return dist_max, dist_min


def _beyond(bound: "_Bound", distk: float) -> "_Bound":
    """Whether a leaf bound (or each of an array of them) clears *distk*
    by more than rounding.

    A leaf bound and the row bounds below it round differently, so a
    leaf whose bound lies within a hair of distk may still hold a row
    attaining it; only a bound past that hair skips or prunes the leaf.
    """
    return bound > distk + _NODE_SLACK * (1.0 + distk)


def _offer(
    top: "list[float]",
    near: "list[tuple[float, Hypersphere]]",
    k: int,
    entries: "Sequence[tuple[object, Hypersphere]]",
    dist_max: np.ndarray,
    shadowed: "frozenset[object]",
) -> None:
    """Offer phase 1's top-k (negated MaxDists, a max-heap) a swept block.

    Once the top-k is full only rows at or below its k-th MaxDist can
    enter it or tie distk, so only they are read.  The rows read also
    join *near*, the anchor candidates: every row attaining the final
    distk is among them, because the k-th MaxDist only ever shrinks.
    """
    if len(top) < k:
        rows: "Sequence[int]" = range(len(entries))
    else:
        rows = np.flatnonzero(dist_max <= -top[0]).tolist()
    for i in rows:
        key, sphere = entries[i]
        if key in shadowed:
            continue
        value = float(dist_max[i])
        near.append((value, sphere))
        if len(top) < k:
            heapq.heappush(top, -value)
        elif value < -top[0]:
            heapq.heapreplace(top, -value)


def _kth(
    top: "list[float]",
    near: "list[tuple[float, Hypersphere]]",
    k: int,
    cut: bool,
) -> "tuple[float, list[Hypersphere]]":
    """``(distk, anchors)`` from phase 1's top-k and anchor candidates.

    Every row attaining distk is an anchor, as in :func:`knn_reference`.
    When the budget cut phase 1 short the found distk is only an
    *upper* bound on the true one: Case-3 pruning against it stays safe
    (MinDist > distk' >= distk), but the found anchors may not be the
    true Sk, so there are none and phase 2 skips the criterion filter.
    """
    if len(top) < k:
        if not cut:
            raise ValidationError(f"k={k} exceeds the dataset size {len(top)}")
        return math.inf, []
    distk = -top[0]
    return distk, ([] if cut else [s for value, s in near if value == distk])


def _band_filter(
    query: Hypersphere,
    criterion: DominanceCriterion,
    result: KNNResult,
    budget: "Budget | None",
    anchors: "list[Hypersphere]",
) -> "Callable[[Hypersphere], bool]":
    """Phase 2's rule for a band row: keep it unless ``Sk`` dominates it."""

    def kept(sphere: Hypersphere) -> bool:
        if anchors and (budget is None or budget.exhausted() is None):
            result.dominance_checks += len(anchors)
            return not _any_anchor_dominates(
                anchors, sphere, query, criterion, result
            )
        # No trustworthy Sk, or no budget left for the filter:
        # keep — a conservative superset, never a wrong cut.
        result.degraded_checks += 1
        return True

    return kept


def _collect(
    entries: "Sequence[tuple[object, Hypersphere]]",
    dist_max: np.ndarray,
    dist_min: np.ndarray,
    distk: float,
    kept: "Callable[[Hypersphere], bool]",
    result: KNNResult,
    dead: "Sequence[int]" = (),
) -> None:
    """Phase 2 over a swept block, in entry order.

    Case 3 (``MinDist > distk``: dominated via MinMax, Lemma 9) and the
    rows with ``MaxDist <= distk`` (``Sk`` and its ties: never
    dominated) are settled by mask; only the band rows between them go
    to *kept*.  Rows at the *dead* positions (shadowed) are skipped.
    """
    case3 = dist_min > distk
    undecided = ~case3
    if dead:
        case3[dead] = undecided[dead] = False
    result.pruned_case3 += int(np.count_nonzero(case3))
    rows = np.flatnonzero(undecided).tolist()
    if not rows:
        return
    keep = dist_max <= distk
    for i in rows:
        key, sphere = entries[i]
        if keep[i] or kept(sphere):
            result.keys.append(key)
            result.spheres.append(sphere)


def _bound_leaves(
    directory: LeafDirectory, query: Hypersphere, result: KNNResult
) -> "tuple[np.ndarray, np.ndarray]":
    """Every leaf's MinDist and MaxDist lower bounds, fault-absorbing.

    One :meth:`~repro.index.packed.LeafDirectory.bounds` call bounds the
    whole directory.  A raising call, or a non-finite bound, leaves that
    leaf at bound 0 — never skipped, never pruned — and is tallied once
    per leaf, so corruption can only widen the search.
    """
    try:
        # Resolved at call time: the "index" fault seam.
        min_lower, max_lower = directory.bounds(query)
    except ArithmeticError:
        min_lower = max_lower = np.full(len(directory), math.nan)
    corrupt = ~(np.isfinite(min_lower) & np.isfinite(max_lower))
    if corrupt.any():
        result.absorbed_faults += int(corrupt.sum())
        min_lower = np.where(corrupt, 0.0, min_lower)
        max_lower = np.where(corrupt, 0.0, max_lower)
    return min_lower, max_lower


def _count_visit(
    result: KNNResult, levels: "dict[int, int] | None", depth: int
) -> None:
    """Tally one node access (EXPLAIN: at *depth*)."""
    result.nodes_visited += 1
    if levels is not None:
        levels[depth] = levels.get(depth, 0) + 1


def _search_tree(
    directory: LeafDirectory,
    query: Hypersphere,
    k: int,
    criterion: DominanceCriterion,
    result: KNNResult,
    budget: "Budget | None",
    levels: "dict[int, int] | None",
    shadowed: "frozenset[object]",
    memtable: "_Block | None",
    cut: bool,
) -> int:
    """Both phases over a tree's leaf directory; returns shadowed rows skipped.

    One call bounds every leaf, counted as one node access at level 0.
    Each leaf is swept at most once, counted as one access at its depth:
    phase 2 reuses the bounds of the leaves phase 1 swept.
    """
    leaves, depths = directory.leaves, directory.depths
    min_lower, max_lower = _bound_leaves(directory, query, result)
    _count_visit(result, levels, 0)
    swept: "dict[int, tuple[np.ndarray, np.ndarray]]" = {}

    # Phase 1: the k-th smallest MaxDist, sweeping leaves in order of
    # their MaxDist lower bound (exact regardless of the dominance
    # criterion) until the next bound clears the k-th MaxDist.
    top: "list[float]" = []
    near: "list[tuple[float, Hypersphere]]" = []
    if memtable is not None:
        _offer(top, near, k, memtable[0], memtable[1], frozenset())
    lower = max_lower.tolist()
    order: "list[int]" = (
        [] if cut else np.argsort(max_lower, kind="stable").tolist()
    )
    for i in order:
        if len(top) == k and _beyond(lower[i], -top[0]):
            break
        if budget is not None and budget.charge_node() is not None:
            cut = True
            break
        leaf = leaves[i]
        if (
            budget is not None
            and budget.charge_candidate(len(leaf.entries)) is not None
        ):
            cut = True
            break
        _count_visit(result, levels, depths[i])
        swept[i] = _sweep(leaf.centers, leaf.radii, query, result)
        _offer(top, near, k, leaf.entries, swept[i][0], shadowed)
    distk, anchors = _kth(top, near, k, cut)
    result.distk = distk

    # Phase 2: collect every object not dominated by Sk.  A leaf with
    # MinDist > distk is entirely dominated via MinMax (Lemma 9).
    kept = _band_filter(query, criterion, result, budget, anchors)
    if memtable is not None:
        _collect(*memtable, distk, kept, result)
        result.entries_considered += len(memtable[0])
    pruned = _beyond(min_lower, distk)
    result.pruned_case3 += int(np.count_nonzero(pruned))
    hits = 0
    for i in np.flatnonzero(~pruned).tolist():
        if budget is not None and budget.charge_node() is not None:
            break
        leaf = leaves[i]
        entries = leaf.entries
        if (
            budget is not None
            and budget.charge_candidate(len(entries)) is not None
        ):
            break
        result.entries_considered += len(entries)
        bounds = swept.get(i)
        if bounds is None:
            _count_visit(result, levels, depths[i])
            bounds = _sweep(leaf.centers, leaf.radii, query, result)
        dead = (
            [j for j, (key, _) in enumerate(entries) if key in shadowed]
            if shadowed
            else []
        )
        hits += len(dead)
        _collect(entries, *bounds, distk, kept, result, dead)
    return hits


def _scan_linear(
    index: LinearIndex,
    query: Hypersphere,
    k: int,
    criterion: DominanceCriterion,
    result: KNNResult,
    budget: "Budget | None",
    shadowed: "frozenset[object]",
    memtable: "_Block | None",
    cut: bool,
) -> int:
    """Both phases as one vectorised sweep; returns the rows skipped."""
    if budget is not None:
        # The vectorised scan considers every entry in one sweep.
        budget.charge_candidate(len(index))
    entries = list(zip(index.keys, index.spheres))
    dist_max, dist_min = _sweep(index.centers, index.radii, query, result)
    if shadowed:
        live = [i for i, key in enumerate(index.keys) if key not in shadowed]
        entries = [entries[i] for i in live]
        dist_max, dist_min = dist_max[live], dist_min[live]
    if memtable is not None:
        entries += memtable[0]
        dist_max = np.concatenate([dist_max, memtable[1]])
        dist_min = np.concatenate([dist_min, memtable[2]])
    if len(entries) < k:
        if not cut:
            raise ValidationError(f"k={k} exceeds the dataset size {len(entries)}")
        distk, anchors = math.inf, []
    else:
        distk = float(np.partition(dist_max, k - 1)[k - 1])
        # Every row attaining distk is an anchor (as in knn_reference).
        anchors = (
            []
            if cut
            else [entries[i][1] for i in np.flatnonzero(dist_max == distk)]
        )
    result.distk = distk
    considered = len(index) + (len(memtable[0]) if memtable is not None else 0)
    result.entries_considered = considered
    kept = _band_filter(query, criterion, result, budget, anchors)
    _collect(entries, dist_max, dist_min, distk, kept, result)
    return considered - len(entries)


def _any_anchor_dominates(
    anchors: "list[Hypersphere]",
    sphere: Hypersphere,
    query: Hypersphere,
    criterion: DominanceCriterion,
    result: KNNResult,
) -> bool:
    """Guarded ``any(dominates)`` over the anchors.

    A raising criterion falls back to MinMax; a raising fallback
    answers ``False`` (keep) — both directions are conservative.
    """
    fallback = None
    for anchor in anchors:
        try:
            if criterion.dominates(anchor, sphere, query):
                return True
            continue
        except ArithmeticError:
            result.absorbed_faults += 1
        if fallback is None:
            fallback = get_criterion("minmax")
        try:
            if fallback.dominates(anchor, sphere, query):
                return True
        except ArithmeticError:
            result.absorbed_faults += 1
    return False


def knn_reference(
    dataset: "LinearIndex | Sequence[tuple[object, Hypersphere]]",
    query: Hypersphere,
    k: int,
    *,
    criterion: "DominanceCriterion | str" = "hyperbola",
) -> KNNResult:
    """The exact Definition-2 answer, computed by direct evaluation.

    Finds ``distk`` (the k-th smallest ``MaxDist``) vectorised, takes
    every object attaining it as ``Sk`` (the paper keeps all ties), and
    returns the objects not dominated by any ``Sk``.

    When *criterion* is given by name and has a batch kernel, the
    dominance checks run vectorised (the reference is evaluated once
    per query in every kNN experiment, so it is the harness
    bottleneck); a criterion *instance* falls back to per-object calls.

    The reference is deliberately budget-blind: it is the ground truth
    the resilience tests compare degraded answers against.
    """
    if not isinstance(dataset, LinearIndex):
        dataset = LinearIndex(dataset)
    k = validate_k(k, len(dataset))
    validate_query(query, dataset.dimension)
    batch_name = criterion if isinstance(criterion, str) else None
    if isinstance(criterion, str):
        criterion = get_criterion(criterion)

    maxdists = dataset.max_dists(query)
    distk = float(np.partition(maxdists, k - 1)[k - 1])
    anchor_rows = np.flatnonzero(maxdists == distk)
    anchors = [dataset.spheres[i] for i in anchor_rows]

    candidate_rows = np.flatnonzero(maxdists > distk)
    dominated = np.zeros(len(dataset), dtype=bool)
    checks = len(anchors) * int(candidate_rows.size)
    if candidate_rows.size and batch_name is not None:
        from repro.core.batch import batch_evaluate

        n = int(candidate_rows.size)
        cq = np.broadcast_to(query.center, (n, dataset.dimension))
        rq = np.full(n, query.radius)
        cb = dataset.centers[candidate_rows]
        rb = dataset.radii[candidate_rows]
        for anchor_row in anchor_rows:
            ca = np.broadcast_to(dataset.centers[anchor_row], (n, dataset.dimension))
            ra = np.full(n, dataset.radii[anchor_row])
            dominated[candidate_rows] |= batch_evaluate(
                batch_name, ca, cb, cq, ra, rb, rq
            )
    elif candidate_rows.size:
        for i in candidate_rows:
            sphere = dataset.spheres[i]
            dominated[i] = any(
                criterion.dominates(sk, sphere, query) for sk in anchors
            )

    keys, spheres = [], []
    for i, (key, sphere) in enumerate(zip(dataset.keys, dataset.spheres)):
        if not dominated[i]:
            keys.append(key)
            spheres.append(sphere)
    # The reference scan is harness work, not a measured traversal:
    # tally it on the index but under its own obs counter.
    dataset.record_query(node_accesses=1, entries_scanned=len(dataset))
    if obs.ENABLED:
        obs.incr(names.KNN_REFERENCE_QUERIES)
        obs.incr(names.KNN_REFERENCE_DOMINANCE_CHECKS, checks)
    return KNNResult(
        keys=keys,
        spheres=spheres,
        distk=distk,
        entries_considered=len(dataset),
        dominance_checks=checks,
    )
