"""Unbudgeted-execution overhead guard for the kNN search.

The resilience layer threads a ``budget`` through the two-phase kNN
search (:func:`repro.queries.knn._search_tree` over a tree's leaf
directory, and its phase-2 band rule from
:func:`repro.queries.knn._band_filter`) and guards every charge — one
node charge and one candidate charge per leaf before each phase uses
it — with a single ``budget is not None`` check, plus one contextvar
read per query in :func:`~repro.queries.knn.knn_query`.  With no
budget active that must cost within 5% of a replica search with the
budget plumbing deleted.

The replica below re-states both phases and the band rule minus the
budget checks, sharing every other helper (the fault-absorbing
directory bounds and their rounding slack, the visit tally, the
packed-leaf sweep, the top-k offer, the anchor selection, the masked
phase-2 collection, the guarded dominance check), so the two differ
*only* by the ``if budget is not None`` guards — the same discipline
as the instrumentation guard in ``test_obs_overhead.py``.

Interleaved best-of-N timing keeps the comparison robust against CPU
frequency drift: each round times both variants back to back and only
the fastest round of each survives.
"""

from __future__ import annotations

import math
import time

import numpy as np
from conftest import make_synthetic

from repro import obs
from repro.data.workload import knn_queries
from repro.index.sstree import SSTree
from repro.queries import knn as knn_mod
from repro.queries.knn import (
    KNNResult,
    _any_anchor_dominates,
    _beyond,
    _bound_leaves,
    _collect,
    _count_visit,
    _kth,
    _offer,
    _sweep,
)
from repro.queries.validation import validate_k, validate_query
from repro.resilience.budget import current as current_budget

ROUNDS = 20
MAX_OVERHEAD_RATIO = 1.05
K = 10


def _band_filter_unbudgeted(query, criterion, result, anchors):
    """``knn._band_filter`` with the budget guard deleted."""

    def kept(sphere):
        if anchors:
            result.dominance_checks += len(anchors)
            return not _any_anchor_dominates(
                anchors, sphere, query, criterion, result
            )
        result.degraded_checks += 1
        return True

    return kept


def _search_tree_unbudgeted(
    directory, query, k, criterion, result, levels, shadowed, memtable
):
    """``knn._search_tree`` with the budget guards deleted."""
    leaves, depths = directory.leaves, directory.depths
    min_lower, max_lower = _bound_leaves(directory, query, result)
    _count_visit(result, levels, 0)
    swept = {}

    top = []
    near = []
    if memtable is not None:
        _offer(top, near, k, memtable[0], memtable[1], frozenset())
    lower = max_lower.tolist()
    for i in np.argsort(max_lower, kind="stable").tolist():
        if len(top) == k and _beyond(lower[i], -top[0]):
            break
        leaf = leaves[i]
        _count_visit(result, levels, depths[i])
        swept[i] = _sweep(leaf.centers, leaf.radii, query, result)
        _offer(top, near, k, leaf.entries, swept[i][0], shadowed)
    distk, anchors = _kth(top, near, k, False)
    result.distk = distk

    kept = _band_filter_unbudgeted(query, criterion, result, anchors)
    if memtable is not None:
        _collect(*memtable, distk, kept, result)
        result.entries_considered += len(memtable[0])
    pruned = _beyond(min_lower, distk)
    result.pruned_case3 += int(np.count_nonzero(pruned))
    hits = 0
    for i in np.flatnonzero(~pruned).tolist():
        leaf = leaves[i]
        entries = leaf.entries
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


def _baseline_query(tree, query, k, criterion) -> KNNResult:
    """``knn_query`` restated without the budget plumbing.

    Validation stays (it runs once per query in both variants); what is
    deleted is the contextvar read and the per-charge guards.
    """
    k = validate_k(k, len(tree))
    validate_query(query, tree.dimension)
    result = KNNResult(keys=[], spheres=[], distk=math.inf)
    uncertain_before = knn_mod._uncertain_count(criterion)
    _search_tree_unbudgeted(
        tree.leaf_directory(), query, k, criterion, result, None,
        frozenset(), None,
    )
    result.uncertain_decisions = (
        knn_mod._uncertain_count(criterion) - uncertain_before
    )
    knn_mod._record_traversal(tree, result)
    return result


def _run_instrumented(tree, queries, criterion) -> float:
    started = time.perf_counter()
    for query in queries:
        knn_mod.knn_query(tree, query, K, criterion=criterion)
    return time.perf_counter() - started


def _run_baseline(tree, queries, criterion) -> float:
    started = time.perf_counter()
    for query in queries:
        _baseline_query(tree, query, K, criterion)
    return time.perf_counter() - started


def test_unbudgeted_knn_overhead_under_five_percent():
    assert current_budget() is None  # the guard under test must idle

    from repro.core.base import get_criterion

    dataset = make_synthetic(n=1200, d=4, mu=0.2)
    tree = SSTree.bulk_load(dataset.items())
    queries = list(knn_queries(dataset, count=30, seed=2))
    criterion = get_criterion("hyperbola")

    # Same answers, or the comparison is meaningless.
    for query in queries[:10]:
        assert knn_mod.knn_query(
            tree, query, K, criterion=criterion
        ).key_set() == _baseline_query(tree, query, K, criterion).key_set()

    obs.disable()
    assert not obs.ENABLED
    # Warm-up (bytecode caches, branch predictors) before measuring.
    _run_instrumented(tree, queries, criterion)
    _run_baseline(tree, queries, criterion)

    best_instrumented = best_baseline = float("inf")
    for _ in range(ROUNDS):
        best_instrumented = min(
            best_instrumented, _run_instrumented(tree, queries, criterion)
        )
        best_baseline = min(
            best_baseline, _run_baseline(tree, queries, criterion)
        )

    ratio = best_instrumented / best_baseline
    assert ratio < MAX_OVERHEAD_RATIO, (
        f"idle budget plumbing costs {100.0 * (ratio - 1.0):.1f}% "
        f"(budget-aware {best_instrumented:.4f}s vs baseline "
        f"{best_baseline:.4f}s over {len(queries)} queries)"
    )
