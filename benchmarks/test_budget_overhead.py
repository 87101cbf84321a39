"""Unbudgeted-execution overhead guard for the kNN search.

The resilience layer threads a ``budget`` through the two-phase kNN
search (:func:`repro.queries.knn._search_tree` and its phase-2 rule
from :func:`repro.queries.knn._collector`) and guards every charge
with a single ``budget is not None`` check, plus one contextvar read
per query in :func:`~repro.queries.knn.knn_query`.  With no budget
active that must cost within 5% of a replica search with the budget
plumbing deleted.

The replica below re-states both phases and the phase-2 rule minus the
budget checks, sharing every other helper (the fault-absorbing bounds,
the top-k offer, the anchor selection, the guarded dominance check),
so the two differ *only* by the ``if budget is not None`` guards — the
same discipline as the instrumentation guard in
``test_obs_overhead.py``.

Interleaved best-of-N timing keeps the comparison robust against CPU
frequency drift: each round times both variants back to back and only
the fastest round of each survives.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time

from conftest import make_synthetic

from repro import obs
from repro.data.workload import knn_queries
from repro.geometry.distance import max_dist, min_dist
from repro.index.sstree import SSTree
from repro.queries import knn as knn_mod
from repro.queries.knn import (
    KNNResult,
    _any_anchor_dominates,
    _collect_rows,
    _kth,
    _offer,
    _safe,
)
from repro.queries.validation import validate_k, validate_query
from repro.resilience.budget import current as current_budget

ROUNDS = 20
MAX_OVERHEAD_RATIO = 1.05
K = 10


def _collector_unbudgeted(query, criterion, result, distk, anchors):
    """``knn._collector`` with the budget guard deleted."""
    keys, spheres = result.keys, result.spheres

    def collect(key, sphere, dist_max):
        if dist_max > distk:
            if _safe(min_dist, sphere, query, 0.0, result) > distk:
                result.pruned_case3 += 1
                return
            if anchors:
                result.dominance_checks += len(anchors)
                if _any_anchor_dominates(anchors, sphere, query, criterion, result):
                    return
            else:
                result.degraded_checks += 1
        keys.append(key)
        spheres.append(sphere)

    return collect


def _search_tree_unbudgeted(
    root, query, k, criterion, result, levels, shadowed, memtable
):
    """``knn._search_tree`` with the budget guards deleted."""
    tiebreak = itertools.count()
    top = []
    for _, sphere, dist_max, _ in memtable:
        _offer(top, k, dist_max, sphere, tiebreak)
    heap = [
        (
            _safe(type(root).max_dist_lower_bound, root, query, 0.0, result),
            next(tiebreak),
            root,
            0,
        )
    ]
    while heap:
        bound, _, node, depth = heapq.heappop(heap)
        if len(top) == k and bound > -top[0][0]:
            break
        result.nodes_visited += 1
        if levels is not None:
            levels[depth] = levels.get(depth, 0) + 1
        if node.is_leaf:
            for key, sphere in node.entries:
                if key not in shadowed:
                    dist_max = _safe(max_dist, sphere, query, math.inf, result)
                    _offer(top, k, dist_max, sphere, tiebreak)
        else:
            for child in node.children:
                child_bound = _safe(
                    type(child).max_dist_lower_bound, child, query, 0.0, result
                )
                if len(top) < k or child_bound <= -top[0][0]:
                    heapq.heappush(
                        heap, (child_bound, next(tiebreak), child, depth + 1)
                    )
    distk, anchors = _kth(top, k, False)
    result.distk = distk

    collect = _collector_unbudgeted(query, criterion, result, distk, anchors)
    _collect_rows(memtable, distk, collect, result)
    result.entries_considered += len(memtable)
    hits = 0
    stack = [(root, 0)]
    while stack:
        node, depth = stack.pop()
        if _safe(type(node).min_dist, node, query, 0.0, result) > distk:
            result.pruned_case3 += 1
            continue
        result.nodes_visited += 1
        if levels is not None:
            levels[depth] = levels.get(depth, 0) + 1
        if node.is_leaf:
            for key, sphere in node.entries:
                result.entries_considered += 1
                if key in shadowed:
                    hits += 1
                    continue
                collect(key, sphere, _safe(max_dist, sphere, query, math.inf, result))
        else:
            stack.extend((child, depth + 1) for child in node.children)
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
        tree.root, query, k, criterion, result, None, frozenset(), []
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
