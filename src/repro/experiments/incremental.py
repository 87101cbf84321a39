"""The paper's incremental kNN (Section 6), kept to regenerate its figures.

The adapted tree algorithm maintains a best-known list ``L`` sorted by
``MaxDist`` and, for every candidate ``S`` encountered once ``|L| >= k``
(Lemmas 9 and 10), applies the paper's three cases against ``distk``
(the k-th smallest ``MaxDist`` in ``L``):

- Case 1 — ``distmax <= distk``: insert ``S``; with the new ``Sk``,
  evict every list member dominated by ``Sk``.
- Case 2 — ``distmin <= distk < distmax``: keep ``S`` only if ``Sk``
  does *not* dominate it.
- Case 3 — ``distmin > distk``: prune ``S`` outright (Lemma 9 — valid
  for *any* correct criterion, because it is exactly the MinMax
  criterion, which is correct).

Two traversals are provided, as in the paper's experiments: ``"df"``
— depth-first (Roussopoulos et al.), children visited in ascending
``MinDist`` order, subtrees pruned when their ``MinDist`` exceeds
``distk``; and ``"hs"`` — best-first (Hjaltason & Samet), a global
priority queue on ``MinDist``, terminating when the nearest pending
node is prunable.

Pruning against the *current* ``Sk`` is stronger than Definition 2,
which only excludes objects dominated by the *final* ``Sk``.  The true
``Sk`` always survives (domination implies a strictly larger
``MaxDist``), so the final cleanup filters with it and, with the exact
criterion, the answer is a *subset* of the Definition-2 answer:
precision 100%, the quantity the paper reports, with coverage that can
fall below 100% (measured in EXPERIMENTS.md).  With a non-sound
criterion some dominated objects survive, which is the precision loss
Figures 13–16 measure.

The served query, :func:`repro.queries.knn.knn_query`, is the exact
two-phase search.  This module is used only by Figures 13–16, the
knn-algorithm ablation and the claims checklist, so it carries no
budget, overlay, EXPLAIN or event-log plumbing.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
from typing import TYPE_CHECKING

from repro.core.base import DominanceCriterion, get_criterion
from repro.exceptions import ExperimentError
from repro.geometry.distance import max_dist, min_dist
from repro.geometry.hypersphere import Hypersphere
from repro.index.linear import LinearIndex
from repro.queries.knn import KNNResult
from repro.queries.validation import validate_k, validate_query

if TYPE_CHECKING:
    from repro.index.mtree import MTree
    from repro.index.sstree import SSTree, SSTreeNode
    from repro.index.vptree import VPTree

__all__ = ["incremental_knn"]


class _BestKnownList:
    """The list ``L``: entries sorted by ``MaxDist`` to the query."""

    def __init__(
        self, k: int, query: Hypersphere, criterion: DominanceCriterion
    ) -> None:
        self._k = k
        self._query = query
        self._criterion = criterion
        # Parallel, maxdist-sorted storage; the tiebreaker keeps sort
        # stability without ever comparing keys or spheres.
        self._maxdists: list[float] = []
        self._rows: list[tuple[float, int, object, Hypersphere]] = []
        self._tiebreak = itertools.count()
        self.dominance_checks = 0
        self.pruned_case3 = 0

    @property
    def distk(self) -> float:
        """The k-th smallest ``MaxDist`` in L (inf while |L| < k)."""
        if len(self._rows) < self._k:
            return float("inf")
        return self._maxdists[self._k - 1]

    def _kth_sphere(self) -> Hypersphere:
        return self._rows[self._k - 1][3]

    def _insert(self, dist_max: float, key: object, sphere: Hypersphere) -> None:
        row = (dist_max, next(self._tiebreak), key, sphere)
        at = bisect.bisect_left(self._rows, row)
        self._rows.insert(at, row)
        self._maxdists.insert(at, dist_max)

    def _dominates(self, kth: Hypersphere, sphere: Hypersphere) -> bool:
        self.dominance_checks += 1
        return bool(self._criterion.dominates(kth, sphere, self._query))

    def offer(self, key: object, sphere: Hypersphere) -> None:
        """Process one candidate through the paper's three cases."""
        dist_max = max_dist(sphere, self._query)
        if len(self._rows) < self._k:
            self._insert(dist_max, key, sphere)
            return
        distk = self.distk
        if min_dist(sphere, self._query) > distk:  # Case 3
            self.pruned_case3 += 1
            return
        if dist_max <= distk:  # Case 1
            self._insert(dist_max, key, sphere)
            self._evict_dominated()
            return
        # Case 2: distmin <= distk < distmax.
        if not self._dominates(self._kth_sphere(), sphere):
            self._insert(dist_max, key, sphere)

    def _undominated(self) -> "list[tuple[float, int, object, Hypersphere]]":
        """The first k rows plus every later row ``Sk`` does not dominate."""
        kth = self._kth_sphere()
        return self._rows[: self._k] + [
            row for row in self._rows[self._k :] if not self._dominates(kth, row[3])
        ]

    def _evict_dominated(self) -> None:
        """Drop every member dominated by the (new) k-th hypersphere."""
        survivors = self._undominated()
        if len(survivors) != len(self._rows):
            self._rows = survivors
            self._maxdists = [row[0] for row in survivors]

    def finalize(self) -> tuple[list, list[Hypersphere], float]:
        """Final cleanup pass: re-apply dominance by the final Sk."""
        rows = self._rows if len(self._rows) < self._k else self._undominated()
        return [row[2] for row in rows], [row[3] for row in rows], self.distk


def incremental_knn(
    index: "SSTree | VPTree | MTree | LinearIndex",
    query: Hypersphere,
    k: int,
    *,
    criterion: "DominanceCriterion | str" = "hyperbola",
    strategy: str = "hs",
) -> KNNResult:
    """The paper's single-pass kNN over a tree (or a flat scan).

    *strategy* picks the traversal, ``"hs"`` or ``"df"``; a
    :class:`~repro.index.linear.LinearIndex` is offered in storage
    order.  Returns a plain :class:`~repro.queries.knn.KNNResult`.
    """
    if strategy not in ("hs", "df"):
        raise ExperimentError(f"unknown strategy {strategy!r}; use 'df' or 'hs'")
    k = validate_k(k, len(index))
    validate_query(query, index.dimension)
    if isinstance(criterion, str):
        criterion = get_criterion(criterion)
    best = _BestKnownList(k, query, criterion)
    result = KNNResult(keys=[], spheres=[], distk=float("inf"))
    if isinstance(index, LinearIndex):
        for key, sphere in index:
            result.entries_considered += 1
            best.offer(key, sphere)
    elif strategy == "df":
        _depth_first(index.root, query, best, result)
    else:
        _best_first(index.root, query, best, result)
    result.keys, result.spheres, result.distk = best.finalize()
    result.dominance_checks = best.dominance_checks
    result.pruned_case3 = best.pruned_case3
    return result


def _depth_first(
    node: "SSTreeNode", query: Hypersphere, best: _BestKnownList, result: KNNResult
) -> None:
    result.nodes_visited += 1
    if node.is_leaf:
        for key, sphere in node.entries:
            result.entries_considered += 1
            best.offer(key, sphere)
        return
    children = node.children
    for gap, i in sorted(
        (child.min_dist(query), i) for i, child in enumerate(children)
    ):
        # Subtree version of Case 3: every object below has at least this
        # MinDist, so the whole branch is prunable.
        if gap <= best.distk:
            _depth_first(children[i], query, best, result)


def _best_first(
    root: "SSTreeNode", query: Hypersphere, best: _BestKnownList, result: KNNResult
) -> None:
    counter = itertools.count()
    heap = [(root.min_dist(query), next(counter), root)]
    while heap:
        lower_bound, _, node = heapq.heappop(heap)
        if lower_bound > best.distk:
            break  # every remaining node is at least this far: all prunable
        result.nodes_visited += 1
        if node.is_leaf:
            for key, sphere in node.entries:
                result.entries_considered += 1
                best.offer(key, sphere)
        else:
            for child in node.children:
                gap = child.min_dist(query)
                if gap <= best.distk:
                    heapq.heappush(heap, (gap, next(counter), child))
