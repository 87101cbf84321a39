"""A vantage-point tree over hypersphere data (extension).

The paper's related work (Section 5.1) lists the VP-tree among the
metric index structures hyperspheres appear in.  This implementation
adapts the classic VP-tree (Yianilos / Chiueh) to *hypersphere* objects
so it can drive the same kNN machinery as the SS-tree:

- objects live in leaf buckets;
- every inner node stores a vantage point and splits its members at the
  median distance-to-vantage (inner ball vs outer shell);
- every node (leaf or inner) additionally records, over all objects
  beneath it: the range ``[lo, hi]`` of center-to-vantage distances and
  the largest object radius ``r_max``.  The reverse triangle inequality
  then gives an O(1) lower bound on any member's distance to a query,
  which is exactly the interface the kNN traversals need.

The node type deliberately exposes the same duck-typed surface as
:class:`~repro.index.sstree.SSTreeNode` (``is_leaf``, ``entries``,
``children``, ``min_dist``, ``max_dist_lower_bound``), so
:func:`repro.queries.knn.knn_query` works with either index unchanged.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.exceptions import IndexStructureError
from repro.geometry.hypersphere import Hypersphere
from repro.index.instrumentation import IndexStatsMixin
from repro.index.packed import LeafDirectoryMixin, check_packed, pack

__all__ = ["VPTree", "VPTreeNode"]

DEFAULT_LEAF_CAPACITY = 16


class VPTreeNode:
    """A VP-tree node: a vantage point plus member distance statistics.

    A leaf also keeps its entries packed as ``centers``/``radii`` arrays
    (:mod:`repro.index.packed`), set when the leaf is built.
    """

    __slots__ = ("is_leaf", "entries", "centers", "radii", "children",
                 "vantage", "lo", "hi", "r_max", "count", "split_radius")

    def __init__(self, is_leaf: bool) -> None:
        self.is_leaf = is_leaf
        self.entries: list[tuple[object, Hypersphere]] = []
        self.centers, self.radii = pack(self.entries)
        self.children: list[VPTreeNode] = []
        self.vantage: np.ndarray | None = None
        self.lo = 0.0
        self.hi = 0.0
        self.r_max = 0.0
        self.count = 0
        self.split_radius = 0.0  # inner/outer boundary (inner nodes only)

    def _center_gap_band(self, query: Hypersphere) -> float:
        """Lower bound on ``Dist(c_S, cq)`` over every member S."""
        to_vantage = float(np.linalg.norm(query.center - self.vantage))
        return max(to_vantage - self.hi, self.lo - to_vantage, 0.0)

    def min_dist(self, query: Hypersphere) -> float:
        """Lower bound on ``MinDist(S, query)`` for every member S."""
        gap = self._center_gap_band(query) - self.r_max - query.radius
        return gap if gap > 0.0 else 0.0

    def max_dist_lower_bound(self, query: Hypersphere) -> float:
        """Lower bound on ``MaxDist(S, query)`` for every member S."""
        return self._center_gap_band(query) + query.radius


class VPTree(IndexStatsMixin, LeafDirectoryMixin):
    """A bucketed vantage-point tree over keyed hyperspheres.

    Built in one shot from the full dataset (the classic VP-tree is a
    static structure).

    Examples
    --------
    >>> tree = VPTree.build([("a", Hypersphere([0.0, 0.0], 1.0)),
    ...                      ("b", Hypersphere([5.0, 5.0], 0.5))])
    >>> len(tree)
    2
    """

    def __init__(self, root: VPTreeNode, dimension: int, leaf_capacity: int) -> None:
        self.root = root
        self.dimension = dimension
        self.leaf_capacity = leaf_capacity
        self._init_stats()

    @classmethod
    def build(
        cls,
        items: Iterable[tuple[object, Hypersphere]],
        *,
        leaf_capacity: int = DEFAULT_LEAF_CAPACITY,
        seed: int = 0,
    ) -> "VPTree":
        """Construct the tree over *items* (``(key, Hypersphere)`` pairs)."""
        items = list(items)
        if not items:
            raise IndexStructureError("cannot build an index over an empty dataset")
        if leaf_capacity < 2:
            raise IndexStructureError(
                f"leaf_capacity must be at least 2, got {leaf_capacity}"
            )
        dimension = items[0][1].dimension
        for _, sphere in items:
            if sphere.dimension != dimension:
                raise IndexStructureError("all spheres must share one dimensionality")
        rng = np.random.default_rng(seed)
        root = cls._build_node(items, leaf_capacity, rng)
        return cls(root, dimension, leaf_capacity)

    @staticmethod
    def _node_statistics(node: VPTreeNode, items: list) -> None:
        centers = np.stack([sphere.center for _, sphere in items])
        gaps = np.linalg.norm(centers - node.vantage, axis=1)
        node.lo = float(gaps.min())
        node.hi = float(gaps.max())
        node.r_max = max(sphere.radius for _, sphere in items)
        node.count = len(items)

    @classmethod
    def _build_node(
        cls, items: list, leaf_capacity: int, rng: np.random.Generator
    ) -> VPTreeNode:
        if len(items) <= leaf_capacity:
            node = VPTreeNode(is_leaf=True)
            node.entries = items
            node.centers, node.radii = pack(items)
            # The leaf vantage is the member centroid — any fixed point
            # works; the centroid keeps the [lo, hi] band tight.
            node.vantage = node.centers.mean(axis=0)
            cls._node_statistics(node, items)
            return node

        node = VPTreeNode(is_leaf=False)
        # Classic vantage selection: a random member's center.
        node.vantage = items[int(rng.integers(len(items)))][1].center.copy()
        cls._node_statistics(node, items)

        centers = np.stack([sphere.center for _, sphere in items])
        gaps = np.linalg.norm(centers - node.vantage, axis=1)
        node.split_radius = float(np.median(gaps))
        inner = [item for item, gap in zip(items, gaps) if gap <= node.split_radius]
        outer = [item for item, gap in zip(items, gaps) if gap > node.split_radius]
        if not inner or not outer:
            # Duplicate-heavy data: the median cannot separate; fall back
            # to an arbitrary balanced split to guarantee termination.
            half = len(items) // 2
            inner, outer = items[:half], items[half:]
        node.children = [
            cls._build_node(inner, leaf_capacity, rng),
            cls._build_node(outer, leaf_capacity, rng),
        ]
        return node

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.root.count

    def __iter__(self) -> Iterator[tuple[object, Hypersphere]]:
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                yield from node.entries
            else:
                stack.extend(node.children)

    @property
    def height(self) -> int:
        """Length of the longest root-to-leaf path."""
        def depth(node: VPTreeNode) -> int:
            if node.is_leaf:
                return 1
            return 1 + max(depth(child) for child in node.children)

        return depth(self.root)

    def node_count(self) -> int:
        """Total number of nodes."""
        def count(node: VPTreeNode) -> int:
            if node.is_leaf:
                return 1
            return 1 + sum(count(child) for child in node.children)

        return count(self.root)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def range_query(self, query: Hypersphere) -> list[tuple[object, Hypersphere]]:
        """All entries whose hypersphere intersects *query*."""
        found: list[tuple[object, Hypersphere]] = []
        nodes_visited = entries_scanned = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.min_dist(query) > 0.0:
                continue
            nodes_visited += 1
            if node.is_leaf:
                entries_scanned += len(node.entries)
                found.extend(
                    (key, sphere)
                    for key, sphere in node.entries
                    if sphere.overlaps(query)
                )
            else:
                stack.extend(node.children)
        self.record_query(
            node_accesses=nodes_visited, entries_scanned=entries_scanned
        )
        return found

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`IndexStructureError` on any violated invariant."""
        def check(node: VPTreeNode) -> int:
            if node.vantage is None:
                raise IndexStructureError("node without a vantage point")
            if node.lo > node.hi + 1e-12:
                raise IndexStructureError("distance band inverted")
            if node.is_leaf:
                if not node.entries:
                    raise IndexStructureError("empty leaf")
                check_packed(node)
                for _, sphere in node.entries:
                    gap = float(np.linalg.norm(sphere.center - node.vantage))
                    if not (node.lo - 1e-9 <= gap <= node.hi + 1e-9):
                        raise IndexStructureError("member outside the distance band")
                    if sphere.radius > node.r_max + 1e-12:
                        raise IndexStructureError("member radius above r_max")
                if node.count != len(node.entries):
                    raise IndexStructureError("leaf count mismatch")
                return node.count
            if len(node.children) != 2:
                raise IndexStructureError("inner node must have two children")
            total = sum(check(child) for child in node.children)
            if node.count != total:
                raise IndexStructureError("inner count mismatch")
            # Every descendant must respect this node's own band too.
            for key, sphere in self._iter_subtree(node):
                gap = float(np.linalg.norm(sphere.center - node.vantage))
                if not (node.lo - 1e-9 <= gap <= node.hi + 1e-9):
                    raise IndexStructureError("descendant outside the distance band")
            return total

        check(self.root)

    def _iter_subtree(
        self, node: VPTreeNode
    ) -> Iterator[tuple[object, Hypersphere]]:
        stack = [node]
        while stack:
            current = stack.pop()
            if current.is_leaf:
                yield from current.entries
            else:
                stack.extend(current.children)
