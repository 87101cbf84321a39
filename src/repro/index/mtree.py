"""An M-tree (Ciaccia, Patella & Zezula, VLDB 1997) for hypersphere data.

The M-tree is the classic dynamically balanced metric index the paper's
related work lists alongside the SS-tree.  Unlike the SS-tree it never
computes centroids: every routing entry is an *actual data center*
promoted from below, and all maintenance uses only pairwise distances —
the property that makes the structure metric-space general.

Adaptation to hypersphere objects: the tree indexes the object centers,
and every covering radius is enlarged by the member object radii, so a
node's sphere ``(routing, radius)`` covers every *point of every member
hypersphere* beneath it.  That makes the node bounds identical in form
to the SS-tree's, and the duck-typed node interface (``is_leaf`` /
``entries`` / ``children`` / ``min_dist`` / ``max_dist_lower_bound``)
lets :func:`repro.queries.knn.knn_query` run on it unchanged.

Policies (the classical defaults):

- **insert** descends into the child needing no radius enlargement with
  the nearest routing object, else the child with minimal enlargement;
- **split** promotes the two members farthest apart (the M_LB_DIST-like
  exhaustive choice — node capacities are small) and partitions the
  members to the nearer promoted routing object.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.exceptions import IndexStructureError
from repro.geometry.hypersphere import Hypersphere
from repro.index.instrumentation import IndexStatsMixin
from repro.index.packed import LeafDirectoryMixin, check_packed, pack

__all__ = ["MTree", "MTreeNode"]

DEFAULT_MAX_ENTRIES = 16


class MTreeNode:
    """A node: a promoted routing center plus a covering radius.

    A leaf also keeps its entries packed as ``centers``/``radii`` arrays
    (:mod:`repro.index.packed`), re-packed by :meth:`refresh`.
    """

    __slots__ = ("is_leaf", "entries", "centers", "radii", "children",
                 "routing", "radius", "count")

    def __init__(self, is_leaf: bool) -> None:
        self.is_leaf = is_leaf
        self.entries: list[tuple[object, Hypersphere]] = []
        self.centers, self.radii = pack(self.entries)
        self.children: list[MTreeNode] = []
        self.routing: np.ndarray | None = None
        self.radius = 0.0
        self.count = 0

    def min_dist(self, query: Hypersphere) -> float:
        """Lower bound on ``MinDist(S, query)`` for every member S."""
        gap = (
            float(np.linalg.norm(self.routing - query.center))
            - self.radius
            - query.radius
        )
        return gap if gap > 0.0 else 0.0

    def max_dist_lower_bound(self, query: Hypersphere) -> float:
        """Lower bound on ``MaxDist(S, query)`` for every member S."""
        gap = float(np.linalg.norm(self.routing - query.center)) - self.radius
        return max(gap, 0.0) + query.radius

    def refresh(self) -> None:
        """Recompute the covering radius and count (routing unchanged).

        A leaf's packed arrays are rebuilt from its entries too.
        """
        if self.is_leaf:
            self.centers, self.radii = pack(self.entries)
            self.count = len(self.entries)
            self.radius = max(
                (
                    float(np.linalg.norm(sphere.center - self.routing))
                    + sphere.radius
                    for _, sphere in self.entries
                ),
                default=0.0,
            )
        else:
            self.count = sum(child.count for child in self.children)
            self.radius = max(
                (
                    float(np.linalg.norm(child.routing - self.routing))
                    + child.radius
                    for child in self.children
                ),
                default=0.0,
            )


class MTree(IndexStatsMixin, LeafDirectoryMixin):
    """A dynamically built M-tree over keyed hyperspheres.

    Examples
    --------
    >>> tree = MTree(dimension=2)
    >>> tree.insert("a", Hypersphere([0.0, 0.0], 1.0))
    >>> tree.insert("b", Hypersphere([5.0, 5.0], 0.5))
    >>> len(tree)
    2
    """

    def __init__(self, dimension: int, max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        if dimension < 1:
            raise IndexStructureError(f"dimension must be positive, got {dimension}")
        if max_entries < 4:
            raise IndexStructureError(f"max_entries must be at least 4, got {max_entries}")
        self.dimension = dimension
        self.max_entries = max_entries
        self.root = MTreeNode(is_leaf=True)
        self._init_stats()

    @classmethod
    def build(
        cls,
        items: Iterable[tuple[object, Hypersphere]],
        *,
        max_entries: int = DEFAULT_MAX_ENTRIES,
    ) -> "MTree":
        """Construct by repeated insertion (the M-tree is insert-built)."""
        items = list(items)
        if not items:
            raise IndexStructureError("cannot build an index over an empty dataset")
        tree = cls(items[0][1].dimension, max_entries=max_entries)
        for key, sphere in items:
            tree.insert(key, sphere)
        return tree

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def insert(self, key: object, sphere: Hypersphere) -> None:
        """Insert one keyed hypersphere."""
        if sphere.dimension != self.dimension:
            raise IndexStructureError(
                f"sphere dimension {sphere.dimension} != tree dimension "
                f"{self.dimension}"
            )
        self._drop_directory()
        if self.root.routing is None:
            self.root.routing = sphere.center.copy()
        split = self._insert_into(self.root, key, sphere)
        if split is not None:
            old_root = self.root
            self.root = MTreeNode(is_leaf=False)
            self.root.children = [old_root, split]
            # Promote the child routing center nearer the crowd.
            self.root.routing = old_root.routing
            self.root.refresh()

    def _insert_into(
        self, node: MTreeNode, key: object, sphere: Hypersphere
    ) -> "MTreeNode | None":
        if node.is_leaf:
            node.entries.append((key, sphere))
        else:
            child = self._choose_child(node, sphere)
            split = self._insert_into(child, key, sphere)
            if split is not None:
                node.children.append(split)
        node.refresh()
        if self._overflowing(node):
            return self._split(node)
        return None

    def _choose_child(self, node: MTreeNode, sphere: Hypersphere) -> MTreeNode:
        """Classical choice: no-enlargement nearest, else least enlargement."""
        best, best_key = None, None
        for child in node.children:
            gap = (
                float(np.linalg.norm(child.routing - sphere.center))
                + sphere.radius
            )
            enlargement = max(gap - child.radius, 0.0)
            candidate_key = (enlargement, gap)
            if best_key is None or candidate_key < best_key:
                best, best_key = child, candidate_key
        return best

    def _overflowing(self, node: MTreeNode) -> bool:
        size = len(node.entries) if node.is_leaf else len(node.children)
        return size > self.max_entries

    def _split(self, node: MTreeNode) -> MTreeNode:
        """Promote two far-apart members; partition to the nearer one."""
        if node.is_leaf:
            positions = np.stack([sphere.center for _, sphere in node.entries])
            members: list = list(node.entries)
        else:
            positions = np.stack([child.routing for child in node.children])
            members = list(node.children)

        first, second = self._promote(positions)
        gap_first = np.linalg.norm(positions - positions[first], axis=1)
        gap_second = np.linalg.norm(positions - positions[second], axis=1)
        to_second = gap_second < gap_first
        # Guarantee both sides non-empty even for duplicate-heavy data.
        to_second[first] = False
        to_second[second] = True

        sibling = MTreeNode(is_leaf=node.is_leaf)
        keep = [m for m, flag in zip(members, to_second) if not flag]
        move = [m for m, flag in zip(members, to_second) if flag]
        # Inner nodes need a fan-out of at least two on both sides;
        # duplicate-heavy data can otherwise leave a side with one
        # member (every tie breaks the same way).
        min_side = 1 if node.is_leaf else 2
        while len(move) < min_side and len(keep) > min_side:
            move.append(keep.pop())
        while len(keep) < min_side and len(move) > min_side:
            keep.append(move.pop())
        if node.is_leaf:
            node.entries, sibling.entries = keep, move
            node.routing = positions[first].copy()
            sibling.routing = positions[second].copy()
        else:
            node.children, sibling.children = keep, move
            node.routing = positions[first].copy()
            sibling.routing = positions[second].copy()
        node.refresh()
        sibling.refresh()
        return sibling

    @staticmethod
    def _promote(positions: np.ndarray) -> tuple[int, int]:
        """The pair of member positions farthest apart (exhaustive)."""
        n = positions.shape[0]
        best = (0, 1 if n > 1 else 0)
        best_gap = -1.0
        for i in range(n):
            gaps = np.linalg.norm(positions[i + 1 :] - positions[i], axis=1)
            if gaps.size == 0:
                continue
            j = int(np.argmax(gaps))
            if gaps[j] > best_gap:
                best_gap = float(gaps[j])
                best = (i, i + 1 + j)
        return best

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
        """Number of levels (the M-tree is height-balanced)."""
        height, node = 1, self.root
        while not node.is_leaf:
            node = node.children[0]
            height += 1
        return height

    def node_count(self) -> int:
        """Total number of nodes."""
        def count(node: MTreeNode) -> int:
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
            if node.count == 0 or node.min_dist(query) > 0.0:
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
        if self.root.count == 0:
            return

        def check(node: MTreeNode) -> tuple[int, int]:
            if node.routing is None:
                raise IndexStructureError("node without a routing object")
            tolerance = 1e-9 * (1.0 + node.radius)
            if node.is_leaf:
                if not node.entries:
                    raise IndexStructureError("empty leaf")
                check_packed(node)
                for _, sphere in node.entries:
                    reach = (
                        float(np.linalg.norm(sphere.center - node.routing))
                        + sphere.radius
                    )
                    if reach > node.radius + tolerance:
                        raise IndexStructureError("leaf covering radius violated")
                if node.count != len(node.entries):
                    raise IndexStructureError("leaf count mismatch")
                return node.count, 1
            if len(node.children) < 2:
                raise IndexStructureError("inner node must have at least two children")
            if len(node.children) > self.max_entries:
                raise IndexStructureError("inner node overfull")
            total = 0
            depths = set()
            for child in node.children:
                reach = (
                    float(np.linalg.norm(child.routing - node.routing))
                    + child.radius
                )
                if reach > node.radius + tolerance:
                    raise IndexStructureError("inner covering radius violated")
                child_count, child_depth = check(child)
                total += child_count
                depths.add(child_depth)
            if len(depths) != 1:
                raise IndexStructureError(f"tree unbalanced: subtree depths {depths}")
            if node.count != total:
                raise IndexStructureError("inner count mismatch")
            return total, depths.pop() + 1

        check(self.root)
