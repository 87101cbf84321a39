"""An SS-tree (White & Jain, ICDE 1996) for hypersphere data.

The SS-tree is an R-tree-style height-balanced structure whose
directory regions are *spheres*: every node stores the centroid of the
object centers underneath it and a covering radius large enough to
enclose every descendant object.  White & Jain report (and the paper
relies on) the sphere directory outperforming rectangle directories for
similarity search in high-dimensional spaces.

Faithful design choices:

- **Choose-subtree** descends into the child whose centroid is closest
  to the new entry's center (the original insertion heuristic).
- **Split** picks the coordinate with the highest variance of the child
  centroids and partitions along it at the position minimising the sum
  of the two sides' variances, subject to a minimum fill (the original
  split algorithm).
- **Centroids** are the count-weighted means of the underlying object
  centers, maintained incrementally on the insertion path.

Additions beyond the original (needed by this reproduction):

- entries are ``(key, Hypersphere)`` pairs so query answers can be
  matched against ground truth;
- :meth:`SSTree.bulk_load` packs a dataset bottom-up for fast
  experiment setup: each level is tiled by recursive halving on the
  highest-variance axis (a k-d style cousin of STR, Leutenegger et al.,
  ICDE 1997), so every node is compact in every axis;
- kNN reads the tree through its leaf directory
  (:class:`~repro.index.packed.LeafDirectory`): every leaf's covering
  sphere packed in one array, built on first use and dropped by
  :meth:`SSTree.insert` and :meth:`SSTree.remove`;
- :meth:`SSTree.validate` checks the covering invariants, used by the
  property-based tests.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.exceptions import IndexStructureError
from repro.geometry.hypersphere import Hypersphere
from repro.index.instrumentation import IndexStatsMixin
from repro.index.packed import LeafDirectoryMixin, check_packed, pack

__all__ = ["SSTree", "SSTreeNode"]

DEFAULT_MAX_ENTRIES = 16


class SSTreeNode:
    """A directory or leaf node: a covering sphere over its children.

    A leaf also keeps its entries packed as ``centers``/``radii`` arrays
    (:mod:`repro.index.packed`), re-packed by :meth:`refresh`.
    """

    __slots__ = ("is_leaf", "children", "entries", "centers", "radii",
                 "centroid", "radius", "count")

    def __init__(self, dimension: int, is_leaf: bool) -> None:
        self.is_leaf = is_leaf
        self.children: list[SSTreeNode] = []
        self.entries: list[tuple[object, Hypersphere]] = []
        self.centers, self.radii = pack(self.entries)
        self.centroid = np.zeros(dimension)
        self.radius = 0.0
        self.count = 0

    # ------------------------------------------------------------------
    # Derived geometry
    # ------------------------------------------------------------------
    @property
    def sphere(self) -> Hypersphere:
        """The covering sphere of this node."""
        return Hypersphere(self.centroid, self.radius)

    def min_dist(self, query: Hypersphere) -> float:
        """Lower bound on ``MinDist(S, query)`` for any object S below."""
        gap = (
            float(np.linalg.norm(self.centroid - query.center))
            - self.radius
            - query.radius
        )
        return gap if gap > 0.0 else 0.0

    def max_dist(self, query: Hypersphere) -> float:
        """Upper bound on ``MaxDist(S, query)`` for any object S below."""
        return (
            float(np.linalg.norm(self.centroid - query.center))
            + self.radius
            + query.radius
        )

    def max_dist_lower_bound(self, query: Hypersphere) -> float:
        """Lower bound on ``MaxDist(S, query)`` for any object S below.

        Every member sphere has ``Dist(c_S, centroid) + r_S <= radius``,
        so ``MaxDist(S, query) = Dist(c_S, cq) + r_S + rq >=
        Dist(centroid, cq) - radius + rq`` (and trivially ``>= rq``).
        """
        gap = float(np.linalg.norm(self.centroid - query.center)) - self.radius
        return max(gap, 0.0) + query.radius

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def refresh(self) -> None:
        """Recompute centroid, covering radius and count from children.

        A leaf's packed arrays are rebuilt from its entries too.
        """
        if self.is_leaf:
            self.centers, self.radii = pack(self.entries)
            if not self.entries:
                self.count = 0
                self.radius = 0.0
                return
            self.count = len(self.entries)
            self.centroid = self.centers.mean(axis=0)
            reach = np.linalg.norm(self.centers - self.centroid, axis=1) + self.radii
            self.radius = float(reach.max())
        else:
            if not self.children:
                self.count = 0
                self.radius = 0.0
                return
            self.count = sum(child.count for child in self.children)
            self.centroid = (
                sum(child.centroid * child.count for child in self.children)
                / self.count
            )
            self.radius = max(
                float(np.linalg.norm(child.centroid - self.centroid)) + child.radius
                for child in self.children
            )

    def _member_positions(self) -> np.ndarray:
        """Centroid positions used by the split heuristics."""
        if self.is_leaf:
            return np.stack([sphere.center for _, sphere in self.entries])
        return np.stack([child.centroid for child in self.children])


class SSTree(IndexStatsMixin, LeafDirectoryMixin):
    """A dynamically grown (or bulk-loaded) SS-tree over keyed hyperspheres.

    Parameters
    ----------
    dimension:
        Dimensionality of the indexed hyperspheres.
    max_entries:
        Node capacity; nodes split when it is exceeded.  The minimum
        fill is ``ceil(max_entries * 0.4)`` as in the original paper.

    Examples
    --------
    >>> tree = SSTree(dimension=2)
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
        self.min_entries = max(2, math.ceil(max_entries * 0.4))
        self.root = SSTreeNode(dimension, is_leaf=True)
        self._init_stats()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def insert(self, key: object, sphere: Hypersphere) -> None:
        """Insert one keyed hypersphere."""
        if sphere.dimension != self.dimension:
            raise IndexStructureError(
                f"sphere dimension {sphere.dimension} != tree dimension "
                f"{self.dimension}"
            )
        self._drop_directory()
        split = self._insert_into(self.root, key, sphere)
        if split is not None:
            old_root = self.root
            self.root = SSTreeNode(self.dimension, is_leaf=False)
            self.root.children = [old_root, split]
            self.root.refresh()

    def _insert_into(
        self, node: SSTreeNode, key: object, sphere: Hypersphere
    ) -> SSTreeNode | None:
        """Recursive insert; returns the new sibling when *node* split."""
        if node.is_leaf:
            node.entries.append((key, sphere))
        else:
            child = min(
                node.children,
                key=lambda c: float(np.linalg.norm(c.centroid - sphere.center)),
            )
            split = self._insert_into(child, key, sphere)
            if split is not None:
                node.children.append(split)
        node.refresh()
        if self._overflowing(node):
            return self._split(node)
        return None

    def _overflowing(self, node: SSTreeNode) -> bool:
        size = len(node.entries) if node.is_leaf else len(node.children)
        return size > self.max_entries

    def _split(self, node: SSTreeNode) -> SSTreeNode:
        """Split *node* in place; returns the newly created sibling."""
        positions = node._member_positions()
        axis = int(np.argmax(positions.var(axis=0)))
        order = np.argsort(positions[:, axis], kind="stable")
        members: Sequence = node.entries if node.is_leaf else node.children
        ordered = [members[i] for i in order]
        split_at = self._best_split_position(positions[order, :])

        sibling = SSTreeNode(self.dimension, is_leaf=node.is_leaf)
        if node.is_leaf:
            node.entries = ordered[:split_at]
            sibling.entries = ordered[split_at:]
        else:
            node.children = ordered[:split_at]
            sibling.children = ordered[split_at:]
        node.refresh()
        sibling.refresh()
        return sibling

    def _best_split_position(self, ordered_positions: np.ndarray) -> int:
        """The split index minimising the summed per-side variances."""
        n = ordered_positions.shape[0]
        lo = self.min_entries
        hi = n - self.min_entries
        if lo >= hi:
            return n // 2
        best_at, best_score = n // 2, math.inf
        for at in range(lo, hi + 1):
            left, right = ordered_positions[:at], ordered_positions[at:]
            score = float(left.var(axis=0).sum()) + float(right.var(axis=0).sum())
            if score < best_score:
                best_at, best_score = at, score
        return best_at

    def remove(self, key: object, sphere: Hypersphere) -> bool:
        """Remove one ``(key, sphere)`` entry; returns whether it existed.

        Uses the classical R-tree-style condense step: the entry's leaf
        is located through the covering spheres, the entry is dropped,
        and any node left under-filled on the path is dissolved with its
        remaining members re-inserted.
        """
        if sphere.dimension != self.dimension:
            raise IndexStructureError(
                f"sphere dimension {sphere.dimension} != tree dimension "
                f"{self.dimension}"
            )
        self._drop_directory()
        orphans: list[tuple[object, Hypersphere]] = []
        removed = self._remove_from(self.root, key, sphere, orphans, is_root=True)
        if not removed:
            return False
        # Collapse a root that lost all but one child.
        while not self.root.is_leaf and len(self.root.children) == 1:
            self.root = self.root.children[0]
        for orphan_key, orphan_sphere in orphans:
            self.insert(orphan_key, orphan_sphere)
        return True

    def _remove_from(
        self,
        node: SSTreeNode,
        key: object,
        sphere: Hypersphere,
        orphans: list,
        *,
        is_root: bool,
    ) -> bool:
        if node.is_leaf:
            for i, (entry_key, entry_sphere) in enumerate(node.entries):
                if entry_key == key and entry_sphere == sphere:
                    del node.entries[i]
                    node.refresh()
                    return True
            return False
        gap_to = lambda child: float(
            np.linalg.norm(child.centroid - sphere.center)
        )
        # The entry can live in any child whose covering sphere reaches it.
        for child in sorted(node.children, key=gap_to):
            reach = gap_to(child) - child.radius
            if reach > sphere.radius + 1e-9:
                continue  # covering invariant: the entry cannot be below
            if self._remove_from(child, key, sphere, orphans, is_root=False):
                # Condense: dissolve an emptied leaf or an inner child
                # whose fan-out fell below the minimum, queueing its
                # remaining members for re-insertion.
                emptied_leaf = child.is_leaf and not child.entries
                thin_inner = (
                    not child.is_leaf and len(child.children) < self.min_entries
                )
                if (emptied_leaf or thin_inner) and len(node.children) > 1:
                    node.children.remove(child)
                    orphans.extend(self._collect_entries(child))
                node.refresh()
                return True
        return False

    def _collect_entries(self, node: SSTreeNode) -> list:
        if node.is_leaf:
            return list(node.entries)
        collected: list = []
        for child in node.children:
            collected.extend(self._collect_entries(child))
        return collected

    @classmethod
    def bulk_load(
        cls,
        items: Iterable[tuple[object, Hypersphere]],
        *,
        max_entries: int = DEFAULT_MAX_ENTRIES,
    ) -> "SSTree":
        """Pack a whole dataset bottom-up.

        Each level tiles its members — the entries, then each level's
        nodes by centroid — into ``ceil(m / max_entries)`` groups whose
        sizes differ by at most one (:func:`_tile`).  The tiling halves
        recursively: the members are cut on their highest-variance
        coordinate into the rows of the first half of the groups and
        those of the second, and each part is cut again the same way.
        Every node is therefore compact in all coordinates, not a slab
        of one, which is what lets kNN prune subtrees by MinDist.  The
        result is a balanced tree, built in O(n log n) — used by the
        experiment harness where the paper builds its index once per
        dataset.
        """
        items = list(items)
        if not items:
            raise IndexStructureError("cannot bulk-load an empty dataset")
        dimension = items[0][1].dimension
        tree = cls(dimension, max_entries=max_entries)

        leaves: list[SSTreeNode] = []
        for chunk in _tile(items, max_entries, key_positions=np.stack(
            [sphere.center for _, sphere in items]
        )):
            leaf = SSTreeNode(dimension, is_leaf=True)
            leaf.entries = chunk
            leaf.refresh()
            leaves.append(leaf)

        level = leaves
        while len(level) > 1:
            positions = np.stack([node.centroid for node in level])
            grouped = _tile(level, max_entries, key_positions=positions)
            parents = []
            for group in grouped:
                parent = SSTreeNode(dimension, is_leaf=False)
                parent.children = group
                parent.refresh()
                parents.append(parent)
            level = parents
        tree.root = level[0]
        return tree

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.root.count

    def __iter__(self) -> Iterator[tuple[object, Hypersphere]]:
        yield from self._iter_node(self.root)

    def _iter_node(self, node: SSTreeNode) -> Iterator[tuple[object, Hypersphere]]:
        if node.is_leaf:
            yield from node.entries
        else:
            for child in node.children:
                yield from self._iter_node(child)

    @property
    def height(self) -> int:
        """Number of levels (a lone leaf root has height 1)."""
        height, node = 1, self.root
        while not node.is_leaf:
            node = node.children[0]
            height += 1
        return height

    def node_count(self) -> int:
        """Total number of directory + leaf nodes."""
        def count(node: SSTreeNode) -> int:
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
    # Invariants (property-based tests drive this)
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`IndexStructureError` if any structural invariant fails."""
        self._validate_node(self.root, is_root=True)
        leaf_depths = set(self._leaf_depths(self.root, 1))
        if len(leaf_depths) > 1:
            raise IndexStructureError(f"tree is unbalanced: leaf depths {leaf_depths}")

    def _validate_node(self, node: SSTreeNode, *, is_root: bool) -> None:
        size = len(node.entries) if node.is_leaf else len(node.children)
        if size > self.max_entries:
            raise IndexStructureError(f"node overfull: {size} > {self.max_entries}")
        if not is_root and size < self.min_entries and not node.is_leaf:
            raise IndexStructureError(f"inner node underfull: {size} < {self.min_entries}")
        tolerance = 1e-9 * (1.0 + abs(node.radius))
        if node.is_leaf:
            check_packed(node)
            for _, sphere in node.entries:
                reach = (
                    float(np.linalg.norm(sphere.center - node.centroid))
                    + sphere.radius
                )
                if reach > node.radius + tolerance:
                    raise IndexStructureError("leaf covering radius violated")
        else:
            for child in node.children:
                reach = (
                    float(np.linalg.norm(child.centroid - node.centroid))
                    + child.radius
                )
                if reach > node.radius + tolerance:
                    raise IndexStructureError("inner covering radius violated")
                self._validate_node(child, is_root=False)
        expected = (
            len(node.entries)
            if node.is_leaf
            else sum(child.count for child in node.children)
        )
        if node.count != expected:
            raise IndexStructureError(f"count mismatch: {node.count} != {expected}")

    def _leaf_depths(self, node: SSTreeNode, depth: int) -> Iterator[int]:
        if node.is_leaf:
            yield depth
        else:
            for child in node.children:
                yield from self._leaf_depths(child, depth + 1)


def _tile(
    members: Sequence, capacity: int, *, key_positions: np.ndarray
) -> list[list]:
    """Group *members* into ``ceil(m / capacity)`` spatially compact chunks.

    Group sizes differ by at most one, so no group ends up underfull.
    The members are split recursively: each step cuts a run of rows on
    its widest (highest variance) axis into the members of the first
    half of its groups and those of the second, until every run is one
    group — a k-d style partition, so each group is compact in every
    axis rather than a slab of one.
    """
    count = len(members)
    n_groups = math.ceil(count / capacity)
    # Group g takes rows offsets[g]:offsets[g + 1] of the final order.
    offsets = [g * count // n_groups for g in range(n_groups + 1)]
    order = np.arange(count)
    pending = [(0, n_groups)]
    while pending:
        first, stop = pending.pop()
        if stop - first == 1:
            continue
        middle = (first + stop) // 2
        lo, cut, hi = offsets[first], offsets[middle], offsets[stop]
        rows = order[lo:hi]
        positions = key_positions[rows]
        axis = int(np.argmax(positions.var(axis=0)))
        order[lo:hi] = rows[np.argpartition(positions[:, axis], cut - lo)]
        pending += [(first, middle), (middle, stop)]
    ranked = order.tolist()
    return [
        [members[i] for i in ranked[offsets[g] : offsets[g + 1]]]
        for g in range(n_groups)
    ]
