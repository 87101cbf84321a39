"""Packed leaf arrays and the leaf directory shared by the three tree indexes.

Every leaf of :class:`~repro.index.sstree.SSTree`,
:class:`~repro.index.vptree.VPTree` and :class:`~repro.index.mtree.MTree`
holds its entries twice: as the ``(key, Hypersphere)`` list that
maintenance edits, and packed as ``centers (m, d)`` and ``radii (m,)``
arrays, so a kNN query bounds a whole leaf in one NumPy sweep.  Whatever
sets a leaf's ``entries`` re-packs it with :func:`pack`; each tree's
``validate()`` checks the two still agree with :func:`check_packed`.

On top of the leaves, each tree keeps a :class:`LeafDirectory`: every
non-empty leaf's covering sphere, computed from the leaf's packed
arrays and packed as one ``(L, d)`` array, so a kNN query bounds every
leaf in one sweep (:meth:`LeafDirectory.bounds`) instead of walking
the inner nodes.  A tree builds it on first use
(:meth:`LeafDirectoryMixin.leaf_directory`) and drops it whenever its
structure changes.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.exceptions import IndexStructureError
from repro.geometry.hypersphere import Hypersphere

__all__ = ["pack", "check_packed", "LeafDirectory", "LeafDirectoryMixin"]


def pack(
    entries: "Sequence[tuple[object, Hypersphere]]",
) -> "tuple[np.ndarray, np.ndarray]":
    """``(centers, radii)`` of *entries*, one row per entry.

    An empty list packs to zero rows (``centers`` of shape ``(0, 0)``).
    """
    if not entries:
        return np.empty((0, 0)), np.empty(0)
    return (
        np.array([sphere.center for _, sphere in entries]),
        np.array([sphere.radius for _, sphere in entries]),
    )


def check_packed(node: Any) -> None:
    """Raise :class:`IndexStructureError` unless *node*'s arrays match its entries."""
    centers, radii = pack(node.entries)
    if not (
        np.array_equal(node.centers, centers) and np.array_equal(node.radii, radii)
    ):
        raise IndexStructureError("leaf arrays out of step with the leaf entries")


class LeafDirectory:
    """Every non-empty leaf of one tree, with its covering sphere packed.

    ``leaves[i]`` lies inside the sphere ``(centers[i], radii[i])``: the
    centroid of the leaf's packed entry centers, and the farthest reach
    ``Dist(c_S, centroid) + r_S`` of a member ``S`` from it.
    ``depths[i]`` is the leaf's depth below the root (the root is 0).
    Leaves are listed in depth-first order.
    """

    __slots__ = ("leaves", "depths", "centers", "radii")

    def __init__(self, root: Any, dimension: int) -> None:
        leaves: "list[Any]" = []
        depths: "list[int]" = []
        pending = [(root, 0)]
        while pending:
            node, depth = pending.pop()
            if not node.is_leaf:
                pending.extend((child, depth + 1) for child in reversed(node.children))
            elif node.radii.size:
                leaves.append(node)
                depths.append(depth)
        self.leaves = leaves
        self.depths = depths
        if not leaves:
            self.centers, self.radii = np.empty((0, dimension)), np.empty(0)
            return
        counts = np.array([leaf.radii.size for leaf in leaves])
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        rows = np.concatenate([leaf.centers for leaf in leaves])
        self.centers = np.add.reduceat(rows, starts, axis=0) / counts[:, None]
        reach = np.linalg.norm(
            rows - np.repeat(self.centers, counts, axis=0), axis=1
        ) + np.concatenate([leaf.radii for leaf in leaves])
        self.radii = np.maximum.reduceat(reach, starts)

    def __len__(self) -> int:
        return len(self.leaves)

    def bounds(self, query: Hypersphere) -> "tuple[np.ndarray, np.ndarray]":
        """Lower bounds on ``MinDist`` and ``MaxDist`` to *query*, per leaf.

        Every member ``S`` of leaf ``i`` has ``Dist(c_S, centers[i]) +
        r_S <= radii[i]``, so with ``g = Dist(centers[i], cq) -
        radii[i]``, ``MinDist(S, query) >= max(g - rq, 0)`` and
        ``MaxDist(S, query) >= max(g, 0) + rq`` — the bounds an
        SS-tree node gives, for all leaves in one sweep.
        """
        gaps = np.linalg.norm(self.centers - query.center, axis=1) - self.radii
        return (
            np.maximum(gaps - query.radius, 0.0),
            np.maximum(gaps, 0.0) + query.radius,
        )


class LeafDirectoryMixin:
    """The lazily built :class:`LeafDirectory` of a tree with a ``root``.

    A tree that changes its structure in place (``insert``, ``remove``)
    calls :meth:`_drop_directory`, so a stale directory never answers.
    """

    root: Any
    dimension: int
    _directory: "LeafDirectory | None" = None

    def leaf_directory(self) -> LeafDirectory:
        """This tree's leaf directory, built on first use after a change."""
        directory = self._directory
        if directory is None:
            directory = self._directory = LeafDirectory(self.root, self.dimension)
        return directory

    def _drop_directory(self) -> None:
        self._directory = None
