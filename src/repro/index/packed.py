"""Packed leaf arrays shared by the three tree indexes.

Every leaf of :class:`~repro.index.sstree.SSTree`,
:class:`~repro.index.vptree.VPTree` and :class:`~repro.index.mtree.MTree`
holds its entries twice: as the ``(key, Hypersphere)`` list that
maintenance edits, and packed as ``centers (m, d)`` and ``radii (m,)``
arrays, so a kNN query bounds a whole leaf in one NumPy sweep.  Whatever
sets a leaf's ``entries`` re-packs it with :func:`pack`; each tree's
``validate()`` checks the two still agree with :func:`check_packed`.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.exceptions import IndexStructureError
from repro.geometry.hypersphere import Hypersphere

__all__ = ["pack", "check_packed"]


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
