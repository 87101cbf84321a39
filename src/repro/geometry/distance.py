"""Euclidean distance helpers (Equations 1, 3 and 4 of the paper).

The paper manipulates three flavours of distance:

- ``Dist(p, p')`` — plain Euclidean distance between points (Eq. 1);
- ``MaxDist(Sa, Sb) = Dist(ca, cb) + ra + rb`` (Eq. 3);
- ``MinDist(Sa, Sb) = max(Dist(ca, cb) - ra - rb, 0)`` (Eq. 4).

Every function accepts either :class:`~repro.geometry.hypersphere.Hypersphere`
objects or raw point arrays where noted, and runs in O(d).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import DimensionalityMismatchError
from repro.geometry.hypersphere import Hypersphere

__all__ = [
    "dist",
    "dists",
    "min_dist",
    "max_dist",
    "min_dist_point",
    "max_dist_point",
]


def dist(p: Sequence[float] | np.ndarray, q: Sequence[float] | np.ndarray) -> float:
    """Euclidean distance between two points (Equation 1)."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise DimensionalityMismatchError(p.shape[-1], q.shape[-1])
    return float(np.linalg.norm(p - q))


def dists(points: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``Dist(p, q)`` for every row ``p`` of *points*, in one sweep (Eq. 1)."""
    gaps: np.ndarray = np.linalg.norm(points - q, axis=1)
    return gaps


def max_dist(a: Hypersphere, b: Hypersphere) -> float:
    """Maximum distance between a point of *a* and a point of *b* (Eq. 3)."""
    a.require_same_dimension(b)
    return dist(a.center, b.center) + a.radius + b.radius


def min_dist(a: Hypersphere, b: Hypersphere) -> float:
    """Minimum distance between a point of *a* and a point of *b* (Eq. 4).

    Zero when the spheres overlap or touch.
    """
    a.require_same_dimension(b)
    gap = dist(a.center, b.center) - a.radius - b.radius
    return gap if gap > 0.0 else 0.0


def max_dist_point(a: Hypersphere, q: Sequence[float] | np.ndarray) -> float:
    """Maximum distance between a point of *a* and the point *q*."""
    return dist(a.center, q) + a.radius


def min_dist_point(a: Hypersphere, q: Sequence[float] | np.ndarray) -> float:
    """Minimum distance between a point of *a* and the point *q*.

    Zero when *q* lies inside the closed ball.
    """
    gap = dist(a.center, q) - a.radius
    return gap if gap > 0.0 else 0.0
