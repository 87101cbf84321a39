"""A flat linear-scan "index" used as the exact baseline.

The paper compares index-accelerated kNN algorithms against each other;
this reproduction additionally needs a trivially correct reference to
compute the *precision* of each algorithm.  :class:`LinearIndex` stores
the dataset as dense arrays so the reference answer (Definition 2 of
the paper) can be computed with vectorised NumPy in one pass.

The flat scans read one more array from it: :meth:`LinearIndex.nearest_reach`,
each object's distance to the far side of its nearest competitor, which
turns RkNN's MinMax pre-filter into one O(n) test per query.  It is
built on first use, once per index, in O(n^2) time and O(n) memory.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.exceptions import IndexStructureError
from repro.geometry.hypersphere import Hypersphere
from repro.index.instrumentation import IndexStatsMixin

__all__ = ["LinearIndex"]

#: Center pairs one step of the :meth:`LinearIndex.nearest_reach` build
#: covers at most, so its temporaries stay a few hundred kilobytes.
_REACH_PAIRS = 4096


class LinearIndex(IndexStatsMixin):
    """Dense storage of keyed hyperspheres with vectorised distance bounds."""

    def __init__(self, items: Iterable[tuple[object, Hypersphere]]) -> None:
        items = list(items)
        if not items:
            raise IndexStructureError("cannot build an index over an empty dataset")
        self.keys = [key for key, _ in items]
        self.spheres = [sphere for _, sphere in items]
        dimension = self.spheres[0].dimension
        for sphere in self.spheres:
            if sphere.dimension != dimension:
                raise IndexStructureError("all spheres must share one dimensionality")
        self.dimension = dimension
        self.centers = np.stack([sphere.center for sphere in self.spheres])
        self.radii = np.array([sphere.radius for sphere in self.spheres])
        self._nearest_reach: "np.ndarray | None" = None
        self._init_stats()

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self) -> Iterator[tuple[object, Hypersphere]]:
        yield from zip(self.keys, self.spheres)

    @property
    def height(self) -> int:
        """A flat scan is one level deep by definition."""
        return 1

    def node_count(self) -> int:
        """The whole structure is a single "node"."""
        return 1

    def max_dists(self, query: Hypersphere) -> np.ndarray:
        """``MaxDist(S_i, query)`` for every stored hypersphere."""
        gaps = np.linalg.norm(self.centers - query.center, axis=1)
        return gaps + self.radii + query.radius

    def min_dists(self, query: Hypersphere) -> np.ndarray:
        """``MinDist(S_i, query)`` for every stored hypersphere."""
        gaps = np.linalg.norm(self.centers - query.center, axis=1)
        return np.maximum(gaps - self.radii - query.radius, 0.0)

    def nearest_reach(self) -> np.ndarray:
        """``min over a != b of |ca - cb| + ra`` for every object ``b``.

        ``reach[b] + rb`` is the MaxDist from ``Sb`` to its nearest
        competitor, so ``Sb`` has some competitor dominating a query
        ``Sq`` under MinMax exactly when ``reach[b] + rb < MinDist(Sq,
        Sb)`` (Emrich et al.'s sufficient test, taken per object).
        Each entry rounds exactly as the pairwise sum it replaces, and
        rounding ``x + rb`` is monotone in ``x``, so the test gives the
        pairwise verdict bit for bit.  ``inf`` for a lone object.
        Built on first use; the index is immutable, so it never goes
        stale.
        """
        reach = self._nearest_reach
        if reach is None:
            n = len(self)
            reach = np.empty(n)
            step = max(1, _REACH_PAIRS // n)
            for lo in range(0, n, step):
                hi = min(lo + step, n)
                gaps = np.linalg.norm(
                    self.centers[:, None, :] - self.centers[None, lo:hi], axis=2
                )
                sums = gaps + self.radii[:, None]
                sums[np.arange(lo, hi), np.arange(hi - lo)] = np.inf
                reach[lo:hi] = sums.min(axis=0)
            self._nearest_reach = reach
        return reach
