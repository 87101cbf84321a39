"""Shared machinery of the flat scans: blocks, bounds and pending pairs.

RkNN and top-k dominating both decide dominance over every ordered pair
of a flat dataset.  They walk the pair matrix in blocks of whole rows
(columns, for RkNN).  Cheap vectorised bounds settle most pairs of a
block: the Hyperbola kernel's center test is necessary for dominance,
and MinMax is sufficient.  Only the pairs the bounds leave open are
queued in :class:`PendingPairs`, and the queue goes to one vectorised
:func:`repro.core.batch.batch_evaluate` call (paper Section 5.2) per
:data:`BLOCK_PAIRS` pending pairs.

A bound settles a pair only when it clears the pair's margin by
:data:`PAIR_GUARD` relative to the scene's length scale; closer pairs go
to the kernel, so rounding in the bounds never decides a pair the
kernel would decide otherwise.

Budgets keep their per-object meaning: :func:`charge_rows` charges each
object of a block, in order, before the block's pairs are built, so a
budget cut leaves the same examined prefix as a one-object-at-a-time
scan.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from repro import obs
from repro.geometry.hypersphere import Hypersphere
from repro.index.linear import LinearIndex
from repro.obs import names
from repro.queries.validation import validate_query
from repro.resilience.budget import Budget

if TYPE_CHECKING:
    from repro.stream.overlay import DeltaOverlay

__all__ = [
    "BLOCK_PAIRS",
    "PAIR_GUARD",
    "PendingPairs",
    "blocks",
    "charge_rows",
    "flat_dataset",
    "pair_guard",
]

#: Pairs one block covers at most, and pending pairs one kernel call
#: takes at most (a flush goes out once the queue reaches it).  Large
#: enough that NumPy, not the interpreter, carries a block's sweep and a
#: flush; small enough that their temporaries stay a few hundred
#: kilobytes.
BLOCK_PAIRS = 4096

#: A bound settles a pair only when it clears the pair's margin by this
#: much relative to the scene's length scale (see :func:`pair_guard`).
PAIR_GUARD = 1e-9


def blocks(n: int) -> "Iterator[tuple[int, int]]":
    """``[lo, hi)`` ranges of n objects covering at most BLOCK_PAIRS pairs.

    A block holds at least one object, so past ``n = BLOCK_PAIRS`` each
    block is a single row of ``n`` pairs.

    >>> list(blocks(100))
    [(0, 40), (40, 80), (80, 100)]
    """
    step = max(1, BLOCK_PAIRS // max(n, 1))
    for lo in range(0, n, step):
        yield lo, min(lo + step, n)


def charge_rows(budget: Budget, lo: int, hi: int, amount: int) -> int:
    """Charge *amount* per object of ``[lo, hi)``, in order.

    Returns the first object whose charge exhausted the budget — the
    block is swept only up to it — or *hi* when every charge went in.
    """
    for row in range(lo, hi):
        if budget.charge_candidate(amount) is not None:
            return row
    return hi


def pair_guard(gaps_q: np.ndarray, radii: np.ndarray, rq: float) -> float:
    """The absolute margin a bound must clear to settle a pair.

    *gaps_q* holds every object's center distance to the query.  Every
    distance a bound or the kernel compares is a sum of at most a few of
    these gaps and radii, so their rounding stays far below this.
    """
    return PAIR_GUARD * (float(gaps_q.max()) + float(radii.max()) + rq)


def flat_dataset(
    dataset: "LinearIndex | Sequence[tuple[object, Hypersphere]]",
    query: Hypersphere,
    overlay: "DeltaOverlay | None",
) -> "LinearIndex | None":
    """The validated flat dataset a scan sweeps; None when it is empty.

    With a non-empty *overlay* that is the effective streaming dataset:
    base minus shadowed keys, plus the memtable.  *query* is checked
    against the dataset's dimension (the base's, once every object is
    deleted).
    """
    dimension = getattr(dataset, "dimension", query.dimension)
    if overlay is not None and overlay:
        dataset = overlay.fold(iter(dataset))
        if obs.ENABLED:
            obs.incr(names.STREAM_MERGED_QUERIES)
    if not isinstance(dataset, LinearIndex):
        items = list(dataset)
        dataset = LinearIndex(items) if items else None
    if dataset is not None:
        dimension = dataset.dimension
    validate_query(query, dimension)
    return dataset


class PendingPairs:
    """Ordered pairs ``(a, b)`` the bounds left open, awaiting the kernel."""

    def __init__(self) -> None:
        self._rows: "list[np.ndarray]" = []
        self._cols: "list[np.ndarray]" = []
        self.size = 0

    def add(self, rows: np.ndarray, cols: np.ndarray) -> None:
        """Queue the pairs ``(rows[i], cols[i])``, after those queued."""
        if rows.size:
            self._rows.append(rows)
            self._cols.append(cols)
            self.size += int(rows.size)

    def take(self) -> "tuple[np.ndarray, np.ndarray]":
        """Every queued pair as ``(rows, cols)`` arrays, emptying the queue."""
        if not self.size:
            empty = np.zeros(0, dtype=np.intp)
            return empty, empty
        rows = np.concatenate(self._rows)
        cols = np.concatenate(self._cols)
        self._rows, self._cols, self.size = [], [], 0
        return rows, cols
