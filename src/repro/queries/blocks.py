"""Blocks of the n x n pair matrix that the flat scans sweep.

RkNN and top-k dominating both decide dominance over every ordered pair
of a flat dataset.  Rather than one kernel call per object (or one
scalar call per pair), they sweep the pair matrix in blocks of whole
rows — columns, for RkNN — and decide each block with one vectorised
:func:`repro.core.batch.batch_evaluate` call (paper Section 5.2).

A block holds at most :data:`BLOCK_PAIRS` pairs (or one object's row,
if that is longer).  It is a constant, not a knob: large enough that
NumPy, not the interpreter, carries a sweep, small enough that a
block's temporaries stay a few hundred kilobytes.

Budgets keep their per-object meaning: :func:`charge_rows` charges each
object of a block, in order, before the block is swept, so a budget cut
leaves the same examined prefix as a one-object-at-a-time scan.
"""

from __future__ import annotations

from typing import Iterator

from repro.resilience.budget import Budget

__all__ = ["BLOCK_PAIRS", "blocks", "charge_rows"]

#: Pairs one block (one kernel call) covers at most.  Measured in
#: process on the ``flat-scans`` data (n=200, d=3, a 2-vCPU VM), RkNN
#: took about 15-17 ms a query at 2,048 pairs and 12-13 ms at 4,096;
#: larger blocks, and dominating at any of these sizes, moved less than
#: the run-to-run noise.
BLOCK_PAIRS = 4096


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
