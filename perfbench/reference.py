"""Reference answers the benchmark computes itself, and the checks.

Every served answer is compared against an answer computed here from
the benchmark's own copy of the data, with the vectorised Hyperbola
kernel (:func:`repro.core.batch.batch_evaluate`) rather than the
served query code:

- **kNN** (Definition 2): ``Sk`` is every object with the k-th smallest
  ``MaxDist``; the answer is every object no ``Sk`` dominates.  Rows
  whose ``MinDist`` exceeds ``distk`` are dominated by MinMax, a correct
  criterion, so only the remaining rows reach the Hyperbola kernel.  The
  served default may return a subset of the answer (the paper's
  incremental list), so the check is: served ⊆ answer, and every object
  with ``MaxDist <= distk`` (the *certain* part) is served.
- **RkNN**: object ``Sb`` is refuted iff some other ``Sa`` dominates the
  query with respect to ``Sb``.  MinMax settles the pairs it can; every
  pair of an object it leaves unrefuted goes through Hyperbola.  The
  served set must be exactly the unrefuted set.
- **Top-k dominating**: the score of ``Si`` is how many ``Sj`` it
  dominates with respect to the query, from one n×n sweep; every served
  score must equal the reference score and the served scores must be
  the k highest.

:class:`StreamModel` replays the acked mutations of the ``mutate-mix``
workload, so kNN answers served over a live overlay are checked against
the effective entries at the moment of each query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Sequence

import numpy as np

from repro.core.batch import batch_evaluate

__all__ = [
    "Entries",
    "StreamModel",
    "check_dominating",
    "check_knn",
    "check_rknn",
    "dominance_scores",
    "knn_answer",
    "rknn_answer",
]

Key = Hashable


@dataclass
class Entries:
    """A keyed set of hyperspheres in struct-of-arrays form."""

    keys: "list[Key]"
    centers: np.ndarray  # (n, d)
    radii: np.ndarray  # (n,)

    def __len__(self) -> int:
        return len(self.keys)


def _gaps(centers: np.ndarray, point: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->i", centers - point, centers - point))


def knn_answer(
    entries: Entries, center: np.ndarray, radius: float, k: int
) -> "tuple[set[Key], set[Key]]":
    """``(answer, certain)`` of the Definition-2 kNN query."""
    d = entries.centers.shape[1]
    gaps = _gaps(entries.centers, center)
    max_dists = gaps + entries.radii + radius
    min_dists = np.maximum(gaps - entries.radii - radius, 0.0)
    distk = float(np.partition(max_dists, k - 1)[k - 1])
    certain = max_dists <= distk
    undecided = np.flatnonzero(~certain & (min_dists <= distk))
    dominated = np.zeros(undecided.size, dtype=bool)
    if undecided.size:
        count = undecided.size
        cb = entries.centers[undecided]
        rb = entries.radii[undecided]
        cq = np.broadcast_to(center, (count, d))
        rq = np.full(count, radius)
        for anchor in np.flatnonzero(max_dists == distk):
            ca = np.broadcast_to(entries.centers[anchor], (count, d))
            ra = np.full(count, entries.radii[anchor])
            dominated |= batch_evaluate("hyperbola", ca, cb, cq, ra, rb, rq)
    keys = entries.keys
    certain_keys = {keys[i] for i in np.flatnonzero(certain)}
    answer = certain_keys | {keys[i] for i in undecided[~dominated]}
    return answer, certain_keys


def _refutations(
    criterion: str, entries: Entries, center: np.ndarray, radius: float, b: np.ndarray
) -> np.ndarray:
    """``[a, j]``: does object ``a`` dominate the query w.r.t. ``b[j]``?"""
    n, d = entries.centers.shape
    rows_a = np.repeat(np.arange(n), b.size)
    rows_b = np.tile(b, n)
    dominates = batch_evaluate(
        criterion,
        entries.centers[rows_a],
        np.broadcast_to(center, (rows_a.size, d)),
        entries.centers[rows_b],
        entries.radii[rows_a],
        np.full(rows_a.size, radius),
        entries.radii[rows_b],
    )
    dominates[rows_a == rows_b] = False  # an object never refutes itself
    return dominates.reshape(n, b.size)


def rknn_answer(entries: Entries, center: np.ndarray, radius: float) -> "set[Key]":
    """Keys whose reverse-NN membership no other object refutes."""
    everyone = np.arange(len(entries))
    refuted = _refutations("minmax", entries, center, radius, everyone).any(axis=0)
    open_ = np.flatnonzero(~refuted)
    if open_.size:
        exact = _refutations("hyperbola", entries, center, radius, open_)
        refuted[open_] = exact.any(axis=0)
    return {entries.keys[i] for i in np.flatnonzero(~refuted)}


def dominance_scores(
    entries: Entries, center: np.ndarray, radius: float
) -> "dict[Key, int]":
    """How many other objects each object dominates w.r.t. the query."""
    n, d = entries.centers.shape
    a = np.repeat(np.arange(n), n)
    b = np.tile(np.arange(n), n)
    dominated = batch_evaluate(
        "hyperbola",
        entries.centers[a],
        entries.centers[b],
        np.broadcast_to(center, (n * n, d)),
        entries.radii[a],
        entries.radii[b],
        np.full(n * n, radius),
    ).reshape(n, n)
    np.fill_diagonal(dominated, False)
    return {key: int(count) for key, count in zip(entries.keys, dominated.sum(axis=1))}


def _key(raw: Any) -> Key:
    """A served key as a hashable value (JSON arrays become tuples)."""
    return tuple(_key(item) for item in raw) if isinstance(raw, list) else raw


def check_knn(
    result: Any, answer: "set[Key]", certain: "set[Key]"
) -> "tuple[str | None, float]":
    """``(problem or None, recall)`` for one served kNN result."""
    try:
        served = {_key(key) for key in result["keys"]}
    except (TypeError, KeyError):
        return f"malformed kNN result {str(result)[:120]!r}", 0.0
    recall = len(served & answer) / len(answer)
    extra = sorted(map(str, served - answer))
    if extra:
        return f"served keys outside the Definition-2 answer: {extra[:5]}", recall
    missing = certain - served
    if missing:
        return f"certain answers missing: {sorted(map(str, missing))[:5]}", recall
    return None, recall


def check_rknn(result: Any, answer: "set[Key]") -> "str | None":
    try:
        served = {_key(key) for key in result}
    except TypeError:
        return f"malformed RkNN result {str(result)[:120]!r}"
    if served != answer:
        return (
            f"RkNN set differs: {len(served - answer)} extra, "
            f"{len(answer - served)} missing"
        )
    return None


def check_dominating(result: Any, scores: "dict[Key, int]", k: int) -> "str | None":
    try:
        served = [(_key(row["key"]), int(row["score"])) for row in result]
    except (TypeError, KeyError, ValueError):
        return f"malformed dominating result {str(result)[:120]!r}"
    for key, score in served:
        if scores.get(key) != score:
            return f"score of {key!r} is {score}, reference {scores.get(key)}"
    top = sorted(scores.values(), reverse=True)[:k]
    if len({key for key, _ in served}) != len(served) or sorted(
        (score for _, score in served), reverse=True
    ) != top:
        return f"served scores {[s for _, s in served]} are not the top {k} {top}"
    return None


class StreamModel:
    """The effective entries of a streaming index, replayed from acks.

    Inserts upsert and deletes remove, exactly like the overlay fold,
    so after the same acked mutations this equals
    ``StreamingIndex.effective_entries()`` as a key → sphere mapping.
    """

    def __init__(
        self, keys: "Sequence[Key]", centers: np.ndarray, radii: np.ndarray
    ) -> None:
        self._rows: "dict[Key, int]" = {key: i for i, key in enumerate(keys)}
        self._keys: "list[Key]" = list(keys)
        self._centers = np.array(centers, dtype=np.float64)
        self._radii = np.array(radii, dtype=np.float64)
        self._size = len(self._keys)

    def __len__(self) -> int:
        return self._size

    def insert(self, key: Key, center: "Sequence[float]", radius: float) -> None:
        row = self._rows.get(key)
        if row is None:
            row = self._size
            if row == len(self._radii):
                grow = max(row, 16)
                self._centers = np.concatenate(
                    [self._centers, np.empty((grow, self._centers.shape[1]))]
                )
                self._radii = np.concatenate([self._radii, np.empty(grow)])
            self._rows[key] = row
            self._keys.append(key)
            self._size += 1
        self._centers[row] = center
        self._radii[row] = radius

    def delete(self, key: Key) -> None:
        row = self._rows.pop(key, None)
        if row is None:
            return
        last = self._size - 1
        if row != last:
            moved = self._keys[last]
            self._keys[row] = moved
            self._rows[moved] = row
            self._centers[row] = self._centers[last]
            self._radii[row] = self._radii[last]
        self._keys.pop()
        self._size -= 1

    def entries(self) -> Entries:
        return Entries(
            list(self._keys), self._centers[: self._size], self._radii[: self._size]
        )

    def as_dict(self) -> "dict[Key, tuple[tuple[float, ...], float]]":
        return {
            key: (tuple(float(c) for c in self._centers[i]), float(self._radii[i]))
            for i, key in enumerate(self._keys)
        }
