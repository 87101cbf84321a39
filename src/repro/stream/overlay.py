"""The mutable delta overlay: a memtable plus tombstones over a snapshot.

The base index stays immutable; the overlay holds everything that
happened since the last compaction.  Inserts are *upserts* into an
insertion-ordered memtable, deletes are tombstones.  Replaying the same
WAL twice therefore converges to the same overlay — the idempotence the
crash-recovery contract relies on (a crash between the compaction
rename and the WAL truncate re-applies the whole log over the new
snapshot without harm).

Query-time merge semantics (consumed by ``overlay=`` keyword arguments
on :func:`repro.queries.knn.knn_query`,
:func:`repro.queries.rknn.rnn_candidates` and
:func:`repro.queries.dominating.top_k_dominating`):

- base-index entries whose key is *shadowed* (tombstoned, or re-inserted
  with new geometry) are excluded before dominance decisions;
- memtable entries are offered as candidates through the same certified
  cascade as base entries — overlay candidates get no special epsilon,
  no shortcut, just a different source.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.geometry.hypersphere import Hypersphere
from repro.stream.wal import Mutation

__all__ = ["DeltaOverlay"]


class DeltaOverlay:
    """Inserts-since-compaction plus tombstones, with fold/merge helpers."""

    def __init__(self) -> None:
        self._memtable: "dict[object, Hypersphere]" = {}
        self._tombstones: "set[object]" = set()

    def __len__(self) -> int:
        """Number of live memtable entries (tombstones not counted)."""
        return len(self._memtable)

    def __bool__(self) -> bool:
        return bool(self._memtable) or bool(self._tombstones)

    @property
    def tombstones(self) -> "frozenset[object]":
        return frozenset(self._tombstones)

    # ------------------------------------------------------------------
    # Mutation application
    # ------------------------------------------------------------------
    def apply(self, mutation: Mutation) -> None:
        """Apply one WAL record.  Idempotent: replay converges."""
        if mutation.op == "insert":
            self._memtable[mutation.key] = mutation.sphere()
            self._tombstones.discard(mutation.key)
        else:
            self._memtable.pop(mutation.key, None)
            self._tombstones.add(mutation.key)

    def insert(self, key: object, sphere: Hypersphere) -> None:
        """Upsert *key* directly (engine path, after the WAL ack)."""
        self._memtable[key] = sphere
        self._tombstones.discard(key)

    def delete(self, key: object) -> None:
        """Tombstone *key* directly (engine path, after the WAL ack)."""
        self._memtable.pop(key, None)
        self._tombstones.add(key)

    def snapshot(self) -> "DeltaOverlay":
        """A shallow copy for lock-free reads while mutations continue."""
        copy = DeltaOverlay()
        copy._memtable = dict(self._memtable)
        copy._tombstones = set(self._tombstones)
        return copy

    # ------------------------------------------------------------------
    # Query-time merge interface
    # ------------------------------------------------------------------
    def shadowed_keys(self) -> "frozenset[object]":
        """Base-index keys the merge must ignore.

        Both tombstoned keys and re-inserted keys shadow their base
        entry — the memtable's copy is the live one.
        """
        return frozenset(self._tombstones) | frozenset(self._memtable)

    def entries(self) -> "Iterator[tuple[object, Hypersphere]]":
        """Live overlay entries, in insertion order (deterministic)."""
        return iter(self._memtable.items())

    def fold(
        self, base: Iterable["tuple[object, Hypersphere]"]
    ) -> "list[tuple[object, Hypersphere]]":
        """The effective dataset: base minus shadowed, plus memtable.

        This is both the compaction fold and the oracle used by the
        property tests — the single definition of what the merged index
        *means*.
        """
        shadowed = self.shadowed_keys()
        merged = [(key, sphere) for key, sphere in base if key not in shadowed]
        merged.extend(self._memtable.items())
        return merged

    def clear(self) -> None:
        """Drop everything (the compaction folded it into the base)."""
        self._memtable.clear()
        self._tombstones.clear()
