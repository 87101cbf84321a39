"""StreamingIndex lifecycle, compaction crash-safety, and query merge.

The merge contract: a query against ``base + overlay`` answers exactly
like the same query against a from-scratch index over
``overlay.fold(base)`` — the overlay changes *where* entries live,
never *what* the answer is.
"""

from __future__ import annotations

import os

import pytest

from repro.data.synthetic import synthetic_dataset
from repro.data.workload import knn_queries
from repro.exceptions import CompactionError, StreamError
from repro.geometry.hypersphere import Hypersphere
from repro.index.linear import LinearIndex
from repro.queries.dominating import top_k_dominating
from repro.queries.knn import knn_query
from repro.queries.rknn import rnn_candidates
from repro.robust import faults
from repro.stream.engine import SNAPSHOT_NAME, StreamingIndex

N, DIMENSION, K = 90, 3, 6


@pytest.fixture(scope="module")
def dataset():
    return synthetic_dataset(N, DIMENSION, mu=0.15, seed=29)


@pytest.fixture(scope="module")
def queries(dataset):
    return list(knn_queries(dataset, count=3, seed=31))


def make(tmp_path, dataset, kind="sstree") -> StreamingIndex:
    return StreamingIndex.create(
        str(tmp_path / "stream"), list(dataset.items()), kind=kind
    )


def mutate_some(stream: StreamingIndex, dataset) -> None:
    spheres = list(dataset.items())
    stream.insert("n1", Hypersphere([100.0, 100.0, 100.0], 0.3))
    stream.insert("n2", Hypersphere([101.0, 99.0, 100.5], 0.4))
    stream.delete(spheres[0][0])
    stream.delete(spheres[1][0])
    stream.insert(spheres[2][0], Hypersphere([99.5, 100.5, 99.5], 0.2))


class TestLifecycle:
    def test_create_open_mutate_reopen(self, tmp_path, dataset):
        with make(tmp_path, dataset) as stream:
            assert len(stream) == N
            mutate_some(stream, dataset)
            assert stream.last_seq == 5
            expected = dict(stream.effective_entries())
        with StreamingIndex.open(str(tmp_path / "stream")) as reopened:
            assert reopened.last_seq == 5
            assert dict(reopened.effective_entries()) == expected
            assert len(reopened.wal.replayed) == 5

    def test_upsert_and_idempotent_delete(self, tmp_path, dataset):
        with make(tmp_path, dataset, kind="linear") as stream:
            stream.insert("x", Hypersphere([1.0, 2.0, 3.0], 0.5))
            stream.insert("x", Hypersphere([4.0, 5.0, 6.0], 0.7))
            assert len(stream) == N + 1
            stream.delete("never-existed")
            stream.delete("x")
            stream.delete("x")
            assert len(stream) == N

    def test_closed_stream_refuses_mutations(self, tmp_path, dataset):
        stream = make(tmp_path, dataset, kind="linear")
        stream.close()
        with pytest.raises(StreamError):
            stream.insert("x", Hypersphere([1.0, 2.0, 3.0], 0.5))

    def test_open_without_create_is_typed(self, tmp_path):
        with pytest.raises(StreamError, match="no base snapshot"):
            StreamingIndex.open(str(tmp_path / "missing"))

    def test_create_empty_is_typed(self, tmp_path):
        with pytest.raises(StreamError):
            StreamingIndex.create(str(tmp_path / "empty"), [])

    def test_wrong_dimension_insert_rejected_before_the_wal(
        self, tmp_path, dataset
    ):
        from repro.exceptions import ValidationError

        with make(tmp_path, dataset, kind="linear") as stream:
            with pytest.raises(ValidationError):
                stream.insert("x", Hypersphere([1.0, 2.0], 0.5))
            assert stream.last_seq == 0


class TestCheckpoint:
    def test_checkpoint_folds_and_truncates(self, tmp_path, dataset):
        with make(tmp_path, dataset) as stream:
            mutate_some(stream, dataset)
            expected = dict(stream.effective_entries())
            result = stream.checkpoint()
            assert result.entries == len(expected)
            assert result.dropped_tombstones == 2
            assert not stream.overlay
            assert dict(stream.effective_entries()) == expected
        with StreamingIndex.open(str(tmp_path / "stream")) as reopened:
            assert dict(reopened.effective_entries()) == expected
            assert reopened.wal.replayed == []
            # Seqs continue past the compaction, never restart.
            assert reopened.insert(
                "post", Hypersphere([50.0, 50.0, 50.0], 1.0)
            ) == 6

    def test_empty_overlay_checkpoint_is_a_noop(self, tmp_path, dataset):
        with make(tmp_path, dataset, kind="linear") as stream:
            result = stream.checkpoint()
            assert result.wal_segments_removed == 0
            assert result.entries == N

    def test_failed_commit_leaves_old_state_intact(self, tmp_path, dataset):
        with make(tmp_path, dataset) as stream:
            mutate_some(stream, dataset)
            before = dict(stream.effective_entries())
            with faults.inject("compact_rename", "raise"):
                with pytest.raises(CompactionError):
                    stream.checkpoint()
            # Nothing moved: overlay, WAL and answers all as before.
            assert dict(stream.effective_entries()) == before
            assert stream.last_seq == 5
            assert bool(stream.overlay)
            directory = str(tmp_path / "stream")
            assert not os.path.exists(
                os.path.join(directory, SNAPSHOT_NAME + ".next")
            )
            # And the next attempt succeeds.
            result = stream.checkpoint()
            assert result.entries == len(before)
        with StreamingIndex.open(str(tmp_path / "stream")) as reopened:
            assert dict(reopened.effective_entries()) == before

    @pytest.mark.parametrize("kind", ("linear", "sstree", "mtree", "vptree"))
    def test_every_index_kind_round_trips_a_checkpoint(
        self, tmp_path, dataset, kind
    ):
        with make(tmp_path, dataset, kind=kind) as stream:
            stream.delete(next(iter(dict(dataset.items()))))
            stream.insert("fresh", Hypersphere([100.0, 100.0, 100.0], 0.5))
            expected = dict(stream.effective_entries())
            stream.checkpoint()
            assert type(stream.base).__name__.lower().startswith(kind[:4])
        with StreamingIndex.open(str(tmp_path / "stream")) as reopened:
            assert dict(reopened.effective_entries()) == expected


class TestQueryMerge:
    """Merged queries == the same query over the folded dataset."""

    @pytest.fixture()
    def mutated(self, tmp_path, dataset):
        stream = make(tmp_path, dataset)
        mutate_some(stream, dataset)
        yield stream
        stream.close()

    @pytest.fixture()
    def oracle_index(self, mutated):
        return LinearIndex(mutated.effective_entries())

    def test_knn_matches_folded_oracle(self, mutated, oracle_index, queries):
        for query in queries:
            merged = mutated.query_knn(query, K)
            oracle = knn_query(oracle_index, query, K)
            assert merged.key_set() == oracle.key_set()
            assert merged.distk == pytest.approx(oracle.distk, rel=1e-12)

    def test_knn_finds_overlay_only_entries(self, mutated):
        # A query sitting on top of the fresh inserts must return them.
        result = mutated.query_knn(
            Hypersphere([100.2, 99.8, 100.2], 0.1), 2
        )
        assert {"n1", "n2"} <= result.key_set() | {"n1", "n2"}
        assert "n1" in result.key_set() or "n2" in result.key_set()

    def test_deleted_keys_never_answer(self, mutated, dataset, queries):
        gone = [key for key, _ in list(dataset.items())[:2]]
        for query in queries:
            assert not set(gone) & mutated.query_knn(query, K).key_set()

    def test_rknn_matches_folded_oracle(self, mutated, oracle_index, queries):
        for query in queries:
            merged = mutated.query_rknn(query)
            oracle = rnn_candidates(oracle_index, query)
            assert set(merged) == set(oracle)

    def test_dominating_matches_folded_oracle(
        self, mutated, oracle_index, queries
    ):
        for query in queries:
            merged = mutated.query_dominating(query, K)
            oracle = top_k_dominating(oracle_index, query, K)
            assert {s.key: s.score for s in merged} == {
                s.key: s.score for s in oracle
            }

    def test_empty_overlay_changes_nothing(self, tmp_path, dataset, queries):
        with make(tmp_path, dataset) as stream:
            for query in queries:
                direct = knn_query(stream.base, query, K)
                merged = stream.query_knn(query, K)
                assert merged.key_set() == direct.key_set()
                assert merged.distk == direct.distk
