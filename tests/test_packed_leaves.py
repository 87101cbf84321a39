"""Packed leaf arrays stay in step with the leaf entries.

Every tree leaf keeps its entries twice: the ``(key, Hypersphere)`` list
and the ``centers``/``radii`` arrays the kNN sweep reads
(:mod:`repro.index.packed`).  Whatever changes a leaf — insertion,
removal, a snapshot round trip, a streaming checkpoint — must re-pack
it, or kNN would bound stale geometry.  Each step below is followed by
``validate()`` (which compares the arrays against the entries) and by
``knn_query == knn_reference``.
"""

from __future__ import annotations

import os
import tempfile

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.exceptions import IndexStructureError
from repro.geometry.hypersphere import Hypersphere
from repro.index import snapshot as snap
from repro.index.mtree import MTree
from repro.index.sstree import SSTree
from repro.index.vptree import VPTree
from repro.queries.knn import knn_query, knn_reference
from repro.stream.engine import StreamingIndex

TREE_KINDS = ("sstree", "mtree", "vptree")
DIMENSION = 3


def _sphere(rng: np.random.Generator) -> Hypersphere:
    return Hypersphere(rng.normal(0.0, 5.0, DIMENSION), float(rng.uniform(0.0, 1.5)))


def _build(kind: str, items: list):
    if kind == "sstree":
        return SSTree.bulk_load(items, max_entries=4)
    if kind == "mtree":
        return MTree.build(items, max_entries=4)
    return VPTree.build(items, leaf_capacity=4)


def _round_trip(index, directory: str):
    path = os.path.join(directory, "index.snap")
    snap.save(index, path)
    return snap.load(path)


def _assert_exact(index, items: list, rng: np.random.Generator) -> None:
    """``validate()`` passes and kNN equals the reference at one query."""
    index.validate()
    query = _sphere(rng)
    k = int(rng.integers(1, min(len(items), 6) + 1))
    got = knn_query(index, query, k)
    expected = knn_reference(items, query, k)
    assert got.key_set() == expected.key_set()
    assert got.distk == expected.distk


#: One step of a mutation script; kinds that cannot apply a step skip it
#: (the VP-tree is static, only the SS-tree supports removal).
steps = st.lists(
    st.sampled_from(("insert", "remove", "snapshot")), min_size=1, max_size=10
)


class TestLeafArraysInStep:
    @pytest.mark.parametrize("kind", TREE_KINDS)
    @given(seed=st.integers(min_value=0, max_value=10_000), script=steps)
    @settings(max_examples=20)
    def test_mutations_and_snapshots(self, kind, seed, script):
        rng = np.random.default_rng(seed)
        live = {i: _sphere(rng) for i in range(int(rng.integers(1, 12)))}
        index = _build(kind, list(live.items()))
        fresh = len(live)
        with tempfile.TemporaryDirectory() as directory:
            for step in script:
                if step == "insert" and kind != "vptree":
                    live[fresh] = _sphere(rng)
                    index.insert(fresh, live[fresh])
                    fresh += 1
                elif step == "remove" and kind == "sstree" and len(live) > 1:
                    key = list(live)[int(rng.integers(len(live)))]
                    assert index.remove(key, live.pop(key))
                elif step == "snapshot":
                    index = _round_trip(index, directory)
                _assert_exact(index, list(live.items()), rng)

    @pytest.mark.parametrize("kind", TREE_KINDS)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        rounds=st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=3),
    )
    @settings(max_examples=10)
    def test_streaming_checkpoints(self, kind, seed, rounds):
        rng = np.random.default_rng(seed)
        live = {i: _sphere(rng) for i in range(12)}
        fresh = len(live)
        with tempfile.TemporaryDirectory() as directory:
            stream = StreamingIndex.create(directory, list(live.items()), kind=kind)
            try:
                for mutations in rounds:
                    for _ in range(mutations):
                        if len(live) > 1 and rng.random() < 0.3:
                            key = list(live)[int(rng.integers(len(live)))]
                            del live[key]
                            stream.delete(key)
                        else:
                            live[fresh] = _sphere(rng)
                            stream.insert(fresh, live[fresh])
                            fresh += 1
                    stream.checkpoint()
                    _assert_exact(stream.base, list(live.items()), rng)
            finally:
                stream.close()
            # A warm restart rebuilds the checkpointed base from disk.
            with StreamingIndex.open(directory) as reopened:
                _assert_exact(reopened.base, list(live.items()), rng)


@pytest.mark.parametrize(
    "kind, mutation", [("sstree", "insert"), ("sstree", "remove"), ("mtree", "insert")]
)
def test_a_stale_leaf_directory_never_answers(kind, mutation):
    # The first query builds the tree's leaf directory; a mutation must
    # drop it, or the second query would bound the old leaves.
    rng = np.random.default_rng(3)
    live = {i: _sphere(rng) for i in range(40)}
    index = _build(kind, list(live.items()))
    leaf = index.root
    while not leaf.is_leaf:
        leaf = leaf.children[0]
    query = Hypersphere(leaf.entries[0][1].center, 0.5)
    knn_query(index, query, 5)
    if mutation == "insert":
        # New nearest objects, enough to split the query's leaf.
        for i in range(4):
            live[f"new{i}"] = Hypersphere(query.center + 0.01 * i, 0.0)
            index.insert(f"new{i}", live[f"new{i}"])
    else:
        # Empty (and so dissolve) the leaf the query sits in.
        for key, _ in list(leaf.entries):
            assert index.remove(key, live.pop(key))
    got = knn_query(index, query, 5)
    expected = knn_reference(list(live.items()), query, 5)
    assert got.key_set() == expected.key_set()
    assert got.distk == expected.distk


@pytest.mark.parametrize("kind", TREE_KINDS)
def test_validate_catches_a_stale_leaf(kind):
    rng = np.random.default_rng(0)
    index = _build(kind, [(i, _sphere(rng)) for i in range(20)])
    leaf = index.root
    while not leaf.is_leaf:
        leaf = leaf.children[0]
    key, sphere = leaf.entries[0]
    leaf.entries[0] = (key, sphere.with_radius(sphere.radius + 0.5))
    with pytest.raises(IndexStructureError, match="leaf arrays"):
        index.validate()
