"""The four served workloads and the inputs each one makes from its seed.

The seed chooses every generated input: the dataset, the query
spheres, the mutation script.  The server only ever receives the
snapshot or stream directory written here and the HTTP requests.

Queries are a randomised quasi-Monte Carlo design: the first points of
a Halton sequence, shifted modulo 1 by the seed, mapped through the
dataset's own center and radius distributions (Section 7 of the paper:
centers ~ N(100, 25), radii ~ N(mu, mu/4)).  Every seed gets different
queries that still cover the data evenly, so the cost of a run's query
set varies far less from seed to seed than with independent draws.
Requests leave out ``algorithm`` and ``strategy``, so the served
defaults are what is measured.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Any, Iterator

import numpy as np

from perfbench.loadgen import Request
from perfbench.reference import Entries, StreamModel
from repro.data.synthetic import CENTER_MEAN, CENTER_STD, synthetic_dataset
from repro.geometry.hypersphere import Hypersphere
from repro.index import snapshot as snapshot_io
from repro.index.linear import LinearIndex
from repro.index.sstree import SSTree
from repro.stream.engine import StreamingIndex

__all__ = [
    "D",
    "Inputs",
    "Mutation",
    "RATE",
    "SPECS",
    "WorkloadSpec",
    "build_inputs",
    "query_design",
]

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)

#: Requests per second: the open loop's schedule, and the most all
#: clients of a closed loop may send together.  Below the default
#: tenant's rate limit of 50/s, so a faster server never turns into 429s.
RATE = 40.0

#: Dimensionality of every workload's data and queries.
D = 3


@dataclass(frozen=True)
class WorkloadSpec:
    """One workload: the server it boots, its data and its traffic."""

    name: str
    why: str
    index: str  # "sstree" | "linear"
    n: int
    mu: float
    k: int
    #: Request kinds, interleaved in this order.
    kinds: "tuple[str, ...]"
    #: Closed loop: the number of clients.  Open loop: the most
    #: requests in flight.  Never above the box's 2 cores.
    clients: int
    open_loop: bool = False
    #: ``repro serve --workers``; 0 is the single-process server.
    workers: int = 0
    #: Serve a streaming directory (``--stream``) instead of a snapshot.
    stream: bool = False
    #: Mutations written to the WAL before boot, replayed by every boot.
    wal_records: int = 0
    deadline_ms: "float | None" = None
    #: Requests of each kind in one round.  The queries of a round are
    #: distinct spheres, and every round repeats them in the same order
    #: (see ``suite.position_latencies``).  A multiple of 4, so that a
    #: mutation's position in the round fixes whether it inserts or
    #: deletes.
    distinct: int = 200
    #: Cold boots per run; ``setup_s`` is their median.
    boots: int = 5


SPECS: "dict[str, WorkloadSpec]" = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="knn-large",
            why=(
                "Single-process kNN over a 2,000-sphere SS-tree from 2 clients: "
                "query, index and core layers do the work; shows pruning, "
                "refinement cost and executor contention."
            ),
            index="sstree",
            n=2000,
            mu=0.5,
            k=10,
            kinds=("knn",),
            clients=2,
            deadline_ms=10_000.0,
            distinct=40,
        ),
        WorkloadSpec(
            name="serve-pool",
            why=(
                "Open loop at 40 req/s into a 2-worker pool over a 100-sphere "
                "SS-tree: HTTP, admission and the supervisor-to-worker hop "
                "dominate the round trip."
            ),
            index="sstree",
            n=100,
            mu=0.5,
            k=5,
            kinds=("knn",),
            clients=2,
            open_loop=True,
            workers=2,
        ),
        WorkloadSpec(
            name="mutate-mix",
            why=(
                "One client alternating fsynced /mutate and kNN on a streaming "
                "SS-tree of 5,000 with 1,000 WAL records replayed at boot: WAL "
                "append, overlay merge, replay."
            ),
            index="sstree",
            n=5000,
            mu=0.5,
            k=10,
            kinds=("mutate", "knn"),
            clients=1,
            stream=True,
            wal_records=1000,
            distinct=32,
        ),
        WorkloadSpec(
            name="flat-scans",
            why=(
                "RkNN and top-k dominating interleaved from 2 clients into a "
                "2-worker pool over a flat index of 200: the O(n^2) scan paths, "
                "with no kNN tree."
            ),
            index="linear",
            n=200,
            mu=10.0,
            k=5,
            kinds=("rknn", "dominating"),
            clients=2,
            workers=2,
            distinct=20,
        ),
    )
}


@dataclass(frozen=True)
class Mutation:
    op: str  # "insert" | "delete"
    key: int
    center: "tuple[float, ...] | None" = None
    radius: "float | None" = None

    def sphere(self) -> Hypersphere:
        assert self.center is not None and self.radius is not None
        return Hypersphere(list(self.center), self.radius)

    def apply(self, model: StreamModel) -> None:
        if self.op == "insert":
            sphere = self.sphere()
            model.insert(self.key, sphere.center, sphere.radius)
        else:
            model.delete(self.key)

    def payload(self) -> "dict[str, Any]":
        body: "dict[str, Any]" = {"index": "default", "op": self.op, "key": self.key}
        if self.op == "insert":
            body["center"] = list(self.center or ())
            body["radius"] = self.radius
        return body


@dataclass
class Inputs:
    """Everything one run of a workload sends or checks against."""

    spec: WorkloadSpec
    #: The snapshot file or stream directory the server loads.
    target: str
    #: Base entries (after the pre-applied WAL records, for streams).
    entries: Entries
    queries: "list[tuple[np.ndarray, float]]"
    #: The live mutation script (``mutate-mix`` only).
    mutations: "list[Mutation]" = field(default_factory=list)

    def server_args(self) -> "list[str]":
        """``repro serve`` arguments, less host and port."""
        source = "--stream" if self.spec.stream else "--snapshot"
        args = [source, f"default={self.target}"]
        if self.spec.workers:
            args += ["--workers", str(self.spec.workers)]
        if self.spec.deadline_ms is not None:
            args += ["--deadline-ms", f"{self.spec.deadline_ms:g}"]
        return args

    def requests(self) -> "Iterator[Request]":
        """The workload's request stream, from its start, in rounds.

        Position ``p`` of round ``r`` sends every kind of the spec for
        query ``p``; a mutation takes the place of a query kind and
        carries the ``(r * distinct + p)``-th mutation of the script.
        """
        for position in itertools.count():
            round_, ref = divmod(position, len(self.queries))
            for kind in self.spec.kinds:
                if kind != "mutate":
                    yield self._query(kind, ref, round_)
                    continue
                if position == len(self.mutations):
                    return
                body = _encode(self.mutations[position].payload())
                yield Request("mutate", position, "/mutate", body, round_)

    def warmup(self, count: int) -> "list[Request]":
        """Read-only requests from the far end of the query cycle."""
        kinds = [kind for kind in self.spec.kinds if kind != "mutate"]
        last = len(self.queries) - 1
        return [
            self._query(kind, last - i, -1) for i in range(count) for kind in kinds
        ][:count]

    def _query(self, kind: str, ref: int, round_: int) -> Request:
        center, radius = self.queries[ref]
        body: "dict[str, Any]" = {
            "kind": kind,
            "index": "default",
            "center": [float(c) for c in center],
            "radius": radius,
        }
        if kind != "rknn":
            body["k"] = self.spec.k
        return Request(kind, ref, "/query", _encode(body), round_)

    def stream_model(self) -> StreamModel:
        return StreamModel(self.entries.keys, self.entries.centers, self.entries.radii)


def _encode(body: "dict[str, Any]") -> bytes:
    return json.dumps(body, separators=(",", ":")).encode("utf-8")


def _halton(count: int, dims: int) -> np.ndarray:
    points = np.empty((count, dims))
    for dim in range(dims):
        base = _PRIMES[dim]
        for i in range(count):
            fraction, value, rest = 1.0, 0.0, i + 1
            while rest:
                fraction /= base
                value += fraction * (rest % base)
                rest //= base
            points[i, dim] = value
    return points


def query_design(
    count: int, d: int, mu: float, rng: np.random.Generator
) -> "list[tuple[np.ndarray, float]]":
    """*count* query spheres: a seed-shifted Halton set over the data law."""
    unit = np.clip((_halton(count, d + 1) + rng.random(d + 1)) % 1.0, 1e-6, 1 - 1e-6)
    centers = NormalDist(CENTER_MEAN, CENTER_STD)
    radii = NormalDist(mu, mu / 4.0)
    return [
        (
            np.array([centers.inv_cdf(u) for u in row[:d]]),
            max(radii.inv_cdf(row[d]), 0.0),
        )
        for row in unit
    ]


def _mutation_script(
    spec: WorkloadSpec, count: int, rng: np.random.Generator
) -> "list[Mutation]":
    """Three inserts of fresh keys to one delete of a live key, in turn."""
    fresh = synthetic_dataset(count, D, mu=spec.mu, rng=rng)
    live = list(range(spec.n))
    script: "list[Mutation]" = []
    for i in range(count):
        if i % 4 == 3:
            slot = int(rng.integers(len(live)))
            live[slot], live[-1] = live[-1], live[slot]
            script.append(Mutation("delete", live.pop()))
        else:
            key = spec.n + i
            live.append(key)
            script.append(
                Mutation(
                    "insert",
                    key,
                    tuple(float(c) for c in fresh.centers[i]),
                    float(fresh.radii[i]),
                )
            )
    return script


def build_inputs(spec: WorkloadSpec, seed: int, directory: str) -> Inputs:
    """Generate the inputs for *seed* and write what the server loads."""
    os.makedirs(directory, exist_ok=True)
    dataset = synthetic_dataset(
        spec.n, D, mu=spec.mu, rng=np.random.default_rng([seed, 0])
    )
    items = list(dataset.items())
    queries = query_design(spec.distinct, D, spec.mu, np.random.default_rng([seed, 1]))
    entries = Entries([key for key, _ in items], dataset.centers, dataset.radii)
    if not spec.stream:
        if spec.index == "linear":
            index: Any = LinearIndex(items)
        else:
            index = SSTree.bulk_load(items)
        target = os.path.join(directory, "default.snap")
        snapshot_io.save(index, target)
        return Inputs(spec, target, entries, queries)

    # Enough live mutations for any run: the rate cap over ten minutes.
    script = _mutation_script(
        spec, spec.wal_records + int(RATE * 600), np.random.default_rng([seed, 2])
    )
    target = os.path.join(directory, "stream")
    model = StreamModel(entries.keys, entries.centers, entries.radii)
    with StreamingIndex.create(target, items, kind=spec.index) as stream:
        for mutation in script[: spec.wal_records]:
            mutation.apply(model)
            if mutation.op == "insert":
                stream.insert(mutation.key, mutation.sphere())
            else:
                stream.delete(mutation.key)
    return Inputs(spec, target, model.entries(), queries, script[spec.wal_records :])
