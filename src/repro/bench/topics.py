"""The pinned parameter sweeps behind every ``repro bench`` run.

Each topic is a named list of *points*; a point is a plain dict of the
parameters one measurement varies (cardinality ``n``, dimensionality
``d``, radius distribution, query count, ...), mirroring the ranges the
paper sweeps in its evaluation (Section 7.1: synthetic datasets across
dimensionalities and cardinalities, Gaussian and uniform radius
distributions).  Two trajectories are comparable exactly because the
points are pinned here rather than improvised per run: the compare step
matches points by their parameter dict.

``quick`` points are small enough for a CI smoke lane (the whole sweep
in well under two minutes); ``full`` extends the same axes towards the
paper's scales.
"""

from __future__ import annotations

__all__ = ["TOPICS", "topic_points"]


def _point(**params: object) -> "dict[str, object]":
    return dict(params)


#: topic -> mode -> points.  Every quick point is also a full point so a
#: full trajectory can be compared against a quick baseline.
_SWEEPS: "dict[str, dict[str, list[dict[str, object]]]]" = {
    # Index construction: bulk-loading the SS-tree across cardinality,
    # dimensionality and radius-distribution axes.
    "build": {
        "quick": [
            _point(n=500, d=3, radius="gaussian"),
            _point(n=1000, d=3, radius="gaussian"),
            _point(n=500, d=8, radius="gaussian"),
            _point(n=500, d=3, radius="uniform"),
        ],
        "full": [
            _point(n=500, d=3, radius="gaussian"),
            _point(n=1000, d=3, radius="gaussian"),
            _point(n=4000, d=3, radius="gaussian"),
            _point(n=500, d=8, radius="gaussian"),
            _point(n=1000, d=16, radius="gaussian"),
            _point(n=500, d=3, radius="uniform"),
            _point(n=4000, d=3, radius="uniform"),
        ],
    },
    # Definition-2 kNN over the SS-tree: the paper's primary workload.
    # Radii default to mu=10 (Section 7.1); at n=600 such spheres
    # overlap too much for MinDist to prune, so the mu=0.5 point at
    # n=20,000 is the one whose entries considered show pruning.
    "knn": {
        "quick": [
            _point(n=600, d=3, radius="gaussian", k=10, queries=15,
                   criterion="hyperbola"),
            _point(n=600, d=3, radius="gaussian", k=10, queries=15,
                   criterion="cascade"),
            _point(n=600, d=8, radius="gaussian", k=10, queries=15,
                   criterion="hyperbola"),
            _point(n=600, d=3, radius="uniform", k=10, queries=15,
                   criterion="hyperbola"),
            _point(n=20000, d=3, radius="gaussian", mu=0.5, k=10,
                   queries=20, criterion="hyperbola"),
        ],
        "full": [
            _point(n=600, d=3, radius="gaussian", k=10, queries=15,
                   criterion="hyperbola"),
            _point(n=600, d=3, radius="gaussian", k=10, queries=15,
                   criterion="cascade"),
            _point(n=600, d=8, radius="gaussian", k=10, queries=15,
                   criterion="hyperbola"),
            _point(n=600, d=3, radius="uniform", k=10, queries=15,
                   criterion="hyperbola"),
            _point(n=20000, d=3, radius="gaussian", mu=0.5, k=10,
                   queries=20, criterion="hyperbola"),
            _point(n=2500, d=3, radius="gaussian", k=10, queries=25,
                   criterion="hyperbola"),
            _point(n=2500, d=3, radius="gaussian", k=50, queries=25,
                   criterion="hyperbola"),
            _point(n=2500, d=16, radius="gaussian", k=10, queries=25,
                   criterion="hyperbola"),
        ],
    },
    # Reverse-NN candidate generation (flat, pairwise pre-filter).
    "rknn": {
        "quick": [
            _point(n=150, d=3, radius="gaussian", queries=5,
                   criterion="hyperbola"),
            _point(n=150, d=8, radius="gaussian", queries=5,
                   criterion="hyperbola"),
        ],
        "full": [
            _point(n=150, d=3, radius="gaussian", queries=5,
                   criterion="hyperbola"),
            _point(n=150, d=8, radius="gaussian", queries=5,
                   criterion="hyperbola"),
            _point(n=500, d=3, radius="gaussian", queries=10,
                   criterion="hyperbola"),
            _point(n=500, d=3, radius="uniform", queries=10,
                   criterion="hyperbola"),
        ],
    },
    # Durable streaming mutations: WAL-acked insert/delete throughput
    # ("mutate" points, throughput_ops = mutations/sec) and warm-restart
    # replay cost ("recover" points, latency = one full reopen over a
    # WAL of `mutations` records).
    "stream": {
        "quick": [
            _point(phase="mutate", n=300, d=3, radius="gaussian",
                   mutations=120),
            _point(phase="mutate", n=300, d=8, radius="gaussian",
                   mutations=120),
            _point(phase="recover", n=300, d=3, radius="gaussian",
                   mutations=400),
        ],
        "full": [
            _point(phase="mutate", n=300, d=3, radius="gaussian",
                   mutations=120),
            _point(phase="mutate", n=300, d=8, radius="gaussian",
                   mutations=120),
            _point(phase="recover", n=300, d=3, radius="gaussian",
                   mutations=400),
            _point(phase="mutate", n=1000, d=3, radius="gaussian",
                   mutations=500),
            _point(phase="recover", n=1000, d=3, radius="gaussian",
                   mutations=2000),
        ],
    },
    # End-to-end serving over real TCP: single-process vs a supervised
    # worker pool, with one induced SIGKILL mid-burst ("kill" is the
    # request index of the kill in the first burst; 0 = no kill) so
    # the trajectory prices failover p99, not just the happy path.
    "serve": {
        "quick": [
            _point(phase="single", n=300, d=3, radius="gaussian",
                   requests=24, k=5),
            _point(phase="workers", workers=2, n=300, d=3,
                   radius="gaussian", requests=24, k=5, kill=6),
        ],
        "full": [
            _point(phase="single", n=300, d=3, radius="gaussian",
                   requests=24, k=5),
            _point(phase="workers", workers=2, n=300, d=3,
                   radius="gaussian", requests=24, k=5, kill=6),
            _point(phase="workers", workers=2, n=300, d=3,
                   radius="gaussian", requests=24, k=5, kill=0),
            _point(phase="workers", workers=4, n=1000, d=3,
                   radius="gaussian", requests=48, k=5, kill=12),
        ],
    },
    # Top-k dominating: the vectorised n x (n-1) scoring pass.
    "dominating": {
        "quick": [
            _point(n=120, d=3, radius="gaussian", k=5, queries=3,
                   criterion="hyperbola"),
            _point(n=120, d=3, radius="gaussian", k=5, queries=3,
                   criterion="minmax"),
        ],
        "full": [
            _point(n=120, d=3, radius="gaussian", k=5, queries=3,
                   criterion="hyperbola"),
            _point(n=120, d=3, radius="gaussian", k=5, queries=3,
                   criterion="minmax"),
            _point(n=400, d=3, radius="gaussian", k=10, queries=5,
                   criterion="hyperbola"),
            _point(n=400, d=8, radius="gaussian", k=10, queries=5,
                   criterion="hyperbola"),
        ],
    },
}

#: The registered topic names, in canonical emission order.
TOPICS: "tuple[str, ...]" = tuple(_SWEEPS)


def topic_points(topic: str, *, quick: bool = False) -> "list[dict[str, object]]":
    """The pinned parameter points of *topic* (copies, safe to annotate).

    Raises ``KeyError`` for an unknown topic; callers surface the
    registered names from :data:`TOPICS`.
    """
    sweep = _SWEEPS[topic]
    mode = "quick" if quick else "full"
    return [dict(point) for point in sweep[mode]]
