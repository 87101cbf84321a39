"""A one-shot verification of every testable claim in the paper.

``python -m repro claims`` runs this checklist: each row is one claim
from the paper (a lemma, a Table-1 property, or a Section-6 guarantee),
the concrete check we run for it, and whether it held.  The test suite
covers all of this (and much more) already; this runner exists so a
reader can see the paper's claims validated in seconds without
installing the dev dependencies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import get_criterion, min_margin, oracle_dominates
from repro.core.batch import batch_evaluate
from repro.data.synthetic import synthetic_dataset
from repro.data.workload import DominanceWorkload
from repro.experiments.incremental import incremental_knn
from repro.geometry.hypersphere import Hypersphere
from repro.index.linear import LinearIndex
from repro.index.sstree import SSTree
from repro.queries.knn import knn_query, knn_reference

__all__ = ["Claim", "run_claims"]


@dataclass(frozen=True)
class Claim:
    """One verified statement from the paper."""

    source: str
    statement: str
    holds: bool

    def row(self) -> tuple:
        return (self.source, self.statement, self.holds)


def _criterion_flags(workload_size: int, seed: int) -> list[Claim]:
    """Table 1's correct/sound matrix against the numerical oracle."""
    rng = np.random.default_rng(seed)
    dataset = synthetic_dataset(400, 4, mu=10.0, rng=rng)
    workload = DominanceWorkload.from_dataset(dataset, size=workload_size, rng=rng)
    arrays = workload.arrays()
    # Oracle verdicts on a decisive subset (skip boundary ties).
    verdicts = []
    keep = []
    for i, (sa, sb, sq) in enumerate(workload.triples()):
        margin = min_margin(sa, sb, sq, resolution=512) - (sa.radius + sb.radius)
        if abs(margin) < 1e-6:
            continue
        keep.append(i)
        verdicts.append((not sa.overlaps(sb)) and margin > 0.0)
    keep = np.asarray(keep)
    truth = np.asarray(verdicts)

    claims = []
    for name in ("hyperbola", "minmax", "mbr", "gp", "trigonometric"):
        predicted = batch_evaluate(name, *arrays)[keep]
        criterion = get_criterion(name)
        no_false_positives = not np.any(predicted & ~truth)
        no_false_negatives = not np.any(~predicted & truth)
        claims.append(
            Claim(
                "Table 1",
                f"{name} is {'correct' if criterion.is_correct else 'NOT correct'}",
                no_false_positives == criterion.is_correct,
            )
        )
        claims.append(
            Claim(
                "Table 1",
                f"{name} is {'sound' if criterion.is_sound else 'NOT sound'}",
                no_false_negatives == criterion.is_sound,
            )
        )
    return claims


def _lemma_constructions() -> list[Claim]:
    claims = []

    # Lemma 1: overlap forces non-dominance.
    sa = Hypersphere([0.0, 0.0], 2.0)
    sb = Hypersphere([1.0, 0.0], 2.0)
    sq = Hypersphere([-9.0, 0.0], 0.5)
    claims.append(
        Claim(
            "Lemma 1",
            "overlapping Sa, Sb never dominate",
            not get_criterion("hyperbola").dominates(sa, sb, sq),
        )
    )

    # Lemma 3 / Figure 4: MinMax misses a genuine dominance.
    sa = Hypersphere([0.0, 2.0], 0.0)
    sb = Hypersphere([0.0, -2.0], 0.0)
    sq = Hypersphere([0.0, 6.0], 3.0)
    claims.append(
        Claim(
            "Lemma 3",
            "Figure-4 configuration dominates but MinMax answers false",
            oracle_dominates(sa, sb, sq)
            and get_criterion("hyperbola").dominates(sa, sb, sq)
            and not get_criterion("minmax").dominates(sa, sb, sq),
        )
    )

    # Lemma 5 / Figure 5: MBR misses a genuine dominance.
    diag = np.array([1.0, 1.0]) / np.sqrt(2.0)
    sa = Hypersphere(diag * 4.0, 1.0)
    sb = Hypersphere(diag * 6.05, 1.0)
    sq = Hypersphere([0.0, 0.0], 1.0)
    claims.append(
        Claim(
            "Lemma 5",
            "Figure-5 configuration dominates but MBR answers false",
            oracle_dominates(sa, sb, sq)
            and get_criterion("hyperbola").dominates(sa, sb, sq)
            and not get_criterion("mbr").dominates(sa, sb, sq),
        )
    )

    # Lemma 11 regime: Trigonometric claims a non-existent dominance.
    sa = Hypersphere([10.0, 0.0], 0.5)
    sb = Hypersphere([0.0, 0.0], 0.5)
    sq = Hypersphere([0.0, 1.0], 0.3)
    claims.append(
        Claim(
            "Lemma 11",
            "Trigonometric produces a false positive",
            (not oracle_dominates(sa, sb, sq))
            and get_criterion("trigonometric").dominates(sa, sb, sq),
        )
    )

    # Lemma 10 / Figure 7: the traditional kNN rule cannot prune, yet
    # the object is dominated.
    from repro.geometry.distance import max_dist, min_dist

    sk = Hypersphere([100.0, 0.0], 1.0)
    sq = Hypersphere([0.0, 0.0], 2.0)
    s = Hypersphere([101.01, 0.0], 1e-6)
    claims.append(
        Claim(
            "Lemma 10",
            "distk >= MinDist(S, Sq) yet Sk dominates S",
            max_dist(sk, sq) >= min_dist(s, sq)
            and get_criterion("hyperbola").dominates(sk, s, sq),
        )
    )
    return claims


def _knn_guarantees(seed: int) -> list[Claim]:
    dataset = synthetic_dataset(600, 3, mu=8.0, seed=seed)
    tree = SSTree.bulk_load(dataset.items())
    flat = LinearIndex(dataset.items())
    queries = [dataset.sphere(i) for i in (3, 77, 311)]

    subset_ok = anchor_ok = exact_ok = superset_ok = True
    for query in queries:
        truth = knn_reference(flat, query, 10)
        incremental = incremental_knn(tree, query, 10)
        two_phase = knn_query(tree, query, 10)
        loose = incremental_knn(tree, query, 10, criterion="minmax")
        subset_ok &= incremental.key_set() <= truth.key_set()
        anchor_ok &= abs(incremental.distk - truth.distk) < 1e-9
        exact_ok &= two_phase.key_set() == truth.key_set()
        superset_ok &= incremental.key_set() <= loose.key_set()
    return [
        Claim(
            "Section 6",
            "incremental kNN answers are a subset of Definition 2 "
            "(precision 100% with Hyperbola)",
            subset_ok,
        ),
        Claim(
            "Section 6",
            "the incremental algorithm finds the true anchor distance",
            anchor_ok,
        ),
        Claim(
            "Section 6",
            "served (two-phase) kNN equals Definition 2 exactly",
            exact_ok,
        ),
        Claim(
            "Section 7.2",
            "unsound criteria return kNN supersets (precision <= 100%)",
            superset_ok,
        ),
    ]


def run_claims(*, workload_size: int = 1500, seed: int = 0) -> list[Claim]:
    """Run the whole checklist; every row should report ``holds=True``."""
    claims: list[Claim] = []
    claims.extend(_lemma_constructions())
    claims.extend(_criterion_flags(workload_size, seed))
    claims.extend(_knn_guarantees(seed))
    return claims
