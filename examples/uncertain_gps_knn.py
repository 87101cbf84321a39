"""kNN over uncertain GPS objects — the paper's motivating application.

Run with::

    python examples/uncertain_gps_knn.py

Scenario: a fleet of delivery vehicles reports GPS positions with
per-vehicle measurement uncertainty (a hypersphere each).  A dispatcher
at an (also uncertain) location asks for the k nearest vehicles.

Because positions are uncertain, "the k nearest" is not a crisp set:
the answer (Definition 2 of the paper) contains every vehicle that
*cannot be ruled out* — i.e. is not dominated by the k-th best
pessimistic candidate.  The example contrasts:

- the exact answer (SS-tree + Hyperbola),
- the same query with the classical MinMax bound (returns extra
  vehicles that a sound criterion would have pruned),
- a naive Monte-Carlo check that confirms the exact answer's meaning.
"""

from __future__ import annotations

import numpy as np

from repro import Hypersphere
from repro.index import SSTree
from repro.queries import knn_query, knn_reference

N_VEHICLES = 400
K = 3
CITY_SIZE = 50.0


def build_fleet(rng: np.random.Generator) -> list[tuple[str, Hypersphere]]:
    """Vehicles clustered around a few depots, with varied GPS error."""
    depots = rng.uniform(0.0, CITY_SIZE, size=(5, 2))
    fleet = []
    for i in range(N_VEHICLES):
        depot = depots[rng.integers(len(depots))]
        position = depot + rng.normal(0.0, 4.0, size=2)
        uncertainty = float(rng.uniform(0.05, 1.5))  # km of GPS error
        fleet.append((f"vehicle-{i:03d}", Hypersphere(position, uncertainty)))
    return fleet


def monte_carlo_can_win(
    candidate: Hypersphere,
    others: list[Hypersphere],
    query: Hypersphere,
    rng: np.random.Generator,
    trials: int = 300,
) -> bool:
    """Can *candidate* realise among the K nearest in some world?"""
    for _ in range(trials):
        q = query.sample(rng)[0]
        c = candidate.sample(rng)[0]
        candidate_dist = float(np.linalg.norm(c - q))
        closer = sum(
            1
            for other in others
            if float(np.linalg.norm(other.sample(rng)[0] - q)) < candidate_dist
        )
        if closer < K:
            return True
    return False


def main() -> None:
    rng = np.random.default_rng(2014)
    fleet = build_fleet(rng)
    tree = SSTree.bulk_load(fleet)
    dispatcher = Hypersphere(rng.uniform(10.0, 40.0, size=2), 0.8)

    exact = knn_query(tree, dispatcher, K, criterion="hyperbola")
    loose = knn_query(tree, dispatcher, K, criterion="minmax")
    truth = knn_reference(fleet, dispatcher, K)

    print(f"fleet of {len(fleet)} vehicles, dispatcher at "
          f"{np.round(dispatcher.center, 1)} +- {dispatcher.radius} km, k={K}\n")
    print(f"exact answer (Hyperbola):   {len(exact)} candidate vehicles")
    print(f"with MinMax pruning only:   {len(loose)} candidate vehicles "
          f"({len(loose) - len(exact)} that dominance would have removed)")
    print(f"Definition-2 ground truth:  {len(truth)} vehicles\n")

    print("exact candidates:")
    for key in sorted(exact.key_set()):
        print(f"  {key}")

    # Sanity: every exact candidate can genuinely end up among the K
    # nearest in at least one realisation of the uncertain world.
    sphere_by_key = dict(fleet)
    print("\nMonte-Carlo sanity check (can each returned vehicle win?):")
    for key in sorted(exact.key_set()):
        candidate = sphere_by_key[key]
        others = [s for other_key, s in fleet if other_key != key]
        winnable = monte_carlo_can_win(candidate, others, dispatcher, rng)
        print(f"  {key}: {'plausible' if winnable else 'never won in sampling'}")


if __name__ == "__main__":
    main()
