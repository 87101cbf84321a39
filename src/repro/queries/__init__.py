"""Query layer: the paper's kNN application plus extensions.

Section 6 of the paper adapts the classical tree-based kNN algorithms
(depth-first, Roussopoulos et al.; best-first, Hjaltason & Samet) to
hyperspheres by maintaining a *best-known list* pruned with the
dominance operator; that list is reproduced for the paper's figures in
:mod:`repro.experiments.incremental`.  :mod:`repro.queries.knn` answers
Definition 2 exactly, with a pluggable dominance criterion, in two
phases over a tree's leaf directory;
:func:`repro.queries.knn.knn_reference` computes the same answer by
direct evaluation, as ground truth.

Extensions (applications the paper names but does not evaluate):

- :mod:`repro.queries.rknn` — reverse-NN candidates via dominance
  pruning;
- :mod:`repro.queries.dominating` — top-k dominating queries scored
  with the vectorised kernels.
"""

from repro.queries.browse import browse
from repro.queries.dominating import (
    DominanceScore,
    dominance_scores,
    top_k_dominating,
)
from repro.queries.knn import KNNResult, knn_query, knn_reference
from repro.queries.rknn import rnn_candidates

__all__ = [
    "browse",
    "knn_query",
    "knn_reference",
    "KNNResult",
    "rnn_candidates",
    "DominanceScore",
    "dominance_scores",
    "top_k_dominating",
]
