"""Non-propagation scorers: max-softmax cosine and shortest-path distance.

The cosine scorer softmaxes negated per-class cosine distances and returns
the winning class's probability; higher means more in-distribution. The
manifold scorer runs a multi-source Dijkstra from every prototype and
labeled node over the graph's L2 edge distances and scores each unlabeled
node by the reciprocal of its shortest-path distance.
"""

import numpy as np
import scipy.sparse as sp

from .graph import BlockAdjacency
from .prompts import PrototypeSet


# added to every shortest-path distance, so a zero-distance hit scores 1/EPSILON
EPSILON = 1e-9


def cosine_scores(samples, prototypes: PrototypeSet, temperature: float = 1.0) -> np.ndarray:
    """Max-softmax cosine score for each sample row.

    Per class, distance is 1 minus the best cosine similarity over that
    class's prototypes; the returned score is the largest softmax weight of
    exp(-distance / temperature) across classes, in (0, 1]. The call holds
    the (n, P) product with the P prototypes and, unless every class has one
    prototype in class order, one (n, C) array of class bests.
    """
    if not 0 < temperature < np.inf:
        raise ValueError(f"temperature must be positive and finite, got {temperature}")
    data = np.asarray(samples, dtype=np.float64)
    best = data @ prototypes.vectors.data.T
    # class means (one prototype per class, in class order) need no per-class max
    if not np.array_equal(prototypes.class_of, np.arange(prototypes.count)):
        sims, best = best, np.empty((data.shape[0], prototypes.n_classes))
        for c in range(best.shape[1]):
            sims[:, prototypes.class_of == c].max(axis=1, out=best[:, c])
        del sims
    # (best - 1) / t has the bits of -(1 - best) / t: rounding is symmetric in sign
    best -= 1.0
    best /= temperature
    best -= best.max(axis=1, keepdims=True)
    np.exp(best, out=best)
    best /= best.sum(axis=1, keepdims=True)
    return best.max(axis=1)


def shortest_path_distances(adj: BlockAdjacency, sources) -> np.ndarray:
    """Multi-source Dijkstra over the graph's L2 edge lengths, derived from
    each edge's similarity s as sqrt(2 - 2s) on the same CSR structure.

    Returns the distance from the nearest source to every node; unreachable
    nodes get +inf. Edges between equal embeddings keep a stored length of 0,
    so they stay edges rather than becoming missing entries.
    """
    # imported here: csgraph loads scipy.linalg, which costs every run that
    # never takes a shortest path about 10 MB of RSS and 70 ms of import time
    from scipy.sparse.csgraph import dijkstra

    w = adj.weights
    lengths = np.sqrt(np.maximum(0.0, 2.0 - 2.0 * w.data))
    graph = sp.csr_matrix((lengths, w.indices, w.indptr), shape=w.shape)
    return dijkstra(graph, indices=sources, min_only=True)


def manifold_score(adj: BlockAdjacency) -> np.ndarray:
    """Reciprocal shortest-path score for every unlabeled node.

    Paths start from any prototype or labeled node. Unreachable nodes score
    0; zero-distance hits score 1/EPSILON.
    """
    part = adj.partition
    sources = range(part.unlabeled_offset)
    dist = shortest_path_distances(adj, sources)
    unlab = dist[part.unlabeled_slice]
    reachable = np.isfinite(unlab)
    scores = np.zeros(part.n_unlabeled)
    scores[reachable] = 1.0 / (unlab[reachable] + EPSILON)
    return scores
