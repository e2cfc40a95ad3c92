"""Non-propagation scorers: max-softmax cosine and shortest-path distance.

The cosine scorer softmaxes negated per-class cosine distances and returns
the winning class's probability; higher means more in-distribution. The
manifold scorer takes the shortest-path distance from the nearest prototype
or labeled node over the graph's L2 edge lengths, found by a frontier
search in numpy, and scores each unlabeled node by its reciprocal. The
search returns Dijkstra's distances bit for bit; scipy's, which would load
``scipy.linalg`` (about 10 MB of RSS), is the test oracle only.
"""

import numpy as np

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
    """Distance from the nearest of ``sources`` to every node over the
    graph's L2 edge lengths, sqrt(2 - 2s) for an edge of similarity s; +inf
    where no path leads. Every stored edge counts, one of length 0 too.

    Each round relaxes every edge out of the nodes whose distance fell in
    the previous round (the sources first), and the search stops once a
    round lowers no distance. The result is Dijkstra's, bit for bit: edge
    lengths are non-negative and float addition is monotone, so a search
    that stops only when no edge relaxation lowers a distance holds, for
    each node, the least left-to-right float64 sum over all paths from a
    source. Every value it holds is such a sum, so none is lower; and by
    induction along the best path, each node's value is at most that path's
    sum. So the value is unique, whatever order finds it.

    A round costs about 30-45 us of numpy calls plus its edges, and there
    are as many rounds as the most hops on any shortest path, plus one:
    3-29 on the benchmark graphs, and 32 on bridged chains of 16k and 64k
    nodes. On 2 shared CPUs the 64k search takes 16 ms against 11 ms for
    scipy's Dijkstra, but a bare path of 20,000 nodes takes 0.5-1 s
    against 1 ms.
    """
    lengths = np.sqrt(np.maximum(0.0, 2.0 - 2.0 * adj.data))
    dist = np.full(adj.partition.n_total, np.inf)
    frontier = np.asarray(sources, dtype=np.intp)
    dist[frontier] = 0.0
    while frontier.size:
        stops = adj.indptr[frontier + 1]
        counts = stops - adj.indptr[frontier]
        # the positions of every edge out of the frontier, row after row
        edges = np.repeat(stops - np.cumsum(counts), counts) + np.arange(counts.sum())
        lowered = dist.copy()
        np.minimum.at(lowered, adj.indices[edges], np.repeat(dist[frontier], counts) + lengths[edges])
        frontier = np.flatnonzero(lowered < dist)
        dist = lowered
    return dist


def manifold_score(adj: BlockAdjacency) -> np.ndarray:
    """Reciprocal shortest-path score for every unlabeled node.

    Paths start from any prototype or labeled node. Unreachable nodes score
    0; zero-distance hits score 1/EPSILON.
    """
    part = adj.partition
    sources = range(part.unlabeled_offset)
    dist = shortest_path_distances(adj, sources)
    # an unreachable node's inf distance gives exactly +0.0
    return 1.0 / (dist[part.unlabeled_slice] + EPSILON)
