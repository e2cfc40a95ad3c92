import math

import numpy as np
import pytest
import scipy.sparse as sp

from graphscore.baselines import (
    cosine_scores,
    manifold_score,
    shortest_path_distances,
)
from graphscore.graph import NodePartition, build_adjacency
from graphscore.prompts import PrototypeSet
from graphscore.store import EmbeddingMatrix

from conftest import csr, hand_graph
from oracles import floyd_warshall, random_unit_rows


def _protos(rows, class_of=None):
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    class_of = np.arange(rows.shape[0]) if class_of is None else class_of
    return PrototypeSet(vectors=EmbeddingMatrix(rows), class_of=class_of)


def _one(sample, protos):
    return float(cosine_scores(np.asarray(sample, dtype=float)[None, :], protos)[0])


# cosine -----------------------------------------------------------------

def test_single_class_scores_one():
    protos = _protos([[1.0, 0.0]])
    for sample in ([1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]):
        assert _one(sample, protos) == 1.0


def test_two_class_closed_form():
    protos = _protos([[1.0, 0.0], [0.0, 1.0]])
    got = _one([1.0, 0.0], protos)
    expected = 1.0 / (1.0 + math.exp(-1.0))
    assert abs(got - expected) < 1e-9


def test_equidistant_sample_scores_one_over_c():
    protos = _protos([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    sample = np.ones(3) / np.sqrt(3.0)
    assert abs(_one(sample, protos) - 1.0 / 3.0) < 1e-12


def test_rotation_invariance():
    rng = np.random.default_rng(0)
    protos_raw = random_unit_rows(rng, 3, 8)
    samples = random_unit_rows(rng, 20, 8)
    rotation, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    base = cosine_scores(samples, _protos(protos_raw))
    rotated = cosine_scores(samples @ rotation.T, _protos(protos_raw @ rotation.T))
    np.testing.assert_allclose(base, rotated, atol=1e-9)


def test_multi_prototype_class_uses_best_match():
    # two prototypes for class 0, one exactly on the sample
    protos = _protos(
        [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]], class_of=[0, 0, 1])
    single = _protos([[1.0, 0.0], [-1.0, 0.0]], class_of=[0, 1])
    sample = [1.0, 0.0]
    assert abs(_one(sample, protos) - _one(sample, single)) < 1e-12


def test_softmax_bounds():
    rng = np.random.default_rng(4)
    protos = _protos(random_unit_rows(rng, 4, 6))
    scores = cosine_scores(random_unit_rows(rng, 50, 6), protos)
    assert (scores >= 1.0 / 4.0 - 1e-12).all() and (scores <= 1.0 + 1e-12).all()


def test_temperature_validation():
    protos = _protos([[1.0, 0.0]])
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="temperature must be positive"):
            cosine_scores(np.array([[1.0, 0.0]]), protos, temperature=bad)


def test_temperature_sharpens_softmax():
    protos = _protos([[1.0, 0.0], [0.0, 1.0]])
    sample = np.array([[1.0, 0.0]])
    scores = [float(cosine_scores(sample, protos, temperature=t)[0]) for t in (2.0, 1.0, 0.5)]
    assert scores[0] < scores[1] < scores[2]
    assert abs(scores[2] - 1.0 / (1.0 + math.exp(-2.0))) < 1e-12


def _ref_cosine_scores(samples, prototypes, temperature=1.0):
    # a verbatim copy of the formula that the in-place version replaced, with
    # the class_members property it read spelled out
    data = np.asarray(samples, dtype=np.float64)
    sims = data @ prototypes.vectors.data.T
    n_classes = prototypes.n_classes
    class_best = np.empty((data.shape[0], n_classes))
    for c in range(n_classes):
        members = np.nonzero(prototypes.class_of == c)[0]
        class_best[:, c] = sims[:, members].max(axis=1)
    logits = -(1.0 - class_best) / temperature
    logits -= logits.max(axis=1, keepdims=True)
    probs = np.exp(logits)
    probs /= probs.sum(axis=1, keepdims=True)
    return probs.max(axis=1)


def _cosine_cases(n=500, n_classes=100, dim=16):
    """(samples, prototypes, temperature): one prototype per class in class
    order, three per class under a shuffled ``class_of``, and tau = 0.5.
    Some samples are copies of prototypes, so some class bests are exactly 1."""
    rng = np.random.default_rng(41)
    ordered = _protos(random_unit_rows(rng, n_classes, dim))
    shuffled = _protos(random_unit_rows(rng, 3 * n_classes, dim),
                       class_of=rng.permutation(np.repeat(np.arange(n_classes), 3)))
    samples = random_unit_rows(rng, n, dim)
    samples[:10] = ordered.vectors.data[:10]
    samples[10:20] = shuffled.vectors.data[:10]
    return [(samples, ordered, 1.0), (samples, shuffled, 1.0), (samples, ordered, 0.5)]


def test_cosine_scores_match_the_reference_bytes():
    for samples, protos, tau in _cosine_cases():
        got = cosine_scores(samples, protos, tau)
        assert got.tobytes() == _ref_cosine_scores(samples, protos, tau).tobytes(), tau


def test_cosine_scores_hold_one_product_and_one_class_array():
    import tracemalloc

    for samples, protos, tau in _cosine_cases():
        bound = 8 * samples.shape[0] * (protos.count + protos.n_classes) + (64 << 10)
        tracemalloc.start()
        try:
            cosine_scores(samples, protos, tau)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the (n, P) product, the (n, C) class bests and small temporaries
        assert peak <= bound, (peak, bound)


# manifold ---------------------------------------------------------------

def _manual_adjacency(w_dense, n_proto, n_labeled=0):
    n = w_dense.shape[0]
    part = NodePartition(n_proto, n_labeled, n - n_proto - n_labeled)
    return hand_graph(w_dense, part)


def _similarity(dist):
    # inverse of the edge length sqrt(2 - 2s); exact for the dyadic lengths used
    return 1.0 - dist ** 2 / 2.0


def test_zero_distance_hit_scores_reciprocal_epsilon():
    adj = build_adjacency(_protos([[1.0, 0.0]]), None,
                          EmbeddingMatrix([[1.0, 0.0]]), k=1)
    scores = manifold_score(adj)
    assert scores[0] == 1.0 / 1e-9


def test_unreachable_node_scores_zero():
    adj = build_adjacency(_protos([[1.0, 0.0]]), None,
                          EmbeddingMatrix([[-1.0, 0.0]]), k=1)
    score = manifold_score(adj)[0]
    # -0.0 would write a different file byte
    assert score == 0.0 and not np.signbit(score)


def test_dijkstra_matches_floyd_warshall():
    for seed in range(8):
        rng = np.random.default_rng(seed)
        protos = _protos(random_unit_rows(rng, 2, 6))
        unlabeled = EmbeddingMatrix(random_unit_rows(rng, 22, 6))
        adj = build_adjacency(protos, None, unlabeled, k=4)
        dist = shortest_path_distances(adj, sources=range(2))
        dense = np.full((24, 24), np.inf)
        edges = csr(adj).tocoo()
        dense[edges.row, edges.col] = np.sqrt(np.maximum(0.0, 2.0 - 2.0 * edges.data))
        all_pairs = floyd_warshall(dense)
        expected = np.minimum(all_pairs[0], all_pairs[1])
        finite = np.isfinite(expected)
        np.testing.assert_allclose(dist[finite], expected[finite], atol=1e-9)
        assert np.array_equal(np.isfinite(dist), finite)


def test_multi_source_equals_min_of_single_source():
    rng = np.random.default_rng(3)
    protos = _protos(random_unit_rows(rng, 3, 6))
    unlabeled = EmbeddingMatrix(random_unit_rows(rng, 15, 6))
    adj = build_adjacency(protos, None, unlabeled, k=3)
    multi = shortest_path_distances(adj, sources=range(3))
    singles = np.stack([shortest_path_distances(adj, sources=[s]) for s in range(3)])
    np.testing.assert_allclose(multi, singles.min(axis=0), atol=1e-12)


def test_distances_monotone_when_edge_lengthened():
    w = np.zeros((3, 3))
    w[0, 1] = w[1, 0] = _similarity(0.5)
    w[1, 2] = w[2, 1] = _similarity(0.25)
    w[0, 0] = 1.0
    adj = _manual_adjacency(w, n_proto=1)
    base = shortest_path_distances(adj, sources=[0])
    longer = w.copy()
    longer[1, 2] = longer[2, 1] = _similarity(0.75)
    adj2 = _manual_adjacency(longer, n_proto=1)
    bumped = shortest_path_distances(adj2, sources=[0])
    assert (bumped >= base - 1e-12).all()
    np.testing.assert_allclose(base, [0.0, 0.5, 0.75], atol=1e-12)
    np.testing.assert_allclose(bumped, [0.0, 0.5, 1.25], atol=1e-12)


def test_manifold_seeds_from_labeled_nodes_too():
    # labeled node adjacent to an unlabeled node the prototype cannot reach
    w = np.zeros((3, 3))
    w[0, 0] = 1.0  # prototype self-loop only
    w[1, 1] = 1.0
    w[1, 2] = w[2, 1] = _similarity(0.125)
    adj = _manual_adjacency(w, n_proto=1, n_labeled=1)
    scores = manifold_score(adj)
    assert scores[0] == pytest.approx(1.0 / (0.125 + 1e-9))


def _scipy_distances(adj, sources):
    # the reference: scipy's multi-source Dijkstra over the same lengths and CSR structure
    from scipy.sparse.csgraph import dijkstra

    w = csr(adj)
    lengths = np.sqrt(np.maximum(0.0, 2.0 - 2.0 * w.data))
    graph = sp.csr_matrix((lengths, w.indices, w.indptr), shape=w.shape)
    return dijkstra(graph, indices=sources, min_only=True)


def test_distances_equal_scipy_dijkstra_bit_for_bit():
    seen_zero = seen_unreachable = 0
    for seed in range(60):
        rng = np.random.default_rng(seed)
        n_proto, n_lab, n_unlab = 1 + seed % 3, seed % 4, 40
        rows = random_unit_rows(rng, n_proto + n_lab + n_unlab, 6)
        # copied rows give edges of length 0; on odd seeds, a tight cluster on
        # the far side of the first axis is a component that no source reaches
        rows[rng.integers(rows.shape[0], size=8)] = rows[rng.integers(rows.shape[0], size=8)]
        if seed % 2:
            rows[:, 0] = -np.abs(rows[:, 0])
            rows[-10:] = random_unit_rows(rng, 10, 6) * 0.01 + [1.0, 0, 0, 0, 0, 0]
            rows[-10:] /= np.linalg.norm(rows[-10:], axis=1, keepdims=True)
        protos = _protos(rows[:n_proto])
        labeled = EmbeddingMatrix(rows[n_proto:n_proto + n_lab]) if n_lab else None
        adj = build_adjacency(protos, labeled, EmbeddingMatrix(rows[n_proto + n_lab:]), k=3)
        for sources in (range(adj.partition.unlabeled_offset), [n_proto + n_lab + seed % 7]):
            got = shortest_path_distances(adj, sources)
            assert np.array_equal(got, _scipy_distances(adj, sources)), (seed, sources)
            seen_unreachable += np.isinf(got).any()
        edges = csr(adj).tocoo()
        seen_zero += ((edges.data >= 1.0) & (edges.row != edges.col)).any()
    assert seen_zero > 0 and seen_unreachable > 0, (seen_zero, seen_unreachable)


def test_distances_equal_scipy_dijkstra_on_a_long_path():
    # 2,000 nodes in a line: one round per hop
    n = 2000
    steps = _similarity(np.random.default_rng(0).uniform(0.0, 0.5, n - 1))
    w = sp.diags([steps, steps], [1, -1], shape=(n, n), format="csr")
    adj = _manual_adjacency(w, n_proto=1)
    for sources in ([0], [0, n // 2, n - 1]):
        got = shortest_path_distances(adj, sources)
        assert np.isfinite(got).all()
        assert np.array_equal(got, _scipy_distances(adj, sources)), sources
