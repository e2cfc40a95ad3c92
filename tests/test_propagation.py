import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphscore import propagation as propagation_module
from graphscore.cli import METHODS, DatasetBundle, RunConfig, compute_scores
from graphscore.graph import NodePartition, build_adjacency, normalize
from graphscore.prompts import PrototypeSet
from graphscore.propagation import (
    PropagationConfig,
    propagate,
    run_gsp,
    select_pseudo_prompts,
)
from graphscore.store import EmbeddingMatrix
from graphscore.synth import blob_benchmark_spec, bridge_benchmark_spec, generate

from conftest import csr, hand_graph
from oracles import dense_propagation, random_unit_rows


def _manual(w_dense, n_proto, n_labeled=0):
    n = w_dense.shape[0]
    part = NodePartition(n_proto, n_labeled, n - n_proto - n_labeled)
    return normalize(hand_graph(w_dense, part)), part


def _random_graph(seed, max_nodes=64, k=5):
    rng = np.random.default_rng(seed)
    n_p = int(rng.integers(1, 4))
    n_l = int(rng.integers(0, 4))
    n_u = int(rng.integers(5, max_nodes - n_p - n_l))
    protos = PrototypeSet(
        vectors=EmbeddingMatrix(random_unit_rows(rng, n_p, 8)),
        class_of=np.arange(n_p),
    )
    labeled = EmbeddingMatrix(random_unit_rows(rng, n_l, 8)) if n_l else None
    unlabeled = EmbeddingMatrix(random_unit_rows(rng, n_u, 8))
    return build_adjacency(protos, labeled, unlabeled, k=min(k, n_u - 1))


def _init_vector(part):
    """+1 on prototype and labeled nodes, 0 on unlabeled nodes."""
    s0 = np.zeros(part.n_total)
    s0[: part.unlabeled_offset] = 1.0
    return s0


def _start_vectors(monkeypatch, w_dense, part, cfg=None):
    """The initial vector of each propagation pass that run_gsp makes."""
    seen = []

    def spy(norm, s0, cfg=None):
        seen.append(np.array(s0, copy=True))
        return propagate(norm, s0, cfg)  # the unpatched function

    monkeypatch.setattr(propagation_module, "propagate", spy)
    run_gsp(hand_graph(w_dense, part), cfg)
    return seen


def _star(part):
    # identity on the prototype/labeled block, every unlabeled node linked
    # to node 0 with its own weight
    w = np.zeros((part.n_total, part.n_total))
    off = part.unlabeled_offset
    w[:off, :off] = np.eye(off)
    for j, u in enumerate(range(off, part.n_total)):
        w[0, u] = w[u, 0] = 0.9 - 0.1 * j
    return w


# init -----------------------------------------------------------------

def test_init_scores_layout(monkeypatch):
    for part, expected in ((NodePartition(2, 0, 3), [1, 1, 0, 0, 0]),
                           (NodePartition(1, 2, 1), [1, 1, 1, 0])):
        first = _start_vectors(monkeypatch, _star(part), part)[0]
        np.testing.assert_array_equal(first, expected)


def test_init_scores_zero_vs_few_shot(monkeypatch):
    zero_part, few_part = NodePartition(2, 0, 4), NodePartition(2, 3, 4)
    zero = _start_vectors(monkeypatch, _star(zero_part), zero_part)[0]
    few = _start_vectors(monkeypatch, _star(few_part), few_part)[0]
    # identical on prototypes and unlabeled; the few-shot vector adds ones
    # exactly on the labeled segment
    np.testing.assert_array_equal(zero[:2], few[:2])
    np.testing.assert_array_equal(few[2:5], [1, 1, 1])
    np.testing.assert_array_equal(zero[2:], few[5:])


def test_reinit_example(monkeypatch):
    # unlabeled node 1 scores highest and the isolated node 3 lowest (0);
    # with q = 1 pass 2 starts from pass 1's vector with +1 / -1 there
    w = np.zeros((4, 4))
    w[0, 0] = 1.0
    w[0, 1] = w[1, 0] = 0.9
    w[0, 2] = w[2, 0] = 0.4
    first, second = _start_vectors(monkeypatch, w, NodePartition(1, 0, 3),
                                   PropagationConfig(m_percent=25.0))
    np.testing.assert_array_equal(first, [1.0, 0.0, 0.0, 0.0])
    np.testing.assert_array_equal(second, [1.0, 1.0, 0.0, -1.0])


# propagate ------------------------------------------------------------

def test_propagate_zero_input_stays_zero():
    norm, part = _manual(np.array([[1.0, 1.0], [1.0, 0.0]]), 1)
    out = propagate(norm, np.zeros(part.n_total))
    np.testing.assert_array_equal(out, [0.0, 0.0])


def test_propagate_micro_case():
    norm, part = _manual(np.array([[1.0, 1.0], [1.0, 0.0]]), 1)
    s5 = propagate(norm, _init_vector(part),
                   PropagationConfig(alpha=0.5, iterations=5))
    np.testing.assert_allclose(s5, [2.4375, 1.5026019], atol=1e-6)
    dense = dense_propagation(np.array([[1.0, 1.0], [1.0, 0.0]]),
                              np.array([1.0, 0.0]), 0.5, 5)
    np.testing.assert_allclose(s5, dense, atol=1e-12)


def test_propagate_matches_dense_oracle_16_nodes():
    adj = _random_graph(seed=123, max_nodes=16)
    norm = normalize(adj)
    s0 = _init_vector(adj.partition)
    got = propagate(norm, s0, PropagationConfig(alpha=0.5, iterations=5))
    expected = dense_propagation(csr(adj).toarray(), s0, 0.5, 5)
    np.testing.assert_allclose(got, expected, atol=1e-9)


@given(st.integers(0, 10_000), st.floats(0.1, 1.0))
@settings(max_examples=30, deadline=None)
def test_propagate_linearity_and_antisymmetry(seed, scale):
    adj = _random_graph(seed=seed, max_nodes=24)
    norm = normalize(adj)
    part = adj.partition
    rng = np.random.default_rng(seed)
    base = rng.standard_normal(part.n_total)
    cfg = PropagationConfig(alpha=0.5, iterations=5)
    out = propagate(norm, base, cfg)
    scaled = propagate(norm, scale * base, cfg)
    np.testing.assert_allclose(scaled, scale * out, atol=1e-9)
    negated = propagate(norm, -base, cfg)
    np.testing.assert_array_equal(negated, -out)


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_propagate_superposition(seed):
    adj = _random_graph(seed=seed, max_nodes=24)
    norm = normalize(adj)
    part = adj.partition
    rng = np.random.default_rng(seed + 1)
    a = rng.standard_normal(part.n_total)
    b = rng.standard_normal(part.n_total)
    cfg = PropagationConfig(alpha=0.5, iterations=4)
    combined = propagate(norm, a + b, cfg)
    separate = propagate(norm, a, cfg) + propagate(norm, b, cfg)
    np.testing.assert_allclose(combined, separate, atol=1e-9)


def test_isolated_node_keeps_zero_score():
    # two disconnected components: [proto, u0] and [u1] with no edges to u1
    w = np.zeros((3, 3))
    w[0, 0] = 1.0
    w[0, 1] = w[1, 0] = 0.8
    norm, part = _manual(w, 1)
    out = propagate(norm, _init_vector(part), PropagationConfig(iterations=5))
    assert out[2] == 0.0
    assert out[1] > 0.0


@given(st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_propagation_bound(seed):
    adj = _random_graph(seed=seed, max_nodes=32)
    norm = normalize(adj)
    cfg = PropagationConfig(alpha=0.5, iterations=5)
    out = propagate(norm, _init_vector(adj.partition), cfg)
    assert np.abs(out).max() <= cfg.iterations * (1.0 + cfg.alpha)


# selection ------------------------------------------------------------

def _scores(unlab_values, n_proto=1):
    part = NodePartition(n_proto, 0, len(unlab_values))
    values = np.concatenate([np.ones(n_proto), unlab_values])
    return values, part


def test_select_trivial():
    s, part = _scores([0.9, 0.1, 0.5, 0.4])
    pos, neg = select_pseudo_prompts(s, part, m_percent=25.0)  # q = 1
    np.testing.assert_array_equal(pos - part.unlabeled_offset, [0])
    np.testing.assert_array_equal(neg - part.unlabeled_offset, [1])
    assert s[pos[-1]] == 0.9 and s[neg[-1]] == 0.1


def test_select_all_equal_tie_rule():
    s, part = _scores([0.3, 0.3, 0.3, 0.3])
    pos, neg = select_pseudo_prompts(s, part, m_percent=25.0)
    np.testing.assert_array_equal(pos - part.unlabeled_offset, [0])
    # the low side skips index 0 (already positive) and takes the next tie
    np.testing.assert_array_equal(neg - part.unlabeled_offset, [1])


def test_select_matches_sort_oracle():
    rng = np.random.default_rng(11)
    values = rng.standard_normal(200)
    s, part = _scores(values)
    pos, neg = select_pseudo_prompts(s, part, m_percent=5.0)
    assert pos.size == neg.size == 10
    order = sorted(range(200), key=lambda i: (-values[i], i))
    np.testing.assert_array_equal(np.sort(pos - part.unlabeled_offset), np.sort(order[:10]))
    order_low = sorted(range(200), key=lambda i: (values[i], i))
    np.testing.assert_array_equal(np.sort(neg - part.unlabeled_offset),
                                  np.sort(order_low[:10]))


def test_select_checks_vector_length():
    s, part = _scores([0.1, 0.2, 0.3])
    with pytest.raises(ValueError, match="does not match"):
        select_pseudo_prompts(s[1:], part, m_percent=25.0)


def test_select_needs_two_unlabeled():
    part = NodePartition(1, 0, 1)
    with pytest.raises(ValueError, match="at least two"):
        select_pseudo_prompts(np.array([1.0, 0.5]), part, m_percent=5.0)


def test_select_m_percent_range():
    s, part = _scores([0.1, 0.2, 0.3])
    for bad in (0.0, 50.0, -1.0, 80.0):
        with pytest.raises(ValueError, match="m_percent"):
            select_pseudo_prompts(s, part, m_percent=bad)


def test_selection_sets_disjoint_under_heavy_ties():
    s, part = _scores(np.zeros(10))
    pos, neg = select_pseudo_prompts(s, part, m_percent=40.0)  # q = 4
    assert np.intersect1d(pos, neg).size == 0
    assert pos.size == neg.size == 4


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-2, 2), min_size=2, max_size=40),
       st.floats(0.5, 49.5))
def test_select_matches_loop_reference_under_ties(levels, m_percent):
    s, part = _scores(np.array(levels, dtype=float))
    got_pos, got_neg = select_pseudo_prompts(s, part, m_percent)
    q = max(1, int(round(m_percent / 100.0 * len(levels))))
    unlab = s[part.unlabeled_slice]
    # reference: walk the ascending order and skip indices taken as positives
    pos = list(np.argsort(-unlab, kind="stable")[:q])
    neg = [i for i in np.argsort(unlab, kind="stable") if i not in pos][:q]
    np.testing.assert_array_equal(got_pos - part.unlabeled_offset, pos)
    np.testing.assert_array_equal(got_neg - part.unlabeled_offset, neg)


# full pipeline ----------------------------------------------------------

def test_run_gsp_passes_match_dense_oracle():
    cfg = PropagationConfig(alpha=0.5, iterations=5, m_percent=10.0)
    for seed in range(25):
        adj = _random_graph(seed=900 + seed, max_nodes=48)
        part = adj.partition
        pass1, final, diag = run_gsp(adj, cfg)
        dense = csr(adj).toarray()
        unlab = part.unlabeled_slice
        s0 = _init_vector(part)
        np.testing.assert_allclose(pass1, dense_propagation(dense, s0, 0.5, 5)[unlab],
                                   atol=1e-9)
        # pass 2 starts from the same vector with the pseudo prompts at +1/-1
        pos, neg = select_pseudo_prompts(np.concatenate([s0[: part.unlabeled_offset], pass1]),
                                         part, cfg.m_percent)
        for idx in (pos, neg):
            assert ((idx >= part.unlabeled_offset) & (idx < part.n_total)).all()
        s0[pos] = 1.0
        s0[neg] = -1.0
        np.testing.assert_allclose(final, dense_propagation(dense, s0, 0.5, 5)[unlab],
                                   atol=1e-9)
        pos_threshold = pass1[pos[-1] - part.unlabeled_offset]
        neg_threshold = pass1[neg[-1] - part.unlabeled_offset]
        assert diag["selection"] == {
            "q": max(1, int(round(cfg.m_percent / 100.0 * part.n_unlabeled))),
            "pos_threshold": pos_threshold,
            "neg_threshold": neg_threshold,
            "pos_ties": int(np.count_nonzero(pass1 == pos_threshold)),
            "neg_ties": int(np.count_nonzero(pass1 == neg_threshold)),
        }


def test_run_gsp_counts_threshold_ties():
    # two prototype-linked pairs of equal score plus two unreached nodes:
    # with q = 1 each threshold is shared by two unlabeled nodes
    w = np.zeros((7, 7))
    w[0, 0] = 1.0
    for u in (1, 2):
        w[0, u] = w[u, 0] = 0.9
    for u in (3, 4):
        w[0, u] = w[u, 0] = 0.4
    part = NodePartition(1, 0, 6)
    _, _, diag = run_gsp(hand_graph(w, part),
                         PropagationConfig(m_percent=10.0))
    sel = diag["selection"]
    assert sel["q"] == 1
    assert sel["neg_threshold"] == 0.0 and sel["neg_ties"] == 2
    assert sel["pos_threshold"] > 0.0 and sel["pos_ties"] == 2
    assert diag["pass1_unlabeled"]["n_zero"] == 2


def test_run_gsp_separates_blob_clusters():
    data = generate(blob_benchmark_spec(seed=1))
    _, scores, diag = run_gsp(build_adjacency(data.prototypes, data.labeled, data.unlabeled))
    assert scores[data.is_id].min() > scores[~data.is_id].max()
    assert diag["selection"] is not None
    assert set(diag["timing_s"]) >= {"normalize", "propagate_pass1",
                                     "propagate_pass2"}


def test_run_gsp_single_unlabeled_node():
    protos = PrototypeSet(vectors=EmbeddingMatrix([[1.0, 0.0]]),
                          class_of=[0])
    unlabeled = EmbeddingMatrix([[1.0, 0.0]])
    with pytest.warns(UserWarning, match=r"k=10 exceeds available unlabeled neighbors \(1\)"):
        pass1, scores, diag = run_gsp(build_adjacency(protos, None, unlabeled))
    pass1_unlab = diag["pass1_unlabeled"]
    assert pass1_unlab["min"] == pass1_unlab["max"] == pass1[0] > 0.0
    assert pass1_unlab["n_zero"] == 0
    # degenerate case: no pseudo prompts, final == pass 1
    assert diag["selection"] is None
    assert scores.tobytes() == pass1.tobytes()


def test_run_gsp_ablation_direction_spot_check():
    aucs = {"cosine": [], "score_prop_only": [], "gsp": []}
    from graphscore.baselines import cosine_scores
    from graphscore.metrics import evaluate

    for seed in range(10):
        data = generate(bridge_benchmark_spec(seed=seed))
        aucs["cosine"].append(
            evaluate(cosine_scores(data.unlabeled, data.prototypes), data.is_id).auroc)
        single, full, _ = run_gsp(build_adjacency(data.prototypes, data.labeled,
                                                  data.unlabeled))
        aucs["score_prop_only"].append(evaluate(single, data.is_id).auroc)
        aucs["gsp"].append(evaluate(full, data.is_id).auroc)
    means = {m: np.mean(v) for m, v in aucs.items()}
    assert means["cosine"] < means["score_prop_only"] < means["gsp"]


def _rotated(matrix, rotation):
    return None if matrix is None else EmbeddingMatrix(matrix.data @ rotation.T)


@given(st.integers(0, 10_000), st.integers(0, 10_000), st.booleans())
@settings(max_examples=30, deadline=None)
def test_scores_invariant_under_rotation(data_seed, rotation_seed, few_shot):
    from dataclasses import replace

    from graphscore.baselines import cosine_scores, manifold_score

    spec = bridge_benchmark_spec(seed=data_seed)
    data = generate(replace(spec, labeled_per_class=2) if few_shot else spec)
    rng = np.random.default_rng(rotation_seed)
    rotation, _ = np.linalg.qr(rng.standard_normal((spec.dim, spec.dim)))
    protos = data.prototypes
    turned = PrototypeSet(vectors=_rotated(protos.vectors, rotation), class_of=protos.class_of)
    results = []
    for prototypes, labeled, unlabeled in (
            (protos, data.labeled, data.unlabeled),
            (turned, _rotated(data.labeled, rotation), _rotated(data.unlabeled, rotation))):
        adj = build_adjacency(prototypes, labeled, unlabeled)
        results.append((*run_gsp(adj)[:2], manifold_score(adj),
                        cosine_scores(unlabeled, prototypes)))
    for base, turned_scores in zip(*results):
        np.testing.assert_allclose(turned_scores, base, rtol=0, atol=1e-9)


@given(st.integers(0, 10_000), st.integers(4, 32), st.integers(20, 300), st.integers(0, 6),
       st.integers(1, 12))
@settings(max_examples=200, deadline=None)
def test_every_method_invariant_under_rotation(seed, dim, n_unlabeled, n_labeled, k):
    # every score is a function of inner products, which an orthogonal Q keeps
    rng = np.random.default_rng(seed)
    rows = random_unit_rows(rng, 3 + n_labeled + n_unlabeled, dim)
    rotation, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    results = []
    for matrix in (rows, rows @ rotation.T):
        bundle = DatasetBundle(
            unlabeled=EmbeddingMatrix(matrix[3 + n_labeled:]),
            labeled=EmbeddingMatrix(matrix[3:3 + n_labeled]) if n_labeled else None,
            pool=None, prototypes=PrototypeSet(vectors=EmbeddingMatrix(matrix[:3]),
                                               class_of=np.arange(3)),
            flags=None)
        results.append(compute_scores(bundle, METHODS, RunConfig(k=k)))
    for (method, base, _), (_, turned, _) in zip(*results):
        np.testing.assert_allclose(turned, base, rtol=1e-9, atol=1e-12, err_msg=method)


def test_run_gsp_deterministic():
    data = generate(bridge_benchmark_spec(seed=5))
    a = run_gsp(build_adjacency(data.prototypes, data.labeled, data.unlabeled))
    b = run_gsp(build_adjacency(data.prototypes, data.labeled, data.unlabeled))
    assert a[0].tobytes() == b[0].tobytes() and a[1].tobytes() == b[1].tobytes()


def test_run_gsp_few_shot_uses_labeled_nodes():
    spec = blob_benchmark_spec(seed=2)
    from dataclasses import replace

    data = generate(replace(spec, labeled_per_class=3))
    assert data.labeled is not None and data.labeled.count == 6
    _, scores, diag = run_gsp(build_adjacency(data.prototypes, data.labeled, data.unlabeled))
    assert diag["partition"]["n_labeled"] == 6
    assert scores[data.is_id].min() > scores[~data.is_id].max()


def test_propagation_config_validation():
    with pytest.raises(ValueError):
        PropagationConfig(alpha=0.0)
    with pytest.raises(ValueError):
        PropagationConfig(alpha=1.5)
    with pytest.raises(ValueError):
        PropagationConfig(iterations=0)
    with pytest.raises(ValueError):
        PropagationConfig(m_percent=50.0)


def test_propagate_checks_node_count():
    norm, part = _manual(np.array([[1.0, 1.0], [1.0, 0.0]]), 1)
    for bad in (np.ones(1), np.ones(3), np.ones((2, 1))):
        with pytest.raises(ValueError, match="does not match"):
            propagate(norm, bad)
