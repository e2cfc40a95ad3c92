import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from graphscore.graph import (
    BlockAdjacency,
    NodePartition,
    build_adjacency,
    normalize,
)
from graphscore.prompts import PrototypeSet
from graphscore.propagation import (
    PropagationConfig,
    PseudoPromptSelection,
    ScoreVector,
    init_scores,
    propagate,
    pseudo_prompt_count,
    reinit_scores,
    run_gsp,
    select_pseudo_prompts,
)
from graphscore.store import EmbeddingMatrix
from graphscore.synth import blob_benchmark_spec, bridge_benchmark_spec, generate

from oracles import dense_propagation, random_unit_rows


def _manual(w_dense, n_proto, n_labeled=0):
    n = w_dense.shape[0]
    part = NodePartition(n_proto, n_labeled, n - n_proto - n_labeled)
    return normalize(BlockAdjacency(sp.csr_matrix(w_dense), part)), part


def _random_graph(seed, max_nodes=64, k=5):
    rng = np.random.default_rng(seed)
    n_p = int(rng.integers(1, 4))
    n_l = int(rng.integers(0, 4))
    n_u = int(rng.integers(5, max_nodes - n_p - n_l))
    protos = PrototypeSet(
        vectors=EmbeddingMatrix(random_unit_rows(rng, n_p, 8)),
        class_of=np.arange(n_p), clusters_per_class=1,
    )
    labeled = EmbeddingMatrix(random_unit_rows(rng, n_l, 8)) if n_l else None
    unlabeled = EmbeddingMatrix(random_unit_rows(rng, n_u, 8))
    return build_adjacency(protos, labeled, unlabeled, k=min(k, n_u - 1))


# init -----------------------------------------------------------------

def test_init_scores_layout():
    np.testing.assert_array_equal(
        init_scores(NodePartition(2, 0, 3)).values, [1, 1, 0, 0, 0])
    np.testing.assert_array_equal(
        init_scores(NodePartition(1, 2, 1)).values, [1, 1, 1, 0])


def test_init_scores_zero_vs_few_shot():
    zero = init_scores(NodePartition(2, 0, 4))
    few = init_scores(NodePartition(2, 3, 4))
    # identical on prototypes and unlabeled; the few-shot vector adds ones
    # exactly on the labeled segment
    np.testing.assert_array_equal(zero.values[:2], few.values[:2])
    np.testing.assert_array_equal(few.values[2:5], [1, 1, 1])
    np.testing.assert_array_equal(zero.values[2:], few.values[5:])


# propagate ------------------------------------------------------------

def test_propagate_zero_input_stays_zero():
    norm, part = _manual(np.array([[1.0, 1.0], [1.0, 0.0]]), 1)
    out = propagate(norm, ScoreVector([0.0, 0.0], part))
    np.testing.assert_array_equal(out.values, [0.0, 0.0])


def test_propagate_micro_case():
    norm, part = _manual(np.array([[1.0, 1.0], [1.0, 0.0]]), 1)
    s5 = propagate(norm, init_scores(part),
                   PropagationConfig(alpha=0.5, iterations=5))
    np.testing.assert_allclose(s5.values, [2.4375, 1.5026019], atol=1e-6)
    dense = dense_propagation(np.array([[1.0, 1.0], [1.0, 0.0]]),
                              np.array([1.0, 0.0]), 0.5, 5)
    np.testing.assert_allclose(s5.values, dense, atol=1e-12)


def test_propagate_matches_dense_oracle_16_nodes():
    adj = _random_graph(seed=123, max_nodes=16)
    norm = normalize(adj)
    s0 = init_scores(adj.partition)
    got = propagate(norm, s0, PropagationConfig(alpha=0.5, iterations=5))
    expected = dense_propagation(adj.weights.toarray(), s0.values, 0.5, 5)
    np.testing.assert_allclose(got.values, expected, atol=1e-9)


@given(st.integers(0, 10_000), st.floats(0.1, 1.0))
@settings(max_examples=30, deadline=None)
def test_propagate_linearity_and_antisymmetry(seed, scale):
    adj = _random_graph(seed=seed, max_nodes=24)
    norm = normalize(adj)
    part = adj.partition
    rng = np.random.default_rng(seed)
    base = rng.standard_normal(part.n_total)
    cfg = PropagationConfig(alpha=0.5, iterations=5)
    out = propagate(norm, ScoreVector(base, part), cfg).values
    scaled = propagate(norm, ScoreVector(scale * base, part), cfg).values
    np.testing.assert_allclose(scaled, scale * out, atol=1e-9)
    negated = propagate(norm, ScoreVector(-base, part), cfg).values
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
    combined = propagate(norm, ScoreVector(a + b, part), cfg).values
    separate = (propagate(norm, ScoreVector(a, part), cfg).values
                + propagate(norm, ScoreVector(b, part), cfg).values)
    np.testing.assert_allclose(combined, separate, atol=1e-9)


def test_isolated_node_keeps_zero_score():
    # two disconnected components: [proto, u0] and [u1] with no edges to u1
    w = np.zeros((3, 3))
    w[0, 0] = 1.0
    w[0, 1] = w[1, 0] = 0.8
    norm, part = _manual(w, 1)
    out = propagate(norm, init_scores(part), PropagationConfig(iterations=5))
    assert out.values[2] == 0.0
    assert out.values[1] > 0.0


@given(st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_propagation_bound(seed):
    adj = _random_graph(seed=seed, max_nodes=32)
    norm = normalize(adj)
    cfg = PropagationConfig(alpha=0.5, iterations=5)
    out = propagate(norm, init_scores(adj.partition), cfg)
    assert np.abs(out.values).max() <= cfg.iterations * (1.0 + cfg.alpha)


# selection ------------------------------------------------------------

def _scores(unlab_values, n_proto=1):
    part = NodePartition(n_proto, 0, len(unlab_values))
    values = np.concatenate([np.ones(n_proto), unlab_values])
    return ScoreVector(values, part), part


def test_select_trivial():
    s, part = _scores([0.9, 0.1, 0.5, 0.4])
    sel = select_pseudo_prompts(s, m_percent=25.0)  # q = 1
    np.testing.assert_array_equal(sel.positives - part.unlabeled_offset, [0])
    np.testing.assert_array_equal(sel.negatives - part.unlabeled_offset, [1])
    assert sel.pos_threshold == 0.9 and sel.neg_threshold == 0.1


def test_select_all_equal_tie_rule():
    s, part = _scores([0.3, 0.3, 0.3, 0.3])
    sel = select_pseudo_prompts(s, m_percent=25.0)
    np.testing.assert_array_equal(sel.positives - part.unlabeled_offset, [0])
    # the low side skips index 0 (already positive) and takes the next tie
    np.testing.assert_array_equal(sel.negatives - part.unlabeled_offset, [1])


def test_select_matches_sort_oracle():
    rng = np.random.default_rng(11)
    values = rng.standard_normal(200)
    s, part = _scores(values)
    sel = select_pseudo_prompts(s, m_percent=5.0)
    assert pseudo_prompt_count(5.0, 200) == 10
    order = sorted(range(200), key=lambda i: (-values[i], i))
    np.testing.assert_array_equal(np.sort(sel.positives - part.unlabeled_offset),
                                  np.sort(order[:10]))
    order_low = sorted(range(200), key=lambda i: (values[i], i))
    np.testing.assert_array_equal(np.sort(sel.negatives - part.unlabeled_offset),
                                  np.sort(order_low[:10]))


def test_select_needs_two_unlabeled():
    part = NodePartition(1, 0, 1)
    s = ScoreVector([1.0, 0.5], part)
    with pytest.raises(ValueError, match="at least two"):
        select_pseudo_prompts(s, m_percent=5.0)


def test_select_m_percent_range():
    s, _ = _scores([0.1, 0.2, 0.3])
    for bad in (0.0, 50.0, -1.0, 80.0):
        with pytest.raises(ValueError, match="m_percent"):
            select_pseudo_prompts(s, m_percent=bad)


def test_selection_sets_disjoint_under_heavy_ties():
    s, _ = _scores(np.zeros(10))
    sel = select_pseudo_prompts(s, m_percent=40.0)  # q = 4
    assert np.intersect1d(sel.positives, sel.negatives).size == 0
    assert sel.positives.size == sel.negatives.size == 4


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-2, 2), min_size=2, max_size=40),
       st.floats(0.5, 49.5))
def test_select_matches_loop_reference_under_ties(levels, m_percent):
    s, part = _scores(np.array(levels, dtype=float))
    sel = select_pseudo_prompts(s, m_percent)
    q = pseudo_prompt_count(m_percent, len(levels))
    # reference: walk the ascending order and skip indices taken as positives
    pos = list(np.argsort(-s.unlabeled_values, kind="stable")[:q])
    neg = [i for i in np.argsort(s.unlabeled_values, kind="stable") if i not in pos][:q]
    np.testing.assert_array_equal(sel.positives - part.unlabeled_offset, pos)
    np.testing.assert_array_equal(sel.negatives - part.unlabeled_offset, neg)


# reinit ---------------------------------------------------------------

def test_reinit_example():
    part = NodePartition(1, 0, 3)
    s0 = ScoreVector([1.0, 0.0, 0.0, 0.0], part)
    sel = PseudoPromptSelection(positives=[1], negatives=[3],
                                pos_threshold=0.0, neg_threshold=0.0)
    out = reinit_scores(s0, sel)
    np.testing.assert_array_equal(out.values, [1.0, 1.0, 0.0, -1.0])


def test_reinit_idempotent():
    part = NodePartition(1, 0, 3)
    s0 = ScoreVector([1.0, 0.2, 0.0, 0.0], part)
    sel = PseudoPromptSelection(positives=[1], negatives=[2],
                                pos_threshold=0.0, neg_threshold=0.0)
    once = reinit_scores(s0, sel)
    twice = reinit_scores(once, sel)
    np.testing.assert_array_equal(once.values, twice.values)


def test_reinit_rejects_out_of_segment():
    part = NodePartition(2, 0, 2)
    s0 = init_scores(part)
    sel = PseudoPromptSelection(positives=[0], negatives=[3],
                                pos_threshold=0.0, neg_threshold=0.0)
    with pytest.raises(ValueError, match="outside the unlabeled segment"):
        reinit_scores(s0, sel)


def test_selection_overlap_rejected():
    with pytest.raises(ValueError, match="overlap"):
        PseudoPromptSelection(positives=[3], negatives=[3],
                              pos_threshold=0.0, neg_threshold=0.0)


# full pipeline ----------------------------------------------------------

def test_run_gsp_separates_blob_clusters():
    data = generate(blob_benchmark_spec(seed=1))
    scores, diag = run_gsp(build_adjacency(data.prototypes, data.labeled, data.unlabeled))
    assert scores[data.is_id].min() > scores[~data.is_id].max()
    assert diag["selection"] is not None
    assert set(diag["timing_s"]) >= {"normalize", "propagate_pass1",
                                     "propagate_pass2"}


def test_run_gsp_single_unlabeled_node():
    protos = PrototypeSet(vectors=EmbeddingMatrix([[1.0, 0.0]]),
                          class_of=[0], clusters_per_class=1)
    unlabeled = EmbeddingMatrix([[1.0, 0.0]])
    scores, diag = run_gsp(build_adjacency(protos, None, unlabeled))
    pass1_unlab = diag["pass1_unlabeled"]
    assert pass1_unlab["min"] == pass1_unlab["max"] > 0.0
    assert pass1_unlab["n_zero"] == 0
    assert scores[0] >= pass1_unlab["max"]  # degenerate case: final == pass 1


def test_run_gsp_ablation_direction_spot_check():
    aucs = {"cosine": [], "score_prop_only": [], "gsp": []}
    from graphscore.baselines import cosine_scores
    from graphscore.metrics import auroc

    for seed in range(10):
        data = generate(bridge_benchmark_spec(seed=seed))
        aucs["cosine"].append(
            auroc(cosine_scores(data.unlabeled, data.prototypes), data.is_id))
        single, _ = run_gsp(build_adjacency(data.prototypes, data.labeled, data.unlabeled),
                            self_train=False)
        aucs["score_prop_only"].append(auroc(single, data.is_id))
        full, _ = run_gsp(build_adjacency(data.prototypes, data.labeled, data.unlabeled))
        aucs["gsp"].append(auroc(full, data.is_id))
    means = {m: np.mean(v) for m, v in aucs.items()}
    assert means["cosine"] < means["score_prop_only"] < means["gsp"]


def test_run_gsp_deterministic():
    data = generate(bridge_benchmark_spec(seed=5))
    a, _ = run_gsp(build_adjacency(data.prototypes, data.labeled, data.unlabeled))
    b, _ = run_gsp(build_adjacency(data.prototypes, data.labeled, data.unlabeled))
    assert a.tobytes() == b.tobytes()


def test_run_gsp_few_shot_uses_labeled_nodes():
    spec = blob_benchmark_spec(seed=2)
    from dataclasses import replace

    data = generate(replace(spec, labeled_per_class=3))
    assert data.labeled is not None and data.labeled.count == 6
    scores, diag = run_gsp(build_adjacency(data.prototypes, data.labeled, data.unlabeled))
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


def test_score_vector_validation():
    part = NodePartition(1, 0, 2)
    with pytest.raises(ValueError, match="length"):
        ScoreVector([1.0], part)
    with pytest.raises(ValueError, match="non-finite"):
        ScoreVector([1.0, np.nan, 0.0], part)
