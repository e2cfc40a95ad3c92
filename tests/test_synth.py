from dataclasses import replace

import numpy as np
import pytest

from graphscore.baselines import cosine_scores
from graphscore.graph import build_adjacency
from graphscore.metrics import auroc
from graphscore.propagation import run_gsp
from graphscore.synth import (
    SynthSpec,
    blob_benchmark_spec,
    bridge_benchmark_spec,
    generate,
)


def test_generation_deterministic():
    spec = bridge_benchmark_spec(seed=9)
    a = generate(spec)
    b = generate(spec)
    assert a.unlabeled.data.tobytes() == b.unlabeled.data.tobytes()
    assert a.prototypes.vectors.data.tobytes() == b.prototypes.vectors.data.tobytes()
    np.testing.assert_array_equal(a.is_id, b.is_id)


def test_different_seeds_differ():
    a = generate(bridge_benchmark_spec(seed=0))
    b = generate(bridge_benchmark_spec(seed=1))
    assert a.unlabeled.data.tobytes() != b.unlabeled.data.tobytes()


def test_all_rows_unit_norm():
    for spec in (blob_benchmark_spec(seed=3), bridge_benchmark_spec(seed=3)):
        data = generate(spec)
        for matrix in (data.unlabeled.data, data.prototypes.vectors.data):
            np.testing.assert_allclose(np.linalg.norm(matrix, axis=1), 1.0,
                                       atol=1e-6)


def test_flags_partition_counts():
    spec = bridge_benchmark_spec(seed=2)
    data = generate(spec)
    assert data.is_id.sum() == spec.n_id
    assert (~data.is_id).sum() == spec.ood_count
    assert data.is_id[: spec.n_id].all()
    assert not data.is_id[spec.n_id:].any()


def test_blob_benchmark_cosine_separates():
    for seed in (0, 1, 2, 3, 4):
        data = generate(blob_benchmark_spec(seed=seed))
        scores = cosine_scores(data.unlabeled, data.prototypes)
        assert auroc(scores, data.is_id) >= 0.99


def test_bridge_benchmark_gsp_beats_cosine():
    for seed in (0, 1, 2, 3, 4):
        data = generate(bridge_benchmark_spec(seed=seed))
        cos_auc = auroc(cosine_scores(data.unlabeled, data.prototypes), data.is_id)
        _, gsp_scores, _ = run_gsp(build_adjacency(data.prototypes, data.labeled, data.unlabeled))
        assert auroc(gsp_scores, data.is_id) >= cos_auc + 0.05


def test_blob_ranking_holds_across_seeds():
    # propagated scores put every ID sample ahead of every OOD sample on the
    # easy benchmark for at least 95 of 100 seeds
    perfect = 0
    for seed in range(100):
        data = generate(blob_benchmark_spec(seed=seed))
        _, scores, _ = run_gsp(build_adjacency(data.prototypes, data.labeled, data.unlabeled))
        perfect += auroc(scores, data.is_id) == 1.0
    assert perfect >= 95


def test_labeled_samples():
    spec = replace(blob_benchmark_spec(seed=0), labeled_per_class=4)
    data = generate(spec)
    assert data.labeled.count == 8
    # rows come in class blocks: block c lies nearest class c's mean, e_c
    means = np.eye(spec.n_classes, spec.dim)
    np.testing.assert_array_equal(np.argmax(data.labeled.data @ means.T, axis=1),
                                  np.repeat(np.arange(2), 4))


def test_spec_validation():
    with pytest.raises(ValueError, match="unknown shape"):
        SynthSpec(shape="spiral")
    with pytest.raises(ValueError, match="positive"):
        SynthSpec(spread=0.0)
    with pytest.raises(ValueError, match="dim too small"):
        SynthSpec(dim=3, id_counts=(5, 5))
    with pytest.raises(ValueError, match="id_counts"):
        SynthSpec(id_counts=(4, 0))
    with pytest.raises(ValueError, match="ood_count"):
        SynthSpec(ood_count=0)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        SynthSpec(seed=-1)


def test_spec_counts_coerced_to_ints():
    spec = SynthSpec(id_counts=[3, 4], dim=8)
    assert spec.id_counts == (3, 4)
    assert spec.n_id == 7
