import json

import numpy as np
import pytest

from graphscore.prompts import (
    PromptPool,
    PrototypeSet,
    _lloyd,
    cluster_prompts,
    load_pooled_matrix,
    load_prototypes,
    load_prompt_pools,
    mean_prototypes,
    save_prototypes,
)
from graphscore.store import EmbeddingMatrix, save_matrix

from oracles import exhaustive_kmeans_2, random_unit_rows


def _pool(rng, n_classes=2, templates=8, dim=6):
    return PromptPool(tuple(
        EmbeddingMatrix(random_unit_rows(rng, templates, dim))
        for _ in range(n_classes)
    ))


def _two_bundles(rng, dim=6, per_bundle=4, spread=0.03):
    """Eight unit vectors in two well-separated bundles."""
    a = np.zeros(dim)
    a[0] = 1.0
    b = np.zeros(dim)
    b[1] = 1.0
    rows = []
    for center in (a, b):
        for _ in range(per_bundle):
            v = center + spread * rng.standard_normal(dim)
            rows.append(v / np.linalg.norm(v))
    return np.array(rows)


def test_single_cluster_equals_mean():
    rng = np.random.default_rng(0)
    pool = _pool(rng)
    for seed in (0, 1, 17):
        clustered = cluster_prompts(pool, 1, seed)
        averaged = mean_prototypes(pool)
        np.testing.assert_array_equal(clustered.vectors.data, averaged.vectors.data)
        np.testing.assert_array_equal(clustered.class_of, averaged.class_of)


def test_mean_prototype_is_normalized_mean():
    pool = PromptPool((EmbeddingMatrix([[1.0, 0.0], [0.0, 1.0]]),))
    protos = mean_prototypes(pool)
    expected = np.array([[1.0, 1.0]]) / np.sqrt(2.0)
    np.testing.assert_allclose(protos.vectors.data, expected, atol=1e-15)


def test_mean_single_template_identity():
    row = np.array([[0.6, 0.8]])
    pool = PromptPool((EmbeddingMatrix(row),))
    np.testing.assert_allclose(mean_prototypes(pool).vectors.data, row, atol=1e-15)


def test_antipodal_templates_error():
    pool = PromptPool((EmbeddingMatrix([[1.0, 0.0], [-1.0, 0.0]]),))
    with pytest.raises(ValueError, match="zero-norm mean"):
        mean_prototypes(pool)


def test_cluster_matches_exhaustive_partition_oracle():
    rng = np.random.default_rng(42)
    for trial in range(5):
        points = _two_bundles(np.random.default_rng(100 + trial))
        pool = PromptPool((EmbeddingMatrix(points),))
        for seed in (0, 7, 31):
            protos = cluster_prompts(pool, 2, seed)
            oracle_centers, _ = exhaustive_kmeans_2(points)
            norms = np.linalg.norm(oracle_centers, axis=1, keepdims=True)
            np.testing.assert_allclose(
                protos.vectors.data, oracle_centers / norms, atol=1e-9
            )


def test_three_clusters_per_class():
    rng = np.random.default_rng(5)
    pool = _pool(rng, n_classes=3, templates=10)
    protos = cluster_prompts(pool, 3, seed=0)
    assert protos.count == 9
    assert protos.clusters_per_class == 3
    np.testing.assert_array_equal(protos.class_of, [0, 0, 0, 1, 1, 1, 2, 2, 2])
    np.testing.assert_allclose(
        np.linalg.norm(protos.vectors.data, axis=1), 1.0, atol=1e-9
    )


def test_clamp_when_clusters_exceed_templates():
    rng = np.random.default_rng(1)
    pool = _pool(rng, templates=4)
    with pytest.warns(UserWarning, match="clamping"):
        protos = cluster_prompts(pool, 9, seed=0)
    assert protos.clusters_per_class == 4


def test_objective_monotone_nonincreasing():
    rng = np.random.default_rng(9)
    for trial in range(10):
        points = random_unit_rows(np.random.default_rng(trial), 20, 5)
        _, _, history = _lloyd(points, 4, seed=trial, stream=0)
        drops = np.diff(history)
        assert (drops <= 1e-9).all(), history


def test_final_assignment_is_nearest_center():
    points = _two_bundles(np.random.default_rng(3))
    centers, assign, _ = _lloyd(points, 2, seed=0, stream=0)
    d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    nearest = d2.min(axis=1)
    chosen = d2[np.arange(points.shape[0]), assign]
    assert (chosen <= nearest + 1e-9).all()


def test_permutation_equivariance():
    points = _two_bundles(np.random.default_rng(11))
    pool = PromptPool((EmbeddingMatrix(points),))
    protos = cluster_prompts(pool, 2, seed=4)
    perm = np.random.default_rng(0).permutation(points.shape[0])
    pool_perm = PromptPool((EmbeddingMatrix(points[perm]),))
    protos_perm = cluster_prompts(pool_perm, 2, seed=4)
    # centers come back in canonical order, so permuting templates changes nothing
    np.testing.assert_allclose(
        protos.vectors.data, protos_perm.vectors.data, atol=1e-12
    )


def test_cluster_determinism():
    rng = np.random.default_rng(2)
    pool = _pool(rng, templates=12)
    a = cluster_prompts(pool, 3, seed=8)
    b = cluster_prompts(pool, 3, seed=8)
    assert a.vectors.data.tobytes() == b.vectors.data.tobytes()


def test_empty_pool_rejected():
    with pytest.raises(ValueError, match="empty"):
        PromptPool(())


def test_pool_shape_validation():
    a = EmbeddingMatrix(random_unit_rows(np.random.default_rng(0), 4, 3))
    b = EmbeddingMatrix(random_unit_rows(np.random.default_rng(1), 5, 3))
    with pytest.raises(ValueError, match="template count"):
        PromptPool((a, b))
    c = EmbeddingMatrix(random_unit_rows(np.random.default_rng(2), 4, 6))
    with pytest.raises(ValueError, match="dim"):
        PromptPool((a, c))


def test_prototype_set_requires_unit_rows():
    with pytest.raises(ValueError, match="unit-normalized"):
        PrototypeSet(vectors=EmbeddingMatrix([[2.0, 0.0]]), class_of=[0],
                     clusters_per_class=1)


def test_prototype_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    pool = _pool(rng)
    protos = cluster_prompts(pool, 2, seed=1)
    save_prototypes(protos, tmp_path / "p.npy", tmp_path / "p.json")
    loaded = load_prototypes(tmp_path / "p.npy", tmp_path / "p.json")
    np.testing.assert_allclose(loaded.vectors.data, protos.vectors.data, atol=1e-12)
    np.testing.assert_array_equal(loaded.class_of, protos.class_of)
    assert loaded.clusters_per_class == 2


def test_load_prototypes_checks_class_map(tmp_path):
    save_matrix(EmbeddingMatrix(random_unit_rows(np.random.default_rng(3), 2, 4)),
                tmp_path / "p.npy")
    for doc, message in (({"class_of": [0, 2]}, "class ids \\[1\\]"),
                         ({"clusters_per_class": 1}, "missing field 'class_of'")):
        (tmp_path / "p.json").write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ValueError, match=f"p.json: .*{message}"):
            load_prototypes(tmp_path / "p.npy", tmp_path / "p.json")


def test_load_pools_per_class(tmp_path):
    rng = np.random.default_rng(8)
    paths = []
    for c in range(3):
        p = tmp_path / f"pool{c}.npy"
        save_matrix(EmbeddingMatrix(2.0 * random_unit_rows(rng, 5, 4)), p)
        paths.append(p)
    pool = load_prompt_pools(paths)
    assert pool.n_classes == 3 and pool.template_count == 5
    # loader normalizes rows
    np.testing.assert_allclose(
        np.linalg.norm(pool.per_class[0].data, axis=1), 1.0, atol=1e-12
    )


def test_load_pooled_matrix_with_boundaries(tmp_path):
    import json

    rng = np.random.default_rng(9)
    stacked = random_unit_rows(rng, 12, 4)
    save_matrix(EmbeddingMatrix(stacked), tmp_path / "stacked.npy")
    (tmp_path / "bounds.json").write_text(
        json.dumps({"boundaries": [0, 6, 12]}), encoding="utf-8"
    )
    pool = load_pooled_matrix(tmp_path / "stacked.npy", tmp_path / "bounds.json")
    assert pool.n_classes == 2 and pool.template_count == 6
    (tmp_path / "bad.json").write_text(
        json.dumps({"boundaries": [0, 5, 11]}), encoding="utf-8"
    )
    with pytest.raises(ValueError, match="boundaries"):
        load_pooled_matrix(tmp_path / "stacked.npy", tmp_path / "bad.json")
