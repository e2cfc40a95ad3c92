import json

import numpy as np
import pytest

from graphscore import prompts
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
    # d=512 as well: a per-row norm(axis=1) differs from the mean's dot-product
    # norm in the last bit of about one row in five
    for pool in (_pool(rng), PromptPool(_unit_stack(rng, 50, 80, 512))):
        averaged = mean_prototypes(pool)
        for seed in (0, 1, 17):
            clustered = cluster_prompts(pool, 1, seed)
            assert clustered.vectors.data.tobytes() == averaged.vectors.data.tobytes()
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


def test_pool_shape_validation(tmp_path):
    stack = _unit_stack(np.random.default_rng(0), 2, 4, 3)
    assert PromptPool(stack).data.shape == (2, 4, 3)
    with pytest.raises(ValueError, match="got \\(4, 3\\)"):
        PromptPool(stack[0])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            PromptPool(np.where(np.arange(6).reshape(1, 2, 3) == 4, bad, 1.0))
    rng = np.random.default_rng(1)
    save_matrix(EmbeddingMatrix(stack[0]), tmp_path / "first.npy")
    save_matrix(EmbeddingMatrix(random_unit_rows(rng, 5, 3)), tmp_path / "more.npy")
    save_matrix(EmbeddingMatrix(random_unit_rows(rng, 4, 6)), tmp_path / "wider.npy")
    first = tmp_path / "first.npy"
    with pytest.raises(ValueError, match=r"more\.npy: shape \(5, 3\) differs from .*first\.npy: \(4, 3\)"):
        load_prompt_pools([first, tmp_path / "more.npy"])
    with pytest.raises(ValueError, match=r"wider\.npy: shape \(4, 6\) differs"):
        load_prompt_pools([first, tmp_path / "wider.npy"])
    zero = np.vstack([stack[1][:2], np.zeros((1, 3)), stack[1][3:]])
    save_matrix(EmbeddingMatrix(zero), tmp_path / "zero.npy")
    with pytest.raises(ValueError, match=r"zero\.npy: zero-norm row 2"):
        load_prompt_pools([first, tmp_path / "zero.npy"])


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
    assert pool.data.shape == (3, 5, 4)
    # loader normalizes rows
    np.testing.assert_allclose(np.linalg.norm(pool.data, axis=2), 1.0, atol=1e-12)


def test_load_pooled_matrix_with_boundaries(tmp_path):
    import json

    rng = np.random.default_rng(9)
    stacked = random_unit_rows(rng, 12, 4)
    save_matrix(EmbeddingMatrix(stacked), tmp_path / "stacked.npy")
    (tmp_path / "bounds.json").write_text(
        json.dumps({"boundaries": [0, 6, 12]}), encoding="utf-8"
    )
    pool = load_pooled_matrix(tmp_path / "stacked.npy", tmp_path / "bounds.json")
    assert pool.data.shape == (2, 6, 4)
    (tmp_path / "bad.json").write_text(
        json.dumps({"boundaries": [0, 5, 11]}), encoding="utf-8"
    )
    with pytest.raises(ValueError, match="boundaries"):
        load_pooled_matrix(tmp_path / "stacked.npy", tmp_path / "bad.json")
    (tmp_path / "uneven.json").write_text(
        json.dumps({"boundaries": [0, 5, 12]}), encoding="utf-8"
    )
    with pytest.raises(ValueError, match=r"uneven\.json: .*hold \[5, 7\] templates"):
        load_pooled_matrix(tmp_path / "stacked.npy", tmp_path / "uneven.json")


# A verbatim copy of the per-class K-means that the batched implementation
# replaced. Prototypes must match it byte for byte, including the rare
# k-means++ and empty-cluster branches.

def _ref_rng(seed: int, stream: int) -> np.random.Generator:
    # one PCG64 stream per (seed, class) so classes cluster independently
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed), int(stream)])))


def _ref_kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    chosen = [int(rng.integers(n))]
    centers[0] = points[chosen[0]]
    d2 = np.sum((points - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            # all remaining mass sits on already-chosen points; take the
            # lowest-index point not yet used
            rest = [i for i in range(n) if i not in chosen]
            idx = rest[0]
        else:
            r = rng.random() * total
            idx = int(np.searchsorted(np.cumsum(d2), r, side="right"))
            idx = min(idx, n - 1)
        chosen.append(idx)
        centers[j] = points[idx]
        d2 = np.minimum(d2, np.sum((points - centers[j]) ** 2, axis=1))
    return centers


def _ref_assign(points: np.ndarray, centers: np.ndarray):
    # squared distances; argmin breaks ties toward the lowest center index
    d2 = (
        np.sum(points ** 2, axis=1)[:, None]
        - 2.0 * points @ centers.T
        + np.sum(centers ** 2, axis=1)[None, :]
    )
    return np.argmin(d2, axis=1), d2


def _ref_repair_empty(assign: np.ndarray, d2: np.ndarray, k: int) -> np.ndarray:
    counts = np.bincount(assign, minlength=k)
    for c in range(k):
        if counts[c] > 0:
            continue
        own = d2[np.arange(assign.size), assign]
        eligible = counts[assign] >= 2
        if not eligible.any():  # cannot happen for k <= n, kept as a guard
            raise RuntimeError("no donor point for empty cluster repair")
        masked = np.where(eligible, own, -np.inf)
        donor = int(np.argmax(masked))  # farthest point; argmax ties -> lowest index
        counts[assign[donor]] -= 1
        assign[donor] = c
        counts[c] += 1
    return assign


def _ref_lloyd(points: np.ndarray, k: int, seed: int, stream: int):
    n = points.shape[0]
    if k == 1:
        centers = points.mean(axis=0, keepdims=True)
        obj = float(np.sum((points - centers[0]) ** 2))
        return centers, np.zeros(n, dtype=np.int64), [obj]
    rng = _ref_rng(seed, stream)
    centers = _ref_kmeans_pp_init(points, k, rng)
    history = []
    for _ in range(100):
        assign, d2 = _ref_assign(points, centers)
        assign = _ref_repair_empty(assign, d2, k)
        new_centers = np.empty_like(centers)
        for c in range(k):
            new_centers[c] = points[assign == c].mean(axis=0)
        history.append(float(np.sum((points - new_centers[assign]) ** 2)))
        movement = np.max(np.linalg.norm(new_centers - centers, axis=1))
        centers = new_centers
        if movement < 1e-6:
            break
    if len(history) > 1:
        drift = np.diff(history)
        if (drift > 1e-9).any():
            raise RuntimeError("k-means objective increased between iterations")
    order = np.lexsort(centers.T[::-1])
    centers = centers[order]
    assign, _ = _ref_assign(points, centers)
    return centers, assign, history


def _ref_cluster(stack: np.ndarray, n_c: int, seed: int) -> np.ndarray:
    """Per-class clustering and normalization, as ``cluster_prompts`` did it."""
    all_centers = []
    for c, points in enumerate(stack):
        centers, _, _ = _ref_lloyd(points, n_c, seed, stream=c)
        norms = np.linalg.norm(centers, axis=1)
        all_centers.append(centers / norms[:, None])
    return np.vstack(all_centers)


def _ref_means(stack: np.ndarray) -> np.ndarray:
    """Per-class normalized means, as ``mean_prototypes`` computed them."""
    centers = []
    for points in stack:
        mean = points.mean(axis=0, keepdims=True)
        centers.append(mean / float(np.linalg.norm(mean)))
    return np.vstack(centers)


def _unit_stack(rng, n_classes, templates, dim):
    return np.stack([random_unit_rows(rng, templates, dim) for _ in range(n_classes)])


def _as_pool(stack):
    return PromptPool(tuple(EmbeddingMatrix(points) for points in stack))


def _assert_matches_reference(stack, n_c, seeds):
    pool = _as_pool(stack)
    for seed in seeds:
        got = cluster_prompts(pool, n_c, seed).vectors.data
        assert got.tobytes() == _ref_cluster(stack, n_c, seed).tobytes(), seed
        centers, assign, histories = _lloyd(stack, n_c, seed, stream=0)
        for c, points in enumerate(stack):
            ref_centers, ref_assign, ref_history = _ref_lloyd(points, n_c, seed, c)
            assert centers[c].tobytes() == ref_centers.tobytes()
            assert assign[c].tobytes() == ref_assign.tobytes()
            # the same objectives, summed in another order: float64 rounding
            # over a few hundred terms of size <= 4
            np.testing.assert_allclose(histories[c], ref_history, rtol=1e-12, atol=1e-12)


def test_duplicate_templates_match_reference():
    # [a, a, a, b] with k=3: k-means++ runs out of mass (total == 0) and the
    # duplicate center's cluster comes back empty and is repaired
    rng = np.random.default_rng(21)
    ab = _unit_stack(rng, 6, 2, 8)
    stack = ab[:, [0, 0, 0, 1]]
    _assert_matches_reference(stack, 3, seeds=range(8))


def test_one_cluster_per_template_matches_reference():
    stack = _unit_stack(np.random.default_rng(22), 5, 6, 4)
    _assert_matches_reference(stack, 6, seeds=(0, 3))


def test_clamped_cluster_count_matches_reference():
    stack = _unit_stack(np.random.default_rng(23), 4, 5, 6)
    with pytest.warns(UserWarning, match="clamping"):
        got = cluster_prompts(_as_pool(stack), 8, seed=2).vectors.data
    assert got.tobytes() == _ref_cluster(stack, 5, 2).tobytes()


def test_means_match_reference():
    stack = _unit_stack(np.random.default_rng(24), 30, 80, 512)
    got = mean_prototypes(_as_pool(stack)).vectors.data
    assert got.tobytes() == _ref_means(stack).tobytes()


def test_blocks_of_classes_match_reference():
    # one block and three classes more, clustered from noisy bundles whose
    # spread grows with the class, so classes settle after different numbers
    # of Lloyd iterations
    rng = np.random.default_rng(25)
    n_t, dim, k = 80, 512, 3
    n_classes = prompts.LLOYD_BLOCK_BYTES // (n_t * dim * 8) + 3
    stack = np.empty((n_classes, n_t, dim))
    for c in range(n_classes):
        centers = random_unit_rows(rng, k, dim)
        noise = (1.5 + 0.15 * c) / np.sqrt(dim) * rng.standard_normal((n_t, dim))
        rows = centers[rng.integers(k, size=n_t)] + noise
        stack[c] = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    iterations = {len(_ref_lloyd(points, k, 0, c)[2]) for c, points in enumerate(stack)}
    assert len(iterations) > 2, iterations
    _assert_matches_reference(stack, k, seeds=(0,))
