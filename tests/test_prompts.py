import json
import sys
import threading

import numpy as np
import pytest

from graphscore import prompts
from graphscore.prompts import (
    PrototypeSet,
    _lloyd,
    load_prototypes,
    pool_prototypes,
    save_prototypes,
)
from graphscore.store import (UNIT_BLOCK_BYTES, EmbeddingMatrix, NpyFormatError, save_matrix,
                              unit_rows)

from oracles import exhaustive_kmeans_2, random_unit_rows


def _write_raw_pools(tmp_path, stack, dtype):
    paths = [tmp_path / f"{dtype[1:]}_{c:03d}.npy" for c in range(len(stack))]
    for path, rows in zip(paths, stack):
        np.save(path, rows.astype(dtype))
    return paths


def _normalized(paths):
    """Pool files as the pass sees them: each re-read and normalized by ``unit_rows``."""
    return np.stack([unit_rows(np.load(p).astype(np.float64), p) for p in paths])


def _pool_files(tmp_path, stack, dtype="<f8"):
    """``stack`` written one file per class, and its :func:`_normalized` stack."""
    paths = _write_raw_pools(tmp_path, np.asarray(stack, dtype=np.float64), dtype)
    return paths, _normalized(paths)


def _prototypes(tmp_path, stack, n_c, seed=0):
    """The ``n_c`` prototype set of ``stack``, reduced from pool files."""
    return pool_prototypes(_pool_files(tmp_path, stack)[0], [n_c], seed)[n_c]


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


def test_single_cluster_equals_mean(tmp_path):
    rng = np.random.default_rng(0)
    # d=512 as well: a per-row norm(axis=1) differs from the mean's dot-product
    # norm in the last bit of about one row in five
    for shape in ((2, 8, 6), (50, 80, 512)):
        paths, stack = _pool_files(tmp_path, _unit_stack(rng, *shape))
        for seed in (0, 1, 17):
            means = pool_prototypes(paths, [1], seed)[1]
            assert means.vectors.data.tobytes() == _ref_means(stack).tobytes()
            np.testing.assert_array_equal(means.class_of, np.arange(shape[0]))


def test_mean_prototype_is_normalized_mean(tmp_path):
    protos = _prototypes(tmp_path, [[[1.0, 0.0], [0.0, 1.0]]], 1)
    expected = np.array([[1.0, 1.0]]) / np.sqrt(2.0)
    np.testing.assert_allclose(protos.vectors.data, expected, atol=1e-15)


def test_mean_single_template_identity(tmp_path):
    row = np.array([[0.6, 0.8]])
    np.testing.assert_allclose(_prototypes(tmp_path, [row], 1).vectors.data, row, atol=1e-15)


def test_antipodal_templates_error(tmp_path):
    with pytest.raises(ValueError, match=r"f8_000\.npy: zero-norm mean for class 0$"):
        _prototypes(tmp_path, [[[1.0, 0.0], [-1.0, 0.0]]], 1)
    # the error names the file of the class whose mean vanishes
    with pytest.raises(ValueError, match=r"f8_001\.npy: zero-norm mean for class 1$"):
        _prototypes(tmp_path, [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [-1.0, 0.0]]], 1)


def test_cluster_matches_exhaustive_partition_oracle(tmp_path):
    for trial in range(5):
        points = _two_bundles(np.random.default_rng(100 + trial))
        paths = _pool_files(tmp_path, [points])[0]
        for seed in (0, 7, 31):
            protos = pool_prototypes(paths, [2], seed)[2]
            oracle_centers, _ = exhaustive_kmeans_2(points)
            norms = np.linalg.norm(oracle_centers, axis=1, keepdims=True)
            np.testing.assert_allclose(
                protos.vectors.data, oracle_centers / norms, atol=1e-9
            )


def test_three_clusters_per_class(tmp_path):
    stack = _unit_stack(np.random.default_rng(5), 3, 10, 6)
    protos = _prototypes(tmp_path, stack, 3)
    assert protos.count == 9
    np.testing.assert_array_equal(protos.class_of, [0, 0, 0, 1, 1, 1, 2, 2, 2])
    np.testing.assert_allclose(
        np.linalg.norm(protos.vectors.data, axis=1), 1.0, atol=1e-9
    )


def test_clamp_when_clusters_exceed_templates(tmp_path):
    stack = _unit_stack(np.random.default_rng(1), 2, 4, 6)
    with pytest.warns(UserWarning, match="clamping"):
        protos = _prototypes(tmp_path, stack, 9)
    np.testing.assert_array_equal(np.bincount(protos.class_of), [4, 4])


def test_objective_monotone_nonincreasing():
    rng = np.random.default_rng(9)
    for trial in range(10):
        points = random_unit_rows(np.random.default_rng(trial), 20, 5)
        _, history = _lloyd(points[None], 4, seed=trial, stream=0)
        drops = np.diff(history[0])
        assert (drops <= 1e-9).all(), history


def test_permutation_equivariance(tmp_path):
    points = _two_bundles(np.random.default_rng(11))
    protos = _prototypes(tmp_path, [points], 2, seed=4)
    perm = np.random.default_rng(0).permutation(points.shape[0])
    protos_perm = _prototypes(tmp_path, [points[perm]], 2, seed=4)
    # centers come back in canonical order, so permuting templates changes nothing
    np.testing.assert_allclose(
        protos.vectors.data, protos_perm.vectors.data, atol=1e-12
    )


def test_cluster_determinism(tmp_path):
    paths = _pool_files(tmp_path, _unit_stack(np.random.default_rng(2), 2, 12, 6))[0]
    a = pool_prototypes(paths, [3], seed=8)[3]
    b = pool_prototypes(paths, [3], seed=8)[3]
    assert a.vectors.data.tobytes() == b.vectors.data.tobytes()


def test_pool_shape_validation(tmp_path):
    stack = _unit_stack(np.random.default_rng(0), 2, 4, 3)
    rng = np.random.default_rng(1)
    save_matrix(EmbeddingMatrix(stack[0]), tmp_path / "first.npy")
    save_matrix(EmbeddingMatrix(random_unit_rows(rng, 5, 3)), tmp_path / "more.npy")
    save_matrix(EmbeddingMatrix(random_unit_rows(rng, 4, 6)), tmp_path / "wider.npy")
    first = tmp_path / "first.npy"
    with pytest.raises(ValueError, match=r"more\.npy: shape \(5, 3\) differs from .*first\.npy: \(4, 3\)"):
        _file_means([first, tmp_path / "more.npy"])
    with pytest.raises(ValueError, match=r"wider\.npy: shape \(4, 6\) differs"):
        _file_means([first, tmp_path / "wider.npy"])
    zero = np.vstack([stack[1][:2], np.zeros((1, 3)), stack[1][3:]])
    save_matrix(EmbeddingMatrix(zero), tmp_path / "zero.npy")
    with pytest.raises(ValueError, match=r"zero\.npy: zero-norm row 2"):
        _file_means([first, tmp_path / "zero.npy"])
    with pytest.raises(ValueError, match=r"clusters must be >= 1, got \[0\]"):
        pool_prototypes([first], [0], 0)


def test_prototype_set_requires_unit_rows():
    with pytest.raises(ValueError, match="unit-normalized"):
        PrototypeSet(vectors=EmbeddingMatrix([[2.0, 0.0]]), class_of=[0])


def test_prototype_set_holds_no_copy_of_its_rows():
    # the unit-norm check of 3,000 x 512 rows takes per-row dots, not a
    # 12.3 MB square of the matrix
    import tracemalloc

    vectors = EmbeddingMatrix(random_unit_rows(np.random.default_rng(7), 3000, 512))
    class_of = np.repeat(np.arange(1000), 3)
    tracemalloc.start()
    try:
        PrototypeSet(vectors=vectors, class_of=class_of)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_prototype_round_trip(tmp_path):
    protos = _prototypes(tmp_path, _unit_stack(np.random.default_rng(6), 2, 8, 6), 2, seed=1)
    save_prototypes(protos, tmp_path / "p.npy", tmp_path / "p.json")
    loaded = load_prototypes(tmp_path / "p.npy", tmp_path / "p.json")
    np.testing.assert_allclose(loaded.vectors.data, protos.vectors.data, atol=1e-12)
    np.testing.assert_array_equal(loaded.class_of, protos.class_of)
    np.testing.assert_array_equal(np.bincount(loaded.class_of), [2, 2])
    assert json.loads((tmp_path / "p.json").read_text()) == {"class_of": [0, 0, 1, 1]}


def test_load_prototypes_checks_class_map(tmp_path):
    save_matrix(EmbeddingMatrix(random_unit_rows(np.random.default_rng(3), 2, 4)),
                tmp_path / "p.npy")
    for doc, message in (({"class_of": [0, 2]}, "class ids \\[1\\]"),
                         ({"clusters_per_class": 1}, "missing field 'class_of'"),
                         # the per-class count that earlier versions wrote must hold
                         ({"class_of": [0, 1], "clusters_per_class": 5}, "5, but class 0 has 1"),
                         ({"class_of": [0, 0], "clusters_per_class": 1}, "1, but class 0 has 2"),
                         ({"class_of": [0, 1], "clusters_per_class": None}, "integer, got null")):
        (tmp_path / "p.json").write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ValueError, match=f"p.json: .*{message}"):
            load_prototypes(tmp_path / "p.npy", tmp_path / "p.json")
    # a map that holds, as every map written before the key was dropped does, loads
    (tmp_path / "p.json").write_text('{"class_of": [1, 0], "clusters_per_class": 1}')
    assert load_prototypes(tmp_path / "p.npy", tmp_path / "p.json").class_of.tolist() == [1, 0]


def _file_means(paths):
    return pool_prototypes(paths, [1], 0)[1]


def test_load_pools_per_class(tmp_path):
    rng = np.random.default_rng(8)
    paths = []
    for c in range(3):
        p = tmp_path / f"pool{c}.npy"
        save_matrix(EmbeddingMatrix(2.0 * random_unit_rows(rng, 5, 4)), p)
        paths.append(p)
    protos = _file_means(paths)
    assert protos.count == 3 and protos.vectors.dim == 4
    # the pass normalizes each file's rows before it takes their mean
    assert protos.vectors.data.tobytes() == _ref_means(_normalized(paths)).tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])
def test_pool_file_non_finite_norm_names_the_file(tmp_path, bad):
    # a NaN, an inf or an overflowing row is reported with its file and row,
    # also when that file's header bytes equal the first file's
    rows = np.where(np.arange(12).reshape(4, 3) == 4, bad, 1.0)
    np.save(tmp_path / "first.npy", np.ones((4, 3)))
    np.save(tmp_path / "bad.npy", rows)
    with pytest.raises(ValueError, match=r"bad\.npy: non-finite norm in row 1"):
        _file_means([tmp_path / "first.npy", tmp_path / "bad.npy"])


def _assert_reference_sets(sets, stack, seed):
    """Each set of a :func:`pool_prototypes` result against the reference
    run on ``stack``, the normalized templates."""
    for n_c, protos in sets.items():
        expected = _ref_means(stack) if n_c == 1 else _ref_cluster(stack, n_c, seed)
        assert protos.vectors.data.tobytes() == expected.tobytes(), n_c
        assert protos.class_of.tolist() == np.repeat(np.arange(len(stack)), n_c).tolist()


def test_pool_slots_match_numpy_load(tmp_path):
    # '<f8' files are read straight into their slot of a block buffer and
    # '<f4' files widened into it; a later file whose header differs from the
    # first file's in its bytes alone (key order, padding) still loads
    rng = np.random.default_rng(12)
    rows = rng.standard_normal((3, 4, 3))
    np.save(tmp_path / "a.npy", rows[0])
    np.save(tmp_path / "b.npy", rows[1].astype(np.float32))
    header = b"{'shape': (4, 3), 'fortran_order': False, 'descr': '<f8'}\n"
    (tmp_path / "c.npy").write_bytes(b"\x93NUMPY\x01\x00" + len(header).to_bytes(2, "little")
                                     + header + rows[2].tobytes())
    paths = [tmp_path / name for name in ("a.npy", "b.npy", "c.npy")]
    _assert_reference_sets(pool_prototypes(paths, [1, 2], 0), _normalized(paths), 0)
    # a stacked (C * T, d) matrix split into one file per class reduces like
    # the whole matrix normalized at once
    for dtype in ("<f8", "<f4"):
        stacked = rows.reshape(12, 3).astype(dtype)
        split = [tmp_path / f"{dtype[1:]}_{c}.npy" for c in range(3)]
        for c, path in enumerate(split):
            np.save(path, stacked[4 * c:4 * c + 4])
        whole = unit_rows(stacked.astype(np.float64), "s").reshape(3, 4, 3)
        _assert_reference_sets(pool_prototypes(split, [1, 2], 0), whole, 0)


def test_later_pool_file_with_the_first_header_is_still_checked(tmp_path):
    # the header is parsed once per process, but every file's payload size is
    # checked against it; a NaN row is covered by the test above
    first = tmp_path / "first.npy"
    np.save(first, np.ones((4, 3)))
    raw = first.read_bytes()
    for name, data, message in (("short.npy", raw[:-8], "truncated payload"),
                                ("long.npy", raw + bytes(8), "trailing bytes")):
        (tmp_path / name).write_bytes(data)
        with pytest.raises(NpyFormatError, match=f"{name}: {message}"):
            _file_means([first, tmp_path / name])


# A verbatim copy of the per-class K-means that the batched implementation
# replaced, less the final assignment pass that nothing reads. Prototypes
# must match it byte for byte, including the rare k-means++ and
# empty-cluster branches.

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
    if k == 1:
        centers = points.mean(axis=0, keepdims=True)
        obj = float(np.sum((points - centers[0]) ** 2))
        return centers, [obj]
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
    return centers[order], history


def _ref_cluster(stack: np.ndarray, n_c: int, seed: int) -> np.ndarray:
    """Per-class clustering and normalization, one class at a time."""
    all_centers = []
    for c, points in enumerate(stack):
        centers, _ = _ref_lloyd(points, n_c, seed, stream=c)
        norms = np.linalg.norm(centers, axis=1)
        all_centers.append(centers / norms[:, None])
    return np.vstack(all_centers)


def _ref_means(stack: np.ndarray) -> np.ndarray:
    """Per-class normalized means, one class at a time."""
    centers = []
    for points in stack:
        mean = points.mean(axis=0, keepdims=True)
        centers.append(mean / float(np.linalg.norm(mean)))
    return np.vstack(centers)


def _unit_stack(rng, n_classes, templates, dim):
    return np.stack([random_unit_rows(rng, templates, dim) for _ in range(n_classes)])


def _assert_matches_reference(paths, stack, n_c, seeds):
    """The pass over ``paths`` and :func:`_lloyd` on ``stack``, the files as
    the pass normalizes them, against the reference."""
    for seed in seeds:
        _assert_reference_sets(pool_prototypes(paths, [n_c], seed), stack, seed)
        centers, histories = _lloyd(stack, n_c, seed, stream=0)
        for c, points in enumerate(stack):
            ref_centers, ref_history = _ref_lloyd(points, n_c, seed, c)
            assert centers[c].tobytes() == ref_centers.tobytes()
            # the same objectives, summed in another order: float64 rounding
            # over a few hundred terms of size <= 4
            np.testing.assert_allclose(histories[c], ref_history, rtol=1e-12, atol=1e-12)


def test_duplicate_templates_match_reference(tmp_path):
    # [a, a, a, b] with k=3: k-means++ runs out of mass (total == 0) and the
    # duplicate center's cluster comes back empty and is repaired
    rng = np.random.default_rng(21)
    ab = _unit_stack(rng, 6, 2, 8)
    _assert_matches_reference(*_pool_files(tmp_path, ab[:, [0, 0, 0, 1]]), 3, seeds=range(8))


def test_one_cluster_per_template_matches_reference(tmp_path):
    stack = _unit_stack(np.random.default_rng(22), 5, 6, 4)
    _assert_matches_reference(*_pool_files(tmp_path, stack), 6, seeds=(0, 3))


def test_clamped_cluster_count_matches_reference(tmp_path):
    paths, stack = _pool_files(tmp_path, _unit_stack(np.random.default_rng(23), 4, 5, 6))
    with pytest.warns(UserWarning, match="clamping"):
        got = pool_prototypes(paths, [8], seed=2)[8].vectors.data
    assert got.tobytes() == _ref_cluster(stack, 5, 2).tobytes()


def test_means_match_reference(tmp_path):
    paths, stack = _pool_files(tmp_path, _unit_stack(np.random.default_rng(24), 30, 80, 512))
    _assert_reference_sets(pool_prototypes(paths, [1], 0), stack, 0)


def _bundled_stack(rng, n_classes, n_t, dim, k):
    """Unit templates around k centers per class, with a spread that grows
    with the class, so classes settle after different numbers of Lloyd
    iterations."""
    stack = np.empty((n_classes, n_t, dim))
    for c in range(n_classes):
        centers = random_unit_rows(rng, k, dim)
        noise = (1.5 + 0.15 * c) / np.sqrt(dim) * rng.standard_normal((n_t, dim))
        rows = centers[rng.integers(k, size=n_t)] + noise
        stack[c] = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    iterations = {len(_ref_lloyd(points, k, 0, c)[1]) for c, points in enumerate(stack)}
    assert len(iterations) > 2, iterations
    return stack


def test_blocks_of_classes_match_reference(tmp_path):
    # one block and three classes more
    n_t, dim, k = 80, 512, 3
    n_classes = prompts.LLOYD_BLOCK_BYTES // (n_t * dim * 8) + 3
    stack = _bundled_stack(np.random.default_rng(25), n_classes, n_t, dim, k)
    _assert_matches_reference(*_pool_files(tmp_path, stack), k, seeds=(0,))


def test_threaded_blocks_match_reference(tmp_path, monkeypatch, thread_starts, inline_worker):
    # nine classes in blocks of two: five blocks, shared by the calling thread
    # and one worker thread that does not outlive the call
    n_t, dim, k = 40, 32, 3
    paths, stack = _pool_files(tmp_path, _bundled_stack(np.random.default_rng(26), 9, n_t, dim, k))
    monkeypatch.setattr(prompts, "LLOYD_BLOCK_BYTES", 2 * n_t * dim * 8)
    started = thread_starts
    before = threading.active_count()
    for seed in (0, 5):
        started.clear()
        _assert_reference_sets(pool_prototypes(paths, [k], seed), stack, seed)
        assert len(started) == 1 and not started[0].is_alive()
        assert threading.active_count() == before
    # a pool of one block runs on the calling thread alone
    started.clear()
    monkeypatch.setattr(prompts, "LLOYD_BLOCK_BYTES", stack.nbytes)
    _assert_reference_sets(pool_prototypes(paths, [k], 0), stack, 0)
    assert started == []
    # every block on the "worker", with the second buffer set
    monkeypatch.setattr(prompts, "LLOYD_BLOCK_BYTES", 2 * n_t * dim * 8)
    inline_worker()
    _assert_reference_sets(pool_prototypes(paths, [1, k], 5), stack, 5)


def test_concurrent_callers_match_reference(tmp_path, monkeypatch):
    # more caller threads than cores, each with its own worker claiming
    # one-class blocks, under a short switch interval; a block claimed twice
    # or never would leave other bytes in the prototypes
    n_t, dim, k = 40, 32, 3
    paths, stack = _pool_files(tmp_path, _bundled_stack(np.random.default_rng(29), 9, n_t, dim, k))
    monkeypatch.setattr(prompts, "LLOYD_BLOCK_BYTES", n_t * dim * 8)
    seeds = (0, 1, 2)
    expected = [_ref_cluster(stack, k, seed).tobytes() for seed in seeds]
    got = [None] * len(seeds)

    def run(i):
        got[i] = pool_prototypes(paths, [k], seeds[i])[k].vectors.data.tobytes()

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(seeds))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == expected


@pytest.mark.parametrize("raiser", ["worker", "caller"])
def test_block_error_comes_out_unchanged(tmp_path, monkeypatch, thread_starts, raiser):
    n_t, dim, k = 40, 32, 3
    paths = _pool_files(tmp_path, _bundled_stack(np.random.default_rng(27), 9, n_t, dim, k))[0]
    monkeypatch.setattr(prompts, "LLOYD_BLOCK_BYTES", 2 * n_t * dim * 8)
    started = thread_starts
    before = threading.active_count()
    lloyd, caller, failed = prompts._lloyd, threading.current_thread(), threading.Event()
    boom, streams = RuntimeError("block failed"), []

    def flaky(points, k, seed, stream):
        streams.append(stream)
        if (threading.current_thread() is caller) == (raiser == "caller"):
            failed.set()
            raise boom
        failed.wait(timeout=10)  # the other thread's block fails first
        return lloyd(points, k, seed, stream)

    monkeypatch.setattr(prompts, "_lloyd", flaky)
    with pytest.raises(RuntimeError) as caught:
        pool_prototypes(paths, [k], seed=0)
    assert caught.value is boom and failed.is_set()
    assert len(started) == 1 and not started[0].is_alive()
    assert threading.active_count() == before
    if raiser == "worker":
        # the worker's block, and at most the one the caller holds; the
        # caller claims no block after the failure
        assert len(streams) <= 2


def test_several_counts_match_single_count_passes(tmp_path, monkeypatch):
    # every count of one pass is clustered from the same block buffer, so
    # K-means must hand each block back unchanged; blocks of three classes
    # whose classes settle after different numbers of iterations
    n_t, dim = 40, 32
    paths = _pool_files(tmp_path, _bundled_stack(np.random.default_rng(33), 9, n_t, dim, 3))[0]
    monkeypatch.setattr(prompts, "LLOYD_BLOCK_BYTES", 3 * n_t * dim * 8)
    for seed in (0, 1):
        sets = pool_prototypes(paths, [2, 3, 5], seed)
        for n_c in (2, 3, 5):
            single = pool_prototypes(paths, [n_c], seed)[n_c]
            assert sets[n_c].vectors.data.tobytes() == single.vectors.data.tobytes(), (seed, n_c)


def test_centers_tied_in_column_0_match_reference(tmp_path):
    # in every other class, two of the three bundles lie in the plane x0 = 0,
    # so two centers tie on column 0 and column 1 decides their order; the
    # other classes of the block are ordered by column 0 alone
    rng = np.random.default_rng(28)
    n_t, dim, k = 30, 8, 3
    stack = np.empty((6, n_t, dim))
    for c in range(len(stack)):
        member = np.arange(n_t) % k
        rows = random_unit_rows(rng, k, dim)[member] + 0.05 * rng.standard_normal((n_t, dim))
        if c % 2 == 0:
            rows[member < 2, 0] = 0.0
        stack[c] = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    paths, stack = _pool_files(tmp_path, stack)
    for seed in (0, 1, 2):
        tied = [np.unique(_ref_lloyd(points, k, seed, c)[0][:, 0]).size < k
                for c, points in enumerate(stack)]
        assert tied == [True, False] * 3, seed
    _assert_matches_reference(paths, stack, k, seeds=(0, 1, 2))


# the streamed pass over pool files ---------------------------------------

@pytest.mark.parametrize("dtype", ["<f8", "<f4"])
def test_file_pass_matches_reference_bytes(tmp_path, monkeypatch, dtype):
    # seven classes in blocks of three: three blocks, the last holding one
    # class, shared by the calling thread and the worker
    n_t, dim, k = 30, 16, 3
    raw = 2.5 * _bundled_stack(np.random.default_rng(30), 7, n_t, dim, k)
    paths, stack = _pool_files(tmp_path, raw, dtype)
    monkeypatch.setattr(prompts, "LLOYD_BLOCK_BYTES", 3 * n_t * dim * 8)
    _assert_reference_sets(pool_prototypes(paths, [1, 3], seed=4), stack, 4)
    for n_c in (1, 3):
        _assert_reference_sets(pool_prototypes(paths, [n_c], seed=4), stack, 4)


def _traced_peak(paths, clusters=(1, 3)):
    import tracemalloc

    tracemalloc.start()
    try:
        sets = pool_prototypes(paths, clusters, seed=0)
        return tracemalloc.get_traced_memory()[1], sets
    finally:
        tracemalloc.stop()


def test_file_pass_memory_does_not_grow_with_the_pool(tmp_path, monkeypatch):
    # blocks of four 80 x 32 classes: the pass holds two block buffers and
    # K-means' chunk of whole classes, at most one block, whatever the class
    # count. Only the prototype sets grow with C: 4 rows per class against
    # the stack's 80
    n_t, dim = 80, 32
    monkeypatch.setattr(prompts, "LLOYD_BLOCK_BYTES", 4 * n_t * dim * 8)
    rng = np.random.default_rng(31)
    # three tight bundles per class, so K-means settles in a few iterations
    bundles = rng.standard_normal((200, 3, dim))
    raw = bundles[:, np.arange(n_t) % 3] + 0.05 * rng.standard_normal((200, n_t, dim))
    paths = _write_raw_pools(tmp_path, raw, "<f8")
    peak, sets_bytes = {}, {}
    for n_classes in (100, 200):
        peak[n_classes], sets = _traced_peak(paths[:n_classes])
        sets_bytes[n_classes] = sum(s.vectors.data.nbytes for s in sets.values())
    # a few copies of the sets while they are normalized and checked
    buffers = 2 * prompts.LLOYD_BLOCK_BYTES + min(prompts.LLOYD_BLOCK_BYTES, UNIT_BLOCK_BYTES)
    assert peak[200] < buffers + 4 * sets_bytes[200] + (64 << 10), peak
    growth = peak[200] - peak[100]
    assert growth < 4 * (sets_bytes[200] - sets_bytes[100]), (growth, sets_bytes)
    assert growth < raw[100:].nbytes / 4, growth


def test_lowest_failed_block_is_reported(tmp_path, monkeypatch):
    # faults in blocks 1 and 2 of three; the read of block 1's faulty file
    # waits until block 2's has been read, so block 2 fails first, yet the
    # error is block 1's, as a serial pass would report it
    n_t, dim = 6, 4
    raw = np.random.default_rng(32).standard_normal((5, n_t, dim))
    raw[2, 3, 1], raw[4, 1] = np.nan, 0.0
    paths = _write_raw_pools(tmp_path, raw, "<f8")
    monkeypatch.setattr(prompts, "LLOYD_BLOCK_BYTES", 2 * n_t * dim * 8)
    read, last_read, order = prompts.read_npy, threading.Event(), []

    def spy(path, rank, slot=None):
        if path == paths[2]:
            last_read.wait(timeout=10)
        try:
            return read(path, rank, slot)
        finally:
            order.append(path)
            if path == paths[4]:
                last_read.set()

    monkeypatch.setattr(prompts, "read_npy", spy)
    with pytest.raises(ValueError, match=r"f8_002\.npy: non-finite norm in row 3$"):
        pool_prototypes(paths, [1, 2], seed=0)
    assert order.index(paths[4]) < order.index(paths[2])


def test_bad_row_before_a_read_error_in_one_block(tmp_path):
    # both files in one block, normalized together once both are read: a
    # NaN row in the first file is still reported before the truncated
    # second file, as a file-by-file pass reports it
    first, second = tmp_path / "p0.npy", tmp_path / "p1.npy"
    rows = np.ones((4, 3))
    rows[2, 1] = np.nan
    np.save(first, rows)
    np.save(second, np.ones((4, 3)))
    second.write_bytes(second.read_bytes()[:-8])
    with pytest.raises(ValueError, match=r"p0\.npy: non-finite norm in row 2$"):
        _file_means([first, second])
    # with the first file sound, the read error is raised
    np.save(first, np.ones((4, 3)))
    with pytest.raises(NpyFormatError, match=r"p1\.npy: truncated payload"):
        _file_means([first, second])


def test_center_update_keeps_signed_zeros(tmp_path, monkeypatch):
    # the last two coordinates are exact zeros, -0.0 in every template but
    # the first: the reference's mean sums from +0.0, so a cluster without
    # template 0 has a +0.0 center coordinate there, which a sum started
    # from -0.0 makes -0.0. Blocks of three classes that settle after
    # different numbers of iterations
    n_t, dim, k = 40, 32, 3
    stack = _bundled_stack(np.random.default_rng(34), 9, n_t, dim, k)
    stack[:, :, -2:] = -0.0
    stack[:, 0, -2:] = 0.0
    paths, stack = _pool_files(tmp_path, stack)
    assert np.signbit(stack[:, 1:, -2:]).all() and not np.signbit(stack[:, 0, -2:]).any()
    monkeypatch.setattr(prompts, "LLOYD_BLOCK_BYTES", 3 * n_t * dim * 8)
    for seed in (0, 1):
        centers = _lloyd(stack, k, seed, stream=0)[0]
        ref = np.stack([_ref_lloyd(points, k, seed, c)[0] for c, points in enumerate(stack)])
        assert (ref[:, :, -2:] == 0.0).all() and not np.signbit(ref[:, :, -2:]).any()
        assert centers.tobytes() == ref.tobytes(), seed
        _assert_reference_sets(pool_prototypes(paths, [k], seed), stack, seed)


def test_set_norms_hold_one_chunk(tmp_path, monkeypatch):
    # after the pass, each set of centers is normalized a chunk of at most
    # UNIT_BLOCK_BYTES at a time, not through a (C, k, d) square as large
    # as the set; one-class blocks of four templates keep the pass small
    n_classes, n_t, dim, k = 400, 4, 512, 3
    raw = np.random.default_rng(35).standard_normal((n_classes, n_t, dim))
    paths = _write_raw_pools(tmp_path, raw, "<f8")
    monkeypatch.setattr(prompts, "LLOYD_BLOCK_BYTES", n_t * dim * 8)
    peak, sets = _traced_peak(paths, [k])
    set_bytes = sets[k].vectors.data.nbytes
    assert set_bytes > 4 * UNIT_BLOCK_BYTES
    assert peak < set_bytes + UNIT_BLOCK_BYTES + (64 << 10), (peak, set_bytes)
