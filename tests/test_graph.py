import copy
import gc
import sys
import threading
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphscore import graph
from graphscore.baselines import manifold_score
from graphscore.graph import (
    SELECT_ROWS,
    TOP_K_BLOCK,
    BlockAdjacency,
    NodePartition,
    _nearest,
    _top_k,
    build_adjacency,
    normalize,
)
from graphscore.prompts import PrototypeSet
from graphscore.propagation import run_gsp
from graphscore.store import EmbeddingMatrix

from conftest import csr, hand_graph
from oracles import brute_knn, dense_block_adjacency, random_unit_rows, spectral_norm


def _protos(rows):
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    return PrototypeSet(vectors=EmbeddingMatrix(rows),
                        class_of=np.arange(rows.shape[0]))


def _units(seed, n, d):
    return EmbeddingMatrix(random_unit_rows(np.random.default_rng(seed), n, d))


def _dense(adj):
    return csr(adj).toarray()


# knn ------------------------------------------------------------------

def test_knn_trivial():
    idx, sims, _ = _nearest(np.array([[1.0, 0.0]]), np.array([[1.0, 0.0], [0.0, 1.0]]), k=1)
    assert idx.tolist() == [[0]] and sims.tolist() == [[1.0]]


def test_knn_k_too_large_with_self_exclusion():
    # k = n_unlabeled fits the prototype block but not the intra-unlabeled
    # block, which excludes each node itself
    with pytest.warns(UserWarning, match="intra-unlabeled neighbors \\(3\\)"):
        adj = build_adjacency(_protos([[1.0, 0.0, 0.0]]), None, _units(0, 4, 3), k=4)
    assert (np.diag(_dense(adj))[1:] == 0).all()


def test_knn_dim_mismatch():
    with pytest.raises(ValueError, match="share dim"):
        build_adjacency(_protos([[1.0, 0.0, 0.0]]), None, _units(1, 2, 4), k=1)


def test_knn_matches_brute_force_oracle():
    corpus = _units(7, 50, 16).data
    idx, sims, *_ = _top_k(corpus, k=5)
    expected = brute_knn(corpus, corpus, 5, True)
    assert idx.tolist() == [[c for _, c, _ in row] for row in expected]
    np.testing.assert_allclose(sims, [[s for *_, s in row] for row in expected],
                               rtol=0, atol=1e-12)


def test_knn_tie_breaks_to_lower_index():
    idx, *_ = _nearest(np.array([[1.0, 0.0]]),
                       np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 0.0]]), k=2)
    assert idx.tolist() == [[1, 2]]


def _strip_product(queries, corpus, exclude_self):
    # the similarity product as _top_k defines it: TOP_K_BLOCK-row strips,
    # and with exclude_self each strip's upper trapezoid, mirrored below it
    sims = np.empty((len(queries), len(corpus)))
    for lo in range(0, len(queries), TOP_K_BLOCK):
        hi = lo + TOP_K_BLOCK
        first = lo if exclude_self else 0
        sims[lo:hi, first:] = queries[lo:hi] @ corpus[first:].T
        if exclude_self:
            sims[hi:, lo:hi] = sims[lo:hi, hi:].T
    return sims


def _top_k_full_sort(queries, corpus, k, exclude_self):
    # the former selector: one stable argsort over every row of -sims
    sims = _strip_product(queries, corpus, exclude_self)
    neg = -sims
    if exclude_self:
        np.fill_diagonal(neg, np.inf)
    order = np.argsort(neg, axis=1, kind="stable")[:, :k]
    return order, np.take_along_axis(sims, order, axis=1)


@given(st.integers(0, 10_000), st.sampled_from([7, 40, 512, 513, 1100]),
       st.integers(1, 6), st.integers(1, 12), st.booleans(), st.booleans(),
       st.sampled_from([0, TOP_K_BLOCK + 70]))
@example(seed=1, n=1100, n_distinct=3, k=5, exclude_self=False, other_queries=True,
         n_drawn=TOP_K_BLOCK + 70)
@settings(max_examples=40, deadline=None)
def test_top_k_matches_full_sort_reference(seed, n, n_distinct, k, exclude_self,
                                           other_queries, n_drawn):
    # rows drawn from a few distinct directions (or all distinct), so that
    # ties straddle the k-th value; n > TOP_K_BLOCK leaves a partial last block,
    # and n_drawn > 0 gives a separate query block of several strips
    rng = np.random.default_rng(seed)
    if n_distinct == 6:
        corpus = random_unit_rows(rng, n, 3)
    else:
        corpus = random_unit_rows(rng, n_distinct, 3)[rng.integers(0, n_distinct, n)]
    queries = corpus
    if other_queries and not exclude_self:
        queries = np.vstack([corpus[:3], random_unit_rows(rng, 2, 3),
                             corpus[rng.integers(0, n, n_drawn)]])
    k = min(k, n - exclude_self)
    idx, sims = (_top_k(corpus, k) if exclude_self else _nearest(queries, corpus, k))[:2]
    ref_idx, ref_sims = _top_k_full_sort(queries, corpus, k, exclude_self)
    np.testing.assert_array_equal(idx, ref_idx)
    assert sims.tobytes() == ref_sims.tobytes()
    # strips may round the last bit differently from one whole product
    whole = np.take_along_axis(queries @ corpus.T, idx, axis=1)
    assert np.abs(sims - whole).max() <= 1e-15


def _chain(n, d, seed, noise=0.01):
    # unit rows ordered along a half great circle, so that blocks far apart
    # on the chain are far apart on the sphere and their tiles can be skipped
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, np.pi, n)
    rows = noise * rng.standard_normal((n, d))
    rows[:, 0] += np.cos(t)
    rows[:, 1] += np.sin(t)
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def _ties(rng):
    # runs of 5 identical rows, so with k = 10 each row's k-th value is tied
    # with whole runs; runs straddle block edges, and block 1 also holds
    # copies of a block-3 run, tied with lower indices across a far tile
    u = np.repeat(_chain(600, 8, 1), 5, axis=0)[:2600]
    u[600:605] = u[1800]
    return u


def _cap(rng):
    # block 2 is a ring of +-w pairs at one angle around its first row c, so
    # its centroid is c to rounding and every other member lies on its
    # bounding cap, where the cap bound is tight
    u = _chain(2600, 8, 2)
    lo = 2 * TOP_K_BLOCK
    c = u[lo + TOP_K_BLOCK // 2].copy()
    w = rng.standard_normal(((TOP_K_BLOCK - 2) // 2, 8))
    w -= np.outer(w @ c, c)
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    ring = np.cos(0.05) * c + np.sin(0.05) * np.vstack([w, -w])
    u[lo] = u[lo + TOP_K_BLOCK - 1] = c
    u[lo + 1:lo + TOP_K_BLOCK - 1] = ring / np.linalg.norm(ring, axis=1, keepdims=True)
    return u


def _near_duplicates(rng):
    # block 3 is one row plus perturbations of 1e-10, closer than the 1e-8 rad
    # arccos resolves near a cosine of 1
    u = _chain(2600, 8, 3)
    lo = 3 * TOP_K_BLOCK
    near = u[lo] + 1e-10 * rng.standard_normal((TOP_K_BLOCK, 8))
    u[lo:lo + TOP_K_BLOCK] = near / np.linalg.norm(near, axis=1, keepdims=True)
    return u


def _one_sided(rng):
    # block 3 is a tight cluster 0.3 rad from the centre c of block 1, which
    # spreads over a cap of 0.2 rad: every block-3 row is far from block 1,
    # but three block-1 rows on the cap's edge have block-3 rows among their
    # nearest, so tile (1, 3) is needed for its rows alone
    d, lo = 16, TOP_K_BLOCK
    u = _chain(2600, d, 6)
    c = u[lo + lo // 2].copy()
    toward = rng.standard_normal(d)
    toward[:2] = 0.0  # off the chain's plane
    toward -= (toward @ c) * c
    toward /= np.linalg.norm(toward)
    w = rng.standard_normal((lo, d))
    w -= np.outer(w @ c, c)
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    rho = 0.2 * rng.random((lo, 1))
    u[lo:2 * lo] = np.cos(rho) * c + np.sin(rho) * w
    edge = np.cos(0.2) * c + np.sin(0.2) * toward + 0.01 * rng.standard_normal((3, d))
    u[lo + 100:lo + 103] = edge / np.linalg.norm(edge, axis=1, keepdims=True)
    tight = np.cos(0.3) * c + np.sin(0.3) * toward + 0.001 * rng.standard_normal((lo, d))
    u[3 * lo:4 * lo] = tight / np.linalg.norm(tight, axis=1, keepdims=True)
    return u


def _partial_block(rng):
    # the last block has 7 <= k rows: glued to the block before it, whose
    # diagonal piece gives those rows their first k-th
    return _chain(5 * TOP_K_BLOCK + 7, 8, 4)


def _noisy_tail(rng):
    # three noisy copies of the first rows make a 3-row last block that
    # block 0 needs while it skips block 4; multiplied as a run of its own,
    # that narrow block would round differently from the whole strip product
    u = _chain(5 * TOP_K_BLOCK, 8, 0)
    tail = u[:3] + 1e-3 * rng.standard_normal((3, 8))
    return np.vstack([u, tail / np.linalg.norm(tail, axis=1, keepdims=True)])


def _assert_top_k_exact(u, k):
    idx, sims, (computed, skipped), _ = _top_k(u, k)
    ref_idx, ref_sims = _top_k_full_sort(u, u, k, True)
    np.testing.assert_array_equal(idx, ref_idx)
    assert sims.tobytes() == ref_sims.tobytes()
    n_blocks = -(-len(u) // TOP_K_BLOCK)
    assert computed + skipped == n_blocks * (n_blocks + 1) // 2
    return skipped


@pytest.mark.parametrize("make", [lambda rng: _chain(2600, 8, 0), _ties, _cap,
                                  _near_duplicates, _one_sided, _partial_block, _noisy_tail],
                         ids=["chain", "ties", "cap", "near_duplicates", "one_sided",
                              "partial_block", "noisy_tail"])
def test_top_k_skipping_tiles_keeps_every_bit(make):
    # fewer tiles are computed than exist, and (idx, sims) keep the bytes of
    # the full strip product
    assert _assert_top_k_exact(make(np.random.default_rng(5)), 10) > 0


def test_top_k_skips_no_tile_when_nothing_can_be_ruled_out():
    u = _chain(2600, 8, 0)
    # a shuffle puts the whole chain in every block
    shuffled = u[np.random.default_rng(0).permutation(len(u))]
    assert _assert_top_k_exact(shuffled, 10) == 0
    # k = n - 1 leaves every running k-th at -inf after the diagonal pieces
    assert _assert_top_k_exact(u[:2 * TOP_K_BLOCK + 6], 2 * TOP_K_BLOCK + 5) == 0


def test_top_k_skips_no_tile_for_rows_off_the_unit_sphere():
    # the bounds assume unit rows; scaled rows keep their exact neighbors
    u = 2.0 * _chain(2600, 8, 0)
    assert _assert_top_k_exact(u, 10) == 0
    assert _assert_top_k_exact(u / 2.0, 10) > 0


def test_top_k_peak_memory_is_two_pieces():
    # two piece buffers of at most TOP_K_BLOCK x (2 TOP_K_BLOCK - 1) entries,
    # each with a mask and a selection copy (17 bytes an entry at most), and
    # the (n, k) running lists: O(TOP_K_BLOCK^2 + n k). The tile plan's
    # tables are O(n / TOP_K_BLOCK x (d + TOP_K_BLOCK)); the chain is long
    # enough that n / TOP_K_BLOCK x n angle tables would break the bound.
    # The former two strip buffers alone took 2 x TOP_K_BLOCK x n x 8 bytes,
    # more than twice the bound. A chain skips tiles; the partial last block
    # is glued
    k = 10
    pieces = 2 * 17 * TOP_K_BLOCK * (2 * TOP_K_BLOCK - 1)
    inputs = [(random_unit_rows(np.random.default_rng(0), 16 * TOP_K_BLOCK + 300, 16), False),
              (_chain(32 * TOP_K_BLOCK + 300, 16, 0), True)]
    for corpus, skips in inputs:
        n = corpus.shape[0]
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            _, _, (_, skipped), held = _top_k(corpus, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (skipped > 0) == skips
        assert held <= pieces
        assert peak < held + 64 * n * k < TOP_K_BLOCK * n * 8, (n, peak, held)


@pytest.mark.parametrize("self_search", [True, False])
def test_top_k_without_a_worker_keeps_the_threaded_bytes(inline_worker, self_search):
    # the inline "worker" takes every piece before the calling thread takes
    # one, so pieces merge in another order, all with the second buffer set
    rng = np.random.default_rng(7)
    corpus = _noisy_tail(rng)
    queries = random_unit_rows(rng, TOP_K_BLOCK + 190, 8)

    def search():
        return _top_k(corpus, 10) if self_search else _nearest(queries, corpus, 10)

    threaded = search()
    inline_worker()
    inline = search()
    assert inline[0].tobytes() == threaded[0].tobytes()
    assert inline[1].tobytes() == threaded[1].tobytes()
    assert inline[2:] == threaded[2:]
    if self_search:
        assert threaded[2][1] > 0


@pytest.mark.parametrize("make", [_partial_block, _noisy_tail, lambda rng: _chain(700, 8, 7)],
                         ids=["partial_block", "noisy_tail", "one_block_and_a_strip"])
def test_top_k_keeps_its_bytes_with_the_tasks_reversed(monkeypatch, make):
    # each diagonal task owns the rows it writes, a partial last strip
    # running in the task of the block glued to it (at 700 rows, the only
    # diagonal task), so neither pass depends on the order tasks are taken in
    u = make(np.random.default_rng(5))
    default = _top_k(u, 10)
    share = graph.share
    monkeypatch.setattr(graph, "share", lambda tasks, *args: share(list(tasks)[::-1], *args))
    backwards = _top_k(u, 10)
    assert backwards[0].tobytes() == default[0].tobytes()
    assert backwards[1].tobytes() == default[1].tobytes()
    assert backwards[2:] == default[2:]


@pytest.mark.parametrize("raiser", ["caller", "worker"])
@pytest.mark.parametrize("search", ["top_k", "nearest"])
def test_failed_selection_stops_both_threads(monkeypatch, thread_starts, search, raiser):
    # eight strips: the diagonal pieces of _top_k, or _nearest's strips; the
    # thread that does not fail waits in its first selection until the
    # other one fails, then may finish at most one more, and claims nothing
    rows = random_unit_rows(np.random.default_rng(8), 8 * TOP_K_BLOCK, 8)
    before = threading.active_count()
    select, caller, failed = graph._select_block, threading.current_thread(), threading.Event()
    boom, after = RuntimeError("selection failed"), []

    def flaky(*args):
        if (threading.current_thread() is caller) == (raiser == "caller"):
            if not failed.is_set():
                failed.set()
                raise boom
        elif failed.is_set():
            after.append(1)
        else:
            failed.wait(timeout=10)
        return select(*args)

    monkeypatch.setattr(graph, "_select_block", flaky)
    with pytest.raises(RuntimeError) as caught:
        _top_k(rows, 4) if search == "top_k" else _nearest(rows, rows[:600], 4)
    assert caught.value is boom and failed.is_set()
    assert len(after) <= 1
    assert len(thread_starts) == 1 and not thread_starts[0].is_alive()
    assert threading.active_count() == before


def test_nearest_selects_corpus_rows_wider_than_the_selection_rows(monkeypatch):
    # one SELECT_ROWS x TOP_K_BLOCK selection copy holds less than one row of
    # a 700-wide corpus: the copy must grow to a row, or no row is selected
    monkeypatch.setattr(graph, "SELECT_ROWS", 1)
    rng = np.random.default_rng(9)
    corpus, queries = random_unit_rows(rng, 700, 8), random_unit_rows(rng, 5, 8)
    idx, sims, _ = _nearest(queries, corpus, 6)
    expected = brute_knn(queries, corpus, 6)
    assert idx.tolist() == [[c for _, c, _ in row] for row in expected]
    np.testing.assert_allclose(sims, [[s for *_, s in row] for row in expected],
                               rtol=0, atol=1e-12)
    # a 2-row strip at d = 512 keeps the bits of its full-width product
    corpus, queries = random_unit_rows(rng, 700, 512), random_unit_rows(rng, 2, 512)
    idx, sims, _ = _nearest(queries, corpus, 6)
    ref_idx, ref_sims = _top_k_full_sort(queries, corpus, 6, False)
    np.testing.assert_array_equal(idx, ref_idx)
    assert sims.tobytes() == ref_sims.tobytes()


# adjacency ------------------------------------------------------------

def test_adjacency_single_pair():
    adj = build_adjacency(_protos([[1.0, 0.0]]), None,
                          EmbeddingMatrix([[1.0, 0.0]]), k=1)
    np.testing.assert_array_equal(_dense(adj), [[1.0, 1.0], [1.0, 0.0]])


def test_proto_labeled_block_zero():
    protos = _protos(random_unit_rows(np.random.default_rng(0), 3, 8))
    labeled = _units(1, 4, 8)
    unlabeled = _units(2, 12, 8)
    adj = build_adjacency(protos, labeled, unlabeled, k=3)
    dense = _dense(adj)
    assert (dense[:3, 3:7] == 0).all()
    assert (dense[3:7, :3] == 0).all()
    np.testing.assert_array_equal(dense[:3, :3], np.eye(3))
    np.testing.assert_array_equal(dense[3:7, 3:7], np.eye(4))
    assert (np.diag(dense)[7:] == 0).all()


def test_adjacency_matches_dense_oracle():
    for seed in range(6):
        rng = np.random.default_rng(seed)
        protos = _protos(random_unit_rows(rng, 1 + seed % 3, 8))
        labeled = (EmbeddingMatrix(random_unit_rows(rng, 2, 8))
                   if seed % 2 else None)
        unlabeled = EmbeddingMatrix(random_unit_rows(rng, 30, 8))
        adj = build_adjacency(protos, labeled, unlabeled, k=4)
        lab = labeled.data if labeled is not None else np.zeros((0, 8))
        expected = dense_block_adjacency(protos.vectors.data, lab,
                                         unlabeled.data, k=4)
        np.testing.assert_allclose(_dense(adj), expected, rtol=0, atol=1e-12)


def test_adjacency_matches_dense_oracle_across_strips():
    # unlabeled and labeled queries both span several TOP_K_BLOCK strips, and
    # runs of exact duplicate rows straddle every strip boundary, so ties at
    # the k-th value are settled across strips and by the running merge
    rng = np.random.default_rng(21)
    n_u, d = 2 * TOP_K_BLOCK + 77, 8
    unlab = random_unit_rows(rng, n_u, d)
    lab = random_unit_rows(rng, TOP_K_BLOCK + 9, d)
    for b in (TOP_K_BLOCK, 2 * TOP_K_BLOCK):
        unlab[b - 3:b + 3] = unlab[b - 3]
    lab[TOP_K_BLOCK - 2:TOP_K_BLOCK + 2] = unlab[TOP_K_BLOCK]
    protos = _protos(np.vstack([unlab[TOP_K_BLOCK], random_unit_rows(rng, 2, d)]))
    adj = build_adjacency(protos, EmbeddingMatrix(lab), EmbeddingMatrix(unlab), k=4)
    expected = dense_block_adjacency(protos.vectors.data, lab, unlab, k=4)
    np.testing.assert_allclose(_dense(adj), expected, rtol=0, atol=1e-12)


def _strips_input(seed):
    rng = np.random.default_rng(seed)
    d = 8
    unlab = EmbeddingMatrix(random_unit_rows(rng, 2 * TOP_K_BLOCK + 77, d))
    lab = EmbeddingMatrix(random_unit_rows(rng, TOP_K_BLOCK + 9, d))
    return _protos(random_unit_rows(rng, 3, d)), lab, unlab


def _weight_bytes(adj):
    return adj.data.tobytes(), adj.indices.tobytes(), adj.indptr.tobytes()


def test_top_k_leaves_no_thread_behind(thread_starts):
    started = thread_starts
    protos, lab, unlab = _strips_input(0)
    before = threading.active_count()
    build_adjacency(protos, lab, unlab, k=4)
    # the labeled and unlabeled blocks span several strips: one worker each,
    # and neither outlives its call; the unlabeled tile pass has a single
    # piece, glued to the partial last block, so it starts no second one
    assert len(started) == 2 and not any(t.is_alive() for t in started)
    assert threading.active_count() == before
    started.clear()
    # every query block of this build fits in one strip
    build_adjacency(protos, EmbeddingMatrix(lab.data[:20]),
                    EmbeddingMatrix(unlab.data[:TOP_K_BLOCK]), k=4)
    assert started == []
    assert threading.active_count() == before


def test_build_frees_its_input_without_the_cycle_collector():
    # a nested function of the search that refers to itself would keep the
    # arrays it closes over, the unlabeled rows among them, alive until the
    # next collection: one copy more per call
    protos, lab, unlab = _strips_input(1)
    rows = weakref.ref(unlab.data)
    gc.disable()
    try:
        build_adjacency(protos, lab, unlab, k=4)
        del unlab
        assert rows() is None
    finally:
        gc.enable()


def test_concurrent_callers_match_sequential_builds():
    # more caller threads than cores, each with its own worker, under a short
    # switch interval; every graph must keep the bytes of a sequential build
    inputs = [_strips_input(seed) for seed in range(3)]
    expected = [_weight_bytes(build_adjacency(*args, k=4)) for args in inputs]
    got = [None] * len(inputs)

    def run(i):
        got[i] = _weight_bytes(build_adjacency(*inputs[i], k=4))

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(inputs))]
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


def test_adjacency_with_duplicate_rows_ties():
    # duplicate unlabeled rows force similarity ties; both implementations
    # must break them toward the lower index
    rows = random_unit_rows(np.random.default_rng(4), 6, 5)
    rows[3] = rows[1]
    rows[5] = rows[1]
    unlabeled = EmbeddingMatrix(rows)
    protos = _protos(random_unit_rows(np.random.default_rng(5), 2, 5))
    adj = build_adjacency(protos, None, unlabeled, k=2)
    expected = dense_block_adjacency(protos.vectors.data, np.zeros((0, 5)),
                                     unlabeled.data, k=2)
    np.testing.assert_allclose(_dense(adj), expected, rtol=0, atol=1e-12)


def test_adjacency_symmetric_as_stored():
    adj = build_adjacency(_protos(random_unit_rows(np.random.default_rng(0), 2, 6)),
                          None, _units(1, 20, 6), k=3)
    assert csr(adj).has_canonical_format
    dense = _dense(adj)
    np.testing.assert_array_equal(dense, dense.T)


def test_adjacency_clamps_k_with_warning():
    with pytest.warns(UserWarning, match="clamping"):
        adj = build_adjacency(_protos([[1.0, 0.0]]), None,
                              EmbeddingMatrix([[0.9, 0.1], [0.1, 0.9]]), k=10)
    assert adj.partition.n_unlabeled == 2


def test_summary_reports_k_clamps_and_knn_scratch():
    # the applied clamps, which also warn, and the most piece buffer and
    # scratch bytes one top-k held; normalizing keeps both
    with pytest.warns(UserWarning, match="clamping"):
        adj = build_adjacency(_protos([[1.0, 0.0]]), None,
                              EmbeddingMatrix([[0.9, 0.1], [0.1, 0.9]]), k=10)
    assert adj.summary["k_clamps"] == {"unlabeled": 2, "intra-unlabeled": 1}
    assert normalize(adj).summary == adj.summary
    protos, lab, unlab = _strips_input(0)
    summary = build_adjacency(protos, lab, unlab, k=4).summary
    assert set(summary) == {"edges", "knn_tiles", "k_clamps", "knn_scratch_bytes"}
    assert summary["k_clamps"] == {}
    # two labeled strips, each as wide as the corpus with its mask, and
    # their SELECT_ROWS-row selection copies hold the most
    assert summary["knn_scratch_bytes"] == 2 * (9 * TOP_K_BLOCK * unlab.count
                                                 + 8 * SELECT_ROWS * TOP_K_BLOCK)
    # below two full blocks one diagonal task runs and no tile exists: one
    # thread's piece buffer and mask, as wide as all n rows, and its
    # selection copy
    n = TOP_K_BLOCK + 188
    rows = random_unit_rows(np.random.default_rng(1), n + 1, 512)
    summary = build_adjacency(_protos(rows[:1]), None, EmbeddingMatrix(rows[1:]), k=10).summary
    assert summary["knn_scratch_bytes"] == 9 * TOP_K_BLOCK * n + 8 * SELECT_ROWS * TOP_K_BLOCK


def test_summary_copies_the_build_report():
    # a hand-built graph ran no KNN search: its summary holds only the edge count
    w = sp.csr_matrix(np.array([[1.0, 0.5], [0.5, 0.0]]))
    assert hand_graph(w, NodePartition(1, 0, 1)).summary == {"edges": w.nnz}
    with pytest.warns(UserWarning, match="clamping"):
        adj = build_adjacency(_protos([[1.0, 0.0]]), None,
                              EmbeddingMatrix([[0.9, 0.1], [0.1, 0.9]]), k=10)
    first = adj.summary
    assert list(first) == ["edges", "knn_tiles", "k_clamps", "knn_scratch_bytes"]
    expected = copy.deepcopy(first)
    # editing a returned summary's nested dicts leaves the next one as it was
    first["k_clamps"]["unlabeled"] = 0
    first["knn_tiles"]["computed"] = 99
    assert adj.summary == expected
    assert normalize(adj).report == adj.report


def test_adjacency_sparsity_bound():
    part_args = [(2, 3, 25), (1, 0, 40)]
    for seed, (n_p, n_l, n_u) in enumerate(part_args):
        rng = np.random.default_rng(seed)
        protos = _protos(random_unit_rows(rng, n_p, 8))
        labeled = EmbeddingMatrix(random_unit_rows(rng, n_l, 8)) if n_l else None
        unlabeled = EmbeddingMatrix(random_unit_rows(rng, n_u, 8))
        k = 4
        adj = build_adjacency(protos, labeled, unlabeled, k=k)
        assert adj.nnz <= 2 * k * (n_p + n_l + n_u) + n_p + n_l


def test_adjacency_permutation_equivariance():
    rng = np.random.default_rng(10)
    protos = _protos(random_unit_rows(rng, 2, 6))
    unlab_rows = random_unit_rows(rng, 15, 6)
    adj = build_adjacency(protos, None, EmbeddingMatrix(unlab_rows), k=3)
    perm = np.random.default_rng(1).permutation(15)
    adj_p = build_adjacency(protos, None, EmbeddingMatrix(unlab_rows[perm]), k=3)
    full = np.concatenate([np.arange(2), 2 + perm])
    np.testing.assert_allclose(_dense(adj_p),
                               _dense(adj)[np.ix_(full, full)],
                               rtol=0, atol=1e-12)


def test_edge_distances_match_embeddings():
    rng = np.random.default_rng(3)
    protos = _protos(random_unit_rows(rng, 2, 6))
    unlabeled = EmbeddingMatrix(random_unit_rows(rng, 10, 6))
    adj = build_adjacency(protos, None, unlabeled, k=3)
    stacked = np.vstack([protos.vectors.data, unlabeled.data])
    edges = csr(adj).tocoo()
    derived = np.sqrt(np.maximum(0.0, 2.0 - 2.0 * edges.data))
    np.testing.assert_allclose(
        derived, np.linalg.norm(stacked[edges.row] - stacked[edges.col], axis=1),
        rtol=0, atol=1e-9)


def test_block_adjacency_validation():
    part = NodePartition(1, 0, 1)
    with pytest.raises(ValueError, match="negative edge weight"):
        hand_graph([[1.0, -0.5], [-0.5, 0.0]], part)
    with pytest.raises(ValueError, match="does not match partition"):
        hand_graph(np.eye(3), part)


def test_block_adjacency_adopts_a_canonical_float64_csr():
    part = NodePartition(1, 0, 2)
    dense = np.array([[1.0, 0.0, 0.5], [0.0, 0.0, 0.25], [0.5, 0.25, 0.0]])
    arrays = (np.array([0, 2, 3, 5]), np.array([0, 2, 2, 0, 1]),
              np.array([1.0, 0.5, 0.25, 0.5, 0.25]))
    adj = BlockAdjacency(*arrays, part)
    for name, arr in zip(("indptr", "indices", "data"), arrays):
        assert getattr(adj, name) is arr
        assert not arr.flags.writeable
    # normalize hands its scaled weights over on the same structure and row index
    norm = normalize(adj)
    assert norm.indices is adj.indices and norm.indptr is adj.indptr and norm.rows is adj.rows
    # scipy's int32 indices and float32 weights are copied, the caller's arrays untouched
    other = sp.csr_matrix(dense, dtype=np.float32)
    before = [x.copy() for x in (other.data, other.indices, other.indptr)]
    adj = BlockAdjacency(other.indptr, other.indices, other.data, part)
    assert adj.indices.dtype == adj.indptr.dtype == np.intp and adj.data.dtype == np.float64
    assert csr(adj).toarray().tobytes() == dense.tobytes()
    for arr, old in zip((other.data, other.indices, other.indptr), before):
        assert arr.flags.writeable and arr.tobytes() == old.tobytes()
    # unsorted columns or a repeated one are not a canonical CSR: rejected, not summed
    for cols in ([2, 0, 2, 0, 1], [0, 0, 2, 0, 1]):
        with pytest.raises(ValueError, match="ascend within each row"):
            BlockAdjacency(arrays[0], np.array(cols), arrays[2], part)
    for ptr in ([0, 2, 3, 6], [0, 3, 2, 5], [1, 2, 3, 5]):
        with pytest.raises(ValueError, match="does not match partition total 3"):
            BlockAdjacency(np.array(ptr), *arrays[1:], part)
    with pytest.raises(ValueError, match="does not match partition total 3"):
        BlockAdjacency(arrays[0], arrays[1], arrays[2][:4], part)
    with pytest.raises(ValueError, match="columns must lie in"):
        BlockAdjacency(arrays[0], np.array([0, 2, 3, 0, 1]), arrays[2], part)


@given(st.integers(0, 10_000), st.integers(0, 2), st.booleans(), st.integers(0, 3))
@settings(max_examples=30, deadline=None)
def test_degenerate_inputs_canonical_graph_finite_scores(seed, n_l, antipodal, k_extra):
    # duplicate rows, a prototype equal to an unlabeled row (zero-length
    # edge), an optional node antipodal to everything else, and k >= n_u
    rng = np.random.default_rng(seed)
    axis = np.eye(4)[0]
    # first coordinate stays positive, so every pair here has similarity > 0
    cluster = axis + 0.3 * rng.uniform(-1.0, 1.0, (int(rng.integers(2, 8)), 4))
    cluster[1] = cluster[0]
    cluster /= np.linalg.norm(cluster, axis=1, keepdims=True)
    unlab = np.vstack([cluster, -axis]) if antipodal else cluster
    protos = _protos([axis, cluster[0]])
    labeled = EmbeddingMatrix(cluster[rng.integers(0, len(cluster), n_l)]) if n_l else None
    n_u = len(unlab)
    with pytest.warns(UserWarning, match="clamping"):
        adj = build_adjacency(protos, labeled, EmbeddingMatrix(unlab), k=n_u + k_extra)
    w = csr(adj)
    assert w.has_canonical_format
    assert (w != w.T).nnz == 0
    off = 2 + n_l
    np.testing.assert_array_equal(w[:off, :off].toarray(), np.eye(off))
    if antipodal:
        assert w[adj.partition.n_total - 1].nnz == 0
    with pytest.warns(UserWarning, match="clamping"):
        pass1, scores, diag = run_gsp(build_adjacency(protos, labeled, EmbeddingMatrix(unlab),
                                                      k=n_u + k_extra))
    # only the isolated antipodal node is unreached by pass 1
    assert diag["pass1_unlabeled"]["n_zero"] == int(antipodal)
    manifold = manifold_score(adj)
    assert scores.shape == manifold.shape == (n_u,)
    assert pass1.shape == (n_u,) and np.isfinite(pass1).all()
    assert np.isfinite(scores).all() and np.isfinite(manifold).all()


@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.floats(0.0, 1.0))
@settings(max_examples=300, deadline=None)
@example(0, 1, 1.0)
@example(0, 5, 0.0)
def test_assembly_and_product_equal_scipy_bit_for_bit(seed, n, density):
    # scipy is the oracle: max(A, A.T) and the CSR product, by bytes, over
    # weights from 1e-300 to 1e300, empty rows, isolated nodes, self-loops,
    # pairs given in both directions, and vectors with -0.0 entries (a row of
    # -0.0 terms sums to scipy's +0.0)
    rng = np.random.default_rng(seed)
    r, c = np.divmod(rng.permutation(n * n)[:int(density * n * n)], n)
    s = np.exp(rng.uniform(np.log(1e-300), np.log(1e300), r.size))
    ref = sp.csr_matrix((s, (r, c)), shape=(n, n))
    ref = ref.maximum(ref.T)
    got = graph._symmetric_csr(r, c, s, n)
    for arr, want in zip(got, (ref.indptr, ref.indices, ref.data)):
        assert arr.tobytes() == want.astype(arr.dtype).tobytes()
    if n < 2:  # a partition holds a prototype and an unlabeled node
        return
    adj = BlockAdjacency(*got, NodePartition(1, 0, n - 1))
    x = rng.standard_normal((4, n))
    x[rng.random((4, n)) < 0.3] = -0.0
    for row in x:
        assert graph.product(adj, row).tobytes() == (ref @ row).tobytes()


def test_built_graph_holds_scipy_bits_in_exact_buffers(monkeypatch):
    # the directed KNN lists of a build with labeled rows and several strips,
    # symmetrized by scipy, give the graph's bytes; no array keeps spare room
    calls = []

    def spy(*args):
        calls.append(args)
        return assembly(*args)

    assembly = graph._symmetric_csr
    monkeypatch.setattr(graph, "_symmetric_csr", spy)
    adj = build_adjacency(*_strips_input(2), k=4)
    (r, c, s, n), = calls
    ref = sp.csr_matrix((s, (r, c)), shape=(n, n))
    ref = ref.maximum(ref.T)
    assert adj.data.tobytes() == ref.data.tobytes()
    assert np.array_equal(adj.indices, ref.indices) and np.array_equal(adj.indptr, ref.indptr)
    for built in (adj, normalize(adj)):
        for arr in (built.indptr, built.indices, built.data, built.rows):
            assert arr.base is None or arr.base.nbytes == arr.nbytes
        assert built.data.size == built.indices.size == built.nnz == ref.nnz


# normalization ----------------------------------------------------------

def _manual_adjacency(w_dense, n_proto, n_labeled):
    n = w_dense.shape[0]
    part = NodePartition(n_proto, n_labeled, n - n_proto - n_labeled)
    return hand_graph(w_dense, part)


def test_normalize_hand_example():
    adj = _manual_adjacency(np.array([[1.0, 1.0], [1.0, 0.0]]), 1, 0)
    norm = normalize(adj)
    expected = np.array([[0.5, 1 / np.sqrt(2)], [1 / np.sqrt(2), 0.0]])
    np.testing.assert_allclose(csr(norm).toarray(), expected, atol=1e-12)
    np.testing.assert_array_equal(norm.indices, adj.indices)
    np.testing.assert_array_equal(norm.indptr, adj.indptr)


def test_normalize_identity():
    adj = _manual_adjacency(np.eye(3), 2, 0)
    norm = normalize(adj)
    np.testing.assert_allclose(csr(norm).toarray(), np.eye(3), atol=1e-15)


def test_normalize_isolated_node_floored():
    # unlabeled node antipodal to the prototype: its only candidate edge has
    # negative similarity, so it stays isolated
    adj = build_adjacency(_protos([[1.0, 0.0]]), None,
                          EmbeddingMatrix([[-1.0, 0.0]]), k=1)
    with warnings.catch_warnings():
        # an unfloored zero degree would warn on the division
        warnings.simplefilter("error")
        norm = normalize(adj)
    assert csr(norm)[1].nnz == 0
    assert np.isfinite(norm.data).all()


def test_normalized_symmetry_exact():
    rng = np.random.default_rng(12)
    adj = build_adjacency(_protos(random_unit_rows(rng, 3, 8)), None,
                          _units(13, 30, 8), k=5)
    w = csr(normalize(adj))
    diff = (w - w.T).tocoo()
    assert diff.nnz == 0 or np.abs(diff.data).max() == 0.0


def test_spectral_bound_on_random_graphs():
    for seed in range(8):
        rng = np.random.default_rng(seed)
        n_u = int(rng.integers(10, 60))
        protos = _protos(random_unit_rows(rng, int(rng.integers(1, 4)), 8))
        unlabeled = EmbeddingMatrix(random_unit_rows(rng, n_u, 8))
        norm = normalize(build_adjacency(protos, None, unlabeled, k=5))
        assert spectral_norm(csr(norm).toarray(), seed=seed) <= 1.0 + 1e-9


def test_graph_config_validation():
    with pytest.raises(ValueError, match="k must be >= 1"):
        build_adjacency(_protos([[1.0, 0.0]]), None, EmbeddingMatrix([[1.0, 0.0]]), k=0)


def test_partition_validation():
    with pytest.raises(ValueError):
        NodePartition(0, 0, 5)
    with pytest.raises(ValueError):
        NodePartition(1, 0, 0)
    part = NodePartition(2, 3, 4)
    assert part.n_total == 9
    assert part.unlabeled_slice == slice(5, 9)

