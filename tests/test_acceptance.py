"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Criteria are oracle equivalences, hand-checked values, qualitative ordering
on the frozen synthetic benchmarks, invariant bundles, and an optional
real-data sweep driven by the GRAPHSCORE_REAL_MANIFEST environment variable.
"""

import json
import os
import time

import numpy as np
import pytest

import graphscore as gs
from graphscore.cli import main
from graphscore.pipeline import METHODS, DatasetBundle, RunConfig, score
from graphscore.prompts import _lloyd, pool_prototypes
from graphscore.propagation import PropagationConfig, propagate
from graphscore.store import EmbeddingMatrix

from conftest import csr, hand_graph
from oracles import (
    dense_block_adjacency,
    dense_propagation,
    exhaustive_kmeans_2,
    floyd_warshall,
    pairwise_auroc,
    random_unit_rows,
    spectral_norm,
    sweep_fpr,
)


def _report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion:02d}: {status} {detail}".rstrip())
    assert ok, f"criterion {criterion}: {detail}"


def _random_graph(seed, max_nodes, k_max):
    rng = np.random.default_rng(seed)
    n_p = int(rng.integers(1, 4))
    n_l = int(rng.integers(0, 3))
    n_u = int(rng.integers(5, max_nodes - n_p - n_l))
    k = int(rng.integers(1, min(k_max, n_u - 1) + 1))
    protos = gs.PrototypeSet(
        vectors=EmbeddingMatrix(random_unit_rows(rng, n_p, 8)),
        class_of=np.arange(n_p))
    labeled = EmbeddingMatrix(random_unit_rows(rng, n_l, 8)) if n_l else None
    unlabeled = EmbeddingMatrix(random_unit_rows(rng, n_u, 8))
    return gs.build_adjacency(protos, labeled, unlabeled, k=k)


def test_criterion_1_propagation_oracle_equivalence():
    start = time.monotonic()
    worst = 0.0
    for seed in range(100):
        adj = _random_graph(seed, max_nodes=64, k_max=6)
        norm = gs.normalize(adj)
        s0 = np.zeros(adj.partition.n_total)
        s0[: adj.partition.unlabeled_offset] = 1.0
        got = propagate(norm, s0, PropagationConfig(alpha=0.5, iterations=5))
        expected = dense_propagation(csr(adj).toarray(), s0, 0.5, 5)
        worst = max(worst, float(np.abs(got - expected).max()))
    elapsed = time.monotonic() - start
    _report(1, worst < 1e-9 and elapsed < 5.0,
            f"(max |err|={worst:.2e}, {elapsed:.2f}s for 100 graphs)")


def test_criterion_2_hand_checked_micro_case():
    part = gs.NodePartition(1, 0, 1)
    adj = hand_graph([[1.0, 1.0], [1.0, 0.0]], part)
    s5 = propagate(gs.normalize(adj), np.array([1.0, 0.0]),
                   PropagationConfig(alpha=0.5, iterations=5))
    expected = np.array([2.4375, 2.125 / np.sqrt(2.0)])
    err = float(np.abs(s5 - expected).max())
    _report(2, err < 1e-6, f"(S5={s5.tolist()}, |err|={err:.2e})")


def test_criterion_3_knn_graph_oracle():
    ok = True
    for seed in range(50):
        rng = np.random.default_rng(2000 + seed)
        n_p = int(rng.integers(1, 4))
        n_l = int(rng.integers(0, 3))
        n_u = int(rng.integers(6, 32))
        k = int(rng.integers(1, 6))
        proto_rows = random_unit_rows(rng, n_p, 8)
        lab_rows = random_unit_rows(rng, n_l, 8) if n_l else np.zeros((0, 8))
        unlab_rows = random_unit_rows(rng, n_u, 8)
        if seed % 7 == 0 and n_u >= 3:
            unlab_rows[2] = unlab_rows[0]  # force similarity ties
        protos = gs.PrototypeSet(vectors=EmbeddingMatrix(proto_rows),
                                 class_of=np.arange(n_p))
        labeled = EmbeddingMatrix(lab_rows) if n_l else None
        adj = gs.build_adjacency(protos, labeled,
                                 EmbeddingMatrix(unlab_rows), k=k)
        dense = csr(adj).toarray()
        expected = dense_block_adjacency(proto_rows, lab_rows, unlab_rows, k)
        ok &= bool(np.allclose(dense, expected, rtol=0, atol=1e-12))
        ok &= bool(((dense != 0) == (expected != 0)).all())
        # block structure asserted exactly
        ok &= bool((dense[:n_p, n_p:n_p + n_l] == 0.0).all())
        ok &= bool((dense[:n_p, :n_p] == np.eye(n_p)).all())
        ok &= bool((dense[n_p:n_p + n_l, n_p:n_p + n_l] == np.eye(n_l)).all())
        ok &= bool((np.diag(dense)[n_p + n_l:] == 0.0).all())
        ok &= bool((dense == dense.T).all())
    _report(3, ok, "(50 instances, symmetrization and block layout exact)")


def test_criterion_4_dijkstra_oracle():
    worst = 0.0
    ok = True
    for seed in range(100):
        adj = _random_graph(3000 + seed, max_nodes=32, k_max=5)
        n = adj.partition.n_total
        n_src = adj.partition.unlabeled_offset
        dist = gs.baselines.shortest_path_distances(adj, sources=range(n_src))
        dense = np.full((n, n), np.inf)
        edges = csr(adj).tocoo()
        dense[edges.row, edges.col] = np.sqrt(np.maximum(0.0, 2.0 - 2.0 * edges.data))
        all_pairs = floyd_warshall(dense)
        expected = all_pairs[:n_src].min(axis=0)
        finite = np.isfinite(expected)
        ok &= bool(np.array_equal(np.isfinite(dist), finite))
        if finite.any():
            worst = max(worst, float(np.abs(dist[finite] - expected[finite]).max()))
    _report(4, ok and worst < 1e-9, f"(100 graphs, max |err|={worst:.2e})")


def test_criterion_5_metric_oracles():
    ok = True
    for seed in range(1000):
        rng = np.random.default_rng(4000 + seed)
        n = int(rng.integers(4, 201))
        scores = rng.standard_normal(n)
        if seed % 2 == 0:
            scores = np.round(scores, 1)  # inject ties
        is_id = rng.random(n) < float(rng.uniform(0.2, 0.8))
        if is_id.all() or not is_id.any():
            is_id[0] = True
            is_id[-1] = False
        ok &= gs.evaluate(scores, is_id).auroc == pairwise_auroc(scores, is_id)
        ok &= gs.evaluate(scores, is_id).fpr95 == sweep_fpr(scores, is_id)
    _report(5, ok, "(1000 instances, exact equality incl. ties)")


def test_criterion_6_kmeans_monotone_and_exhaustive_optimum(tmp_path):
    ok = True
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(5000 + seed)
        # two well-separated bundles of four templates each
        a = random_unit_rows(rng, 1, 6)[0]
        b = random_unit_rows(rng, 1, 6)[0]
        b -= (b @ a) * a
        b /= np.linalg.norm(b)
        rows = []
        for center in (a, b):
            for _ in range(4):
                v = center + 0.05 * rng.standard_normal(6)
                rows.append(v / np.linalg.norm(v))
        points = np.array(rows)
        _, history = _lloyd(points[None], 2, seed=seed, stream=0)
        ok &= bool((np.diff(history) <= 1e-9).all())
        np.save(tmp_path / "pool.npy", points)
        protos = pool_prototypes([tmp_path / "pool.npy"], [2], seed)[2]
        oracle_centers, _ = exhaustive_kmeans_2(points)
        oracle_unit = oracle_centers / np.linalg.norm(oracle_centers, axis=1,
                                                      keepdims=True)
        worst = max(worst, float(np.abs(protos.vectors.data - oracle_unit).max()))
    _report(6, ok and worst < 1e-9,
            f"(20 instances, max center error={worst:.2e})")


@pytest.fixture(scope="module")
def bridge_sweep():
    """AUROC per method over 100 seeds of the frozen bridge benchmark."""
    cfg = RunConfig(method="all")
    out = {m: [] for m in ("cosine", "score_prop_only", "gsp", "gsp_no_neg")}
    start = time.monotonic()
    for seed in range(100):
        data = gs.generate(gs.bridge_benchmark_spec(seed=seed))
        bundle = DatasetBundle(unlabeled=data.unlabeled, labeled=data.labeled,
                               pool=None, prototypes=data.prototypes, flags=None)
        for method, scores, _ in score(bundle, cfg):
            if method in out:
                out[method].append(gs.evaluate(scores, data.is_id).auroc)
    elapsed = time.monotonic() - start
    return {m: np.array(v) for m, v in out.items()}, elapsed


def test_criterion_7_ablation_ordering(bridge_sweep):
    results, elapsed = bridge_sweep
    cos = results["cosine"].mean()
    prop = results["score_prop_only"].mean()
    full = results["gsp"].mean()
    ok = (cos < prop < full) and (full - cos >= 0.03) and elapsed < 60.0
    _report(7, ok,
            f"(cosine={cos:.4f} < score_prop={prop:.4f} < gsp={full:.4f}, "
            f"margin={full - cos:.4f}, {elapsed:.1f}s)")


def test_criterion_8_self_training_benefit(bridge_sweep):
    results, _ = bridge_sweep
    full = results["gsp"].mean()
    no_neg = results["gsp_no_neg"].mean()
    _report(8, full >= no_neg, f"(gsp={full:.4f} >= gsp_no_neg={no_neg:.4f})")


def test_criterion_9_invariant_suite(tmp_path):
    ok = True
    # propagation linearity / superposition / antisymmetry
    for seed in range(20):
        adj = _random_graph(6000 + seed, max_nodes=32, k_max=5)
        norm = gs.normalize(adj)
        part = adj.partition
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(part.n_total)
        b = rng.standard_normal(part.n_total)
        cfg = PropagationConfig(alpha=0.5, iterations=5)
        pa = propagate(norm, a, cfg)
        pb = propagate(norm, b, cfg)
        ok &= bool(np.allclose(propagate(norm, 2.5 * a, cfg), 2.5 * pa, atol=1e-9))
        ok &= bool(np.allclose(propagate(norm, a + b, cfg), pa + pb, atol=1e-9))
        ok &= bool(np.array_equal(propagate(norm, -a, cfg), -pa))
    # spectral bound
    for seed in range(20):
        adj = _random_graph(7000 + seed, max_nodes=64, k_max=6)
        dense = csr(gs.normalize(adj)).toarray()
        ok &= spectral_norm(dense, seed=seed) <= 1.0 + 1e-9
    # AUROC monotone-transform invariance
    rng = np.random.default_rng(1)
    scores = rng.standard_normal(64)
    is_id = rng.random(64) < 0.5
    is_id[0] = True
    is_id[-1] = False
    base = gs.evaluate(scores, is_id).auroc
    for transform in (lambda s: 10.0 * s - 2.0, np.exp, np.tanh):
        ok &= gs.evaluate(transform(scores), is_id).auroc == base
    # byte-identical reruns of the seeded pipeline
    data = gs.generate(gs.bridge_benchmark_spec(seed=12))
    paths = []
    for tag in ("a", "b"):
        _, scores, _ = gs.run_gsp(gs.build_adjacency(data.prototypes, data.labeled, data.unlabeled))
        path = tmp_path / f"scores_{tag}.npy"
        gs.save_vector(scores, path)
        paths.append(path)
    ok &= paths[0].read_bytes() == paths[1].read_bytes()
    regen = gs.generate(gs.bridge_benchmark_spec(seed=12))
    ok &= regen.unlabeled.data.tobytes() == data.unlabeled.data.tobytes()
    _report(9, ok, "(linearity, spectral bound, metric invariance, determinism)")


def _six_method_sweep(manifest_path, out_dir):
    rc = main(["score", "--manifest", str(manifest_path), "--method", "all",
               "--out", str(out_dir)])
    assert rc == 0
    lines = (out_dir / "ablation.csv").read_text().strip().splitlines()
    assert lines[0] == "method,auroc,fpr95"
    assert len(lines) == 1 + len(METHODS)
    # timing share of the graph stages, reported but not asserted
    diag = json.loads((out_dir / "diagnostics_gsp.json").read_text())
    timing = diag["timing_s"]
    graph_time = timing.get("build_graph", 0.0) + timing.get("normalize", 0.0)
    prop_time = (timing.get("propagate_pass1", 0.0)
                 + timing.get("propagate_pass2", 0.0))
    return graph_time + prop_time, timing.get("total", 0.0)


def test_criterion_10_six_method_sweep(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"preset": "bridge_benchmark", "seed": 0}),
                    encoding="utf-8")
    data_dir = tmp_path / "data"
    assert main(["synth", "--spec", str(spec), "--out", str(data_dir)]) == 0
    core, total = _six_method_sweep(data_dir / "manifest.json",
                                    tmp_path / "sweep")
    detail = f"(synthetic sweep ok; graph+propagation {core * 1e3:.1f}ms"
    real = os.environ.get("GRAPHSCORE_REAL_MANIFEST")
    if real:
        core_r, total_r = _six_method_sweep(real, tmp_path / "real_sweep")
        detail += f"; real data sweep ok, graph+propagation {core_r * 1e3:.1f}ms"
    else:
        detail += "; no GRAPHSCORE_REAL_MANIFEST set, real-data leg skipped"
    _report(10, True, detail + ")")
