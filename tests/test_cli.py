import json
import shutil
import threading
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import graphscore as gs
from graphscore import pipeline, prompts, propagation, store
from graphscore.cli import METHODS, main
from graphscore.prompts import load_prototypes
from graphscore.synth import bridge_benchmark_spec
from graphscore.store import (
    EmbeddingMatrix,
    load_vector,
    save_flags,
    save_matrix,
    save_vector,
)

from test_prompts import _normalized, _ref_cluster, _ref_means
from test_scale import _assert_same_files


def _synth_dataset(tmp_path, preset="bridge_benchmark", seed=3):
    tmp_path.mkdir(parents=True, exist_ok=True)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"preset": preset, "seed": seed}),
                         encoding="utf-8")
    out = tmp_path / "data"
    assert main(["synth", "--spec", str(spec_path), "--out", str(out)]) == 0
    return out


def test_synth_then_score_then_eval(tmp_path, capsys):
    data_dir = _synth_dataset(tmp_path)
    run_dir = tmp_path / "run"
    rc = main(["score", "--manifest", str(data_dir / "manifest.json"),
               "--method", "gsp", "--out", str(run_dir)])
    assert rc == 0
    scores = load_vector(run_dir / "scores_gsp.npy")
    n_unlabeled = np.load(data_dir / "unlabeled.npy").shape[0]
    assert scores.size == n_unlabeled
    diag = json.loads((run_dir / "diagnostics_gsp.json").read_text())
    assert diag["method"] == "gsp"
    assert diag["selection"] is not None

    rc = main(["eval", "--scores", str(run_dir / "scores_gsp.npy"),
               "--flags", str(data_dir / "flags.csv"), "--out", str(run_dir)])
    assert rc == 0
    report = json.loads((run_dir / "report.json").read_text())
    assert report[0]["auroc"] > 0.9
    csv_lines = (run_dir / "report.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "method,auroc,fpr95"
    assert len(csv_lines) == 2
    assert "auroc" in capsys.readouterr().out


def test_cosine_and_gsp_side_by_side(tmp_path):
    data_dir = _synth_dataset(tmp_path)
    run_dir = tmp_path / "run"
    for method in ("cosine", "gsp"):
        assert main(["score", "--manifest", str(data_dir / "manifest.json"),
                     "--method", method, "--out", str(run_dir)]) == 0
    a = load_vector(run_dir / "scores_cosine.npy")
    b = load_vector(run_dir / "scores_gsp.npy")
    assert a.size == b.size


def test_missing_manifest_exits_2(tmp_path, capsys):
    rc = main(["score", "--manifest", str(tmp_path / "nope.json"),
               "--out", str(tmp_path / "run")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "nope.json" in err


def test_score_all_methods_writes_ablation_csv(tmp_path):
    data_dir = _synth_dataset(tmp_path, seed=0)
    run_dir = tmp_path / "sweep"
    assert main(["score", "--manifest", str(data_dir / "manifest.json"),
                 "--method", "all", "--out", str(run_dir)]) == 0
    for method in ("gsp", "cosine", "manifold", "score_prop_only",
                   "gsp_no_cluster", "gsp_no_neg"):
        assert (run_dir / f"scores_{method}.npy").exists()
    text = (run_dir / "ablation.csv").read_text()
    assert text.count("\n") == len(lines := text.splitlines()) == 7
    assert lines[0] == "method,auroc,fpr95"
    methods = [line.split(",")[0] for line in lines[1:]]
    assert methods == ["gsp", "cosine", "manifold", "score_prop_only",
                       "gsp_no_cluster", "gsp_no_neg"]
    # eval reads a written score file back; its row must match the ablation row
    assert main(["eval", "--scores", str(run_dir / "scores_gsp.npy"), "--names", "gsp",
                 "--flags", str(data_dir / "flags.csv"), "--out", str(tmp_path / "ev")]) == 0
    row = (tmp_path / "ev" / "report.csv").read_text().splitlines()[1]
    assert row.startswith("gsp,") and row in lines


def test_eval_length_mismatch_errors(tmp_path, capsys):
    data_dir = _synth_dataset(tmp_path)
    from graphscore.store import save_vector

    bad = tmp_path / "bad.npy"
    save_vector(np.zeros(3), bad)
    rc = main(["eval", "--scores", str(bad),
               "--flags", str(data_dir / "flags.csv"),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "scores but" in capsys.readouterr().err


def test_invalid_spec_json_reports_position(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text('{"preset": }', encoding="utf-8")
    rc = main(["synth", "--spec", str(spec), "--out", str(tmp_path / "d")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "line 1" in err and "column" in err


def test_synth_deterministic_directories(tmp_path):
    a = _synth_dataset(tmp_path / "a", seed=11)
    b = _synth_dataset(tmp_path / "b", seed=11)
    assert (a / "unlabeled.npy").read_bytes() == (b / "unlabeled.npy").read_bytes()
    assert (a / "flags.csv").read_text() == (b / "flags.csv").read_text()


def test_score_reruns_byte_identical(tmp_path):
    data_dir = _synth_dataset(tmp_path, seed=0)
    # a copy under a longer directory, scored into a longer --out: no output
    # may depend on where the data or the run directory lives
    moved = shutil.copytree(data_dir, tmp_path / "a_much_longer_directory_name" / "data")
    runs = [(data_dir, tmp_path / "a"), (data_dir, tmp_path / "b"),
            (moved, moved.parent / "scores_written_under_a_longer_path")]
    for data, out in runs:
        assert main(["score", "--manifest", str(data / "manifest.json"),
                     "--method", "all", "--out", str(out)]) == 0
    first = runs[0][1]
    for _, out in runs[1:]:
        assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in first.iterdir())
        _assert_same_files(first, out)
        for path in first.glob("diagnostics_*.json"):
            a, b = (json.loads(p.read_text(encoding="utf-8")) for p in (path, out / path.name))
            del a["timing_s"], b["timing_s"]
            assert json.dumps(a) == json.dumps(b), (out.name, path.name)  # key order too


def _write_pools(tmp_path, n_classes=2, templates=8, dim=6):
    rng = np.random.default_rng(0)
    paths = []
    for c in range(n_classes):
        center = np.zeros(dim)
        center[c] = 1.0
        rows = center + 0.05 * rng.standard_normal((templates, dim))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        p = tmp_path / f"pool{c}.npy"
        save_matrix(EmbeddingMatrix(rows), p)
        paths.append(str(p))
    return paths


def test_cluster_prompts_single_value_equals_mean(tmp_path):
    pools = _write_pools(tmp_path)
    out = tmp_path / "protos"
    assert main(["cluster-prompts", "--pools", *pools, "--clusters", "1",
                 "--seed", "0", "--out", str(out)]) == 0
    protos = load_prototypes(out / "prototypes.npy", out / "prototype_classes.json")
    np.testing.assert_allclose(protos.vectors.data, _ref_means(_normalized(pools)), atol=1e-12)


def test_cluster_prompts_sweep_emits_one_file_per_value(tmp_path):
    pools = _write_pools(tmp_path)
    out = tmp_path / "protos"
    values = [str(v) for v in range(1, 11)]
    # the 8 templates per class clamp n_c = 9 and 10, each with a warning
    with pytest.warns(UserWarning, match="exceeds template count 8; clamping") as caught:
        assert main(["cluster-prompts", "--pools", *pools, "--clusters", *values,
                     "--seed", "0", "--out", str(out)]) == 0
    assert [str(w.message) for w in caught] == [
        f"n_c={v} exceeds template count 8; clamping" for v in (9, 10)]
    for v in range(1, 11):
        assert (out / f"prototypes_nc{v}.npy").exists()
        protos = load_prototypes(out / f"prototypes_nc{v}.npy",
                                 out / f"prototype_classes_nc{v}.json")
        assert (np.bincount(protos.class_of) == min(v, 8)).all()


def test_config_file_with_flag_override(tmp_path, capsys):
    data_dir = _synth_dataset(tmp_path)
    cfg = {
        "manifest": str(data_dir / "manifest.json"),
        "method": "cosine",
        "out": str(tmp_path / "from_config"),
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    # config alone
    assert main(["score", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "from_config" / "scores_cosine.npy").exists()
    # flag overrides the config's method
    assert main(["score", "--config", str(cfg_path), "--method",
                 "score_prop_only"]) == 0
    assert (tmp_path / "from_config" / "scores_score_prop_only.npy").exists()
    # a misspelled key is an error that names the file and the key
    cfg_path.write_text(json.dumps({**cfg, "iters": 3}), encoding="utf-8")
    assert main(["score", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert "run.json" in err and "'iters'" in err
    # a null, non-integral or wrongly typed value is an error that names the
    # file and the key, and nothing is scored
    for bad in ({"k": 2.7}, {"k": None}, {"out": None}, {"alpha": "0.5"}, {"seed": True},
                {"tau": float("nan")}, {"tau": float("inf")}, {"k": 10 ** 400},
                {"alpha": -10 ** 400}):
        cfg_path.write_text(json.dumps({**cfg, "out": str(tmp_path / "bad"), **bad}),
                            encoding="utf-8")
        assert main(["score", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "run.json" in err
        assert f"'{next(iter(bad))}'" in err
        assert not (tmp_path / "bad").exists()
    # a whole number written as a float is still an integer
    cfg_path.write_text(json.dumps({**cfg, "k": 3.0}), encoding="utf-8")
    assert main(["score", "--config", str(cfg_path)]) == 0
    # a range error names the file only when the file gave the value: a valid
    # flag overrides a bad config value, and a bad flag keeps its own message
    cfg_path.write_text(json.dumps({**cfg, "k": 0}), encoding="utf-8")
    assert main(["score", "--config", str(cfg_path), "--k", "3"]) == 0
    assert main(["score", "--config", str(cfg_path), "--k", "-1"]) == 1
    assert capsys.readouterr().err == "error: k must be >= 1, got -1\n"


def test_no_partial_artifacts_on_failure(tmp_path):
    data_dir = _synth_dataset(tmp_path)
    manifest = json.loads((data_dir / "manifest.json").read_text())
    manifest["unlabeled"] = "missing.npy"
    bad = data_dir / "broken.json"
    bad.write_text(json.dumps(manifest), encoding="utf-8")
    run_dir = tmp_path / "should_stay_empty"
    rc = main(["score", "--manifest", str(bad), "--out", str(run_dir)])
    assert rc == 2
    assert not run_dir.exists()


def _score_all(data_dir, manifest, run_dir):
    path = data_dir / "edited_manifest.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    return main(["score", "--manifest", str(path), "--method", "all",
                 "--out", str(run_dir)])


def test_prototype_class_gap_rejected_at_load(tmp_path, capsys):
    data_dir = _synth_dataset(tmp_path)
    classes = data_dir / "prototype_classes.json"
    doc = json.loads(classes.read_text())
    assert doc["class_of"] == [0, 1]
    doc["class_of"] = [0, 2]
    classes.write_text(json.dumps(doc), encoding="utf-8")
    manifest = json.loads((data_dir / "manifest.json").read_text())
    run_dir = tmp_path / "run"
    assert _score_all(data_dir, manifest, run_dir) == 1
    err = capsys.readouterr().err
    assert "prototype_classes.json" in err and "class ids [1]" in err
    assert not run_dir.exists()


def test_prototype_class_count_checked_against_c_in(tmp_path, capsys):
    data_dir = _synth_dataset(tmp_path)
    manifest = json.loads((data_dir / "manifest.json").read_text())
    manifest["C_in"] = 5
    manifest["class_names"] = [f"class_{c}" for c in range(5)]
    run_dir = tmp_path / "run"
    assert _score_all(data_dir, manifest, run_dir) == 1
    err = capsys.readouterr().err
    assert "prototype_classes.json" in err and "2 classes" in err and "5" in err
    assert not run_dir.exists()


def test_short_flags_file_rejected_before_scoring(tmp_path, capsys):
    data_dir = _synth_dataset(tmp_path)
    lines = (data_dir / "flags.csv").read_text().splitlines()
    (data_dir / "short_flags.csv").write_text("\n".join(lines[:-5]) + "\n",
                                              encoding="utf-8")
    manifest = json.loads((data_dir / "manifest.json").read_text())
    manifest["flags"] = "short_flags.csv"
    run_dir = tmp_path / "run"
    assert _score_all(data_dir, manifest, run_dir) == 1
    n_unlabeled = np.load(data_dir / "unlabeled.npy").shape[0]
    err = capsys.readouterr().err
    assert "short_flags.csv" in err
    assert f"{n_unlabeled - 5} flags" in err and f"{n_unlabeled} unlabeled" in err
    assert not list(run_dir.glob("scores_*.npy"))


def test_one_class_flags_file_rejected_before_scoring(tmp_path, capsys):
    data_dir = _synth_dataset(tmp_path, seed=0)
    n = np.load(data_dir / "unlabeled.npy").shape[0]
    save_flags(np.ones(n, dtype=bool), data_dir / "id_only.csv")
    manifest = json.loads((data_dir / "manifest.json").read_text())
    manifest["flags"] = "id_only.csv"
    run_dir = tmp_path / "run"
    assert _score_all(data_dir, manifest, run_dir) == 1
    _assert_one_error_line(
        capsys, "id_only.csv: every row has is_id 1; AUROC and FPR95 need both classes\n")
    assert not run_dir.exists()


def _pool_manifest(tmp_path):
    # the synthetic dataset with prompt pools instead of prebuilt prototypes
    data_dir = _synth_dataset(tmp_path)
    pools = _write_pools(tmp_path, dim=16)
    manifest = json.loads((data_dir / "manifest.json").read_text())
    del manifest["prototypes"], manifest["prototype_classes"]
    manifest["prompt_pools"] = pools
    pool_manifest = data_dir / "pool_manifest.json"
    pool_manifest.write_text(json.dumps(manifest), encoding="utf-8")
    return pool_manifest


def test_pool_manifest_pipeline(tmp_path, monkeypatch):
    pool_manifest = _pool_manifest(tmp_path)
    run_dir = tmp_path / "pool_run"
    assert main(["score", "--manifest", str(pool_manifest), "--method", "gsp",
                 "--clusters", "3", "--out", str(run_dir)]) == 0
    assert (run_dir / "scores_gsp.npy").exists()

    # --method all makes the clustered and the mean prototype sets in one
    # pass over the pools, one graph and one propagation run per set, and
    # matches every single-method run byte for byte
    calls = _count_calls(monkeypatch, pipeline, "build_adjacency", "pool_prototypes")
    prop_calls = _count_calls(monkeypatch, propagation,
                              "normalize", "propagate", "select_pseudo_prompts")
    all_dir = tmp_path / "pool_all"
    assert main(["score", "--manifest", str(pool_manifest), "--method", "all",
                 "--clusters", "3", "--out", str(all_dir)]) == 0
    assert calls == {"build_adjacency": 2, "pool_prototypes": 1}
    assert prop_calls == {"normalize": 2, "propagate": 4, "select_pseudo_prompts": 2}
    for method in METHODS:
        one_dir = tmp_path / f"pool_{method}"
        assert main(["score", "--manifest", str(pool_manifest), "--method", method,
                     "--clusters", "3", "--out", str(one_dir)]) == 0
        assert ((all_dir / f"scores_{method}.npy").read_bytes()
                == (one_dir / f"scores_{method}.npy").read_bytes())


def test_pool_manifest_with_one_cluster_shares_one_set(tmp_path, monkeypatch):
    # --clusters 1: the clustered methods take the class means, so one set,
    # one graph and one propagation run serve every method
    pool_manifest = _pool_manifest(tmp_path)
    counts = []
    real = pipeline.pool_prototypes

    def spy(paths, clusters, *args):
        counts.append(set(clusters))
        return real(paths, clusters, *args)

    monkeypatch.setattr(pipeline, "pool_prototypes", spy)
    calls = _count_calls(monkeypatch, pipeline, "build_adjacency")
    run_dir = tmp_path / "run"
    assert main(["score", "--manifest", str(pool_manifest), "--method", "all",
                 "--clusters", "1", "--out", str(run_dir)]) == 0
    assert counts == [{1}]
    assert calls == {"build_adjacency": 1}
    read = {m: (run_dir / f"scores_{m}.npy").read_bytes() for m in METHODS}
    assert read["gsp"] == read["gsp_no_cluster"]
    assert read["gsp_no_neg"] == read["score_prop_only"]


@pytest.mark.parametrize("source", ["prompt_pools", "prototypes"])
def test_library_path_equals_score_all(tmp_path, source):
    # graphscore.score over graphscore.load_dataset is the path that
    # `score --method all` takes: the same score bytes and, apart from
    # timing_s, the same diagnostics
    manifest = (_pool_manifest(tmp_path) if source == "prompt_pools"
                else _labeled_dataset(tmp_path) / "manifest.json")
    run_dir = tmp_path / "run"
    assert main(["score", "--manifest", str(manifest), "--method", "all",
                 "--out", str(run_dir)]) == 0
    results = gs.score(gs.load_dataset(manifest), gs.RunConfig(method="all"))
    assert [method for method, _, _ in results] == list(METHODS)
    for method, scores, diag in results:
        save_vector(scores, tmp_path / "library.npy")
        assert ((tmp_path / "library.npy").read_bytes()
                == (run_dir / f"scores_{method}.npy").read_bytes()), method
        written = json.loads((run_dir / f"diagnostics_{method}.json").read_text())
        del written["timing_s"], diag["timing_s"]
        assert json.loads(json.dumps(diag)) == written, method


def test_pool_dimension_checked_at_load(tmp_path, capsys):
    # only the first pool file's header is read at load, and its dimension
    # fails there, before any pool pass or output directory
    rng = np.random.default_rng(1)
    for name, rows, dim in (("unlabeled", 10, 8), ("pool0", 5, 6), ("pool1", 5, 8)):
        matrix = rng.standard_normal((rows, dim))
        save_matrix(EmbeddingMatrix(matrix / np.linalg.norm(matrix, axis=1, keepdims=True)),
                    tmp_path / f"{name}.npy")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"unlabeled": "unlabeled.npy", "C_in": 2,
                                    "class_names": ["a", "b"],
                                    "prompt_pools": ["pool0.npy", "pool1.npy"]}))
    message = (f"{tmp_path / 'pool0.npy'}: dimension 6, but {tmp_path / 'unlabeled.npy'} "
               f"has dimension 8")
    with pytest.raises(ValueError) as exc:
        gs.load_dataset(manifest)
    assert str(exc.value) == message
    run_dir = tmp_path / "run"
    assert main(["score", "--manifest", str(manifest), "--method", "all",
                 "--out", str(run_dir)]) == 1
    _assert_one_error_line(capsys, f"{message}\n")
    assert not run_dir.exists()


def test_timing_total_is_the_sum_of_every_stage(tmp_path):
    # every method reports its stages the same way, cosine included, and the
    # one load, and with a pool manifest the one pool pass, are charged to
    # every method
    manifests = {"prototypes": _synth_dataset(tmp_path / "protos") / "manifest.json",
                 "pool": _pool_manifest(tmp_path / "pool")}
    for source, manifest in manifests.items():
        run_dir = tmp_path / f"run_{source}"
        assert main(["score", "--manifest", str(manifest), "--method", "all",
                     "--out", str(run_dir)]) == 0
        loads = set()
        for method in METHODS:
            timing = json.loads((run_dir / f"diagnostics_{method}.json").read_text())["timing_s"]
            total = timing.pop("total")
            assert abs(total - sum(timing.values())) <= 1e-12, (source, method)
            assert ("pool" in timing) == (source == "pool"), (source, method)
            loads.add(timing["load"])
            stage = {"cosine": "cosine", "manifold": "dijkstra"}.get(method, "normalize")
            assert stage in timing, (source, method)
        assert len(loads) == 1 and loads.pop() > 0.0, source


def _count_calls(monkeypatch, module, *names):
    """Count calls to functions that ``module`` defines or imported by name."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _fn=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return calls


def test_score_all_builds_one_graph_for_prebuilt_prototypes(tmp_path, monkeypatch):
    data_dir = _synth_dataset(tmp_path, seed=0)
    manifest = str(data_dir / "manifest.json")
    calls = _count_calls(monkeypatch, pipeline, "build_adjacency")
    prop_calls = _count_calls(monkeypatch, propagation,
                              "normalize", "propagate", "select_pseudo_prompts")
    run_dir = tmp_path / "run"
    assert main(["score", "--manifest", manifest, "--method", "all",
                 "--out", str(run_dir)]) == 0
    assert calls == {"build_adjacency": 1}
    # one normalize and both passes serve all four propagation methods
    assert prop_calls == {"normalize": 1, "propagate": 2, "select_pseudo_prompts": 1}
    # every graph method reports the one shared build
    diags = {m: json.loads((run_dir / f"diagnostics_{m}.json").read_text())
             for m in METHODS if m != "cosine"}
    builds = {d["timing_s"]["build_graph"] for d in diags.values()}
    assert len(builds) == 1 and builds.pop() > 0.0
    assert {m: d["config"]["self_train"] for m, d in diags.items() if m != "manifold"} == {
        "gsp": True, "gsp_no_cluster": True, "score_prop_only": False, "gsp_no_neg": False}
    # one prototype set: the self-trained pair and the pass-1 pair coincide
    read = {m: (run_dir / f"scores_{m}.npy").read_bytes() for m in METHODS}
    assert read["gsp"] == read["gsp_no_cluster"] != read["score_prop_only"] == read["gsp_no_neg"]
    for method in METHODS:
        one_dir = tmp_path / f"one_{method}"
        assert main(["score", "--manifest", manifest, "--method", method,
                     "--out", str(one_dir)]) == 0
        assert read[method] == (one_dir / f"scores_{method}.npy").read_bytes()


def test_diagnostics_hold_no_lists(tmp_path):
    def walk(value, path):
        assert not isinstance(value, list), f"list at {path}"
        if isinstance(value, dict):
            for key, item in value.items():
                walk(item, f"{path}.{key}")

    # the blob preset's 100 OOD nodes lie opposite the ID blobs, with no path to them
    for preset, unreachable in (("bridge_benchmark", 0), ("blob_benchmark", 100)):
        data_dir = _synth_dataset(tmp_path / preset, preset)
        run_dir = tmp_path / preset / "run"
        assert main(["score", "--manifest", str(data_dir / "manifest.json"),
                     "--method", "all", "--out", str(run_dir)]) == 0
        for method in METHODS:
            walk(json.loads((run_dir / f"diagnostics_{method}.json").read_text()), method)
        graph = json.loads((run_dir / "diagnostics_manifold.json").read_text())["graph"]
        zeros = int((load_vector(run_dir / "scores_manifold.npy") == 0.0).sum())
        assert graph["unreachable"] == zeros == unreachable, (preset, graph)


@pytest.mark.parametrize("flag, message", [(["--k", "0"], "k must be >= 1"),
                                           (["--alpha", "0"], "alpha must be in"),
                                           (["--tau", "0"], "tau must be positive"),
                                           (["--tau", "nan"], "tau must be positive"),
                                           (["--tau", "inf"], "tau must be positive"),
                                           (["--clusters", "0"], "clusters must be >= 1"),
                                           (["--seed", "-1"], "seed must be >= 0, got -1"),
                                           (["--tau", "nan"],
                                            "tau must be positive and finite, got nan\n"),
                                           (["--seed", "-1"], "seed must be >= 0, got -1\n")])
def test_bad_run_config_rejected_before_loading(tmp_path, capsys, flag, message):
    data_dir = _synth_dataset(tmp_path)
    run_dir = tmp_path / "run"
    assert main(["score", "--manifest", str(data_dir / "manifest.json"),
                 "--method", "cosine", *flag, "--out", str(run_dir)]) == 1
    _assert_one_error_line(capsys, message)
    assert not run_dir.exists()


def test_diagnostics_report_only_the_requested_k(tmp_path):
    data_dir = _synth_dataset(tmp_path, seed=0)
    run_dir = tmp_path / "run"
    with pytest.warns(UserWarning, match="clamping"):
        assert main(["score", "--manifest", str(data_dir / "manifest.json"),
                     "--method", "gsp", "--k", "500", "--out", str(run_dir)]) == 0
    text = (run_dir / "diagnostics_gsp.json").read_text()
    assert json.loads(text)["run_config"]["k"] == 500
    assert text.count('"k":') == 1


def test_unknown_method_rejected_by_parser(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["score", "--manifest", "x.json", "--method", "bogus"])
    assert exc.value.code == 2


def _assert_one_error_line(capsys, *names):
    # a name that ends in a newline must end the line
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    for name in names:
        assert name in err, (name, err)


@pytest.mark.parametrize("edit, key", [
    ({"C_in": None}, "'C_in'"),
    ({"C_in": "x"}, "'C_in'"),
    ({"unlabeled": 5}, "'unlabeled'"),
    ({"unlabeled": None}, "'unlabeled'"),
    ({"flags": ["a"]}, "'flags'"),
    ({"class_names": "ab"}, "'class_names'"),
    ({"class_names": ["a", 3]}, "'class_names[1]'"),
    ({"flag": "flags.csv"}, "'flag'"),
    ({"prototypes": None, "prototype_classes": None, "prompt_pools": ["a.npy", 7]},
     "'prompt_pools[1]'"),
    ({"C_in": 0, "class_names": [], "prototypes": None, "prototype_classes": None,
      "prompt_pools": []}, "'C_in'"),
    ({"prototypes": None, "prototype_classes": None, "prompt_pools": ["a.npy"]},
     "key 'prompt_pools' lists 1 files, but C_in is 2"),
    # the retired stacked pool: rejected before any file is read
    ({"pool_matrix": "pool.npy", "pool_boundaries": "pool_bounds.json"},
     "unknown manifest keys ['pool_boundaries', 'pool_matrix']"),
    ({"prototypes": None, "prototype_classes": None, "pool_matrix": "pool.npy",
      "pool_boundaries": "pool_bounds.json"},
     "edited_manifest.json: unknown manifest keys ['pool_boundaries', 'pool_matrix']\n"),
])
def test_bad_manifest_field_named_before_scoring(tmp_path, capsys, edit, key):
    data_dir = _synth_dataset(tmp_path)
    manifest = json.loads((data_dir / "manifest.json").read_text())
    manifest.update(edit)
    if "prototypes" in edit:
        del manifest["prototypes"], manifest["prototype_classes"]
    run_dir = tmp_path / "run"
    assert _score_all(data_dir, manifest, run_dir) == 1
    _assert_one_error_line(capsys, "edited_manifest.json", key)
    assert not run_dir.exists()


def _labeled_dataset(tmp_path):
    """The bridge preset with two labeled samples per class."""
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"preset": "bridge_benchmark", "labeled_per_class": 2}),
                         encoding="utf-8")
    data_dir = tmp_path / "data"
    assert main(["synth", "--spec", str(spec_path), "--out", str(data_dir)]) == 0
    return data_dir


def test_labeled_stands_alone_and_labels_key_is_rejected(tmp_path, capsys):
    data_dir = _labeled_dataset(tmp_path)
    manifest = json.loads((data_dir / "manifest.json").read_text())
    assert manifest["labeled"] == "labeled.npy" and "labels" not in manifest
    assert not (data_dir / "labels.csv").exists()
    assert _score_all(data_dir, manifest, tmp_path / "ok") == 0
    capsys.readouterr()
    # no labels.csv exists, so only a parse-time rejection can exit 1 here
    manifest["labels"] = "labels.csv"
    run_dir = tmp_path / "run"
    assert _score_all(data_dir, manifest, run_dir) == 1
    _assert_one_error_line(capsys, "edited_manifest.json: unknown manifest keys ['labels']\n")
    assert not run_dir.exists()


@pytest.mark.parametrize("name, row", [("unlabeled", 3), ("labeled", 2), ("prototypes", 1)])
def test_zero_norm_row_names_its_file(tmp_path, capsys, name, row):
    data_dir = _labeled_dataset(tmp_path)
    rows = np.load(data_dir / f"{name}.npy")
    rows[row] = 0.0
    save_matrix(EmbeddingMatrix(rows), data_dir / f"{name}.npy")
    capsys.readouterr()
    run_dir = tmp_path / "run"
    assert main(["score", "--manifest", str(data_dir / "manifest.json"), "--method", "all",
                 "--out", str(run_dir)]) == 1
    _assert_one_error_line(capsys, f"{name}.npy: zero-norm row {row}\n")
    assert not run_dir.exists()


@pytest.mark.parametrize("sidecar, text, names", [
    ("prototype_classes.json", '{"class_of": [0, 1.5]}', ["'class_of[1]'"]),
    ("prototype_classes.json", '{"class_of": null}', ["'class_of'"]),
    ("prototype_classes.json", '{"class_of": [0, 1],\n"clusters_per_clas": 1}',
     ["'clusters_per_clas'"]),
    ("prototype_classes.json", '{"class_of": [0, 1]\n"clusters_per_class": 1}',
     ["line 2 column 1"]),
    ("prototype_classes.json", '{"class_of": [0, 1, 1]}', ["map every prototype row"]),
    ("prototype_classes.json", '{"class_of": [0, -1]}', ["negative class id"]),
])
def test_bad_sidecar_named_before_scoring(tmp_path, capsys, sidecar, text, names):
    data_dir = _synth_dataset(tmp_path)
    manifest = json.loads((data_dir / "manifest.json").read_text())
    run_dir = tmp_path / "run"
    assert _score_all(data_dir, manifest, run_dir) == 0
    (data_dir / sidecar).write_text(text, encoding="utf-8")
    shutil.rmtree(run_dir)
    assert _score_all(data_dir, manifest, run_dir) == 1
    _assert_one_error_line(capsys, sidecar, *names)
    assert not run_dir.exists()


@pytest.mark.parametrize("method", ["cosine", "gsp"])
@pytest.mark.parametrize("source", ["labeled", "prototypes", "prompt_pools"])
def test_embedding_dim_checked_against_unlabeled(tmp_path, capsys, source, method):
    data_dir = _labeled_dataset(tmp_path)
    manifest = json.loads((data_dir / "manifest.json").read_text())
    if source in ("labeled", "prototypes"):
        rows = np.load(data_dir / f"{source}.npy")
        save_matrix(EmbeddingMatrix(np.hstack([rows, np.ones((len(rows), 4))])),
                    data_dir / f"{source}.npy")
        bad = f"{source}.npy"
    else:
        del manifest["prototypes"], manifest["prototype_classes"]
        manifest["prompt_pools"], bad = _write_pools(tmp_path, dim=20), "pool0.npy"
    path = data_dir / "edited_manifest.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    run_dir = tmp_path / "run"
    assert main(["score", "--manifest", str(path), "--method", method,
                 "--out", str(run_dir)]) == 1
    _assert_one_error_line(
        capsys, f"{bad}: dimension 20, but {data_dir / 'unlabeled.npy'} has dimension 16\n")
    assert not run_dir.exists()


@pytest.mark.parametrize("orphan, partner, edit", [
    ("prototypes", "prototype_classes", {"prototype_classes": None}),
    ("prototype_classes", "prototypes", {"prototypes": None, "prompt_pools": "pool*.npy"}),
])
def test_orphan_sidecar_rejected(tmp_path, capsys, orphan, partner, edit):
    data_dir = _synth_dataset(tmp_path)
    manifest = json.loads((data_dir / "manifest.json").read_text())
    if "prompt_pools" in edit:  # the pools stand in as the prototype source
        edit = {**edit, "prompt_pools": _write_pools(tmp_path, dim=16)}
    manifest = {key: v for key, v in {**manifest, **edit}.items() if v is not None}
    run_dir = tmp_path / "run"
    assert _score_all(data_dir, manifest, run_dir) == 1
    _assert_one_error_line(capsys, f"edited_manifest.json: {orphan} requires {partner}")
    assert not run_dir.exists()


@pytest.mark.parametrize("spec, key", [
    ({"preset": "bridge_benchmark", "bogus": 1}, "'bogus'"),
    ({"preset": "bridge_benchmark", "seed": 1.5}, "'seed'"),
    ({"preset": ["bridge_benchmark"]}, "'preset'"),
    ({"seed": "1"}, "'seed'"),
    ({"id_counts": [10, "a"]}, "'id_counts[1]'"),
    ({"preset": "bogus_benchmark"}, "unknown preset 'bogus_benchmark'"),
    # the bridged_chain geometry is fixed, so its four angle keys are retired
    ({"branch_deg": 60}, "unknown synth spec keys ['branch_deg']"),
    ({"chain_extent_deg": 90}, "unknown synth spec keys ['chain_extent_deg']"),
    ({"branch_gap_deg": 4}, "unknown synth spec keys ['branch_gap_deg']"),
    ({"ood_extent_deg": 30}, "unknown synth spec keys ['ood_extent_deg']"),
    # range errors name the spec file too
    ({"ood_count": 0}, "ood_count must be >= 1"),
    ({"seed": -1}, "seed must be >= 0, got -1"),
    ({"preset": "bridge_benchmark", "seed": -1}, "seed must be >= 0, got -1"),
    ({"dim": 3}, "dim too small"),
    ({"shape": "ring"}, "unknown shape 'ring'"),
    ({"shape": "bridged_chain", "branch_deg": 60},
     "spec.json: unknown synth spec keys ['branch_deg']\n"),
    ({"seed": -1}, "spec.json: seed must be >= 0, got -1\n"),
    ({"labeled_per_class": -1}, "labeled_per_class must be >= 0"),
])
def test_bad_synth_spec_key_named(tmp_path, capsys, spec, key):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    assert main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "d")]) == 1
    _assert_one_error_line(capsys, "spec.json", key)
    assert not (tmp_path / "d").exists()


def test_explicit_synth_spec_equals_its_preset(tmp_path):
    preset = _synth_dataset(tmp_path / "preset", seed=5)
    spec = asdict(bridge_benchmark_spec(seed=5))
    spec["id_counts"] = list(spec["id_counts"])
    spec_path = tmp_path / "explicit.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    assert main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "explicit")]) == 0
    for name in ("unlabeled.npy", "prototypes.npy", "flags.csv", "manifest.json"):
        assert (preset / name).read_bytes() == (tmp_path / "explicit" / name).read_bytes()


@pytest.mark.parametrize("command, config, key", [
    ("eval", {"scores": "s.npy", "flags": "f.csv"}, "'scores'"),
    ("eval", {"scores": ["s.npy"], "flags": "f.csv", "names": [1]}, "'names[0]'"),
    ("eval", {"scores": ["s.npy"], "flags": "f.csv", "out": 5}, "'out'"),
    ("synth", {"spec": 3}, "'spec'"),
    ("cluster-prompts", {"pools": "p.npy"}, "'pools'"),
    ("cluster-prompts", {"pools": ["p.npy"], "clusters": [2, 2.5]}, "'clusters[1]'"),
    ("cluster-prompts", {"pools": ["p.npy"], "out": None}, "'out'"),
    ("cluster-prompts", {"pools": ["p.npy"], "clusters": []}, "'clusters'"),
    ("score", {"manifest": "m.json", "k": 0}, "k must be >= 1, got 0"),
    ("cluster-prompts", {"pools": ["p.npy"], "clusters": [0]}, "clusters must be >= 1, got [0]"),
    ("cluster-prompts", {"pools": ["p.npy"], "seed": -2}, "seed must be >= 0, got -2"),
    ("score", {"manifest": "m.json", "tau": float("inf")},
     "run.json: key 'tau' must be a finite number, got Infinity\n"),
    ("cluster-prompts", {"pools": ["p.npy"], "clusters": []},
     "run.json: key 'clusters' must list at least one entry\n"),
    ("score", {"manifest": "m.json", "k": 0}, "run.json: k must be >= 1, got 0\n"),
    ("score", {"manifest": "m.json", "method": "nope"}, "unknown method 'nope'"),
    ("score", ["m.json"], "expected a JSON object, got list"),
    ("eval", {"scores": [], "flags": "f.csv"},
     "run.json: key 'scores' must list at least one entry\n"),
    ("eval", {"scores": ["s.npy"], "flags": "f.csv", "names": []},
     "run.json: key 'names' must list at least one entry\n"),
    ("cluster-prompts", {"pools": []}, "run.json: key 'pools' must list at least one entry\n"),
])
def test_bad_config_value_named_for_every_command(tmp_path, capsys, command, config, key):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"  # a config file's own 'out' is the value under test
    assert main([command, "--config", str(cfg_path),
                 *([] if "out" in config else ["--out", str(out)])]) == 1
    _assert_one_error_line(capsys, "run.json", key)
    assert not out.exists()


@pytest.mark.parametrize("argv, rc, names", [
    (["score"], 2, ["--manifest"]),
    (["eval"], 1, ["--scores", "--flags"]),
    (["synth"], 1, ["--spec"]),
    (["cluster-prompts"], 1, ["--pools"]),
    (["cluster-prompts", "--pools", "p.npy", "--clusters", "3", "0"], 1,
     ["clusters must be >= 1"]),
    (["cluster-prompts", "--pools", "p.npy", "--seed", "-1"], 1, ["seed must be >= 0, got -1"]),
    (["eval", "--scores", "{tmp}/s.npy", "{tmp}/s.npy", "--names", "a", "--flags",
      "{tmp}/flags.csv"], 1, ["--names", "--scores"]),
    (["eval", "--scores", "{tmp}/nan.npy", "--flags", "{tmp}/flags.csv"], 1,
     ["nan.npy: entry 2 is non-finite"]),
    (["eval", "--scores", "{tmp}/s.npy", "--flags", "{tmp}/bad_utf8.csv"], 1,
     ["bad_utf8.csv: not UTF-8 text (byte 18)\n"]),
])
def test_bad_command_line_named_before_writing(tmp_path, capsys, argv, rc, names):
    save_flags([True, False, True], tmp_path / "flags.csv")
    (tmp_path / "bad_utf8.csv").write_bytes(b"index,is_id\n0,1\n1,\xff\n2,1\n")
    save_vector([0.3, 0.1, 0.2], tmp_path / "s.npy")
    np.save(tmp_path / "nan.npy", np.array([0.3, 0.1, np.nan]))
    out = tmp_path / "out"
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert main([*argv, "--out", str(out)]) == rc
    _assert_one_error_line(capsys, *names)
    assert not out.exists()


# the streamed pool pass -------------------------------------------------

def _pool_dataset(tmp_path, n_classes=5, templates=6, dim=16, dtype="<f8"):
    """The bridge preset scored against ``n_classes`` raw (unnormalized) pool
    files, in ``prompt_pools`` order; the pass runs in blocks of two classes."""
    data_dir = _synth_dataset(tmp_path)
    rng = np.random.default_rng(4)
    styles = rng.standard_normal((n_classes, dim))
    pools = []
    for c in range(n_classes):
        rows = styles[c] + 0.6 * rng.standard_normal((templates, dim))
        pools.append(data_dir / f"pool{c}.npy")
        np.save(pools[-1], rows.astype(dtype))
    manifest = json.loads((data_dir / "manifest.json").read_text())
    del manifest["prototypes"], manifest["prototype_classes"]
    manifest.update(C_in=n_classes, class_names=[f"c{c}" for c in range(n_classes)],
                    prompt_pools=[p.name for p in pools])
    path = data_dir / "pool_manifest.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    return path, pools


def _two_class_blocks(monkeypatch, templates=6, dim=16):
    monkeypatch.setattr(prompts, "LLOYD_BLOCK_BYTES", 2 * templates * dim * 8)


@pytest.mark.parametrize("dtype", ["<f8", "<f4"])
def test_cluster_prompts_values_together_equal_apart(tmp_path, monkeypatch, dtype):
    # five classes in blocks of two: three blocks, the last holding one class
    _, pools = _pool_dataset(tmp_path, dtype=dtype)
    _two_class_blocks(monkeypatch)
    pools = [str(p) for p in pools]
    run = {}
    for values in (["1", "3"], ["1"], ["3"]):
        run[tuple(values)] = out = tmp_path / "_".join(values)
        assert main(["cluster-prompts", "--pools", *pools, "--clusters", *values,
                     "--seed", "2", "--out", str(out)]) == 0
    for n_c in ("1", "3"):
        for stem in ("prototypes", "prototype_classes"):
            ext = ".npy" if stem == "prototypes" else ".json"
            assert ((run["1", "3"] / f"{stem}_nc{n_c}{ext}").read_bytes()
                    == (run[n_c, ] / f"{stem}{ext}").read_bytes())
    # and the bits of the per-class reference on the normalized stack
    stack = _normalized(pools)
    for n_c, expected in ((1, _ref_means(stack)), (3, _ref_cluster(stack, 3, 2))):
        got = np.load(run["1", "3"] / f"prototypes_nc{n_c}.npy")
        assert got.tobytes() == expected.tobytes()


def _route_last_file(monkeypatch, pools, reader):
    """Make the ``reader`` thread ("caller" or "worker") read the last pool
    file: each thread holds one block at a time, so once each is reading its
    first block the reader waits for the other to be reading, and the other
    waits until the last file is read. Returns the threads that read it."""
    caller, real = threading.current_thread(), prompts.read_npy
    other_reading, last_read, readers = threading.Event(), threading.Event(), []

    def spy(path, rank, slot=None):
        if Path(path) != pools[0]:  # read by the caller before the pass
            if (threading.current_thread() is caller) == (reader == "caller"):
                other_reading.wait(timeout=10)
            else:
                other_reading.set()
                last_read.wait(timeout=10)
        try:
            return real(path, rank, slot)
        finally:
            if Path(path) == pools[-1]:
                readers.append(threading.current_thread())
                last_read.set()

    monkeypatch.setattr(prompts, "read_npy", spy)
    return readers


_POOL_FAULTS = {
    "nan_row": "non-finite norm in row 2",
    "zero_row": "zero-norm row 1",
    "truncated": "truncated payload (760 of 768 bytes)",
    "shape": "shape (7, 16) differs from {first}: (6, 16)",
    # only the first file's dimension is checked; every later file must have its shape
    "dimension": "shape (6, 20) differs from {first}: (6, 16)",
}


@pytest.mark.parametrize("reader", ["caller", "worker"])
@pytest.mark.parametrize("fault", sorted(_POOL_FAULTS))
@pytest.mark.parametrize("command", ["score", "cluster-prompts"])
def test_pool_fault_in_last_block_names_its_file(tmp_path, monkeypatch, capsys, command,
                                                 fault, reader):
    manifest, pools = _pool_dataset(tmp_path)
    _two_class_blocks(monkeypatch)
    last, rows = pools[-1], np.load(pools[-1])
    if fault == "nan_row":
        rows[2, 3] = np.nan
    elif fault == "zero_row":
        rows[1] = 0.0
    elif fault == "shape":
        rows = np.vstack([rows, rows[:1]])
    elif fault == "dimension":
        rows = np.hstack([rows, np.ones((len(rows), 4))])
    np.save(last, rows)
    if fault == "truncated":
        last.write_bytes(last.read_bytes()[:-8])
    message = _POOL_FAULTS[fault].format(first=pools[0])
    readers = _route_last_file(monkeypatch, pools, reader)
    before = threading.active_count()
    out = tmp_path / "out"
    if command == "score":
        argv = ["score", "--manifest", str(manifest), "--method", "all", "--clusters", "3"]
    else:
        argv = ["cluster-prompts", "--pools", *map(str, pools), "--clusters", "1", "3"]
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {last}: {message}\n"
    assert len(readers) == 1
    assert (readers[0] is threading.current_thread()) == (reader == "caller")
    assert threading.active_count() == before
    assert not out.exists()


def test_each_pool_file_is_opened_once(tmp_path, monkeypatch):
    manifest, pools = _pool_dataset(tmp_path)
    _two_class_blocks(monkeypatch)
    opened = []

    def counting_open(path, *args, **kwargs):
        opened.append(Path(path))
        return open(path, *args, **kwargs)

    monkeypatch.setattr(store, "open", counting_open, raising=False)
    for argv in (["score", "--manifest", str(manifest), "--method", "all", "--clusters", "3"],
                 ["cluster-prompts", "--pools", *map(str, pools), "--clusters", "1", "3"]):
        opened.clear()
        assert main([*argv, "--out", str(tmp_path / argv[0])]) == 0
        # the pool pass opens each file once; score's load opens the first
        # one before it, for its header alone
        expected = sorted(pools[:1] + pools) if argv[0] == "score" else pools
        assert sorted(p for p in opened if p in pools) == expected, argv[0]
