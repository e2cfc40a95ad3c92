"""Byte identity, load errors and page faults where the KNN build runs several
512-row strips and skips tiles, and K-means runs in 8 MB blocks on two threads;
and a quality rung on which every method's AUROC can still fall. A check that
needs a process setting (BLAS threads, one core, page faults) runs in a child
process with ``PYTHONPATH`` at ``src`` and the setting in its environment, as
OpenBLAS reads its thread count once, at import."""

import functools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from graphscore.cli import main
from graphscore.store import save_flags

REPO = Path(__file__).resolve().parents[1]
# bridged_chain at d = 16, seed 0: ID, OOD and labeled counts, and a file's least rows
_SPECS = {
    # 1,200 unlabeled nodes span three 512-row strips of the KNN build
    "strips": ([500, 400], 300, 4, "unlabeled", 1100),
    # 2,900 unlabeled nodes in six blocks along the chain: the cap bound skips tiles
    "skip": ([1200, 1000], 700, 0, "unlabeled", 2560),
    # 600 labeled rows in two strips, each one product as wide as the corpus
    "labstrips": ([1200, 1000], 700, 300, "labeled", 512),
}
# a child's environment and command prefix; unset, OpenBLAS takes a thread per usable core
_SETTINGS = {"blas1": ({"OPENBLAS_NUM_THREADS": "1"}, []),
             "blas2": ({"OPENBLAS_NUM_THREADS": "2"}, []),
             "one_core": ({}, ["taskset", "-c", "0"])}


def _start(*argv, setting="blas1", module=("-m", "graphscore.cli")):
    """Start ``python -m graphscore.cli argv`` (``python argv`` with no ``module``)."""
    env, prefix = _SETTINGS[setting]
    base = {key: v for key, v in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    return subprocess.Popen([*prefix, sys.executable, *module, *map(str, argv)],
                            env={**base, "PYTHONPATH": str(REPO / "src"), **env},
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def _wait(*children):
    """The stdout of each started child, once every one has exited zero."""
    try:
        done = [child.communicate(timeout=300) for child in children]
    finally:
        for child in children:
            child.kill()
    for child, (_, stderr) in zip(children, done):
        assert child.returncode == 0, stderr
    return [stdout for stdout, _ in done]


def _child(*argv, **options):
    """The stdout of one child process that :func:`_start` starts."""
    return _wait(_start(*argv, **options))[0]


def _write_pools(out):
    # 70 classes of 80 x 512 float64 templates span three 8 MB K-means blocks
    out.mkdir()
    rng = np.random.default_rng(0)
    styles, pools = rng.standard_normal((70, 512)), [f"pool{c:02d}.npy" for c in range(70)]
    for c, name in enumerate(pools):
        np.save(out / name, styles[c] + 0.5 * rng.standard_normal((80, 512)))
    ood = rng.standard_normal((50, 512))
    near = styles[rng.integers(70, size=150)] + 0.8 * rng.standard_normal((150, 512))
    np.save(out / "unlabeled.npy", np.vstack([near, ood]))
    save_flags(np.arange(200) < 150, out / "flags.csv")
    (out / "manifest.json").write_text(json.dumps({
        "unlabeled": "unlabeled.npy", "flags": "flags.csv", "C_in": 70,
        "class_names": [f"c{c}" for c in range(70)], "prompt_pools": pools}))


@pytest.fixture(scope="session")
def root(tmp_path_factory):
    """The session's directory of datasets and child runs."""
    return tmp_path_factory.mktemp("scale")


@functools.cache
def _dataset(root, name):
    """A spec above, ``"pools"`` or ``"batches"`` (benchmark ``batches_256`` s0), built once."""
    out = root / name
    if name == "pools":
        _write_pools(out)
    elif name == "batches":
        _child(REPO / "gsbench" / "inputs.py", "--workload", "batches_256", "--seed", "0",
               "--root", out, module=())
        return out / "batches_256-s0" / "data"
    else:
        ids, ood, lab, matrix, rows = _SPECS[name]
        spec = {"shape": "bridged_chain", "dim": 16, "seed": 0, "id_counts": ids,
                "ood_count": ood, "labeled_per_class": lab}
        (root / f"{name}.json").write_text(json.dumps(spec))
        assert main(["synth", "--spec", str(root / f"{name}.json"), "--out", str(out)]) == 0
        assert np.load(out / f"{matrix}.npy").shape[0] > rows
    return out


def _child_runs(root, name, *settings):
    """``score --method all`` on dataset ``name`` in a child process under
    each setting, the runs not yet made started together."""
    manifest = _dataset(root, name) / "manifest.json"
    outs = [root / f"{name}_{setting}" for setting in settings]
    _wait(*[_start("score", "--manifest", manifest, "--method", "all", "--out", out, setting=s)
            for s, out in zip(settings, outs) if not out.exists()])
    return outs


def _score_all(manifest, out):
    assert main(["score", "--manifest", str(manifest), "--method", "all", "--out", str(out)]) == 0
    return out


def _assert_same_files(a, b, count=6, pattern="scores_*.npy", extra=("ablation.csv",)):
    names = sorted(p.name for p in a.glob(pattern))
    assert len(names) == count, names
    for name in [*names, *extra]:
        assert (a / name).read_bytes() == (b / name).read_bytes(), (b.name, name)


def _assert_rejected(capsys, argv, out, message):
    capsys.readouterr()
    assert main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("name", ["strips", "pools"])
def test_rerun_byte_identical(root, tmp_path, name):
    manifest = _dataset(root, name) / "manifest.json"
    _assert_same_files(_score_all(manifest, tmp_path / "a"), _score_all(manifest, tmp_path / "b"))


@pytest.mark.parametrize("name", ["strips", "skip", "pools"])
def test_scores_equal_across_blas_threads(root, name):
    # neither the BLAS thread count nor the thread that runs a strip or block may move a bit
    one, two = _child_runs(root, name, "blas1", "blas2")
    _assert_same_files(one, two)
    for out in (one, two) if name == "skip" else ():
        tiles = json.loads((out / "diagnostics_gsp.json").read_text())["graph"]["knn_tiles"]
        assert tiles["skipped"] > 0, tiles


@pytest.mark.skipif(shutil.which("taskset") is None,
                    reason="taskset is absent, so no run can be pinned to one core")
@pytest.mark.parametrize("name", ["skip", "labstrips"])
def test_scores_equal_with_both_threads_on_one_core(root, name):
    # pinned to one core, the two threads interleave their pieces in another order
    _assert_same_files(*_child_runs(root, name, "blas2", "one_core"))


def test_prompt_clustering_byte_identical(root, tmp_path):
    # 40 pools of 12 x 16 fit one block, which the calling thread reduces alone
    rng, small = np.random.default_rng(0), [str(tmp_path / f"small{c:02d}.npy") for c in range(40)]
    for path in small:
        np.save(path, rng.standard_normal((12, 16)))
    for out in ("small_a", "small_b"):
        assert main(["cluster-prompts", "--pools", *small, "--clusters", "1", "3", "--seed", "0",
                     "--out", str(tmp_path / out)]) == 0
    _assert_same_files(tmp_path / "small_a", tmp_path / "small_b", 4, "*", ())
    pools = sorted(map(str, _dataset(root, "pools").glob("pool*.npy")))
    runs = ("blas1a", "blas1b", "blas2a", "blas2b")
    _wait(*[_start("cluster-prompts", "--pools", *pools, "--clusters", "1", "3", "--seed", "0",
                   "--out", tmp_path / out, setting=out[:-1]) for out in runs])
    for out in runs:
        _assert_same_files(tmp_path / "blas1a", tmp_path / out, 4, "*", ())
    # K-means hands each block buffer back unchanged, so counts together equal counts apart
    for counts in (["1", "2", "3", "5"], ["2"], ["5"]):
        assert main(["cluster-prompts", "--pools", *pools, "--clusters", *counts, "--seed", "0",
                     "--out", str(tmp_path / "_".join(counts))]) == 0
    for n_c in ("2", "5"):
        for name in ("prototypes{}.npy", "prototype_classes{}.json"):
            assert ((tmp_path / "1_2_3_5" / name.format(f"_nc{n_c}")).read_bytes()
                    == (tmp_path / n_c / name.format("")).read_bytes()), (n_c, name)


def test_float32_file_scores_as_its_widened_values(root, tmp_path, capsys):
    # the 2,900-row unlabeled.npy saved as float32 is widened and normalized
    # chunk by chunk on load: a float64 file of the same widened values gives
    # the same bytes, and a NaN row is named
    wide = np.load(_dataset(root, "skip") / "unlabeled.npy").astype(np.float32)
    for kind, rows in (("f32", wide), ("f64", wide.astype(np.float64))):
        shutil.copytree(_dataset(root, "skip"), tmp_path / kind)
        np.save(tmp_path / kind / "unlabeled.npy", rows)
        _score_all(tmp_path / kind / "manifest.json", tmp_path / f"wide_{kind}")
    _assert_same_files(tmp_path / "wide_f32", tmp_path / "wide_f64")
    wide[2000] = np.nan
    np.save(tmp_path / "f32" / "unlabeled.npy", wide)
    _assert_rejected(capsys, ["score", "--manifest", str(tmp_path / "f32" / "manifest.json"),
                              "--method", "all"], tmp_path / "nan_run",
                     f"{tmp_path / 'f32' / 'unlabeled.npy'}: non-finite norm in row 2000")


@pytest.mark.parametrize("command", ["score", "cluster-prompts"])
def test_pool_fault_in_last_of_three_blocks_names_its_file(root, tmp_path, capsys, command):
    # the pass reads each block's files as it goes, so a NaN row in the last
    # file is found after the first blocks are reduced, on either thread
    pools = shutil.copytree(_dataset(root, "pools"), tmp_path / "nanpool")
    rows = np.load(pools / "pool69.npy")
    rows[5, 7] = np.nan
    np.save(pools / "pool69.npy", rows)
    argv = (["score", "--manifest", str(pools / "manifest.json"), "--method", "all"]
            if command == "score" else ["cluster-prompts", "--pools", *sorted(
                map(str, pools.glob("pool*.npy"))), "--clusters", "1", "3", "--seed", "0"])
    _assert_rejected(capsys, argv, tmp_path / "out",
                     f"{pools / 'pool69.npy'}: non-finite norm in row 5")


_FAULTS = """
import json, resource, shutil, sys
from pathlib import Path
from graphscore.cli import main
batches, out = sorted(Path(sys.argv[1]).glob("batch*")), sys.argv[2]
for warm_up in (True, False):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for d in batches:
        assert main(["score", "--manifest", str(d / "manifest.json"), "--method", "gsp",
                     "--out", out]) == 0
        shutil.rmtree(out)
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(json.dumps([len(batches), faults / len(batches)]))
"""


def test_small_calls_take_no_page_faults(root, tmp_path):
    # one BLAS thread, as in the benchmark: with two, glibc trims the heap top
    # lower and a 256-node call still takes about 445 faults
    stdout = _child("-c", _FAULTS, _dataset(root, "batches"), tmp_path / "run", module=())
    count, per_call = json.loads(stdout.splitlines()[-1])
    assert count == 64 and per_call < 64, per_call


def test_small_calls_take_no_page_faults_with_two_blas_threads(root, tmp_path):
    # with two BLAS threads glibc trimmed the heap top after every call, so
    # each faulted about 450 pages back in, until graph's import freed an
    # 8 MiB block, which raises the mmap and trim thresholds
    stdout = _child("-c", _FAULTS, _dataset(root, "batches"), tmp_path / "run", module=(),
                    setting="blas2")
    count, per_call = json.loads(stdout.splitlines()[-1])
    assert count == 64 and per_call < 64, per_call


_FOOTPRINT = """
import json, sys
from pathlib import Path
mode, data, out = sys.argv[1], Path(sys.argv[2]), Path(sys.argv[3])
if mode == "blocked":
    class NoScipy:  # every scipy import fails, as where scipy is not installed
        def find_spec(self, name, path=None, target=None):
            if name.partition(".")[0] == "scipy":
                raise ModuleNotFoundError(f"No module named {name!r}")
    sys.meta_path.insert(0, NoScipy())
import graphscore
from graphscore.cli import main

def loaded():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "scipy" or m == "numpy.random")

report = {"import": loaded()}
assert main(["score", "--manifest", str(data / "manifest.json"), "--method", "all",
             "--out", str(out / "all")]) == 0
report["score"] = loaded()
if mode == "blocked":
    (out / "spec.json").write_text('{"preset": "bridge_benchmark", "seed": 0}')
    for argv in (["synth", "--spec", out / "spec.json", "--out", out / "synth"],
                 ["score", "--manifest", out / "synth" / "manifest.json", "--method", "all",
                  "--out", out / "synth_all"],
                 ["eval", "--scores", out / "all" / "scores_gsp.npy", "--names", "gsp",
                  "--flags", data / "flags.csv", "--out", out / "eval"],
                 ["cluster-prompts", "--pools", data / "unlabeled.npy", data / "unlabeled.npy",
                  "--clusters", "1", "3", "--out", out / "protos"]):
        assert main([str(a) for a in argv]) == 0, argv
print(json.dumps(report))
"""


def test_score_all_loads_no_scipy_linalg(root, tmp_path):
    # scipy is a test dependency only: importing graphscore and scoring every
    # method on pre-built prototypes load no scipy module, nor numpy.random
    # (about 6 MB of RSS; only K-means seeding and synth need it), and with
    # every scipy import failing, each command still runs
    modes = ("open", "blocked")
    for mode in modes:
        (tmp_path / mode).mkdir()
    reports = _wait(*[_start("-c", _FOOTPRINT, mode, _dataset(root, "strips"), tmp_path / mode,
                             module=()) for mode in modes])
    for stdout in reports:
        assert json.loads(stdout.splitlines()[-1]) == {"import": [], "score": []}
    assert (tmp_path / "blocked" / "protos" / "prototypes_nc3.npy").exists()


def test_reachable_ood_rung_ranks_methods_as_the_paper_claims(tmp_path):
    # a bridged chain at d = 512 whose chain noise, 10x the benchmark's, lets
    # a source reach every OOD node, so no method scores 1.000 at either depth:
    # propagation beats cosine, and self-training beats propagation alone
    scale = np.sqrt(15 / 511)
    spec = {"shape": "bridged_chain", "dim": 512, "id_counts": [1200, 1000], "ood_count": 700,
            "labeled_per_class": 0, "seed": 1, "spread": 0.08 * scale,
            "proto_jitter": 0.02 * scale, "chain_noise": 0.5 * scale}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    data = tmp_path / "data"
    assert main(["synth", "--spec", str(tmp_path / "spec.json"), "--out", str(data)]) == 0
    for iters in ("5", "40"):
        out = tmp_path / f"iters{iters}"
        assert main(["score", "--manifest", str(data / "manifest.json"), "--method", "all",
                     "--iters", iters, "--out", str(out)]) == 0
        graph = json.loads((out / "diagnostics_manifold.json").read_text())["graph"]
        assert graph["unreachable"] == 0, graph
        rows = (out / "ablation.csv").read_text().splitlines()[1:]
        auroc = {method: float(value) for method, value, _ in (row.split(",") for row in rows)}
        gated = {m: auroc[m] for m in ("gsp", "score_prop_only", "manifold", "cosine")}
        assert all(0.5 < value < 1.0 for value in gated.values()), (iters, gated)
        assert gated["gsp"] == max(auroc.values()), (iters, auroc)
        assert gated["gsp"] > max(gated["score_prop_only"], gated["manifold"], gated["cosine"])
        assert gated["score_prop_only"] > gated["cosine"], (iters, gated)
