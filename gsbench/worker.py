"""The measuring process: imports graphscore, warms up, then calls
``graphscore.cli.main(["score", ...])`` in a closed loop with one client.

It never generates inputs, so its peak RSS is that of scoring alone. Every
call, the warm-up included, is checked:

* the call returns 0 and writes one finite score per unlabeled node for
  each method it ran;
* each method's scores are byte-identical to the first call on the same
  dataset in this run;
* AUROC and FPR95, recomputed here from the scores, equal the reference in
  ``reference.json`` when it has one for this workload and seed, and agree
  with the ``ablation.csv`` the call wrote.

A call that raises or fails a check counts as failed; none is dropped.
With ``--trace 1`` untraced and traced calls alternate, and the result
holds the per-layer table from :mod:`tracer` plus the tracing overhead.
"""

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
METHODS_ALL = ("gsp", "cosine", "manifold", "score_prop_only", "gsp_no_cluster", "gsp_no_neg")
# AUROC and FPR95 are ratios of integer counts, so a reproduced value is
# exact up to float rounding; ablation.csv rounds to 6 decimals
REF_TOL = 1e-12
CSV_TOL = 5e-7 + 1e-12
MAX_LOGGED_FAILURES = 20


def _import_cli():
    sys.path.insert(0, str(SRC))
    import graphscore.cli

    if not Path(graphscore.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"graphscore imported from {graphscore.cli.__file__}, not {SRC}")
    return graphscore.cli


@dataclass
class Dataset:
    manifest: Path
    is_id: np.ndarray
    reference: dict  # method -> [auroc, fpr95], empty when none is recorded


def _flags(path: Path) -> np.ndarray:
    rows = np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)
    if not np.array_equal(rows[:, 0], np.arange(len(rows))):
        raise ValueError(f"{path}: rows out of order")
    return rows[:, 1].astype(bool)


def load_datasets(workload: str, data: Path, seed: int):
    refs = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    refs = refs.get(workload, {}).get(str(seed), [])
    if workload == "batches_256":
        dirs = sorted(p for p in data.iterdir() if p.name.startswith("batch"))
        methods = ("gsp",)
    else:
        dirs = [data]
        methods = METHODS_ALL
    datasets = [Dataset(d / "manifest.json", _flags(d / "flags.csv"),
                        refs[i] if i < len(refs) else {})
                for i, d in enumerate(dirs)]
    return datasets, methods


def auroc(scores: np.ndarray, is_id: np.ndarray) -> float:
    """Mann-Whitney AUROC from average ranks; ties count one half."""
    order = np.argsort(scores, kind="mergesort")
    s = scores[order]
    starts = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
    ends = np.r_[starts[1:], s.size]
    avg_rank = (starts + ends + 1) / 2.0  # 1-based ranks, averaged over ties
    ranks = np.empty(s.size)
    ranks[order] = np.repeat(avg_rank, ends - starts)
    n_id = int(is_id.sum())
    n_ood = is_id.size - n_id
    return (ranks[is_id].sum() - n_id * (n_id + 1) / 2.0) / (n_id * n_ood)


def fpr95(scores: np.ndarray, is_id: np.ndarray) -> float:
    """OOD share at or above the highest threshold keeping 95% of ID."""
    id_sorted = np.sort(scores[is_id])[::-1]
    keep = int(np.ceil(0.95 * id_sorted.size - 1e-9))
    return float(np.mean(scores[~is_id] >= id_sorted[keep - 1]))


class Checker:
    """Checks one call's output directory and remembers first-call bytes."""

    def __init__(self, methods):
        self.methods = methods
        self.first = {}
        self.quality = {}  # (dataset index, method) -> (auroc, fpr95)

    def check(self, idx: int, ds: Dataset, out: Path) -> list:
        problems = []
        for m in self.methods:
            path = out / f"scores_{m}.npy"
            if not path.exists():
                problems.append(f"{m}: no scores file")
                continue
            raw = path.read_bytes()
            scores = np.load(path, allow_pickle=False)
            if scores.shape != ds.is_id.shape:
                problems.append(f"{m}: {scores.shape} scores for {ds.is_id.size} nodes")
                continue
            if not np.isfinite(scores).all():
                problems.append(f"{m}: non-finite scores")
                continue
            if self.first.setdefault((idx, m), raw) != raw:
                problems.append(f"{m}: scores differ from this run's first call")
            quality = (auroc(scores, ds.is_id), fpr95(scores, ds.is_id))
            self.quality.setdefault((idx, m), quality)
            ref = ds.reference.get(m)
            if ref is not None and not np.allclose(quality, ref, rtol=0, atol=REF_TOL):
                problems.append(f"{m}: auroc/fpr95 {quality} != reference {tuple(ref)}")
        if len(self.methods) > 1:
            problems += self._check_csv(idx, out / "ablation.csv")
        return problems

    def _check_csv(self, idx: int, path: Path) -> list:
        if not path.exists():
            return ["no ablation.csv"]
        lines = path.read_text(encoding="utf-8").split()
        rows = {m: (float(a), float(f)) for m, a, f in (line.split(",") for line in lines[1:])}
        problems = []
        for m in self.methods:
            q = self.quality.get((idx, m))
            if q is None:
                continue
            if m not in rows or not np.allclose(rows[m], q, rtol=0, atol=CSV_TOL):
                problems.append(f"ablation.csv {m}: {rows.get(m)} != {q}")
        return problems


def _tail(times: list) -> dict:
    """The 95th percentile, or the highest percentile below it that still
    has at least ten calls above it; the maximum when a run has fewer than
    eleven calls. Percentiles above the 95th moved by more than the 0.25
    bound between runs on a shared 2-CPU machine."""
    ordered = sorted(times)
    n = len(ordered)
    idx = n - 1 if n < 11 else min(math.ceil(0.95 * n) - 1, n - 11)
    return {"value": ordered[idx], "percentile": 100.0 * (idx + 1) / n, "calls": n,
            "beyond": n - 1 - idx}


def _environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def run(args, cli) -> dict:
    from tracer import Tracer

    datasets, methods = load_datasets(args.workload, args.data, args.seed)
    method_arg = "all" if len(methods) > 1 else methods[0]
    checker = Checker(methods)
    tracer = Tracer() if args.trace else None
    out = args.out
    attempted = failed = 0
    failures = []
    record = {"untraced": [], "traced": []}
    diag_bytes, out_bytes = [], []

    def call(idx: int, traced: bool):
        nonlocal attempted, failed
        ds = datasets[idx]
        shutil.rmtree(out, ignore_errors=True)
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            rc = cli.main(["score", "--manifest", str(ds.manifest), "--method", method_arg,
                           "--out", str(out)])
            problems = [] if rc == 0 else [f"exit code {rc}"]
        except Exception as exc:  # a raising call is a failed operation, not a crash
            problems = [f"raised {exc!r}"]
        dt = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
        if not problems:
            problems = checker.check(idx, ds, out)
        attempted += 1
        if problems:
            failed += 1
            if len(failures) < MAX_LOGGED_FAILURES:
                failures.append(f"{ds.manifest.parent.name}: {'; '.join(problems)}")
        files = list(out.glob("*")) if out.exists() else []
        out_bytes.append(sum(f.stat().st_size for f in files))
        if traced:
            diag_bytes.append(sum(f.stat().st_size for f in files
                                  if f.name.startswith("diagnostics_")))
        return dt

    warmup_s = call(0, False)
    n = len(datasets)
    start = time.perf_counter()
    i = 0
    while True:
        done_pass = i >= (2 * n if args.trace else n)
        if done_pass and time.perf_counter() - start >= args.seconds:
            break
        traced = bool(args.trace) and i % 2 == 1
        idx = (i // 2 if args.trace else i) % n
        record["traced" if traced else "untraced"].append(
            (call(idx, traced), datasets[idx].is_id.size * len(methods)))
        i += 1

    times = [t for t, _ in record["untraced"]]
    # deterministic quality: per-dataset values averaged over the dataset set
    gsp = [checker.quality[(k, "gsp")] for k in range(n) if (k, "gsp") in checker.quality]
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "attempted": attempted, "failed": failed, "failures": failures,
        "warmup_s": warmup_s,
        "call_s_p50": statistics.median(times),
        "call_s_tail": _tail(times),
        "nodes_per_s": sum(w for _, w in record["untraced"]) / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "output_kb": statistics.median(out_bytes) / 1024.0,
        "auroc_gsp": statistics.fmean(q[0] for q in gsp) if gsp else float("nan"),
        "fpr95_gsp": statistics.fmean(q[1] for q in gsp) if gsp else float("nan"),
        "quality": {f"{datasets[k].manifest.parent.name}/{m}": list(q)
                    for (k, m), q in sorted(checker.quality.items())},
        "env": _environment(),
    }
    if args.trace:
        traced_times = [t for t, _ in record["traced"]]
        overhead = statistics.median(traced_times) - result["call_s_p50"]
        result["traced_call_s_p50"] = statistics.median(traced_times)
        result["per_layer"] = tracer.per_call(len(traced_times), statistics.fmean(diag_bytes),
                                              overhead)
        result["absent_layers"] = tracer.absent
        result["hook_errors"] = tracer.hook_errors[:MAX_LOGGED_FAILURES]
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="graphscore benchmark measuring process")
    p.add_argument("--workload", required=True)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--result", type=Path, required=True)
    args = p.parse_args(argv)
    result = run(args, _import_cli())
    args.result.write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
