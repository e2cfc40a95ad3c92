"""graphscore benchmark launcher.

    python3 gsbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The launcher pins BLAS to one thread,
generates (or reuses) the seeded inputs in a separate process, times a few
fresh interpreters importing graphscore, then runs the measuring process
(``worker.py``), which never generated anything, so its peak RSS is that of
scoring alone. It prints a readable table and, as its last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. The full result, environment included, is kept in
``gsbench/.runs/``. The metric names, units and bounds are in BENCHMARK.json.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("bridge_6k", "pools_1000c", "batches_256")
BLAS_THREADS = "1"
IMPORT_SAMPLES = 5
GENERATE_TIMEOUT_S = 600
WORKER_TIMEOUT_S = 170


def _env() -> dict:
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": str(ROOT / "src"),
        # one BLAS thread: the default two gave batches_256 a p95 spread of
        # 19-34 ms against 19-20 ms with one
        "OPENBLAS_NUM_THREADS": BLAS_THREADS,
        "OMP_NUM_THREADS": BLAS_THREADS,
        "MKL_NUM_THREADS": BLAS_THREADS,
        "GRAPHSCORE_LOG": "WARNING",
    })
    return env


def _run(cmd, timeout, env):
    """Run a child to completion; on timeout it is killed and reaped."""
    proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=timeout,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd[:2])} exited with {proc.returncode}")
    return proc.stdout


def _import_s(env) -> float:
    """Wall time for a fresh interpreter to import graphscore."""
    t0 = time.perf_counter()
    _run([sys.executable, "-c", "import graphscore"], 60, env)
    return time.perf_counter() - t0


def _print_table(result: dict, metrics: dict) -> None:
    print(f"workload={result['workload']} seed={result['seed']} trace={result['trace']} "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"fail_ratio={result['failed'] / result['attempted']:.4f}")
    print("env: " + " ".join(f"{k}={v}" for k, v in result["env"].items()))
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:>14.6g} {m['unit']}")
    tail = result["call_s_tail"]
    print(f"  call_s_tail is p{tail['percentile']:.2f} of {tail['calls']} timed calls "
          f"({tail['beyond']} above it)")
    for name in result.get("absent_layers", []):
        print(f"  absent layer: {name} (0 calls)")
    for line in result["failures"]:
        print(f"  FAIL {line}")
    for line in result.get("hook_errors", []):
        print(f"  trace hook error: {line}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="graphscore benchmark")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "graphscore" / "__init__.py").is_file():
        print(f"error: no graphscore sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = _env()
    cache = BENCH / ".cache"
    runs = BENCH / ".runs"
    runs.mkdir(exist_ok=True)
    data = Path(_run([sys.executable, str(BENCH / "inputs.py"), "--workload", args.workload,
                      "--seed", str(args.seed), "--root", str(cache)],
                     GENERATE_TIMEOUT_S, env).strip().splitlines()[-1]) / "data"
    imports = [_import_s(env) for _ in range(IMPORT_SAMPLES)]
    result_path = runs / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    result_path.unlink(missing_ok=True)
    _run([sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
          "--data", str(data), "--seed", str(args.seed), "--seconds", str(args.seconds),
          "--trace", str(args.trace), "--out", str(cache / f"out-{args.workload}"),
          "--result", str(result_path)], WORKER_TIMEOUT_S, env)
    result = json.loads(result_path.read_text(encoding="utf-8"))

    # setup: a fresh interpreter importing graphscore (median of several),
    # plus the untimed warm-up call
    result["import_s"] = imports
    result["setup_s"] = statistics.median(imports) + result["warmup_s"]
    if args.trace:
        metrics = result["per_layer"]
    else:
        metrics = {
            "setup_s": (result["setup_s"], "s"),
            "call_s_p50": (result["call_s_p50"], "s"),
            "call_s_tail": (result["call_s_tail"]["value"], "s"),
            "nodes_per_s": (result["nodes_per_s"], "nodes/s"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
            "output_kb": (result["output_kb"], "KB"),
            "auroc_gsp": (result["auroc_gsp"], "ratio"),
            "fpr95_gsp": (result["fpr95_gsp"], "ratio"),
            "ok_ratio": (1.0 - result["failed"] / result["attempted"], "ratio"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    result["metrics"] = metrics
    result_path.write_text(json.dumps(result, indent=1), encoding="utf-8")
    _print_table(result, metrics)
    correct = result["failed"] == 0 and all(math.isfinite(m["value"]) for m in metrics.values())
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
