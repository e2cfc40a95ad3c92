"""Run the benchmark over several seeds and report each metric's spread.

    python3 gsbench/spread.py --workload NAME [NAME ...] --seeds 0-9 [--seconds S] [--trace 0|1]

For each workload and every metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the spread
(upper minus lower quartile, as a share of the median) and, for end-to-end
metrics, the bound from BENCHMARK.json. A spread should stay under a third
of its bound; ``setup_s`` has no spread limit.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _collect(spec: dict, workload: str, seeds: list, seconds: int, trace: int) -> dict:
    """metric name -> (unit, one value per seed)"""
    values = {}
    for seed in seeds:
        proc = subprocess.run(
            spec["command"] + ["--workload", workload, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, (m["unit"], []))[1].append(m["value"])
    return values


def _report(values: dict, bounds: dict) -> None:
    print(f"{'metric':30s} {'unit':>7s} {'median':>11s} {'q1':>11s} {'q3':>11s} "
          f"{'spread':>7s} {'bound':>5s}")
    for name, (unit, vals) in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = " !" if bound is not None and name != "setup_s" and spread > bound / 3 else ""
        print(f"{name:30s} {unit:>7s} {med:11.5g} {q1:11.5g} {q3:11.5g} {spread:7.4f} "
              f"{'' if bound is None else bound:>5}{flag}", flush=True)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", nargs="+", required=True)
    p.add_argument("--seeds", type=_seeds, default=_seeds("0-9"))
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    for workload in args.workload:
        print(f"== {workload}")
        _report(_collect(spec, workload, args.seeds, seconds, args.trace), bounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
