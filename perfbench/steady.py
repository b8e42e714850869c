#!/usr/bin/env python3
"""Steadiness check: runs one workload K times with seeds 1..K, each for
BENCHMARK.json's run_seconds, and prints, for each metric, the median, the
quartiles, min/max, and the quartile spread as a share of the median -- the
figure BENCHMARK.json's bounds are set from.

    python3 perfbench/steady.py --workload ring3_read --runs 10 [--trace 1]

Run it from the root of a checkout, like run.py.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    values = {}
    units = {}
    shares = []
    for seed in range(1, args.runs + 1):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        lines = out.stdout.strip().splitlines()
        res = json.loads(lines[-1]) if out.returncode == 0 and lines else None
        if res is None or not res["correct"]:
            print(f"seed {seed}: run failed (exit {out.returncode}); "
                  "its summary:")
            print("\n".join(out.stderr.splitlines()[-40:]))
            return 1
        shares.append(res["failed"] / res["attempted"])
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
            flush=True)

    print(f"\n{args.workload} ({args.runs} runs, {seconds}s, trace "
          f"{args.trace}); failed share per run: {sorted(set(shares))}")
    print(f"{'metric':32} {'unit':6} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'min':>11} {'max':>11} {'iqr/med':>8}")
    for name, v in values.items():
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:32} {units[name]:6} {med:11.5g} {q1:11.5g} {q3:11.5g} "
              f"{min(v):11.5g} {max(v):11.5g} {spread:8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
