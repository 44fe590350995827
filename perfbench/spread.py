#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, and the two-set comparison.

    python3 perfbench/spread.py [--workload NAME ...] [--runs 10] [--sets 2]

Run from the root of the repository. For each workload it makes `--sets`
sets of `--runs` end-to-end runs of perfbench/run.py, every run with its own
seed, and prints per metric: each set's median, its quartile spread
(Q3 - Q1 over the median) and, from the second set on, how far the set's
median moved from the first set's, against the metric's bound in
BENCHMARK.json. A spread above a third of the bound, or a move beyond the
bound, is flagged (`setup_s` is checked on its move only).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"  {workload} seed {seed}: {result['failed']} of {result['attempted']} failed",
              file=sys.stderr)
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()

    worst = True
    for workload in args.workload or names:
        sets = []
        seed = args.first_seed
        for _ in range(args.sets):
            runs = []
            for _ in range(args.runs):
                runs.append(run(workload, seed, args.seconds))
                print(f"  {workload} seed {seed}: {runs[-1]}", file=sys.stderr)
                seed += 1
            sets.append(runs)
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            worse_sign = 1 if metric["better"] == "lower" else -1
            first = None
            for i, runs in enumerate(sets):
                values = [r[name] for r in runs]
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med
                line = f"{workload:24} {name:12} set {i + 1}: median {med:.6g} spread {spread:.4f}"
                flag = spread > bound / 3 and name != "setup_s"
                if first is None:
                    first = med
                else:
                    move = worse_sign * (med - first) / first
                    line += f" worse-by {move:+.4f}"
                    flag = flag or move > bound
                print(line + f" (bound {bound})" + ("  <-- over" if flag else ""))
                worst = worst and not flag
    sys.exit(0 if worst else 1)


if __name__ == "__main__":
    main()
