#!/usr/bin/env python3
"""Steadiness check: run each workload several times, one seed per run, and
print every end-to-end metric's median, quartiles and spread next to its
bound.

    python3 perfbench/steady.py                      # 10 seeds, all workloads
    python3 perfbench/steady.py --workloads degraded --seeds 5

Run from the repository root. The spread is (Q3 - Q1) / median, with the
quartiles of statistics.quantiles(values, n=4). A metric is flagged when its
spread exceeds a third of the bound BENCHMARK.json fixes for it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n"
                 f"{out.stdout[-2000:]}{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {lines[-1]}")
    meta = next((line for line in lines if line.startswith("# meta ")), "")
    return result, meta


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"])
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    steady = True
    for workload in args.workloads:
        values = {}
        for seed in range(1, args.seeds + 1):
            result, meta = run_once(workload, seed, args.seconds)
            if seed == 1:
                print(meta)
            for name, m in result["metrics"].items():
                values.setdefault(name, (m["unit"], []))[1].append(m["value"])
        print(f"== {workload}: {args.seeds} runs of {args.seconds:g} s")
        print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>7} {'bound':>6}")
        for name, (unit, v) in values.items():
            q1, med, q3 = (statistics.quantiles(v, n=4) if len(v) > 1
                           else (v[0], v[0], v[0]))
            spread = (q3 - q1) / med if med else 0.0
            ok = spread < bounds[name] / 3
            steady &= ok
            print(f"{name:34} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:7.3f} {bounds[name]:>6} "
                  f"{'ok' if ok else 'WIDE'} {unit}")
        sys.stdout.flush()
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
