#!/usr/bin/env python3
"""Self-tests of the RADD benchmark.

    python3 perfbench/selftest.py

Run from the repository root; takes a few minutes. Checks:
  * the percentile rule (unit checks in selftest.cc, and every percentile a
    run prints has at least ten samples beyond it);
  * the same seed gives identical simulated metrics and counts;
  * steady_g8 gives identical simulated metrics at 1 and 4 threads;
  * a different seed changes the op stream;
  * every workload passes the correctness gate.
"""

import json
import os
import re
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the sibling build-and-run script)

WORKLOADS = ("steady_g8", "degraded", "hot_batched")
# Metrics that depend only on the simulation, never on the host.
SIMULATED = ("ops_per_sim_s", "read_mean_sim_ms", "read_p99_sim_ms",
             "write_mean_sim_ms", "write_p99_sim_ms", "wire_bytes_per_op")

failures = 0


def check(ok, what):
    global failures
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    failures += not ok


def one_round(binary, workload, seed, threads=None):
    """The shortest run (four rounds); returns (report lines, result JSON,
    exit code)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds",
           "0", "--trace", "0"]
    if threads:
        cmd += ["--threads", str(threads)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {"correct": False}
    return lines[:-1], result, out.returncode


def report(lines, key):
    for line in lines:
        if line.startswith(f"# {key} "):
            return line.split()[2]
    return None


def simulated(result):
    return {k: result["metrics"][k]["value"] for k in SIMULATED} | {
        "attempted": result["attempted"], "failed": result["failed"]}


def main():
    out = run.build_dir()
    binary = run.build(out)
    unit = run.build(out, "perfbench_selftest")
    if binary is None or unit is None:
        sys.exit("build failed")
    check(subprocess.run([unit]).returncode == 0, "percentile unit checks")

    for workload in WORKLOADS:
        lines, a, code = one_round(binary, workload, 7)
        check(code == 0 and a["correct"] and a["failed"] == 0,
              f"{workload}: correctness gate passes")
        beyond = [int(m.group(1)) for line in lines
                  if (m := re.search(r"(\d+) beyond\)", line))]
        check(beyond and min(beyond) >= 10,
              f"{workload}: each printed percentile has >= 10 samples "
              f"beyond it {beyond}")
        lines_b, b, _ = one_round(binary, workload, 7)
        check(report(lines, "sim_digest") == report(lines_b, "sim_digest")
              and simulated(a) == simulated(b),
              f"{workload}: same seed, identical simulated metrics")
        lines_c, _, _ = one_round(binary, workload, 8)
        check(report(lines, "stream_digest")
              != report(lines_c, "stream_digest"),
              f"{workload}: another seed changes the op stream")

    lines_1, r1, _ = one_round(binary, "steady_g8", 7, threads=1)
    lines_4, r4, _ = one_round(binary, "steady_g8", 7, threads=4)
    check(report(lines_1, "sim_digest") == report(lines_4, "sim_digest")
          and simulated(r1) == simulated(r4),
          "steady_g8: identical simulated metrics at 1 and 4 threads")

    print("all self-tests passed" if failures == 0
          else f"{failures} self-tests failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
