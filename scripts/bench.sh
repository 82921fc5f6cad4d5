#!/usr/bin/env bash
# Regenerates the speed records BENCH_<workload>.json in the repo root.
# perfbench (perfbench/run.py) is the one speed harness: this script runs
# it on every workload BENCHMARK.json names, once per seed 1..N, for
# BENCHMARK.json's run_seconds each, untraced.
#
# Usage: scripts/bench.sh [runs]
#   scripts/bench.sh        # 10 seeds per workload, as perfbench/steady.py
#   scripts/bench.sh 3      # a quicker, noisier record
#
# Each record holds the first run's "# meta" object (host core count,
# source SHA and digest, compiler and flags) and, per seed, the run's JSON
# result. A run that fails perfbench's read-back gate or fails any op
# stops the script, as perfbench/steady.py rejects such a run.
# The simulated metrics are deterministic per seed; the wall ones
# (ops_per_wall_s, setup_s, peak_rss_mb) vary with the host's load. For
# their medians, quartiles and spread against BENCHMARK.json's bounds, run
# perfbench/steady.py. The figure benches in bench/ are deterministic
# goldens, not speed records; scripts/determinism.sh audits them.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
runs="${1:-10}"
cd "$repo"

# The workload names and run length come out of BENCHMARK.json by pattern;
# finding none means its layout changed and this script must follow.
seconds="$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' BENCHMARK.json)"
workloads="$(sed -n 's/.*{"name": "\([a-z0-9_]*\)", "why".*/\1/p' \
  BENCHMARK.json)"
if [ -z "$seconds" ] || [ -z "$workloads" ]; then
  echo "no run_seconds or workload names found in BENCHMARK.json" >&2
  exit 1
fi

for w in $workloads; do
  meta=""
  results=()
  for seed in $(seq 1 "$runs"); do
    echo "$w seed $seed/$runs ..." >&2
    log="$(python3 perfbench/run.py --workload "$w" --seed "$seed" \
      --seconds "$seconds" --trace 0)"
    [ -n "$meta" ] || meta="$(sed -n 's/^# meta //p' <<<"$log")"
    result="$(tail -n 1 <<<"$log")"
    if ! grep -q '"correct": true' <<<"$result" ||
       ! grep -q '"failed": 0[,}]' <<<"$result"; then
      echo "$w seed $seed: incorrect or failed ops: $result" >&2
      exit 1
    fi
    results+=("{\"seed\": $seed, \"result\": $result}")
  done
  {
    printf '{"meta": %s,\n "runs": [\n' "$meta"
    for i in "${!results[@]}"; do
      [ "$i" -eq 0 ] || printf ',\n'
      printf '  %s' "${results[$i]}"
    done
    printf '\n]}\n'
  } >"BENCH_$w.json"
  echo "wrote BENCH_$w.json" >&2
done
