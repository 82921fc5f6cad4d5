#!/usr/bin/env bash
# Checks that the working tree's simulated outputs are byte-identical to a
# base revision's. Builds both trees in Release, runs every bench (each is
# a deterministic golden; speed is perfbench's job), every example and the
# 200-seed chaos summary in each chaos mode, and prints "identical" or
# "differs" per output.
#
# Usage: scripts/determinism.sh <base-ref> [work-dir]
#   scripts/determinism.sh HEAD~1
#   scripts/determinism.sh main /tmp/det     # keep builds and outputs
#
# The base is exported with git archive into <work-dir> (default: a fresh
# temporary directory) with its own build directory, never the tracked
# tree's build/. Outputs land in <work-dir>/out/{base,head}/; diff them to
# see what moved. A bench the base does not build shows as "differs".
# Exits 1 when any output differs. bench_fig6_mttf's Monte Carlo takes
# about half a minute per tree.
set -euo pipefail

if [ $# -lt 1 ]; then
  echo "usage: $0 <base-ref> [work-dir]" >&2
  exit 2
fi
base_ref="$1"
work="${2:-$(mktemp -d)}"
repo="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc)"
mkdir -p "$work"
work="$(cd "$work" && pwd)"

# Re-extracted on every run, so a reused work dir never holds another
# revision's tree.
base_tree="$work/base"
rm -rf "$base_tree"
mkdir -p "$base_tree"
git -C "$repo" archive "$base_ref" | tar -x -C "$base_tree"

build() {  # build <src> <build-dir>; the log goes to <build-dir>.log
  if ! { cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=Release &&
         cmake --build "$2" -j"$jobs"; } >"$2.log" 2>&1; then
    tail -20 "$2.log" >&2
    echo "build of $1 failed; see $2.log" >&2
    exit 1
  fi
}
echo "building $base_ref and the working tree (Release)..."
build "$base_tree" "$work/base-build"
build "$repo" "$work/head-build"

examples=(quickstart protocol_simulation disaster_recovery distributed_dbms
          heterogeneous_sites scheme_comparison)
# The fifteen chaos modes the Release CI job and ROADMAP.md sweep.
chaos_names=(manual autopilot batch batch-autopilot codec modeled-disk
             modeled-disk-autopilot groups4-autopilot pq pq-autopilot batch-pq
             batch-pq-autopilot declustered-autopilot declustered-expand
             declustered-expand-autopilot)
chaos_flags=(""
             "--autopilot"
             "--batch"
             "--batch --autopilot"
             "--codec"
             "--spindles 4 --disk-policy deadline --cache-blocks 64"
             "--autopilot --spindles 4 --disk-policy deadline --cache-blocks 64"
             "--groups 4 --autopilot"
             "--scheme pq"
             "--scheme pq --autopilot"
             "--batch --scheme pq"
             "--batch --scheme pq --autopilot"
             "--autopilot --layout declustered --sites 12"
             "--layout declustered --sites 12 --expand"
             "--autopilot --layout declustered --sites 12 --expand")

run_all() {  # run_all <build-dir> <out-dir>
  local b="$1" out="$2"
  mkdir -p "$out"
  for x in "$work/head-build/bench"/*; do
    x="$(basename "$x")"
    "$b/bench/$x" >"$out/$x.txt" 2>&1 || true
  done
  for x in "${examples[@]}"; do
    "$b/examples/$x" >"$out/$x.txt" 2>&1 || true
  done
  for i in "${!chaos_names[@]}"; do
    # shellcheck disable=SC2086  # the flags are a word list
    "$b/tools/chaos_main" --seeds 200 --threads 4 ${chaos_flags[$i]} \
      >"$out/chaos-${chaos_names[$i]}.txt" 2>&1 || true
  done
}
run_all "$work/base-build" "$work/out/base"
run_all "$work/head-build" "$work/out/head"

status=0
for f in "$work/out/base"/*.txt; do
  name="$(basename "$f" .txt)"
  if cmp -s "$f" "$work/out/head/$name.txt"; then
    printf '%-28s identical\n' "$name"
  else
    printf '%-28s differs\n' "$name"
    status=1
  fi
done
grep -H "schedules held" "$work/out/head"/chaos-*.txt | sed "s|$work/out/||"
echo "outputs: $work/out/{base,head}"
exit "$status"
