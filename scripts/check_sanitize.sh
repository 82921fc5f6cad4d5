#!/usr/bin/env bash
# Builds the tree under a sanitizer and runs the full test suite.
#
# Usage: scripts/check_sanitize.sh [--tsan] [build-dir]
#   scripts/check_sanitize.sh            # AddressSanitizer + UBSan
#   scripts/check_sanitize.sh --tsan     # ThreadSanitizer: ctest drives the
#                                        # sharded engine under load
#                                        # (VolumeOracleTest); then the
#                                        # chaos run farm under real threads
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"

mode=asan
if [ "${1:-}" = "--tsan" ]; then
  mode=tsan
  shift
fi

if [ "$mode" = "tsan" ]; then
  build="${1:-$repo/build-tsan}"
  cmake -B "$build" -S "$repo" -DRADD_TSAN=ON \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$build" -j "$(nproc)"
  ctest --test-dir "$build" --output-on-failure -j "$(nproc)"
  # The multi-seed run farm: concurrent simulation stacks, one per seed.
  "$build/tools/chaos_main" --seeds 12 --threads 4 > /dev/null
  echo "tsan: parallel smoke clean"
else
  build="${1:-$repo/build-asan}"
  cmake -B "$build" -S "$repo" -DRADD_SANITIZE=ON \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$build" -j "$(nproc)"
  ctest --test-dir "$build" --output-on-failure -j "$(nproc)"
fi
