#!/usr/bin/env bash
# Rebuilds the benchmark binaries in RelWithDebInfo and regenerates the
# BENCH_*.json records in the repo root with median-of-N numbers, per the
# measurement protocol of DESIGN.md section 6: wall-clock timings are
# noisy on shared machines, so each bench runs N times and the recorded
# figure is the per-mode median. Everything except the nanoseconds (op
# mix, message counts, wire bytes) is deterministic and identical across
# runs.
#
# Usage: scripts/bench.sh [runs] [build-dir] [suite] [scheme]
#   scripts/bench.sh                # 7 runs, build in build-bench/, all suites
#   scripts/bench.sh 15             # more runs for a noisier machine
#   scripts/bench.sh 5 build parallel   # only BENCH_parallel.json
#   scripts/bench.sh 7 build classic    # only throughput + parity records
#   scripts/bench.sh 5 build transport  # only BENCH_transport.json
#   scripts/bench.sh 7 build classic pq # P+Q dual parity throughput record
#                                       # (written to BENCH_throughput_pq.json)
#   scripts/bench.sh 1 build disk       # only BENCH_disk.json (all figures
#                                       # are simulated-time, so one run
#                                       # suffices)
#   scripts/bench.sh 1 build layout     # only BENCH_layout.json (rotated vs
#                                       # declustered recovery makespan +
#                                       # expansion moved fraction; simulated
#                                       # time, one run suffices)
#
# Every record is stamped with the git SHA and UTC date it was generated
# from, plus the scheme and config (block/group size) it measured, so a
# checked-in BENCH_*.json is traceable to the revision that produced it.
#
# The `parallel` suite measures the sharded simulation engine and the
# chaos run farm (DESIGN.md section 12) at several thread counts and
# writes BENCH_parallel.json. It also records the host core count:
# wall-clock speedup is only meaningful when the host actually has the
# cores — on a single-core container the threads time-slice one CPU and
# the record documents overhead, not speedup. Simulated results (sim_ms,
# chaos verdicts) are deterministic and thread-count-invariant either
# way; that is what the test suite asserts.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
runs="${1:-7}"
build="${2:-$repo/build-bench}"
suite="${3:-all}"
scheme="${4:-single}"
case "$scheme" in
  single|pq) ;;
  *) echo "scheme must be 'single' or 'pq'" >&2; exit 2 ;;
esac

git_sha="$(git -C "$repo" rev-parse --short HEAD 2>/dev/null || echo unknown)"
gen_date="$(date -u +%Y-%m-%dT%H:%M:%SZ)"
export GIT_SHA="$git_sha" GEN_DATE="$gen_date"

cmake -B "$build" -S "$repo" -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$build" -j "$(nproc)" \
  --target bench_throughput bench_parity_batching chaos_main transport_main

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

if [ "$suite" = all ] || [ "$suite" = classic ]; then
  for i in $(seq "$runs"); do
    echo "classic run $i/$runs ..."
    "$build/bench/bench_throughput" --scheme "$scheme" \
      > "$tmp/throughput_$i.json"
    "$build/bench/bench_parity_batching" > "$tmp/parity_$i.json"
  done

  RUNS="$runs" TMP="$tmp" REPO="$repo" SCHEME="$scheme" python3 - <<'EOF'
import json, os, statistics

runs = int(os.environ["RUNS"])
tmp = os.environ["TMP"]
repo = os.environ["REPO"]
scheme = os.environ["SCHEME"]

def stamp(doc):
    """Provenance fields every BENCH_*.json record carries."""
    doc["git_sha"] = os.environ["GIT_SHA"]
    doc["generated_utc"] = os.environ["GEN_DATE"]
    return doc

def load(prefix):
    return [json.load(open(f"{tmp}/{prefix}_{i}.json")) for i in
            range(1, runs + 1)]

def median_by_mode(docs, fields):
    """Per-mode median of `fields` across runs; other keys come from the
    first run (they are deterministic)."""
    out = []
    for idx, first in enumerate(docs[0]["results"]):
        row = dict(first)
        for f in fields:
            row[f] = round(statistics.median(
                d["results"][idx][f] for d in docs), 2)
        out.append(row)
    return out

tp = load("throughput")
tp_doc = stamp({k: v for k, v in tp[0].items() if k != "results"})
tp_doc["runs"] = runs
tp_doc["note"] = ("wall_ms / ops_per_sec / mb_per_sec are per-mode "
                  "medians over the runs; regenerate with scripts/bench.sh")
tp_doc["results"] = median_by_mode(tp, ["wall_ms", "ops_per_sec",
                                        "mb_per_sec"])
tp_name = ("BENCH_throughput.json" if scheme == "single"
           else f"BENCH_throughput_{scheme}.json")
with open(f"{repo}/{tp_name}", "w") as f:
    json.dump(tp_doc, f, indent=2)
    f.write("\n")

pb = load("parity")
pb_doc = stamp({k: v for k, v in pb[0].items() if k != "results"})
pb_doc["runs"] = runs
pb_doc["description"] = (
    "Batched parity pipeline (DESIGN.md section 10) vs batching off (the "
    "same coalescer, flush threshold one) on the hot-record workload of "
    "bench/bench_parity_batching. "
    "Message and byte counts are deterministic; wall_ms / ops_per_sec are "
    "per-mode medians over the runs.")
pb_doc["results"] = median_by_mode(pb, ["wall_ms", "ops_per_sec"])
pb_doc["reduction"] = pb[0]["reduction"]
with open(f"{repo}/BENCH_parity.json", "w") as f:
    json.dump(pb_doc, f, indent=2)
    f.write("\n")

for d in pb[1:]:
    if d["reduction"] != pb[0]["reduction"]:
        raise SystemExit("nondeterministic reduction factors?!")
print(f"wrote {tp_name} and BENCH_parity.json")
EOF
fi

if [ "$suite" = all ] || [ "$suite" = parallel ]; then
  threads="1 2 4 8"
  chaos_seeds=40
  # Wall-clock speedup numbers need real cores behind the threads. Say so
  # up front (the JSON records it too, as "degraded_host").
  if [ "$(nproc)" -lt 8 ]; then
    echo "WARNING: host has $(nproc) cores but the parallel suite runs up" \
         "to 8 threads; wall-clock speedups will be degraded (the record" \
         "will carry \"degraded_host\": true)." >&2
  fi
  for i in $(seq "$runs"); do
    echo "parallel run $i/$runs ..."
    for t in $threads; do
      "$build/bench/bench_throughput" --groups 8 --threads "$t" \
        > "$tmp/parallel_${t}_$i.json"
      t0=$(date +%s%N)
      "$build/tools/chaos_main" --seeds "$chaos_seeds" --threads "$t" \
        > "$tmp/chaos_out_${t}_$i.txt"
      t1=$(date +%s%N)
      echo $(( (t1 - t0) / 1000000 )) > "$tmp/chaos_${t}_$i.txt"
    done
  done
  # The run farm's byte-identical contract, checked on the spot: every
  # thread count must produce the same chaos stdout as --threads 1.
  for i in $(seq "$runs"); do
    for t in $threads; do
      cmp "$tmp/chaos_out_1_$i.txt" "$tmp/chaos_out_${t}_$i.txt"
    done
  done

  RUNS="$runs" TMP="$tmp" REPO="$repo" THREADS="$threads" \
  CHAOS_SEEDS="$chaos_seeds" python3 - <<'EOF'
import json, os, statistics

runs = int(os.environ["RUNS"])
tmp = os.environ["TMP"]
repo = os.environ["REPO"]
threads = [int(t) for t in os.environ["THREADS"].split()]
chaos_seeds = int(os.environ["CHAOS_SEEDS"])
host_cores = os.cpu_count() or 1

bench_rows = []
for t in threads:
    docs = [json.load(open(f"{tmp}/parallel_{t}_{i}.json")) for i in
            range(1, runs + 1)]
    row = dict(docs[0]["results"][0])
    if len({d["results"][0]["sim_ms"] for d in docs}) != 1:
        raise SystemExit(f"sim_ms varies across runs at --threads {t}?!")
    row["wall_ms"] = round(statistics.median(
        d["results"][0]["wall_ms"] for d in docs), 2)
    for k in ("ops_per_sec", "mb_per_sec", "mode"):
        row.pop(k, None)
    # --threads 1 takes the classic monolithic single-queue path; > 1 the
    # sharded conservative-window engine. Label which one produced sim_ms.
    row["threads"] = t
    row["engine"] = "monolithic" if t == 1 else "sharded"
    bench_rows.append(row)
for row in bench_rows:
    row["speedup_vs_t1"] = round(bench_rows[0]["wall_ms"] / row["wall_ms"], 2)

chaos_rows = []
for t in threads:
    walls = [int(open(f"{tmp}/chaos_{t}_{i}.txt").read()) for i in
             range(1, runs + 1)]
    chaos_rows.append({"threads": t, "seeds": chaos_seeds,
                       "wall_ms": statistics.median(walls)})
for row in chaos_rows:
    row["speedup_vs_t1"] = round(chaos_rows[0]["wall_ms"] / row["wall_ms"], 2)

doc = {
    "git_sha": os.environ["GIT_SHA"],
    "generated_utc": os.environ["GEN_DATE"],
    "description": (
        "Parallel execution engine (DESIGN.md section 12) at thread counts "
        "1/2/4/8. sharded_bench: bench_throughput --groups 8 --threads T — "
        "the 8-group volume workload on the conservatively synchronized "
        "sharded simulator (one shard per site). chaos_run_farm: wall time "
        f"of chaos_main --seeds {chaos_seeds} --threads T, one isolated "
        "simulation stack per seed, stdout verified byte-identical to the "
        "serial run at every thread count. sim_ms is the deterministic "
        "simulated makespan and is thread-count-invariant (the g8 value "
        "differs from the monolithic single-queue engine by one deep "
        "same-tick tie, 0.06% — DESIGN.md section 12); wall_ms is host "
        "time, medians over the runs."),
    "note": (
        "Wall-clock speedup requires real cores: this record was generated "
        f"on a {host_cores}-core host"
        + ("" if host_cores > 1 else
           ", where worker threads time-slice one CPU, so speedup_vs_t1 "
           "~1.0 measures engine overhead, not parallelism") +
        ". Both workloads are embarrassingly parallel across shards/seeds "
        "(no shared mutable state beyond internally synchronized stats and "
        "arenas), so on an N-core host the run farm scales ~linearly to N "
        "and the sharded bench to min(N, groups busy per window). "
        "Regenerate with scripts/bench.sh <runs> <build> parallel."),
    "host_cores": host_cores,
    "degraded_host": host_cores < max(threads),
    "runs": runs,
    "sharded_bench": bench_rows,
    "chaos_run_farm": chaos_rows,
}
with open(f"{repo}/BENCH_parallel.json", "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print("wrote BENCH_parallel.json")
EOF
fi

if [ "$suite" = all ] || [ "$suite" = transport ]; then
  # The socket backends run one thread per site (4) plus writers; with
  # fewer cores the wall-clock latencies measure time-slicing, not the
  # transport. transport_main stamps "degraded_host" in its own output;
  # warn here as well so interactive runs cannot miss it.
  if [ "$(nproc)" -lt 4 ]; then
    echo "WARNING: host has $(nproc) cores; the socket transport runs 4" \
         "site threads, so BENCH_transport.json will carry" \
         "\"degraded_host\": true and its wall-clock numbers measure" \
         "time-slicing overhead." >&2
  fi
  for i in $(seq "$runs"); do
    echo "transport run $i/$runs ..."
    "$build/tools/transport_main" --bench --out "$tmp/transport_$i.json"
  done

  RUNS="$runs" TMP="$tmp" REPO="$repo" python3 - <<'EOF'
import json, os, statistics

runs = int(os.environ["RUNS"])
tmp = os.environ["TMP"]
repo = os.environ["REPO"]

docs = [json.load(open(f"{tmp}/transport_{i}.json")) for i in
        range(1, runs + 1)]
doc = {k: v for k, v in docs[0].items() if k != "results"}
doc["git_sha"] = os.environ["GIT_SHA"]
doc["generated_utc"] = os.environ["GEN_DATE"]
doc["runs"] = runs
doc["note"] = doc.get("note", "") + (
    " Latency and throughput figures are per-backend medians over the "
    "runs; regenerate with scripts/bench.sh <runs> <build> transport.")
rows = []
for idx, first in enumerate(docs[0]["results"]):
    row = dict(first)
    # DES figures are simulated time and must not vary across runs.
    if row["latency_domain"] == "simulated_us":
        for d in docs[1:]:
            if d["results"][idx]["p50_latency_us"] != row["p50_latency_us"]:
                raise SystemExit("nondeterministic DES latencies?!")
    for f in ("p50_latency_us", "p99_latency_us", "wall_sec",
              "ops_per_wall_sec"):
        row[f] = round(statistics.median(
            d["results"][idx][f] for d in docs), 2)
    rows.append(row)
doc["results"] = rows
with open(f"{repo}/BENCH_transport.json", "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print("wrote BENCH_transport.json")
EOF
fi

if [ "$suite" = all ] || [ "$suite" = disk ]; then
  # Modeled disk subsystem (DESIGN.md section 15): the before/after record
  # of breaking the per-site serial disk bottleneck. Every figure below is
  # simulated time — deterministic, so a single run per configuration is
  # the measurement.
  #   * volume scaling: ops per simulated second at g=1 vs g=8, legacy
  #     serial clock vs 4 spindles + deadline scheduling + block cache;
  #   * degraded-read tail: protocol_degraded p50/p99 in both configs;
  #   * recovery makespan: per-seed autopilot convergence time over 40
  #     chaos schedules in both configs (the run doubles as a smoke test —
  #     a seed that violates an invariant fails the script).
  echo "disk suite: volume scaling + degraded tail + recovery makespan ..."
  disk_flags="--spindles 4 --disk-policy deadline --cache-blocks 64"
  "$build/bench/bench_throughput" > "$tmp/disk_legacy.json"
  # shellcheck disable=SC2086
  "$build/bench/bench_throughput" $disk_flags > "$tmp/disk_modeled.json"
  for cfg in legacy modeled; do
    flags=""
    [ "$cfg" = modeled ] && flags="$disk_flags"
    for s in $(seq 1 40); do
      # shellcheck disable=SC2086
      "$build/tools/chaos_main" --seed "$s" --autopilot $flags
    done > "$tmp/disk_conv_$cfg.txt"
  done

  TMP="$tmp" REPO="$repo" DISK_FLAGS="$disk_flags" python3 - <<'EOF'
import json, os, re, statistics

tmp = os.environ["TMP"]
repo = os.environ["REPO"]

def mode_row(doc, mode):
    for row in doc["results"]:
        if row["mode"] == mode:
            return row
    raise SystemExit(f"mode {mode} missing from bench_throughput output")

configs = {}
for cfg in ("legacy", "modeled"):
    doc = json.load(open(f"{tmp}/disk_{cfg}.json"))
    g1 = mode_row(doc, "volume_g1")["ops_per_sim_sec"]
    g8 = mode_row(doc, "volume_g8")["ops_per_sim_sec"]
    deg = mode_row(doc, "protocol_degraded")
    conv_ms = [int(m.group(1)) / 1000.0 for m in
               re.finditer(r"conv_max=(\d+)",
                           open(f"{tmp}/disk_conv_{cfg}.txt").read())]
    if len(conv_ms) != 40:
        raise SystemExit(f"expected 40 convergence samples, got "
                         f"{len(conv_ms)} ({cfg})")
    conv_ms.sort()
    configs[cfg] = {
        "disk": doc.get("disk", {"spindles": 1, "policy": "fifo",
                                 "cache_blocks": 0}),
        "volume_g1_ops_per_sim_sec": g1,
        "volume_g8_ops_per_sim_sec": g8,
        "volume_scaling_g8_vs_g1": round(g8 / g1, 2),
        "degraded_read_p50_ms": deg["degraded_read_p50_ms"],
        "degraded_read_p99_ms": deg["degraded_read_p99_ms"],
        "recovery_makespan_ms": {
            "p50": round(conv_ms[len(conv_ms) // 2], 1),
            "p99": round(conv_ms[int(0.99 * (len(conv_ms) - 1))], 1),
            "max": round(conv_ms[-1], 1),
            "seeds": len(conv_ms),
        },
    }

scaling = configs["modeled"]["volume_scaling_g8_vs_g1"]
if scaling < 3.0:
    raise SystemExit(f"modeled volume scaling {scaling} < 3.0 — the disk "
                     "subsystem regressed")

doc = {
    "git_sha": os.environ["GIT_SHA"],
    "generated_utc": os.environ["GEN_DATE"],
    "description": (
        "Modeled disk subsystem (DESIGN.md section 15) before/after "
        "record. legacy = one serial FIFO disk clock per site (the "
        "paper's section 7.3 model); modeled = bench_throughput "
        + os.environ["DISK_FLAGS"] + ". volume_*: ops per simulated "
        "second of the section 4 sharded volume at 1 and 8 groups — the "
        "scaling ratio is the headline (the serial clock capped it at "
        "~1.6x). degraded_read_*: simulated p50/p99 of reads against a "
        "crashed member. recovery_makespan_ms: per-seed autopilot "
        "convergence time over chaos_main --autopilot seeds 1..40. All "
        "figures are deterministic simulated time; regenerate with "
        "scripts/bench.sh 1 <build> disk."),
    "configs": configs,
}
with open(f"{repo}/BENCH_disk.json", "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"wrote BENCH_disk.json (modeled g8/g1 scaling {scaling}x)")
EOF
fi

if [ "$suite" = all ] || [ "$suite" = layout ]; then
  # Placement layer (DESIGN.md section 16): rotated vs declustered
  # recovery makespan, plus the online-expansion moved-fraction record.
  # Every figure is simulated time, so a single run per seed is the
  # measurement, and every chaos_main invocation below exits nonzero if a
  # schedule violates an invariant — the suite doubles as a smoke test.
  #   * recovery makespan: per-seed autopilot convergence time over 40
  #     chaos schedules, classic rotated layout vs declustered over a
  #     12-site cluster (reconstruction reads spread over C-2 sources
  #     instead of the fixed G+parities group neighbours);
  #   * expansion: the same 40 declustered schedules with a mid-schedule
  #     AddSite — the migrated block count must equal the planned minimum
  #     rounds*(n-1) and stay under the added capacity share 1/(C+1).
  echo "layout suite: recovery makespan + expansion moved fraction ..."
  for cfg in rotated declustered; do
    flags=""
    [ "$cfg" = declustered ] && flags="--layout declustered --sites 12"
    for s in $(seq 1 40); do
      # shellcheck disable=SC2086
      "$build/tools/chaos_main" --seed "$s" --autopilot $flags
    done > "$tmp/layout_conv_$cfg.txt"
  done
  for s in $(seq 1 40); do
    "$build/tools/chaos_main" --seed "$s" --autopilot \
      --layout declustered --sites 12 --expand
  done > "$tmp/layout_expand.txt"

  TMP="$tmp" REPO="$repo" python3 - <<'EOF'
import json, os, re, statistics

tmp = os.environ["TMP"]
repo = os.environ["REPO"]

def makespan(path):
    conv_ms = [int(m.group(1)) / 1000.0 for m in
               re.finditer(r"conv_max=(\d+)", open(path).read())]
    if len(conv_ms) != 40:
        raise SystemExit(f"expected 40 convergence samples in {path}, "
                         f"got {len(conv_ms)}")
    conv_ms.sort()
    return {
        "p50": round(conv_ms[len(conv_ms) // 2], 1),
        "p99": round(conv_ms[int(0.99 * (len(conv_ms) - 1))], 1),
        "max": round(conv_ms[-1], 1),
        "mean": round(statistics.mean(conv_ms), 1),
        "seeds": len(conv_ms),
    }

configs = {
    "rotated": {"layout": "rotated",
                "recovery_makespan_ms": makespan(f"{tmp}/layout_conv_rotated.txt")},
    "declustered": {"layout": "declustered", "sites": 12,
                    "recovery_makespan_ms": makespan(f"{tmp}/layout_conv_declustered.txt")},
}

# Expansion record. The harness shape is fixed (G=4, single parity, so
# n=6; rows=12 -> 2 rounds; C=12 pre-expansion sites), so the minimal
# plan is rounds*(n-1) = 10 moves against c0*rounds*n = 144 blocks in
# use. chaos.cc asserts moved == planned and the capacity-share bound
# per seed; here we record the fraction and re-check it.
G, PAR, ROWS, C = 4, 1, 12, 12
n = G + 1 + PAR
rounds = ROWS // n
used = C * rounds * n
pairs = re.findall(r"moved=(\d+) planned=(\d+)",
                   open(f"{tmp}/layout_expand.txt").read())
if len(pairs) != 40:
    raise SystemExit(f"expected 40 expansion samples, got {len(pairs)}")
moved = {int(m) for m, _ in pairs}
planned = {int(p) for _, p in pairs}
if moved != planned or len(moved) != 1:
    raise SystemExit(f"expansion moves not uniform/minimal: moved={moved} "
                     f"planned={planned}")
mv = moved.pop()
if mv != rounds * (n - 1):
    raise SystemExit(f"moved {mv} != minimal plan rounds*(n-1) = "
                     f"{rounds * (n - 1)}")
frac = mv / used
bound = 1.0 / (C + 1)
if frac > bound:
    raise SystemExit(f"moved fraction {frac:.4f} above capacity share "
                     f"{bound:.4f}")
conv = makespan(f"{tmp}/layout_expand.txt")

doc = {
    "git_sha": os.environ["GIT_SHA"],
    "generated_utc": os.environ["GEN_DATE"],
    "description": (
        "Placement layer record (DESIGN.md section 16). "
        "recovery_makespan_ms: per-seed autopilot convergence time over "
        "chaos_main --autopilot seeds 1..40, classic rotated layout vs "
        "declustered placement over a 12-site cluster. expansion: the "
        "same declustered schedules with a mid-schedule AddSite; moved "
        "blocks must equal the minimal plan rounds*(n-1) and stay under "
        "the added capacity share 1/(C+1) of blocks in use. All figures "
        "are deterministic simulated time; regenerate with "
        "scripts/bench.sh 1 <build> layout."),
    "configs": configs,
    "expansion": {
        "group_size": G,
        "parities": PAR,
        "rows": ROWS,
        "sites_before": C,
        "sites_after": C + 1,
        "moves_per_group": mv,
        "blocks_in_use": used,
        "moved_fraction": round(frac, 4),
        "capacity_share_bound": round(bound, 4),
        "seeds": len(pairs),
        "recovery_makespan_ms": conv,
    },
}
with open(f"{repo}/BENCH_layout.json", "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"wrote BENCH_layout.json (moved fraction {frac:.4f} <= {bound:.4f})")
EOF
fi
