// Parity-path cost of the batched parity pipeline (DESIGN.md §10) against
// batching off — the same coalescer with a flush threshold of one update
// and no group-commit delay — on the message-driven RaddNodeSystem.
//
// Workload: group of 8, every member runs a closed loop of concurrent
// mixed-size record updates (64..256 bytes, §7.4 accounting) against its
// hottest block — the regime the write-combining pipeline targets. Client
// == home, so W1/W2 are loopback and the parity traffic is the only thing
// on the wire: the parity messages/op and parity wire bytes/op printed
// below are exactly what batching claims to reduce. Batching off still
// merges the updates that queue behind an unacked frame for the same row
// (the blocked-key rule), so on one hot record it coalesces nearly as
// well as the group-commit window does. Full-block and
// multi-row write patterns are covered by the chaos suite and the unit
// tests; this bench isolates the hot-record regime.
//
// Output is JSON (one object per mode plus the off/on reduction factors);
// BENCH_parity.json in the repo root records the numbers for this machine.
// Wall-clock timings are not deterministic; everything else is.

#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <vector>

#include "core/node.h"

using namespace radd;

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

constexpr int kGroupSize = 8;
constexpr int kSites = kGroupSize + 2;
constexpr BlockNum kRows = 40;
constexpr size_t kBlockSize = 4096;
constexpr int kOpsPerMember = 200;
constexpr int kOutstanding = 8;
constexpr int kHotBlocks = 1;
constexpr size_t kRecordBytes = 128;

struct RunResult {
  const char* mode;
  int ops = 0;
  int failed = 0;
  double wall_ms = 0;
  double sim_sec = 0;
  uint64_t parity_msgs = 0;
  uint64_t parity_bytes = 0;
  uint64_t frames = 0;
  uint64_t staged = 0;
};

uint64_t ParityPathMessages(const Stats& net) {
  return net.Get("net.messages.parity_batch") +
         net.Get("net.messages.parity_batch_ack");
}

uint64_t ParityPathBytes(const Stats& net) {
  return net.Get("net.bytes.parity_batch") +
         net.Get("net.bytes.parity_batch_ack");
}

RunResult Run(const char* mode, bool batched) {
  RaddConfig config;
  config.group_size = kGroupSize;
  config.rows = kRows;
  config.block_size = kBlockSize;
  NodeConfig nc;
  if (batched) {
    nc.parity_batch.enabled = true;
    nc.parity_batch.max_ops = 8;
    nc.parity_batch.max_delay = Millis(100);
  }

  Simulator sim;
  Network net(&sim, NetworkModel{}, 0xbeef);
  SiteConfig sc{1, kRows, kBlockSize};
  Cluster cluster(kSites, sc);
  RaddNodeSystem sys(&sim, &net, &cluster, config, nc);

  // Hot set per member: the data indexes whose rows land on that member's
  // most common parity site, so one staging buffer sees all the traffic.
  const PlacementMap& lay = sys.layout(0);
  const BlockNum nblocks = sys.group(0)->DataBlocksPerMember();
  std::vector<std::vector<BlockNum>> hot(kSites);
  for (int m = 0; m < kSites; ++m) {
    std::map<SiteId, std::vector<BlockNum>> buckets;
    for (BlockNum i = 0; i < nblocks; ++i) {
      buckets[lay.ParitySite(lay.DataToRow(static_cast<SiteId>(m), i))]
          .push_back(i);
    }
    const std::vector<BlockNum>* best = nullptr;
    for (const auto& [ps, idxs] : buckets) {
      if (!best || idxs.size() > best->size()) best = &idxs;
    }
    hot[m] = *best;
    if (hot[m].size() > kHotBlocks) hot[m].resize(kHotBlocks);
  }

  // Running image of each hot block so every write is a record update
  // against what the disk already holds (small change mask).
  std::vector<std::vector<Block>> image(kSites);
  for (int m = 0; m < kSites; ++m) {
    image[m].assign(hot[m].size(), Block(kBlockSize));
  }

  int completed = 0, failed = 0;
  std::vector<int> issued(kSites, 0);
  std::function<void(int)> issue = [&](int m) {
    if (issued[m] >= kOpsPerMember) return;
    const int seq = issued[m]++;
    const size_t slot = static_cast<size_t>(seq) % hot[m].size();
    Block& img = image[m][slot];
    // Mixed-size record updates (64..256 bytes) against the block's hot
    // record (§7.4's record-update picture). Successive masks for the same
    // row overlap at the record's offset, so the XOR-merge stays one
    // record wide instead of growing with every contributor.
    const size_t len = kRecordBytes * (1 + static_cast<size_t>(seq) % 4) / 2;
    uint8_t rec[kRecordBytes * 2];
    for (size_t j = 0; j < len; ++j) {
      rec[j] = static_cast<uint8_t>(m * 31 + seq * 7 + j);
    }
    (void)img.WriteAt(slot * 512, rec, len);
    sys.AsyncWrite(sys.group(0)->SiteOfMember(m), 0, m, hot[m][slot],
                   Block(img),
                   [&, m](Status st, SimTime) {
                     if (st.ok()) {
                       ++completed;
                     } else {
                       ++failed;
                     }
                     issue(m);
                   });
  };

  const auto start = Clock::now();
  for (int m = 0; m < kSites; ++m) {
    for (int k = 0; k < kOutstanding; ++k) issue(m);
  }
  sim.Run();
  const double wall = MsSince(start);

  RunResult r;
  r.mode = mode;
  r.ops = completed;
  r.failed = failed;
  r.wall_ms = wall;
  r.sim_sec = ToSeconds(sim.Now());
  r.parity_msgs = ParityPathMessages(net.stats());
  r.parity_bytes = ParityPathBytes(net.stats());
  r.frames = sys.stats().Get("node.batches_sent");
  r.staged = sys.stats().Get("node.parity_staged");
  if (!sys.group(0)->VerifyInvariants().ok()) {
    std::fprintf(stderr, "FATAL: invariants violated in mode %s\n", mode);
    std::exit(1);
  }
  return r;
}

void Print(const RunResult& r, bool last) {
  const double ops = r.ops > 0 ? r.ops : 1;
  std::printf(
      "  {\"mode\": \"%s\", \"ops\": %d, \"failed\": %d, "
      "\"parity_msgs_per_op\": %.3f, \"parity_wire_bytes_per_op\": %.1f, "
      "\"updates_per_frame\": %.2f, \"wall_ms\": %.2f, "
      "\"ops_per_sec\": %.0f, \"sim_sec\": %.2f}%s\n",
      r.mode, r.ops, r.failed, r.parity_msgs / ops, r.parity_bytes / ops,
      r.frames > 0 ? static_cast<double>(r.staged) / r.frames : 0.0,
      r.wall_ms, r.wall_ms > 0 ? r.ops / (r.wall_ms / 1000.0) : 0.0,
      r.sim_sec, last ? "" : ",");
}

}  // namespace

int main() {
  std::printf("{\n\"block_size\": %zu,\n\"group_size\": %d,\n"
              "\"ops_per_member\": %d,\n\"outstanding\": %d,\n"
              "\"record_bytes\": %zu,\n\"results\": [\n",
              kBlockSize, kGroupSize, kOpsPerMember, kOutstanding,
              kRecordBytes);
  RunResult off = Run("threshold_one", false);
  RunResult on = Run("batched", true);
  Print(off, false);
  Print(on, true);
  const double mr = on.parity_msgs > 0
                        ? (static_cast<double>(off.parity_msgs) / off.ops) /
                              (static_cast<double>(on.parity_msgs) / on.ops)
                        : 0.0;
  const double br = on.parity_bytes > 0
                        ? (static_cast<double>(off.parity_bytes) / off.ops) /
                              (static_cast<double>(on.parity_bytes) / on.ops)
                        : 0.0;
  std::printf("],\n\"reduction\": {\"messages\": %.2f, \"bytes\": %.2f}\n}\n",
              mr, br);
  return 0;
}
