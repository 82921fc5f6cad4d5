// Data-plane throughput: wall-clock rate of RaddGroup operations with the
// vectorized block kernels and the zero-copy hand-offs in place.
//
// Three modes exercise the three protocol regimes:
//   * normal      — home site up: W1-W4 writes and local reads;
//   * degraded    — home site down: spare writes, spare reads, and
//                   formula-(2) reconstructions;
//   * recovering  — home site recovering after a disaster: spare drains,
//                   reconstruction repairs, then the recovery sweep itself.
//
// Output is JSON (one object per mode) so runs can be diffed across
// revisions; BENCH_dataplane.json in the repo root records the seed-vs-new
// numbers for this machine. Timings are wall clock and hence not
// deterministic — everything else about the run (op mix, data, op counts)
// is fixed.

// Two more modes drive the message-driven protocol layer (RaddNodeSystem)
// with the batched parity pipeline off and on, so a regression in either
// protocol regime shows up in the same JSON stream.
//
// Finally, the volume modes (volume_g1, volume_g2, ...) run the §4 sharded
// data plane: N groups side by side over one shared simulator, every site
// driving a closed loop against its own site-local LBA space. The op count
// grows with the group count (constant per-group load), so the simulated
// makespan stays roughly flat while aggregate ops/simulated-second scales
// with N — the §4 load-spreading claim as a measured curve. Pass
// `--groups N` to run just one volume point.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <utility>
#include <string>
#include <vector>

#include "core/node.h"
#include "core/radd.h"
#include "core/volume.h"

using namespace radd;

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct ModeResult {
  std::string mode;
  int ops = 0;
  double ms = 0;
  double mb = 0;  // payload megabytes moved through the data plane
  // Volume modes only: group count, simulated makespan, and the volume's
  // simulated-time throughput (the wall-clock fields measure host speed;
  // these measure the protocol's concurrency).
  int groups = 0;
  double sim_ms = 0;
  // Worker threads of the sharded engine (volume modes; 1 = monolithic).
  int threads = 1;
  // Extra mode-specific JSON fields, appended verbatim before the brace.
  std::string extra_json{};
};

void Print(const ModeResult& r, bool last) {
  double sec = r.ms / 1000.0;
  std::printf("  {\"mode\": \"%s\", \"ops\": %d, \"wall_ms\": %.2f, "
              "\"ops_per_sec\": %.0f, \"mb_per_sec\": %.1f",
              r.mode.c_str(), r.ops, r.ms, sec > 0 ? r.ops / sec : 0.0,
              sec > 0 ? r.mb / sec : 0.0);
  if (r.groups > 0) {
    double sim_sec = r.sim_ms / 1000.0;
    std::printf(", \"groups\": %d, \"sim_ms\": %.2f, "
                "\"ops_per_sim_sec\": %.0f",
                r.groups, r.sim_ms,
                sim_sec > 0 ? r.ops / sim_sec : 0.0);
  }
  if (r.threads > 1) std::printf(", \"threads\": %d", r.threads);
  if (!r.extra_json.empty()) std::fputs(r.extra_json.c_str(), stdout);
  std::printf("}%s\n", last ? "" : ",");
}

constexpr int kGroupSize = 8;
constexpr BlockNum kRows = 60;
constexpr size_t kBlockSize = 4096;
constexpr int kOps = 4000;

// --scheme: 1 = the paper's single XOR parity, 2 = P+Q dual parity.
int g_parities = 1;

// Protocol-layer tuning shared by every simulator-driven mode; the disk
// flags (--disk-read-ms, --disk-write-ms, --spindles, --disk-policy,
// --cache-blocks) land here. The defaults are the paper's §7.3 disk: one
// serial FIFO spindle per site, 30 ms per request.
NodeConfig g_node;

int NumSites() { return kGroupSize + 1 + g_parities; }

RaddConfig Config() {
  RaddConfig config;
  config.group_size = kGroupSize;
  config.parities = g_parities;
  config.rows = kRows;
  config.block_size = kBlockSize;
  return config;
}

/// Mixed read/write stream against member `home` from `client`; blocks
/// cycle so every row sees traffic.
ModeResult Drive(const char* mode, RaddGroup* group, SiteId client,
                 int home, int ops) {
  BlockNum blocks = group->DataBlocksPerMember();
  Block payload(kBlockSize);
  double mb = 0;
  auto start = Clock::now();
  for (int i = 0; i < ops; ++i) {
    BlockNum index = static_cast<BlockNum>(i) % blocks;
    if (i % 3 == 0) {
      OpResult r = group->Read(client, home, index);
      if (r.ok()) mb += static_cast<double>(r.data.size()) / 1e6;
    } else {
      payload.FillPattern(static_cast<uint64_t>(i));
      OpResult r = group->Write(client, home, index, payload);
      if (r.ok()) mb += static_cast<double>(kBlockSize) / 1e6;
    }
  }
  return ModeResult{mode, ops, MsSince(start), mb};
}

ModeResult RunNormal() {
  RaddConfig config = Config();
  SiteConfig sc{1, config.rows, config.block_size};
  Cluster cluster(NumSites(), sc);
  RaddGroup group(&cluster, config);
  return Drive("normal", &group, /*client=*/2, /*home=*/2, kOps);
}

ModeResult RunDegraded() {
  RaddConfig config = Config();
  SiteConfig sc{1, config.rows, config.block_size};
  Cluster cluster(NumSites(), sc);
  RaddGroup group(&cluster, config);
  // Seed every block, then fail the home site: all traffic goes through
  // spares and reconstruction.
  Block b(kBlockSize);
  for (BlockNum i = 0; i < group.DataBlocksPerMember(); ++i) {
    b.FillPattern(i);
    group.Write(2, 2, i, b);
  }
  cluster.CrashSite(2);
  return Drive("degraded", &group, /*client=*/0, /*home=*/2, kOps);
}

ModeResult RunRecovering() {
  RaddConfig config = Config();
  SiteConfig sc{1, config.rows, config.block_size};
  Cluster cluster(NumSites(), sc);
  RaddGroup group(&cluster, config);
  Block b(kBlockSize);
  for (BlockNum i = 0; i < group.DataBlocksPerMember(); ++i) {
    b.FillPattern(i);
    group.Write(2, 2, i, b);
  }
  // Fail, absorb degraded writes into the spares, then come back
  // recovering: reads drain spares, writes fetch-and-invalidate them.
  cluster.CrashSite(2);
  for (BlockNum i = 0; i < group.DataBlocksPerMember(); i += 2) {
    b.FillPattern(i + 1000);
    group.Write(0, 2, i, b);
  }
  cluster.RestoreSite(2);  // disaster-free restart -> recovering
  ModeResult r = Drive("recovering", &group, /*client=*/2, /*home=*/2,
                       kOps);
  // Include the sweep that finishes recovery in the mode's wall time.
  auto start = Clock::now();
  (void)group.RunRecovery(2);
  r.ms += MsSince(start);
  return r;
}

/// Wall-clock rate of the protocol layer: every member runs a closed loop
/// of mixed reads and writes over its own blocks (client == home), driven
/// through the simulator. `batched` toggles the parity pipeline.
ModeResult RunProtocol(const char* mode, bool batched) {
  RaddConfig config = Config();
  NodeConfig nc = g_node;
  nc.parity_batch.enabled = batched;
  SiteConfig sc{1, config.rows, config.block_size};
  Simulator sim;
  Network net(&sim, NetworkModel{}, 0xbeef);
  Cluster cluster(NumSites(), sc);
  RaddNodeSystem sys(&sim, &net, &cluster, config, nc);

  const int kSites = NumSites();
  const int kPerMember = kOps / kSites;
  constexpr int kOutstanding = 4;
  const BlockNum blocks = sys.group(0)->DataBlocksPerMember();
  Block payload(kBlockSize);
  double mb = 0;
  int completed = 0;
  std::vector<int> issued(kSites, 0);
  std::function<void(int)> issue = [&](int m) {
    if (issued[m] >= kPerMember) return;
    const int i = issued[m]++;
    const BlockNum index = static_cast<BlockNum>(i) % blocks;
    const SiteId site = sys.group(0)->SiteOfMember(m);
    if (i % 3 == 0) {
      sys.AsyncRead(site, 0, m, index,
                    [&, m](Status st, const Block& data, SimTime) {
                      if (st.ok()) mb += static_cast<double>(data.size()) / 1e6;
                      ++completed;
                      issue(m);
                    });
    } else {
      payload.FillPattern(static_cast<uint64_t>(m * 1000 + i));
      sys.AsyncWrite(site, 0, m, index, payload, [&, m](Status st, SimTime) {
        if (st.ok()) mb += static_cast<double>(kBlockSize) / 1e6;
        ++completed;
        issue(m);
      });
    }
  };

  auto start = Clock::now();
  for (int m = 0; m < kSites; ++m) {
    for (int k = 0; k < kOutstanding; ++k) issue(m);
  }
  sim.Run();
  return ModeResult{mode, completed, MsSince(start), mb};
}

/// Degraded protocol latency: seed one member, crash its site, then drive
/// a closed loop of reads and writes against the dead member from a
/// surviving client. Every read is a reconstruction or a spare hit and
/// every write lands on the row's spare, so the mode measures the degraded
/// tail directly: simulated-time p50/p99 of degraded reads plus the
/// node.degraded_reads per-parity-role breakdown (which decode leg served
/// each reconstruction — P, Q, both, or the materialized spare).
ModeResult RunProtocolDegraded(const char* mode) {
  RaddConfig config = Config();
  NodeConfig nc = g_node;
  SiteConfig sc{1, config.rows, config.block_size};
  Simulator sim;
  Network net(&sim, NetworkModel{}, 0xbeef);
  Cluster cluster(NumSites(), sc);
  RaddNodeSystem sys(&sim, &net, &cluster, config, nc);

  const int home = 2;
  const SiteId victim = sys.group(0)->SiteOfMember(home);
  const SiteId client = sys.group(0)->SiteOfMember(0);
  const BlockNum blocks = sys.group(0)->DataBlocksPerMember();
  Block payload(kBlockSize);
  for (BlockNum i = 0; i < blocks; ++i) {
    payload.FillPattern(i);
    sys.Write(victim, 0, home, i, payload);
  }
  sim.Run();
  cluster.CrashSite(victim);

  const int degraded_ops = kOps / 4;
  constexpr int kOutstanding = 4;
  std::vector<double> read_lat;
  int issued = 0, completed = 0;
  double mb = 0;
  std::function<void()> issue = [&]() {
    if (issued >= degraded_ops) return;
    const int i = issued++;
    const BlockNum index = static_cast<BlockNum>(i) % blocks;
    if (i % 3 == 0) {
      sys.AsyncRead(client, 0, home, index,
                    [&](Status st, const Block& data, SimTime latency) {
                      if (st.ok()) {
                        mb += static_cast<double>(data.size()) / 1e6;
                        read_lat.push_back(ToMillis(latency));
                      }
                      ++completed;
                      issue();
                    });
    } else {
      payload.FillPattern(static_cast<uint64_t>(100000 + i));
      sys.AsyncWrite(client, 0, home, index, payload,
                     [&](Status st, SimTime) {
                       if (st.ok()) {
                         mb += static_cast<double>(kBlockSize) / 1e6;
                       }
                       ++completed;
                       issue();
                     });
    }
  };
  auto start = Clock::now();
  for (int k = 0; k < kOutstanding; ++k) issue();
  sim.Run();

  ModeResult r{mode, completed, MsSince(start), mb};
  std::sort(read_lat.begin(), read_lat.end());
  double p50 = 0, p99 = 0;
  if (!read_lat.empty()) {
    p50 = read_lat[read_lat.size() / 2];
    p99 = read_lat[static_cast<size_t>(
        0.99 * static_cast<double>(read_lat.size() - 1))];
  }
  char buf[256];
  std::snprintf(
      buf, sizeof buf,
      ", \"degraded_read_p50_ms\": %.1f, \"degraded_read_p99_ms\": %.1f"
      ", \"degraded_reads\": {\"p\": %llu, \"q\": %llu, \"pq\": %llu, "
      "\"spare\": %llu}",
      p50, p99,
      static_cast<unsigned long long>(
          sys.stats().Get("node.degraded_reads.p")),
      static_cast<unsigned long long>(
          sys.stats().Get("node.degraded_reads.q")),
      static_cast<unsigned long long>(
          sys.stats().Get("node.degraded_reads.pq")),
      static_cast<unsigned long long>(
          sys.stats().Get("node.degraded_reads.spare")));
  r.extra_json = buf;
  return r;
}

/// §4 sharded data plane: `groups` RADD groups over G+1+groups sites (one
/// drive per (group, member) pair, spread round-robin), every site running
/// a closed loop of mixed reads and writes against its own LBA space. Per-
/// group load is constant — kOps per group — so the aggregate simulated
/// throughput measures how reconstruction-free traffic spreads over
/// disjoint parity chains.
///
/// `threads` > 1 runs the same simulation on the sharded engine — one
/// simulator shard per site, synchronized at the network's one-way
/// latency — executed by a worker pool. The simulated results (ops,
/// sim_ms) are identical to the monolithic run at every thread count;
/// only wall_ms changes.
ModeResult RunVolume(int groups, int threads) {
  RaddConfig config = Config();
  const int members = NumSites();
  const int num_sites = groups == 1 ? members : members - 1 + groups;
  std::vector<int> drives(num_sites, 0);
  for (int d = 0; d < groups * members; ++d) ++drives[d % num_sites];
  Simulator sim;
  if (threads > 1) {
    sim.ConfigureShards(num_sites, NetworkModel{}.one_way_latency);
  }
  Network net(&sim, NetworkModel{}, 0xbeef);
  if (threads > 1) {
    for (int s = 0; s < num_sites; ++s) net.MapSiteToShard(s, s);
  }
  std::vector<SiteConfig> site_configs;
  site_configs.reserve(num_sites);
  for (int s = 0; s < num_sites; ++s) {
    SiteConfig sc;
    sc.num_disks = 1;
    sc.blocks_per_disk = static_cast<BlockNum>(drives[s]) * kRows;
    sc.block_size = kBlockSize;
    site_configs.push_back(sc);
  }
  Cluster cluster(site_configs);
  VolumeConfig vc;
  vc.group = config;
  vc.drives_per_site = drives;
  vc.node = g_node;
  Result<std::unique_ptr<RaddVolume>> made =
      RaddVolume::Create(&sim, &net, &cluster, vc);
  if (!made.ok()) {
    std::fprintf(stderr, "volume_g%d: %s\n", groups,
                 made.status().ToString().c_str());
    std::exit(1);
  }
  RaddVolume& vol = **made;

  const int total_ops = kOps * groups;
  const int per_site = total_ops / num_sites;
  constexpr int kOutstanding = 4;
  // Each site's closed loop is self-contained (its own tally, counter and
  // payload scratch), so concurrent shards never share mutable state; the
  // alignment keeps neighbouring sites off one cache line.
  struct alignas(64) SiteLoop {
    Block payload{kBlockSize};
    double mb = 0;
    int completed = 0;
    int issued = 0;
    std::vector<std::pair<int, SimTime>> trace;
  };
  const bool tracing = std::getenv("RADD_BENCH_TRACE") != nullptr;
  std::vector<SiteLoop> loops(static_cast<size_t>(num_sites));
  std::function<void(int)> issue = [&](int s) {
    SiteLoop& loop = loops[static_cast<size_t>(s)];
    if (loop.issued >= per_site) return;
    const int i = loop.issued++;
    const SiteId site = static_cast<SiteId>(s);
    const BlockNum lba =
        static_cast<BlockNum>(i) % vol.DataBlocksAtSite(site);
    if (i % 3 == 0) {
      vol.AsyncRead(site, site, lba,
                    [&, s, i](Status st, const Block& data, SimTime) {
                      SiteLoop& l = loops[static_cast<size_t>(s)];
                      if (st.ok()) {
                        l.mb += static_cast<double>(data.size()) / 1e6;
                      }
                      ++l.completed;
                      if (tracing) l.trace.emplace_back(i, sim.Now());
                      issue(s);
                    });
    } else {
      loop.payload.FillPattern(static_cast<uint64_t>(s * 100003 + i));
      vol.AsyncWrite(site, site, lba, loop.payload,
                     [&, s, i](Status st, SimTime) {
                       SiteLoop& l = loops[static_cast<size_t>(s)];
                       if (st.ok()) {
                         l.mb += static_cast<double>(kBlockSize) / 1e6;
                       }
                       ++l.completed;
                       if (tracing) l.trace.emplace_back(i, sim.Now());
                       issue(s);
                     });
    }
  };

  auto start = Clock::now();
  if (threads > 1) {
    // Kick off every site's loop from an event on its own shard, so all
    // issues (and their timers) are shard-confined from the first op.
    for (int s = 0; s < num_sites; ++s) {
      sim.AtShard(s, 0, [&, s]() {
        for (int k = 0; k < kOutstanding * drives[s]; ++k) issue(s);
      });
    }
    sim.RunParallel(threads);
  } else {
    for (int s = 0; s < num_sites; ++s) {
      // Constant per-drive concurrency: a site hosting drives of several
      // groups keeps each group's pipeline as full as the one-drive case.
      for (int k = 0; k < kOutstanding * drives[s]; ++k) issue(s);
    }
    sim.Run();
  }
  if (tracing) {
    if (FILE* f = std::fopen(std::getenv("RADD_BENCH_TRACE"), "w")) {
      for (int s = 0; s < num_sites; ++s) {
        for (const auto& [i, t] : loops[static_cast<size_t>(s)].trace) {
          std::fprintf(f, "s%d op%d %llu\n", s, i,
                       static_cast<unsigned long long>(t));
        }
      }
      std::fclose(f);
    }
  }
  ModeResult r;
  r.mode = "volume_g" + std::to_string(groups);
  r.ms = MsSince(start);
  for (const SiteLoop& loop : loops) {
    r.ops += loop.completed;
    r.mb += loop.mb;
  }
  r.groups = groups;
  r.sim_ms = ToMillis(sim.Now());
  r.threads = threads;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  int only_groups = 0;
  int threads = 1;
  const char* scheme = "single";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--groups") == 0 && i + 1 < argc) {
      only_groups = std::atoi(argv[++i]);
      if (only_groups < 1) {
        std::fprintf(stderr, "--groups must be >= 1\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = std::atoi(argv[++i]);
      if (threads < 1) {
        std::fprintf(stderr, "--threads must be >= 1\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--scheme") == 0 && i + 1 < argc) {
      scheme = argv[++i];
      if (std::strcmp(scheme, "pq") == 0) {
        g_parities = 2;
      } else if (std::strcmp(scheme, "single") != 0) {
        std::fprintf(stderr, "--scheme must be 'single' or 'pq'\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--disk-read-ms") == 0 && i + 1 < argc) {
      g_node.disk.read_latency = Millis(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--disk-write-ms") == 0 && i + 1 < argc) {
      g_node.disk.write_latency = Millis(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--spindles") == 0 && i + 1 < argc) {
      g_node.disk_sched.spindles = std::atoi(argv[++i]);
      if (g_node.disk_sched.spindles < 1) {
        std::fprintf(stderr, "--spindles must be >= 1\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--disk-policy") == 0 && i + 1 < argc) {
      const char* policy = argv[++i];
      if (std::strcmp(policy, "fifo") == 0) {
        g_node.disk_sched.policy = IoPolicy::kFifo;
      } else if (std::strcmp(policy, "elevator") == 0) {
        g_node.disk_sched.policy = IoPolicy::kElevator;
      } else if (std::strcmp(policy, "deadline") == 0) {
        g_node.disk_sched.policy = IoPolicy::kDeadline;
      } else {
        std::fprintf(stderr,
                     "--disk-policy must be fifo, elevator or deadline\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--cache-blocks") == 0 && i + 1 < argc) {
      g_node.disk_sched.cache_blocks =
          static_cast<size_t>(std::atoi(argv[++i]));
    } else {
      std::fprintf(stderr,
                   "usage: %s [--scheme single|pq] [--groups N] "
                   "[--threads T] [--disk-read-ms MS] [--disk-write-ms MS] "
                   "[--spindles S] "
                   "[--disk-policy fifo|elevator|deadline] "
                   "[--cache-blocks N]\n",
                   argv[0]);
      return 2;
    }
  }
  std::printf("{\n\"block_size\": %zu,\n\"group_size\": %d,\n"
              "\"scheme\": \"%s\",\n",
              kBlockSize, kGroupSize, scheme);
  if (g_node.disk_sched.modeled()) {
    const char* policy =
        g_node.disk_sched.policy == IoPolicy::kFifo ? "fifo"
        : g_node.disk_sched.policy == IoPolicy::kElevator ? "elevator"
                                                          : "deadline";
    std::printf("\"disk\": {\"read_ms\": %.0f, \"write_ms\": %.0f, "
                "\"spindles\": %d, \"policy\": \"%s\", "
                "\"cache_blocks\": %zu},\n",
                ToMillis(g_node.disk.read_latency),
                ToMillis(g_node.disk.write_latency),
                g_node.disk_sched.spindles, policy,
                g_node.disk_sched.cache_blocks);
  }
  std::printf("\"results\": [\n");
  if (only_groups > 0) {
    Print(RunVolume(only_groups, threads), true);
  } else {
    Print(RunNormal(), false);
    Print(RunDegraded(), false);
    Print(RunRecovering(), false);
    Print(RunProtocol("protocol", /*batched=*/false), false);
    Print(RunProtocol("protocol_batched", /*batched=*/true), false);
    Print(RunProtocolDegraded("protocol_degraded"), false);
    for (int g : {1, 2, 4, 8}) Print(RunVolume(g, threads), g == 8);
  }
  std::printf("]\n}\n");
  return 0;
}
