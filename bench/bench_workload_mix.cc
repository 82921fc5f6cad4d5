// Workload-driven comparison — the dynamic version of Figure 7: instead of
// pricing isolated scenarios, run one operation stream (2:1 reads, zipf
// 0.4) against functional RADD, 1/2-RADD, ROWB, and local-RAID instances,
// with a site/disk failure injected for the middle third of the run, and
// report time-weighted average I/O cost and availability.
//
// `--cache` runs the skew study instead: a read-heavy Zipfian stream
// (90% reads, theta 0.9) against the message-driven protocol layer at a
// range of site block-cache sizes, reporting the cache hit ratio and the
// simulated-time p50/p99 read latency per size. All numbers are simulated
// and hence deterministic.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>

#include "common/format.h"
#include "core/node.h"
#include "core/radd.h"
#include "core/volume.h"
#include "schemes/local_raid.h"
#include "schemes/rowb.h"
#include "schemes/scheme.h"
#include "workload/workload.h"

using namespace radd;

namespace {

constexpr size_t kBlockSize = 512;
constexpr int kMembers = 10;
constexpr BlockNum kBlocks = 24;
constexpr int kOps = 3000;

struct RunResult {
  double avg_cost_ms = 0;
  double degraded_avg_ms = 0;
  int blocked = 0;
};

Block PayloadBlock(uint64_t seed) {
  Block b(kBlockSize);
  b.FillPattern(seed);
  return b;
}

std::vector<Operation> MakeTrace() {
  WorkloadConfig wc;
  wc.num_members = kMembers;
  wc.blocks_per_member = kBlocks;
  wc.block_size = kBlockSize;
  wc.read_fraction = 2.0 / 3.0;
  wc.zipf_theta = 0.4;
  return WorkloadGenerator(wc, 0xFEED).Generate(kOps);
}

/// Drives one scheme via callbacks: op(i, member, block, is_read) returns
/// the op's priced cost, or a negative value when blocked.
template <typename Op, typename FailFn, typename RepairFn>
RunResult Drive(const std::vector<Operation>& trace, Op op, FailFn fail,
                RepairFn repair) {
  RunResult out;
  double total = 0, degraded_total = 0;
  int counted = 0, degraded_counted = 0;
  for (int i = 0; i < static_cast<int>(trace.size()); ++i) {
    if (i == static_cast<int>(trace.size()) / 3) fail();
    if (i == 2 * static_cast<int>(trace.size()) / 3) repair();
    bool in_window = i >= static_cast<int>(trace.size()) / 3 &&
                     i < 2 * static_cast<int>(trace.size()) / 3;
    double cost = op(i, trace[size_t(i)]);
    if (cost < 0) {
      ++out.blocked;
      continue;
    }
    total += cost;
    ++counted;
    if (in_window) {
      degraded_total += cost;
      ++degraded_counted;
    }
  }
  out.avg_cost_ms = total / counted;
  out.degraded_avg_ms =
      degraded_counted > 0 ? degraded_total / degraded_counted : 0;
  return out;
}

/// The skew study: one Zipfian read-heavy stream replayed against the
/// protocol layer at several cache sizes. Every op targets its home site
/// locally, so reads price at R = 30 ms on a miss and ~0 on a hit; the
/// spread between p50 and p99 shows how much of the working set each
/// capacity holds.
int RunCacheSweep() {
  WorkloadConfig wc;
  wc.num_members = 8;
  wc.blocks_per_member = kBlocks;
  wc.block_size = kBlockSize;
  wc.read_fraction = 0.9;
  wc.zipf_theta = 0.9;
  std::vector<Operation> trace = WorkloadGenerator(wc, 0xFEED).Generate(kOps);

  TextTable t("Cache skew study: 3000 ops (90% reads, zipf 0.9) vs site "
              "block-cache capacity");
  t.SetHeader({"cache blocks", "hit ratio", "read p50 ms", "read p99 ms",
               "avg write ms"});
  for (const size_t cache :
       {size_t{0}, size_t{4}, size_t{8}, size_t{16}, size_t{32}}) {
    RaddConfig config;
    config.group_size = 8;
    config.rows = RotatedLayout(config.group_size).RowsForDataBlocks(kBlocks);
    config.block_size = kBlockSize;
    NodeConfig nc;
    nc.disk_sched.cache_blocks = cache;
    SiteConfig sc{1, config.rows, kBlockSize};
    Simulator sim;
    Network net(&sim, NetworkModel{}, 0xFEED);
    Cluster cluster(10, sc);
    RaddNodeSystem sys(&sim, &net, &cluster, config, nc);

    Block b(kBlockSize);
    for (int m = 0; m < sys.group(0)->num_members(); ++m) {
      for (BlockNum i = 0; i < kBlocks; ++i) {
        b.FillPattern(uint64_t(m) * 1000 + i);
        if (!sys.Write(sys.group(0)->SiteOfMember(m), 0, m, i, b).status.ok()) {
          std::fprintf(stderr, "cache sweep: seed write failed\n");
          return 1;
        }
      }
    }

    std::vector<double> read_ms;
    double write_total = 0;
    int writes = 0;
    for (int i = 0; i < static_cast<int>(trace.size()); ++i) {
      const Operation& o = trace[size_t(i)];
      const int m = o.member % sys.group(0)->num_members();
      const SiteId home = sys.group(0)->SiteOfMember(m);
      if (o.IsRead()) {
        auto r = sys.Read(home, 0, m, o.block);
        if (r.status.ok()) read_ms.push_back(ToMillis(r.latency));
      } else {
        b.FillPattern(uint64_t(i));
        auto w = sys.Write(home, 0, m, o.block, b);
        if (w.status.ok()) {
          write_total += ToMillis(w.latency);
          ++writes;
        }
      }
    }
    std::sort(read_ms.begin(), read_ms.end());
    const double p50 = read_ms.empty() ? 0 : read_ms[read_ms.size() / 2];
    const double p99 =
        read_ms.empty()
            ? 0
            : read_ms[static_cast<size_t>(
                  0.99 * static_cast<double>(read_ms.size() - 1))];
    const RaddNodeSystem::CacheCounters cc = sys.CacheStats();
    const uint64_t looked = cc.hits + cc.misses + cc.stale_rejected;
    t.AddRow({cache == 0 ? "off" : std::to_string(cache),
              looked == 0 ? "-"
                          : FormatDouble(static_cast<double>(cc.hits) /
                                             static_cast<double>(looked),
                                         3),
              FormatDouble(p50, 1), FormatDouble(p99, 1),
              FormatDouble(writes > 0 ? write_total / writes : 0, 1)});
  }
  t.Print();
  std::printf(
      "\nReading: under zipf 0.9 a small cache already absorbs the hot\n"
      "head of the distribution — the p50 read drops from the R = 30 ms\n"
      "disk charge to a free hit — while the p99 stays at 30 ms until the\n"
      "capacity covers most of the per-site working set. Writes pay the\n"
      "full W + parity round trip regardless (write-through).\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  int groups = 1;
  bool cache_sweep = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--groups") == 0 && i + 1 < argc) {
      groups = std::atoi(argv[++i]);
      if (groups < 1) {
        std::fprintf(stderr, "--groups must be >= 1\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--cache") == 0) {
      cache_sweep = true;
    } else {
      std::fprintf(stderr, "usage: %s [--groups N] [--cache]\n", argv[0]);
      return 2;
    }
  }
  if (cache_sweep) return RunCacheSweep();
  std::vector<Operation> trace = MakeTrace();
  CostModel cost;
  TextTable t("Workload-driven comparison: 3000 ops (2:1 reads, zipf 0.4), "
              "site failure spanning the middle third");
  t.SetHeader({"system", "avg I/O ms (whole run)", "avg I/O ms (degraded)",
               "ops blocked", "Fig. 7 static avg"});

  // ---- RADD (G = 8) and 1/2-RADD (G = 4) -----------------------------------
  for (int g : {8, 4}) {
    RaddConfig config;
    config.group_size = g;
    config.rows = RotatedLayout(g).RowsForDataBlocks(kBlocks);
    config.block_size = kBlockSize;
    SiteConfig sc{1, config.rows, kBlockSize};
    Cluster cluster(std::max(kMembers, g + 2), sc);
    RaddGroup radd(&cluster, config);
    auto member_of = [&](int m) { return m % radd.num_members(); };
    SiteId victim = radd.SiteOfMember(2);
    RunResult r = Drive(
        trace,
        [&](int i, const Operation& o) -> double {
          int m = member_of(o.member);
          SiteId home = radd.SiteOfMember(m);
          SiteId client = cluster.StateOf(home) == SiteState::kDown
                              ? radd.SiteOfMember((m + 1) % radd.num_members())
                              : home;
          OpResult res = o.IsRead()
                             ? radd.Read(client, m, o.block)
                             : radd.Write(client, m, o.block,
                                          PayloadBlock(uint64_t(i)));
          return res.ok() ? cost.Price(res.counts) : -1.0;
        },
        [&] { cluster.CrashSite(victim); },
        [&] {
          cluster.RestoreSite(victim);
          (void)radd.RunRecovery(2);
        });
    t.AddRow({g == 8 ? "RADD" : "1/2-RADD", FormatDouble(r.avg_cost_ms, 1),
              FormatDouble(r.degraded_avg_ms, 1), std::to_string(r.blocked),
              "55.0"});
  }

  // ---- RADD volume (§4 sharded data plane, --groups N) ----------------------
  if (groups > 1) {
    RaddConfig config;
    config.group_size = kMembers - 2;
    config.rows = RotatedLayout(config.group_size).RowsForDataBlocks(kBlocks);
    config.block_size = kBlockSize;
    const int num_sites = kMembers - 1 + groups;
    std::vector<int> drives(num_sites, 0);
    for (int d = 0; d < groups * kMembers; ++d) ++drives[d % num_sites];
    std::vector<SiteConfig> site_configs;
    for (int s = 0; s < num_sites; ++s) {
      site_configs.push_back(SiteConfig{
          1, static_cast<BlockNum>(drives[s]) * config.rows, kBlockSize});
    }
    Simulator sim;
    Network net(&sim, NetworkModel{}, 0xFEED);
    Cluster cluster(site_configs);
    VolumeConfig vc;
    vc.group = config;
    vc.drives_per_site = drives;
    Result<std::unique_ptr<RaddVolume>> made =
        RaddVolume::Create(&sim, &net, &cluster, vc);
    if (!made.ok()) {
      std::fprintf(stderr, "volume: %s\n", made.status().ToString().c_str());
      return 1;
    }
    RaddVolume& vol = **made;
    // Same stream shape, homes drawn over the volume's sites.
    WorkloadConfig wc;
    wc.num_members = kMembers;
    wc.blocks_per_member = kBlocks;
    wc.block_size = kBlockSize;
    wc.read_fraction = 2.0 / 3.0;
    wc.zipf_theta = 0.4;
    wc.groups = groups;
    std::vector<Operation> vtrace =
        WorkloadGenerator(wc, 0xFEED).Generate(kOps);
    SiteId victim = 2;
    RunResult r = Drive(
        vtrace,
        [&](int i, const Operation& o) -> double {
          SiteId home = static_cast<SiteId>(o.member % num_sites);
          BlockNum lba = o.block % vol.DataBlocksAtSite(home);
          SiteId client =
              cluster.StateOf(home) == SiteState::kDown
                  ? static_cast<SiteId>((home + 1) % num_sites)
                  : home;
          Result<RaddVolume::Target> tgt = vol.Resolve(home, lba);
          if (!tgt.ok()) return -1.0;
          RaddGroup* g = vol.group(tgt->group);
          OpResult res = o.IsRead()
                             ? g->Read(client, tgt->member, tgt->index)
                             : g->Write(client, tgt->member, tgt->index,
                                        PayloadBlock(uint64_t(i)));
          return res.ok() ? cost.Price(res.counts) : -1.0;
        },
        [&] { cluster.CrashSite(victim); },
        [&] {
          cluster.RestoreSite(victim);
          // §4: every group with a drive at the victim recovers; the last
          // slice's pass marks the site up.
          std::vector<std::pair<int, int>> slices;
          for (int g = 0; g < vol.num_groups(); ++g) {
            int m = vol.group(g)->MemberAtSite(victim);
            if (m >= 0) slices.emplace_back(g, m);
          }
          for (size_t si = 0; si < slices.size(); ++si) {
            (void)vol.group(slices[si].first)
                ->RunRecovery(slices[si].second, si + 1 == slices.size());
          }
        });
    t.AddRow({"RADD volume (" + std::to_string(groups) + " groups)",
              FormatDouble(r.avg_cost_ms, 1),
              FormatDouble(r.degraded_avg_ms, 1), std::to_string(r.blocked),
              "55.0"});
  }

  // ---- ROWB -----------------------------------------------------------------
  {
    Cluster cluster(kMembers, SiteConfig{1, 2 * kBlocks, kBlockSize});
    Rowb rowb(&cluster, kBlocks, kBlockSize);
    SiteId victim = 2;
    RunResult r = Drive(
        trace,
        [&](int i, const Operation& o) -> double {
          SiteId home = static_cast<SiteId>(o.member % kMembers);
          SiteId client = cluster.StateOf(home) == SiteState::kDown
                              ? (home + 2) % kMembers
                              : home;
          OpResult res = o.IsRead()
                             ? rowb.Read(client, home, o.block)
                             : rowb.Write(client, home, o.block,
                                          PayloadBlock(uint64_t(i)));
          return res.ok() ? cost.Price(res.counts) : -1.0;
        },
        [&] { cluster.CrashSite(victim); },
        [&] {
          cluster.RestoreSite(victim);
          (void)rowb.RunRecovery(victim);
        });
    t.AddRow({"ROWB", FormatDouble(r.avg_cost_ms, 1),
              FormatDouble(r.degraded_avg_ms, 1), std::to_string(r.blocked),
              "55.0"});
  }

  // ---- local RAID (no cross-site protection: a disk failure instead) --------
  {
    DiskArray disks(10, 4 * kBlocks, kBlockSize);
    LocalRaid raid(&disks, LocalRaidConfig{8, true});
    int victim_disk = 3;
    OpCounts last = raid.PhysicalOps();
    RunResult r = Drive(
        trace,
        [&](int i, const Operation& o) -> double {
          BlockNum logical =
              (static_cast<BlockNum>(o.member) * kBlocks + o.block) %
              raid.total_blocks();
          Status st = o.IsRead()
                          ? raid.Read(logical).status()
                          : raid.Write(logical, PayloadBlock(uint64_t(i)),
                                       Uid::Make(0, uint64_t(i) + 1));
          OpCounts now = raid.PhysicalOps();
          OpCounts delta = now - last;
          last = now;
          return st.ok() ? cost.Price(delta) : -1.0;
        },
        [&] { raid.FailDisk(victim_disk); },
        [&] { (void)raid.Rebuild(); });
    t.AddRow({"RAID (disk failure only)", FormatDouble(r.avg_cost_ms, 1),
              FormatDouble(r.degraded_avg_ms, 1), std::to_string(r.blocked),
              "40.0"});
  }

  t.Print();
  std::printf(
      "\nReading: RAID stays cheapest but would have been *unavailable*\n"
      "for the whole middle third had the failure been a site rather than\n"
      "a disk; RADD pays degraded-mode reconstruction only for the down\n"
      "member's 1/%d of accesses, so its time-weighted average stays close\n"
      "to its normal cost; ROWB's degraded ops are cheapest but cost 4x\n"
      "the storage of RADD.\n",
      kMembers);
  return 0;
}
