// A closed-loop load on a multi-group RaddVolume, shared by the volume
// tests: every site runs mixed reads and writes (one read to two writes)
// against its own LBAs, client == home, over a fault-free network — the
// confinement contract under which the sharded engine is defined.
//
// The cluster has the shape the chaos harness uses: with one group the
// identity layout over G+1+parities sites, with more a round-robin spread
// of groups * members drives over members - 1 + groups sites.

#ifndef RADD_TESTS_VOLUME_LOAD_H_
#define RADD_TESTS_VOLUME_LOAD_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/volume.h"
#include "sim/simulator.h"

namespace radd {

struct VolumeLoad {
  RaddConfig group;  // every group's shape, parities included
  NodeConfig node;   // protocol and disk tuning shared by every group
  int groups = 1;
  int ops_per_site = 0;
  /// Ops each site keeps in flight per drive it hosts, so a site backing
  /// several groups keeps each group's pipeline as full as one drive's.
  int outstanding_per_drive = 2;
  /// 0 runs the monolithic engine; otherwise the sharded engine, one
  /// shard per site, on this many worker threads.
  int threads = 0;
};

/// Outcome digest of a volume run: simulated makespan, ops completed and
/// failed, and an FNV-1a hash over every site's full store contents (data
/// bytes, block UIDs, parity UID arrays) — the "final readback state".
struct VolumeOutcome {
  SimTime makespan = 0;
  int completed = 0;
  int failed = 0;
  uint64_t store_hash = 0;
  bool invariants_ok = false;
  bool operator==(const VolumeOutcome& o) const {
    return makespan == o.makespan && completed == o.completed &&
           failed == o.failed && store_hash == o.store_hash;
  }
};

inline int VolumeSites(const RaddConfig& group, int groups) {
  const int members = group.group_size + 1 + group.parities;
  return groups == 1 ? members : members - 1 + groups;
}

inline uint64_t HashMix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

inline VolumeOutcome RunVolumeLoad(const VolumeLoad& load) {
  const RaddConfig& config = load.group;
  const int members = config.group_size + 1 + config.parities;
  const int num_sites = VolumeSites(config, load.groups);
  std::vector<int> drives(num_sites, 0);
  for (int d = 0; d < load.groups * members; ++d) ++drives[d % num_sites];

  Simulator sim;
  if (load.threads > 0) {
    sim.ConfigureShards(num_sites, NetworkModel{}.one_way_latency);
  }
  Network net(&sim, NetworkModel{}, 0xB01);
  if (load.threads > 0) {
    for (int s = 0; s < num_sites; ++s) net.MapSiteToShard(s, s);
  }
  std::vector<SiteConfig> site_configs;
  for (int s = 0; s < num_sites; ++s) {
    site_configs.push_back(SiteConfig{
        1, static_cast<BlockNum>(drives[s]) * config.rows,
        config.block_size});
  }
  Cluster cluster(site_configs);
  VolumeConfig vc;
  vc.group = config;
  vc.drives_per_site = drives;
  vc.node = load.node;
  Result<std::unique_ptr<RaddVolume>> made =
      RaddVolume::Create(&sim, &net, &cluster, vc);
  EXPECT_TRUE(made.ok()) << made.status().ToString();
  if (!made.ok()) return {};
  RaddVolume& vol = **made;

  // Each site's loop is self-contained (its own counters and payload), so
  // concurrent shards never share mutable state.
  struct SiteLoop {
    Block payload{0};
    int completed = 0;
    int failed = 0;
    int issued = 0;
  };
  std::vector<SiteLoop> loops(static_cast<size_t>(num_sites));
  for (auto& l : loops) l.payload = Block(config.block_size);
  std::function<void(int)> issue = [&](int s) {
    SiteLoop& loop = loops[static_cast<size_t>(s)];
    if (loop.issued >= load.ops_per_site) return;
    const int i = loop.issued++;
    const SiteId site = static_cast<SiteId>(s);
    const BlockNum lba =
        static_cast<BlockNum>(i) % vol.DataBlocksAtSite(site);
    auto done = [&, s](const Status& st) {
      SiteLoop& l = loops[static_cast<size_t>(s)];
      ++l.completed;
      if (!st.ok()) ++l.failed;
      issue(s);
    };
    if (i % 3 == 0) {
      vol.AsyncRead(site, site, lba,
                    [done](Status st, const Block&, SimTime) { done(st); });
    } else {
      loop.payload.FillPattern(static_cast<uint64_t>(s * 100003 + i));
      vol.AsyncWrite(site, site, lba, loop.payload,
                     [done](Status st, SimTime) { done(st); });
    }
  };
  const int outstanding = load.outstanding_per_drive;
  if (load.threads > 0) {
    // Every site's loop starts from an event on its own shard, so all
    // issues (and their timers) are shard-confined from the first op.
    for (int s = 0; s < num_sites; ++s) {
      sim.AtShard(s, 0, [&, s]() {
        for (int k = 0; k < outstanding * drives[s]; ++k) issue(s);
      });
    }
  } else {
    for (int s = 0; s < num_sites; ++s) {
      for (int k = 0; k < outstanding * drives[s]; ++k) issue(s);
    }
  }
  VolumeOutcome out;
  out.makespan = load.threads > 0 ? sim.RunParallel(load.threads) : sim.Run();
  uint64_t h = 1469598103934665603ull;
  for (int s = 0; s < num_sites; ++s) {
    const BlockStore* store = cluster.site(static_cast<SiteId>(s))->store();
    for (BlockNum b = 0; b < store->total_blocks(); ++b) {
      Result<BlockRecord> rec = store->Peek(b);
      if (!rec.ok()) {
        h = HashMix(h, 0xDEAD);
        continue;
      }
      for (uint8_t byte : rec->data.bytes()) h = HashMix(h, byte);
      h = HashMix(h, rec->uid.raw());
      for (Uid u : rec->uid_array) h = HashMix(h, u.raw());
    }
    out.completed += loops[static_cast<size_t>(s)].completed;
    out.failed += loops[static_cast<size_t>(s)].failed;
  }
  out.store_hash = h;
  out.invariants_ok = vol.VerifyInvariants().ok();
  return out;
}

}  // namespace radd

#endif  // RADD_TESTS_VOLUME_LOAD_H_
