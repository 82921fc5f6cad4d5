// Property-based tests: randomized operation/failure schedules against a
// shadow model (a plain map from block address to last written value),
// with the RADD's global invariants re-verified along the way.
//
// These are the strongest correctness checks in the suite: any divergence
// between what the RADD serves and what a perfect single-copy store would
// serve — under crashes, disasters, disk failures, degraded reads/writes,
// and recoveries — fails the test.

#include <gtest/gtest.h>

#include <map>

#include "common/rng.h"
#include "core/node.h"
#include "core/radd.h"

namespace radd {
namespace {

struct ShadowModel {
  std::map<std::pair<int, BlockNum>, Block> values;

  void Write(int member, BlockNum block, const Block& data) {
    values[{member, block}] = data;
  }
  Block Expected(int member, BlockNum block, size_t block_size) const {
    auto it = values.find({member, block});
    return it == values.end() ? Block(block_size) : it->second;
  }
};

// ---------------------------------------------------------------------------
// Synchronous reference model under random schedules.
// ---------------------------------------------------------------------------

struct SyncPropertyParam {
  uint64_t seed;
  int group_size;
  double spare_fraction = 1.0;
};

class SyncPropertyTest : public ::testing::TestWithParam<SyncPropertyParam> {
};

TEST_P(SyncPropertyTest, RandomScheduleMatchesShadowModel) {
  const auto& param = GetParam();
  Rng rng(param.seed);
  RaddConfig config;
  config.group_size = param.group_size;
  config.rows = static_cast<BlockNum>(2 * (param.group_size + 2));
  config.block_size = 256;
  config.spare_fraction = param.spare_fraction;
  SiteConfig sc{2, config.rows / 2 + 1, config.block_size};
  Cluster cluster(param.group_size + 2, sc);
  RaddGroup group(&cluster, config);
  ShadowModel shadow;

  const int members = group.num_members();
  const BlockNum blocks = group.DataBlocksPerMember();
  // At most one non-up site at any time (the paper's single-failure
  // tolerance); track which.
  int degraded_member = -1;

  auto up_site = [&](int exclude) {
    int m;
    do {
      m = static_cast<int>(rng.Uniform(static_cast<uint64_t>(members)));
    } while (m == exclude);
    return group.SiteOfMember(m);
  };

  for (int step = 0; step < 600; ++step) {
    SCOPED_TRACE("step " + std::to_string(step) + " seed " +
                 std::to_string(param.seed));
    uint64_t dice = rng.Uniform(100);
    if (dice < 42) {
      // Write a random block from an appropriate client.
      int m = static_cast<int>(rng.Uniform(static_cast<uint64_t>(members)));
      BlockNum b = rng.Uniform(blocks);
      Block data(config.block_size);
      data.FillPattern(rng.Next());
      SiteId client = cluster.StateOf(group.SiteOfMember(m)) ==
                              SiteState::kDown
                          ? up_site(m)
                          : group.SiteOfMember(m);
      OpResult w = group.Write(client, m, b, data);
      if (w.ok()) {
        shadow.Write(m, b, data);
      } else {
        ASSERT_TRUE(w.status.IsBlocked()) << w.status.ToString();
      }
    } else if (dice < 84) {
      // Read a random block and compare against the shadow.
      int m = static_cast<int>(rng.Uniform(static_cast<uint64_t>(members)));
      BlockNum b = rng.Uniform(blocks);
      SiteId client = cluster.StateOf(group.SiteOfMember(m)) ==
                              SiteState::kDown
                          ? up_site(m)
                          : group.SiteOfMember(m);
      OpResult r = group.Read(client, m, b);
      if (r.ok()) {
        EXPECT_EQ(r.data, shadow.Expected(m, b, config.block_size))
            << "member " << m << " block " << b;
      } else {
        ASSERT_TRUE(r.status.IsBlocked()) << r.status.ToString();
      }
    } else if (dice < 90) {
      // Inject a failure if everyone is currently healthy.
      if (degraded_member >= 0) continue;
      degraded_member =
          static_cast<int>(rng.Uniform(static_cast<uint64_t>(members)));
      SiteId victim = group.SiteOfMember(degraded_member);
      uint64_t kind = rng.Uniform(3);
      if (kind == 0) {
        ASSERT_TRUE(cluster.CrashSite(victim).ok());
      } else if (kind == 1) {
        ASSERT_TRUE(cluster.DisasterSite(victim).ok());
      } else {
        ASSERT_TRUE(
            cluster.FailDisk(victim, static_cast<int>(rng.Uniform(2))).ok());
      }
    } else if (dice < 97) {
      // Repair.
      if (degraded_member < 0) continue;
      SiteId victim = group.SiteOfMember(degraded_member);
      if (cluster.StateOf(victim) == SiteState::kDown) {
        ASSERT_TRUE(cluster.RestoreSite(victim).ok());
      }
      Result<OpCounts> rec = group.RunRecovery(degraded_member);
      ASSERT_TRUE(rec.ok()) << rec.status().ToString();
      degraded_member = -1;
    } else {
      // Invariant audit.
      ASSERT_TRUE(group.VerifyInvariants().ok());
    }
  }

  // Final: repair and audit everything, then compare every single block.
  if (degraded_member >= 0) {
    SiteId victim = group.SiteOfMember(degraded_member);
    if (cluster.StateOf(victim) == SiteState::kDown) {
      ASSERT_TRUE(cluster.RestoreSite(victim).ok());
    }
    ASSERT_TRUE(group.RunRecovery(degraded_member).ok());
  }
  ASSERT_TRUE(group.VerifyInvariants().ok());
  for (int m = 0; m < members; ++m) {
    for (BlockNum b = 0; b < blocks; ++b) {
      OpResult r = group.Read(group.SiteOfMember(m), m, b);
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(r.data, shadow.Expected(m, b, config.block_size))
          << "member " << m << " block " << b;
    }
  }
}

std::vector<SyncPropertyParam> SyncParams() {
  std::vector<SyncPropertyParam> out;
  for (uint64_t seed = 1; seed <= 10; ++seed) out.push_back({seed, 4});
  for (uint64_t seed = 11; seed <= 14; ++seed) out.push_back({seed, 8});
  for (uint64_t seed = 15; seed <= 17; ++seed) out.push_back({seed, 2});
  for (uint64_t seed = 18; seed <= 19; ++seed) out.push_back({seed, 1});
  // §7.2 reduced spares: degraded writes may block; the shadow-model
  // comparison and invariants must still hold throughout.
  for (uint64_t seed = 20; seed <= 23; ++seed) {
    out.push_back({seed, 4, 0.5});
  }
  for (uint64_t seed = 24; seed <= 25; ++seed) {
    out.push_back({seed, 4, 0.0});
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Schedules, SyncPropertyTest,
                         ::testing::ValuesIn(SyncParams()));

// ---------------------------------------------------------------------------
// Message-driven layer under random schedules (including message loss).
// ---------------------------------------------------------------------------

struct AsyncPropertyParam {
  uint64_t seed;
  double drop_probability;
};

class AsyncPropertyTest
    : public ::testing::TestWithParam<AsyncPropertyParam> {};

TEST_P(AsyncPropertyTest, RandomScheduleMatchesShadowModel) {
  const auto& param = GetParam();
  Rng rng(param.seed);
  RaddConfig config;
  config.group_size = 4;
  config.rows = 12;
  config.block_size = 256;
  SiteConfig sc{1, config.rows, config.block_size};
  Simulator sim;
  NetworkModel nm;
  nm.drop_probability = param.drop_probability;
  Network net(&sim, nm, param.seed * 77);
  Cluster cluster(6, sc);
  RaddNodeSystem sys(&sim, &net, &cluster, config);
  ShadowModel shadow;

  const int members = 6;
  const BlockNum blocks = sys.group(0)->DataBlocksPerMember();
  int down_member = -1;

  auto up_site = [&](int exclude) {
    int m;
    do {
      m = static_cast<int>(rng.Uniform(static_cast<uint64_t>(members)));
    } while (m == exclude);
    return sys.group(0)->SiteOfMember(m);
  };

  for (int step = 0; step < 250; ++step) {
    SCOPED_TRACE("step " + std::to_string(step) + " seed " +
                 std::to_string(param.seed));
    uint64_t dice = rng.Uniform(100);
    if (dice < 40) {
      int m = static_cast<int>(rng.Uniform(static_cast<uint64_t>(members)));
      BlockNum b = rng.Uniform(blocks);
      Block data(config.block_size);
      data.FillPattern(rng.Next());
      SiteId client =
          m == down_member ? up_site(m) : sys.group(0)->SiteOfMember(m);
      auto w = sys.Write(client, 0, m, b, data);
      if (w.status.ok()) {
        shadow.Write(m, b, data);
      }
    } else if (dice < 80) {
      int m = static_cast<int>(rng.Uniform(static_cast<uint64_t>(members)));
      BlockNum b = rng.Uniform(blocks);
      SiteId client =
          m == down_member ? up_site(m) : sys.group(0)->SiteOfMember(m);
      auto r = sys.Read(client, 0, m, b);
      if (r.status.ok()) {
        EXPECT_EQ(r.data, shadow.Expected(m, b, config.block_size))
            << "member " << m << " block " << b;
      }
    } else if (dice < 88) {
      if (down_member >= 0) continue;
      down_member =
          static_cast<int>(rng.Uniform(static_cast<uint64_t>(members)));
      ASSERT_TRUE(
          cluster.CrashSite(sys.group(0)->SiteOfMember(down_member)).ok());
    } else if (dice < 96) {
      if (down_member < 0) continue;
      SiteId victim = sys.group(0)->SiteOfMember(down_member);
      ASSERT_TRUE(cluster.RestoreSite(victim).ok());
      sim.Run();  // drain in-flight traffic before the sweep
      ASSERT_TRUE(sys.group(0)->RunRecovery(down_member).ok());
      down_member = -1;
    } else {
      sim.Run();
      ASSERT_TRUE(sys.group(0)->VerifyInvariants().ok());
    }
  }

  if (down_member >= 0) {
    SiteId victim = sys.group(0)->SiteOfMember(down_member);
    ASSERT_TRUE(cluster.RestoreSite(victim).ok());
    sim.Run();
    ASSERT_TRUE(sys.group(0)->RunRecovery(down_member).ok());
  }
  sim.Run();
  ASSERT_TRUE(sys.group(0)->VerifyInvariants().ok());
  for (int m = 0; m < members; ++m) {
    for (BlockNum b = 0; b < blocks; ++b) {
      auto r = sys.Read(sys.group(0)->SiteOfMember(m), 0, m, b);
      ASSERT_TRUE(r.status.ok());
      EXPECT_EQ(r.data, shadow.Expected(m, b, config.block_size))
          << "member " << m << " block " << b;
    }
  }
}

std::vector<AsyncPropertyParam> AsyncParams() {
  std::vector<AsyncPropertyParam> out;
  for (uint64_t seed = 1; seed <= 6; ++seed) out.push_back({seed, 0.0});
  for (uint64_t seed = 7; seed <= 12; ++seed) out.push_back({seed, 0.10});
  // Heavy loss: client-level retries fire; server-side dedup must keep
  // exactly one UID-bearing flow per operation.
  for (uint64_t seed = 13; seed <= 16; ++seed) out.push_back({seed, 0.25});
  return out;
}

INSTANTIATE_TEST_SUITE_P(Schedules, AsyncPropertyTest,
                         ::testing::ValuesIn(AsyncParams()));

// Regression for the duplicate-flow bug: many concurrent writes to one
// block under loss queue behind each other's locks long enough to trip
// the client retry timer; without server-side dedup the retries spawned
// parallel flows with fresh UIDs and corrupted the parity UID array.
TEST(AsyncHotBlock, ConcurrentWritesWithRetriesStayConsistent) {
  RaddConfig config;
  config.group_size = 4;
  config.rows = 12;
  config.block_size = 256;
  Simulator sim;
  NetworkModel nm;
  nm.drop_probability = 0.15;
  Network net(&sim, nm, 0xd00d);
  Cluster cluster(6, SiteConfig{1, config.rows, config.block_size});
  RaddNodeSystem sys(&sim, &net, &cluster, config);

  int done = 0, ok = 0;
  const int kWrites = 40;
  for (int i = 0; i < kWrites; ++i) {
    Block b(config.block_size);
    b.FillPattern(static_cast<uint64_t>(i));
    // Everyone hammers member 2's block 0.
    SiteId client = sys.group(0)->SiteOfMember(i % 6);
    sys.AsyncWrite(client, 0, 2, 0, b, [&](Status st, SimTime) {
      ++done;
      if (st.ok()) ++ok;
    });
  }
  sim.Run();
  EXPECT_EQ(done, kWrites);
  EXPECT_GT(ok, kWrites / 2);
  EXPECT_TRUE(sys.group(0)->VerifyInvariants().ok());
}

}  // namespace
}  // namespace radd
