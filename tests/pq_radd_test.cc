// The P+Q double-parity scheme end to end over the synchronous RaddGroup:
// layout roles, two-erasure degraded reads for every erasure pattern,
// spare arbitration under overlapping failures, and recovery sweeps that
// converge both parities back to the invariant state.

#include <gtest/gtest.h>

#include "common/gf256.h"
#include "common/rng.h"
#include "core/radd.h"

namespace radd {
namespace {

Block MakeBlock(uint64_t seed, size_t size = Block::kDefaultSize) {
  Block b(size);
  b.FillPattern(seed);
  return b;
}

class PqGroupTest : public ::testing::Test {
 protected:
  PqGroupTest() { Recreate(5); }

  void Recreate(int g, BlockNum rows = 0) {
    config_ = RaddConfig{};
    config_.group_size = g;
    config_.parities = 2;
    config_.rows = rows == 0 ? static_cast<BlockNum>(3 * (g + 3)) : rows;
    SiteConfig sc;
    sc.num_disks = 1;
    sc.blocks_per_disk = config_.rows;
    sc.block_size = config_.block_size;
    cluster_ = std::make_unique<Cluster>(g + 3, sc);
    group_ = std::make_unique<RaddGroup>(cluster_.get(), config_);
  }

  OpResult WriteLocal(int home, BlockNum i, const Block& b) {
    return group_->Write(group_->SiteOfMember(home), home, i, b);
  }
  OpResult ReadLocal(int home, BlockNum i) {
    return group_->Read(group_->SiteOfMember(home), home, i);
  }
  /// Reads routed from a surviving site (the member's own site is dead).
  OpResult ReadFrom(SiteId client, int home, BlockNum i) {
    return group_->Read(client, home, i);
  }

  /// Crash + restore + sweep a member's site back to up.
  void Recover(int m) {
    ASSERT_TRUE(cluster_->RestoreSite(group_->SiteOfMember(m)).ok());
    Result<OpCounts> rc = group_->RunRecovery(m);
    ASSERT_TRUE(rc.ok()) << rc.status().ToString();
  }

  /// A client site that is not any of the listed members' sites.
  SiteId SurvivorSite(std::initializer_list<int> dead) {
    for (int m = 0; m < group_->num_members(); ++m) {
      bool is_dead = false;
      for (int d : dead) is_dead |= (m == d);
      if (!is_dead) return group_->SiteOfMember(m);
    }
    return 0;
  }

  RaddConfig config_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<RaddGroup> group_;
};

// ---------------------------------------------------------------------------
// Layout roles.
// ---------------------------------------------------------------------------

TEST(PqLayout, RolesPartitionEveryRow) {
  RotatedLayout lay(4, /*parities=*/2);
  ASSERT_EQ(lay.num_sites(), 7);
  for (BlockNum row = 0; row < 21; ++row) {
    int data = 0, p = 0, q = 0, spare = 0;
    for (int j = 0; j < lay.num_sites(); ++j) {
      switch (lay.RoleOf(static_cast<SiteId>(j), row)) {
        case BlockRole::kData: ++data; break;
        case BlockRole::kParity: ++p; break;
        case BlockRole::kParityQ: ++q; break;
        case BlockRole::kSpare: ++spare; break;
        case BlockRole::kNone:
          ADD_FAILURE() << "rotated layout produced a none role";
          break;
      }
    }
    EXPECT_EQ(data, 4) << "row=" << row;
    EXPECT_EQ(p, 1) << "row=" << row;
    EXPECT_EQ(q, 1) << "row=" << row;
    EXPECT_EQ(spare, 1) << "row=" << row;
    EXPECT_EQ(lay.RoleOf(lay.ParitySite(row), row), BlockRole::kParity);
    EXPECT_EQ(lay.RoleOf(lay.QParitySite(row), row), BlockRole::kParityQ);
    EXPECT_EQ(lay.RoleOf(lay.SpareSite(row), row), BlockRole::kSpare);
  }
}

TEST(PqLayout, DataToRowRoundTripsAroundThreeSkips) {
  RotatedLayout lay(4, /*parities=*/2);
  for (int j = 0; j < lay.num_sites(); ++j) {
    SiteId site = static_cast<SiteId>(j);
    for (BlockNum i = 0; i < 40; ++i) {
      BlockNum row = lay.DataToRow(site, i);
      EXPECT_EQ(lay.RoleOf(site, row), BlockRole::kData)
          << "site=" << j << " i=" << i;
      Result<BlockNum> back = lay.RowToData(site, row);
      ASSERT_TRUE(back.ok());
      EXPECT_EQ(*back, i);
    }
  }
}

TEST(PqLayout, SingleParityLayoutUnchanged) {
  // parities == 1 must reduce to the paper's Fig. 1 exactly: spare at
  // (K+1) mod (G+2), same data numbering as the original layout.
  RotatedLayout pq1(8);
  RotatedLayout explicit1(8, 1);
  ASSERT_EQ(pq1.num_sites(), explicit1.num_sites());
  for (BlockNum row = 0; row < 30; ++row) {
    EXPECT_EQ(pq1.SpareSite(row),
              static_cast<SiteId>((row + 1) % 10));
    for (int j = 0; j < 10; ++j) {
      EXPECT_EQ(pq1.RoleOf(static_cast<SiteId>(j), row),
                explicit1.RoleOf(static_cast<SiteId>(j), row));
      EXPECT_NE(pq1.RoleOf(static_cast<SiteId>(j), row),
                BlockRole::kParityQ);
    }
  }
}

// ---------------------------------------------------------------------------
// Healthy operation keeps both parities.
// ---------------------------------------------------------------------------

TEST_F(PqGroupTest, WritesMaintainBothParities) {
  Rng rng(1);
  for (int round = 0; round < 40; ++round) {
    int home = static_cast<int>(rng.Uniform(
        static_cast<uint64_t>(group_->num_members())));
    BlockNum i = static_cast<BlockNum>(
        rng.Uniform(static_cast<uint64_t>(group_->DataBlocksPerMember())));
    OpResult w = WriteLocal(home, i, MakeBlock(rng.Next()));
    ASSERT_TRUE(w.ok()) << w.status.ToString();
  }
  EXPECT_TRUE(group_->VerifyInvariants().ok());
}

TEST_F(PqGroupTest, NormalWriteCostsOneExtraParityWrite) {
  // Fig. 3 row 2 becomes W + 2 RW under P+Q: one local write, one delta to
  // P, one (scaled) delta to Q.
  OpResult w = WriteLocal(0, 0, MakeBlock(7));
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(w.counts.local_writes, 1u);
  EXPECT_EQ(w.counts.remote_writes, 2u);
}

// ---------------------------------------------------------------------------
// Two-erasure degraded reads, every pattern.
// ---------------------------------------------------------------------------

TEST_F(PqGroupTest, ServesReadsWithTwoDataMembersDown) {
  std::vector<Block> vals;
  for (int m = 0; m < group_->num_members(); ++m) {
    Block b = MakeBlock(100 + static_cast<uint64_t>(m));
    ASSERT_TRUE(WriteLocal(m, 0, b).ok());
    vals.push_back(b);
  }
  // Crash members 0 and 1 (every row loses at most two coded blocks).
  ASSERT_TRUE(cluster_->CrashSite(group_->SiteOfMember(0)).ok());
  ASSERT_TRUE(cluster_->CrashSite(group_->SiteOfMember(1)).ok());
  SiteId client = SurvivorSite({0, 1});
  for (int m : {0, 1}) {
    OpResult r = ReadFrom(client, m, 0);
    ASSERT_TRUE(r.ok()) << "m=" << m << ": " << r.status.ToString();
    EXPECT_EQ(r.data, vals[static_cast<size_t>(m)]) << "m=" << m;
  }
  // Surviving members still read their own blocks.
  for (int m = 2; m < group_->num_members(); ++m) {
    OpResult r = ReadLocal(m, 0);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.data, vals[static_cast<size_t>(m)]);
  }
}

TEST_F(PqGroupTest, EveryDeadPairStillServesEveryBlock) {
  // The exhaustive version: for every pair of members {a, b}, kill both
  // and read back every data block of both. Spares cover one failure per
  // row; the second always leans on the GF(256) decode somewhere.
  std::vector<std::vector<Block>> vals(
      static_cast<size_t>(group_->num_members()));
  Rng rng(7);
  for (int m = 0; m < group_->num_members(); ++m) {
    for (BlockNum i = 0; i < group_->DataBlocksPerMember(); ++i) {
      Block b = MakeBlock(rng.Next());
      ASSERT_TRUE(WriteLocal(m, i, b).ok());
      vals[static_cast<size_t>(m)].push_back(b);
    }
  }
  for (int a = 0; a < group_->num_members(); ++a) {
    for (int b = a + 1; b < group_->num_members(); ++b) {
      ASSERT_TRUE(cluster_->CrashSite(group_->SiteOfMember(a)).ok());
      ASSERT_TRUE(cluster_->CrashSite(group_->SiteOfMember(b)).ok());
      SiteId client = SurvivorSite({a, b});
      for (int m : {a, b}) {
        for (BlockNum i = 0; i < group_->DataBlocksPerMember(); ++i) {
          OpResult r = ReadFrom(client, m, i);
          ASSERT_TRUE(r.ok()) << "dead={" << a << "," << b << "} m=" << m
                              << " i=" << i << ": " << r.status.ToString();
          EXPECT_EQ(r.data, vals[static_cast<size_t>(m)][static_cast<size_t>(i)]);
        }
      }
      ASSERT_TRUE(cluster_->RestoreSite(group_->SiteOfMember(a)).ok());
      ASSERT_TRUE(cluster_->RestoreSite(group_->SiteOfMember(b)).ok());
      ASSERT_TRUE(cluster_->MarkUp(group_->SiteOfMember(a)).ok());
      ASSERT_TRUE(cluster_->MarkUp(group_->SiteOfMember(b)).ok());
    }
  }
}

// ---------------------------------------------------------------------------
// Double-failure writes and the spare collision rule.
// ---------------------------------------------------------------------------

TEST_F(PqGroupTest, SecondWriterToSameRowSpareBlocksInsteadOfCorrupting) {
  // Find a row whose spare must absorb writes for two dead members: crash
  // two data members of the same row and write to both. The first write
  // lands in the spare; the second must return Blocked (not Internal, not
  // data loss).
  BlockNum i0 = 0;
  Result<BlockNum> same = Status::NotFound("unset");
  for (; i0 < group_->DataBlocksPerMember(); ++i0) {
    same = group_->layout().RowToData(1, group_->layout().DataToRow(0, i0));
    if (same.ok()) break;
  }
  ASSERT_TRUE(same.ok()) << "members 0/1 share no data row";
  ASSERT_TRUE(WriteLocal(0, i0, MakeBlock(1)).ok());
  ASSERT_TRUE(WriteLocal(1, *same, MakeBlock(2)).ok());

  ASSERT_TRUE(cluster_->CrashSite(group_->SiteOfMember(0)).ok());
  ASSERT_TRUE(cluster_->CrashSite(group_->SiteOfMember(1)).ok());
  SiteId client = SurvivorSite({0, 1});

  OpResult w1 = group_->Write(client, 0, i0, MakeBlock(11));
  ASSERT_TRUE(w1.ok()) << w1.status.ToString();
  OpResult w2 = group_->Write(client, 1, *same, MakeBlock(22));
  EXPECT_TRUE(w2.status.IsBlocked()) << w2.status.ToString();

  // The degraded write through the spare stays readable for both the
  // writer and after decode.
  OpResult r = ReadFrom(client, 0, i0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.data, MakeBlock(11));
  // Member 1's block decodes to its pre-failure contents.
  OpResult r1 = ReadFrom(client, 1, *same);
  ASSERT_TRUE(r1.ok()) << r1.status.ToString();
  EXPECT_EQ(r1.data, MakeBlock(2));
}

// ---------------------------------------------------------------------------
// Recovery convergence.
// ---------------------------------------------------------------------------

TEST_F(PqGroupTest, DoubleCrashWithWritesHealsToAllUp) {
  Rng rng(11);
  std::vector<std::vector<Block>> vals(
      static_cast<size_t>(group_->num_members()));
  for (int m = 0; m < group_->num_members(); ++m) {
    for (BlockNum i = 0; i < group_->DataBlocksPerMember(); ++i) {
      Block b = MakeBlock(rng.Next());
      ASSERT_TRUE(WriteLocal(m, i, b).ok());
      vals[static_cast<size_t>(m)].push_back(b);
    }
  }

  ASSERT_TRUE(cluster_->CrashSite(group_->SiteOfMember(2)).ok());
  ASSERT_TRUE(cluster_->CrashSite(group_->SiteOfMember(5)).ok());
  SiteId client = SurvivorSite({2, 5});

  // Write through the outage wherever the spare can absorb it; remember
  // what was acked.
  for (int m : {2, 5}) {
    for (BlockNum i = 0; i < group_->DataBlocksPerMember(); ++i) {
      OpResult w = group_->Write(client, m, i, MakeBlock(rng.Next()));
      if (w.ok()) {
        OpResult back = group_->Read(client, m, i);
        ASSERT_TRUE(back.ok());
        vals[static_cast<size_t>(m)][static_cast<size_t>(i)] = back.data;
      }
    }
  }

  Recover(2);
  Recover(5);
  EXPECT_EQ(cluster_->UnhealthySites(), 0);
  Status inv = group_->VerifyInvariants();
  EXPECT_TRUE(inv.ok()) << inv.ToString();

  // Every acked value survives the double failure and the heal.
  for (int m = 0; m < group_->num_members(); ++m) {
    for (BlockNum i = 0; i < group_->DataBlocksPerMember(); ++i) {
      OpResult r = ReadLocal(m, i);
      ASSERT_TRUE(r.ok()) << "m=" << m << " i=" << i;
      EXPECT_EQ(r.data, vals[static_cast<size_t>(m)][static_cast<size_t>(i)])
          << "m=" << m << " i=" << i;
    }
  }
}

TEST_F(PqGroupTest, DisasterPlusCrashReconstructsFromScratch) {
  Rng rng(13);
  std::vector<Block> vals;
  for (int m = 0; m < group_->num_members(); ++m) {
    Block b = MakeBlock(rng.Next());
    ASSERT_TRUE(WriteLocal(m, 1, b).ok());
    vals.push_back(b);
  }
  // Disaster (disks wiped) at one member, crash at another.
  ASSERT_TRUE(cluster_->DisasterSite(group_->SiteOfMember(1)).ok());
  ASSERT_TRUE(cluster_->CrashSite(group_->SiteOfMember(4)).ok());
  SiteId client = SurvivorSite({1, 4});
  OpResult r = ReadFrom(client, 1, 1);
  ASSERT_TRUE(r.ok()) << r.status.ToString();
  EXPECT_EQ(r.data, vals[1]);

  Recover(1);
  Recover(4);
  Status inv = group_->VerifyInvariants();
  EXPECT_TRUE(inv.ok()) << inv.ToString();
  for (int m = 0; m < group_->num_members(); ++m) {
    OpResult back = ReadLocal(m, 1);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.data, vals[static_cast<size_t>(m)]) << "m=" << m;
  }
}

TEST_F(PqGroupTest, QSiteCrashRecoversStaleQRows) {
  // Writes while the Q site of some rows is down drop the Q leg; the
  // site's sweep must rebuild those rows before VerifyInvariants passes.
  ASSERT_TRUE(WriteLocal(0, 0, MakeBlock(1)).ok());
  const int victim = 3;
  ASSERT_TRUE(cluster_->CrashSite(group_->SiteOfMember(victim)).ok());
  Rng rng(17);
  SiteId client = SurvivorSite({victim});
  for (int m = 0; m < group_->num_members(); ++m) {
    if (m == victim) continue;
    for (BlockNum i = 0; i < group_->DataBlocksPerMember(); ++i) {
      OpResult w = group_->Write(client, m, i, MakeBlock(rng.Next()));
      ASSERT_TRUE(w.ok()) << w.status.ToString();
    }
  }
  Recover(victim);
  Status inv = group_->VerifyInvariants();
  EXPECT_TRUE(inv.ok()) << inv.ToString();
  EXPECT_GT(group_->stats().Get("radd.recovery_q_rebuilt"), 0u);
}

TEST_F(PqGroupTest, ScrubRepairsBothParityFlavors) {
  ASSERT_TRUE(WriteLocal(0, 0, MakeBlock(3)).ok());
  // Drop updates at a dead member, then restore WITHOUT a sweep: stale P
  // and Q rows remain for the scrubber. MarkUp without recovery models an
  // operator forcing the site up.
  const int victim = 2;
  ASSERT_TRUE(cluster_->CrashSite(group_->SiteOfMember(victim)).ok());
  Rng rng(19);
  SiteId client = SurvivorSite({victim});
  for (int m = 0; m < group_->num_members(); ++m) {
    if (m == victim) continue;
    for (BlockNum i = 0; i < group_->DataBlocksPerMember(); ++i) {
      ASSERT_TRUE(group_->Write(client, m, i, MakeBlock(rng.Next())).ok());
    }
  }
  ASSERT_TRUE(cluster_->RestoreSite(group_->SiteOfMember(victim)).ok());
  ASSERT_TRUE(cluster_->MarkUp(group_->SiteOfMember(victim)).ok());

  Result<int> repaired = group_->ScrubParity(victim);
  ASSERT_TRUE(repaired.ok()) << repaired.status().ToString();
  EXPECT_GT(*repaired, 0);
  // After scrubbing the stale parity rows (and draining any spares via
  // reads), the invariants hold again for rows the scrubber audited.
  Status inv = group_->VerifyInvariants();
  EXPECT_TRUE(inv.ok()) << inv.ToString();
}

// ---------------------------------------------------------------------------
// Single-parity guardrail.
// ---------------------------------------------------------------------------

TEST(PqConfig, SingleParityGroupRejectsWrongMemberCount) {
  SiteConfig sc;
  sc.num_disks = 1;
  sc.blocks_per_disk = 30;
  Cluster cluster(9, sc);
  RaddConfig cfg;
  cfg.group_size = 8;
  cfg.parities = 2;
  cfg.rows = 30;
  std::vector<LogicalDrive> members;
  for (int m = 0; m < 9; ++m) {
    LogicalDrive d;
    d.site = static_cast<SiteId>(m);
    d.first_block = 0;
    d.drive_blocks = 30;
    members.push_back(d);
  }
  // 9 members but G+1+2 = 11 expected.
  EXPECT_FALSE(RaddGroup::ValidateMembers(cluster, cfg, members).ok());
}

}  // namespace
}  // namespace radd
