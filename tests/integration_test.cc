// Cross-module integration tests:
//   * the functional C-RAID — RaddGroup running over sites whose stores
//     are LocalRaid instances — through disk failures (absorbed locally)
//     and site failures (handled by the RADD layer);
//   * multi-group §4 deployments sharing a cluster, with failures that
//     cut across groups;
//   * workload-driven soak of the synchronous layer with trace replay
//     determinism.

#include <gtest/gtest.h>

#include "core/radd.h"
#include "schemes/local_raid.h"
#include "workload/workload.h"

namespace radd {
namespace {

Block Pat(uint64_t seed, size_t size) {
  Block b(size);
  b.FillPattern(seed);
  return b;
}

// ---------------------------------------------------------------------------
// C-RAID composition.
// ---------------------------------------------------------------------------

class CRaidIntegrationTest : public ::testing::Test {
 protected:
  static constexpr int kG = 4;        // RADD group size
  static constexpr int kLocalG = 4;   // local RAID group size
  static constexpr size_t kBlock = 512;

  CRaidIntegrationTest() {
    config_.group_size = kG;
    config_.rows = 12;  // 2 cycles -> 8 data blocks per member
    config_.block_size = kBlock;
    // Each site: local RAID of kLocalG+2 disks exposing >= rows blocks.
    BlockNum stripes = (config_.rows + kLocalG - 1) / kLocalG;
    cluster_ = std::make_unique<Cluster>(
        kG + 2, SiteConfig{kLocalG + 2, stripes, kBlock});
    for (int s = 0; s < cluster_->num_sites(); ++s) {
      LocalRaidConfig lc;
      lc.group_size = kLocalG;
      auto raid = std::make_unique<LocalRaid>(
          cluster_->site(static_cast<SiteId>(s))->disks(), lc);
      raids_.push_back(raid.get());
      cluster_->site(static_cast<SiteId>(s))->set_store(std::move(raid));
    }
    group_ = std::make_unique<RaddGroup>(cluster_.get(), config_);
  }

  void FillAll() {
    for (int m = 0; m < group_->num_members(); ++m) {
      for (BlockNum i = 0; i < group_->DataBlocksPerMember(); ++i) {
        ASSERT_TRUE(group_
                        ->Write(group_->SiteOfMember(m), m, i,
                                Pat(uint64_t(m) * 100 + i, kBlock))
                        .ok());
      }
    }
  }

  RaddConfig config_;
  std::unique_ptr<Cluster> cluster_;
  std::vector<LocalRaid*> raids_;
  std::unique_ptr<RaddGroup> group_;
};

TEST_F(CRaidIntegrationTest, NormalOperation) {
  FillAll();
  EXPECT_TRUE(group_->VerifyInvariants().ok());
  for (int m = 0; m < group_->num_members(); ++m) {
    for (BlockNum i = 0; i < group_->DataBlocksPerMember(); ++i) {
      OpResult r = group_->Read(group_->SiteOfMember(m), m, i);
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(r.data, Pat(uint64_t(m) * 100 + i, kBlock));
    }
  }
}

TEST_F(CRaidIntegrationTest, LocalDiskFailureIsInvisibleToRaddLayer) {
  FillAll();
  // Fail one local disk at member 2's site; the site stays up, its RAID
  // reconstructs transparently.
  SiteId victim = group_->SiteOfMember(2);
  ASSERT_TRUE(cluster_->site(victim)->disks()->FailDisk(2).ok());
  EXPECT_EQ(cluster_->StateOf(victim), SiteState::kUp);
  for (BlockNum i = 0; i < group_->DataBlocksPerMember(); ++i) {
    OpResult r = group_->Read(victim, 2, i);
    ASSERT_TRUE(r.ok()) << "block " << i;
    EXPECT_EQ(r.data, Pat(200 + i, kBlock));
    // And writes keep working through the degraded local array.
    ASSERT_TRUE(group_->Write(victim, 2, i, Pat(777 + i, kBlock)).ok());
  }
  EXPECT_TRUE(group_->VerifyInvariants().ok());
  // The local rebuild clears the degradation entirely.
  ASSERT_TRUE(raids_[2]->Rebuild().ok());
  EXPECT_FALSE(raids_[2]->Degraded());
}

TEST_F(CRaidIntegrationTest, SiteFailureStillHandledByRaddLayer) {
  FillAll();
  SiteId victim = group_->SiteOfMember(1);
  ASSERT_TRUE(cluster_->CrashSite(victim).ok());
  SiteId client = group_->SiteOfMember(3);
  OpResult r = group_->Read(client, 1, 0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.data, Pat(100, kBlock));
  ASSERT_TRUE(group_->Write(client, 1, 0, Pat(9999, kBlock)).ok());

  ASSERT_TRUE(cluster_->RestoreSite(victim).ok());
  Result<OpCounts> rec = group_->RunRecovery(1);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_TRUE(group_->VerifyInvariants().ok());
  OpResult back = group_->Read(victim, 1, 0);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.data, Pat(9999, kBlock));
}

TEST_F(CRaidIntegrationTest, DisasterRecoveryThroughBothLayers) {
  FillAll();
  SiteId victim = group_->SiteOfMember(0);
  ASSERT_TRUE(cluster_->DisasterSite(victim).ok());
  ASSERT_TRUE(cluster_->RestoreSite(victim).ok());
  Result<OpCounts> rec = group_->RunRecovery(0);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_TRUE(group_->VerifyInvariants().ok());
  for (BlockNum i = 0; i < group_->DataBlocksPerMember(); ++i) {
    OpResult r = group_->Read(victim, 0, i);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.data, Pat(i, kBlock));
  }
}

TEST_F(CRaidIntegrationTest, WriteAmplificationIsOneLocalWrite) {
  FillAll();
  SiteId home = group_->SiteOfMember(2);
  OpCounts before = raids_[2]->PhysicalOps();
  ASSERT_TRUE(group_->Write(home, 2, 0, Pat(5, kBlock)).ok());
  OpCounts delta = raids_[2]->PhysicalOps() - before;
  // The RADD-layer local write became data + local parity.
  EXPECT_EQ(delta.local_writes, 2u);
}

// ---------------------------------------------------------------------------
// Multi-group deployments (§4).
// ---------------------------------------------------------------------------

TEST(MultiGroup, SharedSiteFailureDegradesEveryGroupItTouches) {
  const int g = 2;  // groups of 4
  const BlockNum drive = 8;
  // Six sites; sites 0 and 1 contribute two drives each -> 8 drives = 2
  // groups.
  std::vector<BlockNum> caps = {16, 16, 8, 8, 8, 8};
  std::vector<SiteConfig> scs;
  for (BlockNum c : caps) scs.push_back(SiteConfig{1, c, 256});
  Cluster cluster(scs);
  GroupAssigner assigner(g);
  Result<std::vector<DriveGroup>> groups = assigner.AssignBlocks(caps, drive);
  ASSERT_TRUE(groups.ok()) << groups.status().ToString();
  ASSERT_EQ(groups->size(), 2u);

  RaddConfig config;
  config.group_size = g;
  config.rows = drive;
  config.block_size = 256;
  std::vector<std::unique_ptr<RaddGroup>> radds;
  for (const DriveGroup& grp : *groups) {
    radds.push_back(
        std::make_unique<RaddGroup>(&cluster, config, grp.members));
  }

  // Fill both groups.
  for (size_t gi = 0; gi < radds.size(); ++gi) {
    for (int m = 0; m < radds[gi]->num_members(); ++m) {
      for (BlockNum i = 0; i < radds[gi]->DataBlocksPerMember(); ++i) {
        ASSERT_TRUE(radds[gi]
                        ->Write(radds[gi]->SiteOfMember(m), m, i,
                                Pat(gi * 1000 + uint64_t(m) * 10 + i, 256))
                        .ok());
      }
    }
  }
  for (auto& r : radds) ASSERT_TRUE(r->VerifyInvariants().ok());

  // Site 0 hosts a drive of both groups; crash it.
  ASSERT_TRUE(cluster.CrashSite(0).ok());
  for (size_t gi = 0; gi < radds.size(); ++gi) {
    int m0 = radds[gi]->MemberAtSite(0);
    if (m0 < 0) continue;
    SiteId client =
        radds[gi]->SiteOfMember((m0 + 1) % radds[gi]->num_members());
    OpResult r = radds[gi]->Read(client, m0, 0);
    ASSERT_TRUE(r.ok()) << "group " << gi;
    EXPECT_EQ(r.data, Pat(gi * 1000 + uint64_t(m0) * 10, 256));
    ASSERT_TRUE(
        radds[gi]->Write(client, m0, 0, Pat(5000 + gi, 256)).ok());
  }

  // Recover: every involved group sweeps; only the last marks up.
  ASSERT_TRUE(cluster.RestoreSite(0).ok());
  std::vector<size_t> involved;
  for (size_t gi = 0; gi < radds.size(); ++gi) {
    if (radds[gi]->MemberAtSite(0) >= 0) involved.push_back(gi);
  }
  ASSERT_EQ(involved.size(), 2u) << "site 0 should serve both groups";
  for (size_t j = 0; j < involved.size(); ++j) {
    size_t gi = involved[j];
    Result<OpCounts> rec = radds[gi]->RunRecovery(
        radds[gi]->MemberAtSite(0), j + 1 == involved.size());
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  }
  EXPECT_EQ(cluster.StateOf(0), SiteState::kUp);
  for (size_t gi = 0; gi < radds.size(); ++gi) {
    ASSERT_TRUE(radds[gi]->VerifyInvariants().ok()) << "group " << gi;
    int m0 = radds[gi]->MemberAtSite(0);
    OpResult r = radds[gi]->Read(0, m0, 0);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.data, Pat(5000 + gi, 256));
  }
}

// ---------------------------------------------------------------------------
// Workload soak + trace determinism.
// ---------------------------------------------------------------------------

TEST(WorkloadSoak, TraceReplayIsDeterministic) {
  RaddConfig config;
  config.group_size = 4;
  config.rows = 24;
  config.block_size = 512;
  SiteConfig sc{1, config.rows, config.block_size};

  WorkloadConfig wc;
  wc.num_members = 6;
  wc.blocks_per_member =
      RotatedLayout(config.group_size).DataBlocksPerSite(config.rows);
  wc.block_size = config.block_size;
  wc.zipf_theta = 0.5;
  std::vector<Operation> trace = WorkloadGenerator(wc, 99).Generate(400);

  auto run = [&](uint64_t payload_seed) {
    Cluster cluster(6, sc);
    RaddGroup group(&cluster, config);
    Rng rng(payload_seed);
    uint64_t checksum = 0;
    for (const Operation& op : trace) {
      if (op.IsRead()) {
        OpResult r = group.Read(group.SiteOfMember(op.member), op.member,
                                op.block);
        EXPECT_TRUE(r.ok());
        checksum ^= r.data.Checksum();
      } else {
        OpResult cur = group.Read(group.SiteOfMember(op.member), op.member,
                                  op.block);
        Block page = cur.data;
        std::vector<uint8_t> bytes(op.record_size);
        for (auto& b : bytes) b = static_cast<uint8_t>(rng.Next());
        EXPECT_TRUE(
            page.WriteAt(op.record_offset, bytes.data(), bytes.size()).ok());
        EXPECT_TRUE(group
                        .Write(group.SiteOfMember(op.member), op.member,
                               op.block, page)
                        .ok());
      }
    }
    EXPECT_TRUE(group.VerifyInvariants().ok());
    return checksum;
  };

  EXPECT_EQ(run(7), run(7)) << "same trace + seed must be bit-identical";
  // Round-trip the trace through its text form and replay again.
  Result<std::vector<Operation>> back = TraceFromString(TraceToString(trace));
  ASSERT_TRUE(back.ok());
  trace = *back;
  EXPECT_EQ(run(7), run(7));
}

}  // namespace
}  // namespace radd
