// End-to-end online expansion: RaddVolume::AddDrive on a live
// declustered volume, the paced migration through RaddGroup::MigrateStep
// and RecoverySweeper::StartMigration, old-epoch reads while blocks are
// in flight, and the bounded-movement guarantee.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cluster/status_service.h"
#include "core/sweeper.h"
#include "core/volume.h"

namespace radd {
namespace {

// One declustered group of C = 6 members (G = 2, one parity, so stripe
// width 4) over six one-drive sites, plus a seventh, initially empty,
// site for the expansion to land on.
class ExpansionTest : public ::testing::Test {
 protected:
  static constexpr int kG = 2;
  static constexpr int kWidth = 6;       // cluster width C
  static constexpr BlockNum kRows = 8;   // 2 rounds of stripe width 4
  static constexpr SiteId kNewSite = kWidth;

  void Build(int parities = 1) {
    config_.group_size = kG;
    config_.parities = parities;
    config_.rows = kRows;
    config_.block_size = 128;
    config_.placement.kind = PlacementKind::kDeclustered;
    config_.placement.sites = kWidth;

    std::vector<SiteConfig> site_configs(
        kWidth + 1, SiteConfig{1, kRows, config_.block_size});
    sim_ = std::make_unique<Simulator>();
    net_ = std::make_unique<Network>(sim_.get(), NetworkModel{}, 0xE1);
    cluster_ = std::make_unique<Cluster>(site_configs);
    VolumeConfig vc;
    vc.group = config_;
    vc.drives_per_site.assign(kWidth, 1);
    Result<std::unique_ptr<RaddVolume>> made =
        RaddVolume::Create(sim_.get(), net_.get(), cluster_.get(), vc);
    ASSERT_TRUE(made.ok()) << made.status().ToString();
    vol_ = std::move(*made);
    ASSERT_EQ(vol_->num_groups(), 1);
  }

  Block Pat(uint64_t seed) {
    Block b(config_.block_size);
    b.FillPattern(seed);
    return b;
  }

  void WriteAll() {
    uint64_t seed = 1;
    for (SiteId s = 0; s < kWidth; ++s) {
      for (BlockNum lba = 0; lba < vol_->DataBlocksAtSite(s); ++lba) {
        ASSERT_TRUE(vol_->Write(s, s, lba, Pat(seed++)).status.ok());
      }
    }
  }

  void ExpectAllReadable() {
    uint64_t seed = 1;
    for (SiteId s = 0; s < kWidth; ++s) {
      for (BlockNum lba = 0; lba < vol_->DataBlocksAtSite(s); ++lba) {
        RaddNodeSystem::TimedRead r = vol_->Read(s, s, lba);
        ASSERT_TRUE(r.status.ok())
            << "site " << s << " lba " << lba << ": "
            << r.status.ToString();
        EXPECT_EQ(r.data, Pat(seed++)) << "site " << s << " lba " << lba;
      }
    }
  }

  // Drives the migration to completion without a sweeper.
  void DrainMigration() {
    RaddGroup* grp = vol_->group(0);
    int guard = 0;
    while (grp->ExpansionPending()) {
      Result<int> moved = grp->MigrateStep(4);
      ASSERT_TRUE(moved.ok()) << moved.status().ToString();
      ASSERT_LT(++guard, 1000) << "migration does not converge";
    }
  }

  RaddConfig config_;
  std::unique_ptr<Simulator> sim_;
  std::unique_ptr<Network> net_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<RaddVolume> vol_;
};

TEST_F(ExpansionTest, StopTheWorldExpansionPreservesData) {
  Build();
  WriteAll();
  RaddGroup* grp = vol_->group(0);
  ASSERT_EQ(grp->num_members(), kWidth);
  const BlockNum rows_before = grp->layout().NumRows(kRows);

  ASSERT_TRUE(vol_->AddDrive(0, kNewSite, 0, kRows).ok());
  EXPECT_TRUE(grp->ExpansionPending());
  // Minimal plan: one new stripe per round, n-1 moves each.
  const BlockNum n = static_cast<BlockNum>(grp->layout().stripe_width());
  const BlockNum rounds = kRows / n;
  EXPECT_EQ(grp->ExpansionMovesPlanned(), rounds * (n - 1));
  // Bounded movement: no more than the added capacity share,
  // total/(C+1), of the pre-expansion physical blocks.
  EXPECT_LE(grp->ExpansionMovesPlanned() * (kWidth + 1),
            static_cast<BlockNum>(kWidth) * kRows);

  DrainMigration();
  EXPECT_EQ(grp->ExpansionMovesDone(), grp->ExpansionMovesPlanned());
  EXPECT_EQ(grp->num_members(), kWidth + 1);
  EXPECT_EQ(grp->layout().NumRows(kRows), rows_before + rounds);
  EXPECT_TRUE(vol_->VerifyInvariants().ok());
  ExpectAllReadable();
}

TEST_F(ExpansionTest, NewMemberServesReadsAndWritesAfterCommit) {
  Build();
  WriteAll();
  ASSERT_TRUE(vol_->AddDrive(0, kNewSite, 0, kRows).ok());
  DrainMigration();

  RaddGroup* grp = vol_->group(0);
  const int new_member = kWidth;
  const BlockNum capacity = grp->layout().DataBlocksPerSite(kRows);
  ASSERT_GT(capacity, 0u);
  for (BlockNum i = 0; i < capacity; ++i) {
    ASSERT_TRUE(grp->Write(kNewSite, new_member, i, Pat(900 + i)).ok());
  }
  for (BlockNum i = 0; i < capacity; ++i) {
    OpResult r = grp->Read(kNewSite, new_member, i);
    ASSERT_TRUE(r.ok()) << r.status.ToString();
    EXPECT_EQ(r.data, Pat(900 + i));
  }
  EXPECT_TRUE(vol_->VerifyInvariants().ok());
  ExpectAllReadable();  // pre-expansion data untouched by the new writes
}

TEST_F(ExpansionTest, OldEpochStaysReadableMidMigration) {
  Build();
  WriteAll();
  RaddGroup* grp = vol_->group(0);
  ASSERT_TRUE(vol_->AddDrive(0, kNewSite, 0, kRows).ok());

  // Move one block at a time; after every single move the whole volume
  // must still read correctly (the tables track physical reality, so a
  // half-migrated group has no wrong-host window).
  int guard = 0;
  while (grp->ExpansionPending()) {
    Result<int> moved = grp->MigrateStep(1);
    ASSERT_TRUE(moved.ok()) << moved.status().ToString();
    ExpectAllReadable();
    ASSERT_LT(++guard, 1000);
  }
  EXPECT_TRUE(vol_->VerifyInvariants().ok());
}

TEST_F(ExpansionTest, SweeperPacesMigrationToCompletion) {
  Build();
  SiteStatusService& service = *vol_->system()->status();
  std::vector<RaddGroup*> groups = {vol_->group(0)};
  RecoverySweeper sweeper(sim_.get(), groups, &service);
  sweeper.Start();
  WriteAll();

  ASSERT_TRUE(vol_->AddDrive(0, kNewSite, 0, kRows).ok());
  bool done = false;
  sweeper.StartMigration(0, [&done]() { done = true; });
  sim_->Run();

  EXPECT_TRUE(done);
  EXPECT_FALSE(vol_->group(0)->ExpansionPending());
  EXPECT_EQ(vol_->group(0)->num_members(), kWidth + 1);
  EXPECT_TRUE(vol_->VerifyInvariants().ok());
  ExpectAllReadable();
}

TEST_F(ExpansionTest, RejectsSecondExpansionWhileMigrating) {
  Build();
  ASSERT_TRUE(vol_->AddDrive(0, kNewSite, 0, kRows).ok());
  EXPECT_FALSE(vol_->AddDrive(0, kNewSite, 0, kRows).ok());
  DrainMigration();
}

TEST_F(ExpansionTest, RejectsDualParityExpansion) {
  Build(/*parities=*/2);
  Status st = vol_->AddDrive(0, kNewSite, 0, kRows);
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
}

TEST(RotatedExpansion, RejectsAddDrive) {
  // The rotated closed forms admit no incremental growth — that is the
  // refactor's point; the volume must say so instead of corrupting the
  // map.
  RaddConfig config;
  config.group_size = 2;
  config.rows = 8;
  config.block_size = 128;
  std::vector<SiteConfig> sites(5, SiteConfig{1, 8, 128});
  Simulator sim;
  Network net(&sim, NetworkModel{}, 0xE2);
  Cluster cluster(sites);
  VolumeConfig vc;
  vc.group = config;
  vc.drives_per_site = {1, 1, 1, 1};
  Result<std::unique_ptr<RaddVolume>> made =
      RaddVolume::Create(&sim, &net, &cluster, vc);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  Status st = (*made)->AddDrive(0, 4, 0, 8);
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
}

}  // namespace
}  // namespace radd
