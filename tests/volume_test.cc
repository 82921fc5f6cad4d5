// Tests for the §4 sharded data plane (RaddVolume): the volume address
// map, multi-group routing through the shared protocol stack, group
// isolation under site failure, cross-group recovery with the mark-up
// gate, and the member-list validation that guards volume construction.

#include "core/volume.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <optional>
#include <set>
#include <tuple>
#include <vector>

#include "cluster/status_service.h"
#include "core/sweeper.h"
#include "volume_load.h"

namespace radd {
namespace {

// Builds the same cluster shape the chaos harness and benches use: with
// one group the G+2 identity layout, with more a round-robin spread of
// groups * (G+2) drives over (G+2) - 1 + groups sites.
class VolumeTest : public ::testing::Test {
 protected:
  void Build(int groups) {
    config_.group_size = 2;  // members = 4
    config_.rows = 8;        // two layout cycles -> 4 data blocks per drive
    config_.block_size = 128;
    const int members = config_.group_size + 2;
    const int num_sites = groups == 1 ? members : members - 1 + groups;
    drives_.assign(num_sites, 0);
    for (int d = 0; d < groups * members; ++d) ++drives_[d % num_sites];
    std::vector<SiteConfig> site_configs;
    for (int s = 0; s < num_sites; ++s) {
      site_configs.push_back(SiteConfig{
          1, static_cast<BlockNum>(drives_[s]) * config_.rows,
          config_.block_size});
    }
    sim_ = std::make_unique<Simulator>();
    net_ = std::make_unique<Network>(sim_.get(), NetworkModel{}, 0xB01);
    cluster_ = std::make_unique<Cluster>(site_configs);
    VolumeConfig vc;
    vc.group = config_;
    vc.drives_per_site = drives_;
    Result<std::unique_ptr<RaddVolume>> made =
        RaddVolume::Create(sim_.get(), net_.get(), cluster_.get(), vc);
    ASSERT_TRUE(made.ok()) << made.status().ToString();
    vol_ = std::move(*made);
  }

  Block Pat(uint64_t seed) {
    Block b(config_.block_size);
    b.FillPattern(seed);
    return b;
  }

  RaddConfig config_;
  std::vector<int> drives_;
  std::unique_ptr<Simulator> sim_;
  std::unique_ptr<Network> net_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<RaddVolume> vol_;
};

TEST_F(VolumeTest, AddressMapIsBijective) {
  Build(4);
  const int num_sites = static_cast<int>(drives_.size());
  std::set<std::tuple<int, int, BlockNum>> seen;
  BlockNum total = 0;
  for (SiteId s = 0; s < static_cast<SiteId>(num_sites); ++s) {
    const BlockNum at_site = vol_->DataBlocksAtSite(s);
    EXPECT_EQ(at_site, static_cast<BlockNum>(drives_[s]) *
                           vol_->DataBlocksPerDrive());
    for (BlockNum lba = 0; lba < at_site; ++lba) {
      Result<RaddVolume::Target> t = vol_->Resolve(s, lba);
      ASSERT_TRUE(t.ok()) << "site " << s << " lba " << lba;
      // The resolved member really lives at the addressed site.
      EXPECT_EQ(vol_->group(t->group)->SiteOfMember(t->member), s);
      EXPECT_LT(t->index, vol_->DataBlocksPerDrive());
      EXPECT_TRUE(seen.insert({t->group, t->member, t->index}).second)
          << "two LBAs map to one block";
      ++total;
    }
    // One past the end must fail, not alias another drive.
    EXPECT_FALSE(vol_->Resolve(s, at_site).ok());
  }
  // Every data block of every group is reachable.
  EXPECT_EQ(total, static_cast<BlockNum>(vol_->num_groups()) *
                       (config_.group_size + 2) * vol_->DataBlocksPerDrive());
}

TEST_F(VolumeTest, SingleGroupIsIdentity) {
  Build(1);
  ASSERT_EQ(vol_->num_groups(), 1);
  for (SiteId s = 0; s < 4; ++s) {
    for (BlockNum lba = 0; lba < vol_->DataBlocksAtSite(s); ++lba) {
      Result<RaddVolume::Target> t = vol_->Resolve(s, lba);
      ASSERT_TRUE(t.ok());
      EXPECT_EQ(t->group, 0);
      EXPECT_EQ(vol_->group(0)->SiteOfMember(t->member), s);
      EXPECT_EQ(t->index, lba);
    }
  }
}

TEST_F(VolumeTest, MultiGroupReadWriteRoundTrip) {
  Build(3);
  const int num_sites = static_cast<int>(drives_.size());
  uint64_t seed = 1;
  for (SiteId s = 0; s < static_cast<SiteId>(num_sites); ++s) {
    for (BlockNum lba = 0; lba < vol_->DataBlocksAtSite(s); ++lba) {
      ASSERT_TRUE(vol_->Write(s, s, lba, Pat(seed++)).status.ok());
    }
  }
  seed = 1;
  for (SiteId s = 0; s < static_cast<SiteId>(num_sites); ++s) {
    for (BlockNum lba = 0; lba < vol_->DataBlocksAtSite(s); ++lba) {
      RaddNodeSystem::TimedRead r = vol_->Read(s, s, lba);
      ASSERT_TRUE(r.status.ok());
      EXPECT_EQ(r.data, Pat(seed++)) << "site " << s << " lba " << lba;
    }
  }
  EXPECT_TRUE(vol_->VerifyInvariants().ok());
}

TEST_F(VolumeTest, SiteFailureLeavesOtherGroupsClean) {
  Build(4);
  const SiteId victim = 0;
  // Populate one block per site so parity is meaningful everywhere.
  for (SiteId s = 0; s < static_cast<SiteId>(drives_.size()); ++s) {
    ASSERT_TRUE(vol_->Write(s, s, 0, Pat(100 + s)).status.ok());
  }

  // With 16 drives over 7 sites, site 0 hosts 3 of the 4 groups; at least
  // one group must not touch the victim at all.
  int untouched = -1;
  for (int g = 0; g < vol_->num_groups(); ++g) {
    if (vol_->group(g)->MemberAtSite(victim) < 0) untouched = g;
  }
  ASSERT_GE(untouched, 0);
  EXPECT_EQ(vol_->slices_of(victim).size(), 3u);

  ASSERT_TRUE(cluster_->CrashSite(victim).ok());

  // A home inside the untouched group serves at full speed — no degraded
  // reconstruction counted against that group.
  const SiteId other = vol_->group(untouched)->SiteOfMember(0);
  ASSERT_NE(other, victim);
  const uint64_t before =
      vol_->group(untouched)->stats().Get("radd.reconstructions");
  for (BlockNum lba = 0; lba < vol_->DataBlocksAtSite(other); ++lba) {
    Result<RaddVolume::Target> t = vol_->Resolve(other, lba);
    ASSERT_TRUE(t.ok());
    if (t->group != untouched) continue;
    EXPECT_TRUE(vol_->Read(other, other, lba).status.ok());
  }
  EXPECT_EQ(vol_->group(untouched)->stats().Get("radd.reconstructions"),
            before);

  // The victim's data stays readable through reconstruction.
  RaddNodeSystem::TimedRead r =
      vol_->Read(static_cast<SiteId>(1), victim, 0);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.data, Pat(100 + victim));
}

TEST_F(VolumeTest, RecoveryMarksUpOnlyAfterLastSlice) {
  Build(4);
  const SiteId victim = 0;
  for (SiteId s = 0; s < static_cast<SiteId>(drives_.size()); ++s) {
    ASSERT_TRUE(vol_->Write(s, s, 0, Pat(200 + s)).status.ok());
  }
  ASSERT_TRUE(cluster_->CrashSite(victim).ok());
  // Absorb a write for the victim in each affected group.
  for (BlockNum lba = 0; lba < vol_->DataBlocksAtSite(victim); ++lba) {
    ASSERT_TRUE(
        vol_->Write(static_cast<SiteId>(1), victim, lba, Pat(300 + lba))
            .status.ok());
  }
  ASSERT_TRUE(cluster_->RestoreSite(victim).ok());

  const std::vector<RaddVolume::SiteSlice>& slices = vol_->slices_of(victim);
  ASSERT_GT(slices.size(), 1u);
  for (size_t i = 0; i < slices.size(); ++i) {
    // §4: the site may not serve until every group's slice is drained.
    EXPECT_EQ(cluster_->StateOf(victim), SiteState::kRecovering)
        << "marked up after only " << i << " slices";
    Result<OpCounts> rec = vol_->group(slices[i].group)
                               ->RunRecovery(slices[i].member,
                                             i + 1 == slices.size());
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  }
  EXPECT_EQ(cluster_->StateOf(victim), SiteState::kUp);
  EXPECT_TRUE(vol_->VerifyInvariants().ok());
  for (BlockNum lba = 0; lba < vol_->DataBlocksAtSite(victim); ++lba) {
    RaddNodeSystem::TimedRead r = vol_->Read(victim, victim, lba);
    ASSERT_TRUE(r.status.ok());
    EXPECT_EQ(r.data, Pat(300 + lba));
  }
}

TEST_F(VolumeTest, SweeperDrainsAllGroupsConcurrently) {
  Build(4);
  SiteStatusService& service = *vol_->system()->status();
  service.AddListener([this](SiteId site, SiteState state, uint64_t) {
    if (state == SiteState::kDown)
      vol_->system()->ResetNodeVolatileState(site);
  });
  std::vector<RaddGroup*> groups;
  for (int g = 0; g < vol_->num_groups(); ++g) groups.push_back(vol_->group(g));
  RecoverySweeper sweeper(sim_.get(), groups, &service);
  sweeper.Start();

  const SiteId victim = 0;
  for (SiteId s = 0; s < static_cast<SiteId>(drives_.size()); ++s) {
    ASSERT_TRUE(vol_->Write(s, s, 0, Pat(400 + s)).status.ok());
  }
  ASSERT_TRUE(service.InjectCrash(victim).ok());
  for (BlockNum lba = 0; lba < vol_->DataBlocksAtSite(victim); ++lba) {
    ASSERT_TRUE(
        vol_->Write(static_cast<SiteId>(1), victim, lba, Pat(500 + lba))
            .status.ok());
  }
  ASSERT_TRUE(service.NotifyRestart(victim).ok());
  sim_->Run();

  EXPECT_EQ(cluster_->StateOf(victim), SiteState::kUp);
  EXPECT_TRUE(vol_->VerifyInvariants().ok());
  for (BlockNum lba = 0; lba < vol_->DataBlocksAtSite(victim); ++lba) {
    RaddNodeSystem::TimedRead r = vol_->Read(victim, victim, lba);
    ASSERT_TRUE(r.status.ok());
    EXPECT_EQ(r.data, Pat(500 + lba));
  }
}

/// Ops per simulated second of a closed-loop load on a `groups`-group
/// volume over the modeled disk: 4 spindles per site, deadline
/// scheduling, a 64-block cache. Groups of 8 over 60 rows of 4 KiB per
/// drive; 4 ops in flight per drive, 4,000 ops per group in all.
double ModeledDiskOpsPerSimSecond(int groups) {
  VolumeLoad load;
  load.group.group_size = 8;
  load.group.rows = 60;
  load.group.block_size = 4096;
  load.node.disk_sched.spindles = 4;
  load.node.disk_sched.policy = IoPolicy::kDeadline;
  load.node.disk_sched.cache_blocks = 64;
  load.groups = groups;
  load.ops_per_site = 4000 * groups / VolumeSites(load.group, groups);
  load.outstanding_per_drive = 4;
  const VolumeOutcome out = RunVolumeLoad(load);
  EXPECT_EQ(out.failed, 0);
  EXPECT_TRUE(out.invariants_ok);
  return out.completed / ToSeconds(out.makespan);
}

TEST_F(VolumeTest, ModeledDiskScalesThreefoldFromOneGroupToEight) {
  // §4's load spreading under the modeled disk: eight groups over 17
  // sites move at least three times the simulated throughput of one
  // group over 10, at constant per-group load.
  const double g1 = ModeledDiskOpsPerSimSecond(1);
  const double g8 = ModeledDiskOpsPerSimSecond(8);
  std::printf("ops per simulated second: g1 %.0f, g8 %.0f (%.2fx)\n", g1,
              g8, g8 / g1);
  EXPECT_GE(g8, 3.0 * g1);
}

// ---------------------------------------------------------------------------
// Volume construction rejects malformed shapes instead of building a
// partial data plane.
// ---------------------------------------------------------------------------

TEST(VolumeCreate, RejectsUnpackableDriveCensus) {
  RaddConfig config;
  config.group_size = 2;
  config.rows = 8;
  config.block_size = 128;
  // 5 drives: not a multiple of G+2 = 4.
  std::vector<SiteConfig> sites(5, SiteConfig{1, 8, 128});
  Simulator sim;
  Network net(&sim, NetworkModel{}, 1);
  Cluster cluster(sites);
  VolumeConfig vc;
  vc.group = config;
  vc.drives_per_site = {1, 1, 1, 1, 1};
  Result<std::unique_ptr<RaddVolume>> made =
      RaddVolume::Create(&sim, &net, &cluster, vc);
  EXPECT_FALSE(made.ok());
  EXPECT_TRUE(made.status().IsInvalidArgument());
}

TEST(VolumeCreate, RejectsDrivesBeyondSiteCapacity) {
  RaddConfig config;
  config.group_size = 2;
  config.rows = 8;
  config.block_size = 128;
  // Site 0 claims 2 drives (16 blocks) but only holds 8.
  std::vector<SiteConfig> sites(7, SiteConfig{1, 8, 128});
  Simulator sim;
  Network net(&sim, NetworkModel{}, 1);
  Cluster cluster(sites);
  VolumeConfig vc;
  vc.group = config;
  vc.drives_per_site = {2, 1, 1, 1, 1, 1, 1};
  Result<std::unique_ptr<RaddVolume>> made =
      RaddVolume::Create(&sim, &net, &cluster, vc);
  EXPECT_FALSE(made.ok());
}

TEST(VolumeCreate, RejectsThinnedSpares) {
  // The protocol keeps a spare in every row: a row without one would still
  // take spare writes, and recovery, which skips the spares of such rows,
  // would leave them valid to be served stale at the home's next outage.
  RaddConfig config;
  config.group_size = 2;
  config.rows = 8;
  config.block_size = 128;
  config.spare_fraction = 0.5;
  std::vector<SiteConfig> sites(4, SiteConfig{1, 8, 128});
  Simulator sim;
  Network net(&sim, NetworkModel{}, 1);
  Cluster cluster(sites);
  VolumeConfig vc;
  vc.group = config;
  vc.drives_per_site = {1, 1, 1, 1};
  Result<std::unique_ptr<RaddVolume>> made =
      RaddVolume::Create(&sim, &net, &cluster, vc);
  EXPECT_FALSE(made.ok());
  EXPECT_TRUE(made.status().IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// ValidateMembers: the §4 precondition checks callers rely on.
// ---------------------------------------------------------------------------

class ValidateMembersTest : public ::testing::Test {
 protected:
  ValidateMembersTest() : cluster_(6, SiteConfig{1, 16, 128}) {
    config_.group_size = 2;
    config_.rows = 8;
    config_.block_size = 128;
  }
  LogicalDrive Drive(SiteId site, BlockNum first = 0, BlockNum len = 8) {
    LogicalDrive d;
    d.site = site;
    d.first_block = first;
    d.drive_blocks = len;
    return d;
  }
  RaddConfig config_;
  Cluster cluster_;
};

TEST_F(ValidateMembersTest, AcceptsWellFormedList) {
  std::vector<LogicalDrive> m = {Drive(0), Drive(1), Drive(2), Drive(3)};
  EXPECT_TRUE(RaddGroup::ValidateMembers(cluster_, config_, m).ok());
}

TEST_F(ValidateMembersTest, RejectsWrongMemberCount) {
  std::vector<LogicalDrive> m = {Drive(0), Drive(1), Drive(2)};
  Status st = RaddGroup::ValidateMembers(cluster_, config_, m);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
}

TEST_F(ValidateMembersTest, RejectsSharedSite) {
  std::vector<LogicalDrive> m = {Drive(0), Drive(1), Drive(2), Drive(2, 8)};
  EXPECT_FALSE(RaddGroup::ValidateMembers(cluster_, config_, m).ok());
}

TEST_F(ValidateMembersTest, RejectsShortDrive) {
  std::vector<LogicalDrive> m = {Drive(0, 0, 4), Drive(1), Drive(2),
                                 Drive(3)};
  EXPECT_FALSE(RaddGroup::ValidateMembers(cluster_, config_, m).ok());
}

TEST_F(ValidateMembersTest, RejectsWindowPastEndOfDisk) {
  std::vector<LogicalDrive> m = {Drive(0, 12), Drive(1), Drive(2), Drive(3)};
  EXPECT_FALSE(RaddGroup::ValidateMembers(cluster_, config_, m).ok());
}

TEST_F(ValidateMembersTest, RejectsUnknownSite) {
  std::vector<LogicalDrive> m = {Drive(0), Drive(1), Drive(2), Drive(9)};
  EXPECT_FALSE(RaddGroup::ValidateMembers(cluster_, config_, m).ok());
}

// ---------------------------------------------------------------------------
// Regression: a recovering member whose local copy silently reverted to a
// stale value (lost write) must be caught by the §3.3 UID-array check —
// the parity row's UID array is the authority, so recovery reconstructs
// the block instead of trusting the readable-but-stale local copy.
// ---------------------------------------------------------------------------

TEST(RecoveryValidation, StaleLocalCopyIsReconstructed) {
  RaddConfig config;
  config.group_size = 2;
  config.rows = 8;
  config.block_size = 128;
  Cluster cluster(4, SiteConfig{1, 8, 128});
  RaddGroup group(&cluster, config);

  const int home = 0;
  const SiteId site = group.SiteOfMember(home);
  Block old_data(config.block_size), new_data(config.block_size);
  old_data.FillPattern(1);
  new_data.FillPattern(2);
  OpResult w1 = group.Write(site, home, 0, old_data);
  ASSERT_TRUE(w1.ok());
  OpResult w2 = group.Write(site, home, 0, new_data);
  ASSERT_TRUE(w2.ok());

  // The member fails and comes back with its disk holding the pre-update
  // value under the pre-update UID — exactly what a write lost between
  // local apply and parity commit looks like.
  ASSERT_TRUE(cluster.CrashSite(site).ok());
  ASSERT_TRUE(cluster.RestoreSite(site).ok());
  const BlockNum row = group.layout().DataToRow(site, 0);
  ASSERT_TRUE(cluster.site(site)->store()->Write(row, old_data, w1.uid).ok());

  // The sweep must not report the member clean while the stale copy sits
  // under a newer parity UID entry...
  Result<BlockNum> dirty = group.FirstUnrecoveredRow(home);
  ASSERT_TRUE(dirty.ok());
  EXPECT_EQ(*dirty, row);

  // ...and recovery reconstructs the committed value from the row.
  ASSERT_TRUE(group.RunRecovery(home).ok());
  EXPECT_GT(group.stats().Get("radd.recovery_uid_reconciled"), 0u);
  OpResult r = group.Read(site, home, 0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.data, new_data);
  EXPECT_TRUE(group.VerifyInvariants().ok());
}

}  // namespace
}  // namespace radd
