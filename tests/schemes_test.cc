// Tests for the comparison schemes: LocalRaid (Level-5 RAID), Rowb,
// TwoDRadd, and the Figure-2/3 scenario measurements.

#include <gtest/gtest.h>

#include <ostream>

#include "schemes/local_raid.h"
#include "schemes/radd2d.h"
#include "schemes/rowb.h"
#include "schemes/scheme.h"

namespace radd {
namespace {

Block Pat(uint64_t seed, size_t size = 512) {
  Block b(size);
  b.FillPattern(seed);
  return b;
}

// ---------------------------------------------------------------------------
// LocalRaid.
// ---------------------------------------------------------------------------

class LocalRaidTest : public ::testing::Test {
 protected:
  LocalRaidTest() : disks_(10, 8, 512), raid_(&disks_, {8, true}) {}

  DiskArray disks_;
  LocalRaid raid_;
};

TEST_F(LocalRaidTest, ReadBackAfterWrite) {
  ASSERT_TRUE(raid_.Write(5, Pat(1), Uid::Make(0, 1)).ok());
  Result<BlockRecord> r = raid_.Read(5);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->data, Pat(1));
  EXPECT_EQ(r->uid, Uid::Make(0, 1));
}

TEST_F(LocalRaidTest, CapacityIsGPerStripe) {
  EXPECT_EQ(raid_.total_blocks(), 8u * 8u);
  EXPECT_FALSE(raid_.Read(raid_.total_blocks()).ok());
}

TEST_F(LocalRaidTest, NormalWriteCostsTwoWrites) {
  raid_.Write(0, Pat(1), Uid::Make(0, 1));
  OpCounts before = raid_.PhysicalOps();
  raid_.Write(0, Pat(2), Uid::Make(0, 2));
  OpCounts delta = raid_.PhysicalOps() - before;
  EXPECT_EQ(delta.local_writes, 2u);  // data + parity ([PATT88])
  EXPECT_EQ(delta.local_reads, 0u);
}

TEST_F(LocalRaidTest, SurvivesAnySingleDiskFailure) {
  for (BlockNum i = 0; i < raid_.total_blocks(); ++i) {
    ASSERT_TRUE(raid_.Write(i, Pat(i), Uid::Make(0, i + 1)).ok());
  }
  for (int d = 0; d < 10; ++d) {
    SCOPED_TRACE("disk " + std::to_string(d));
    DiskArray disks(10, 8, 512);
    LocalRaid raid(&disks, {8, true});
    for (BlockNum i = 0; i < raid.total_blocks(); ++i) {
      ASSERT_TRUE(raid.Write(i, Pat(i), Uid::Make(0, i + 1)).ok());
    }
    ASSERT_TRUE(raid.FailDisk(d).ok());
    for (BlockNum i = 0; i < raid.total_blocks(); ++i) {
      Result<BlockRecord> r = raid.Read(i);
      ASSERT_TRUE(r.ok()) << "block " << i;
      EXPECT_EQ(r->data, Pat(i)) << "block " << i;
    }
  }
}

TEST_F(LocalRaidTest, RebuildClearsDegradedState) {
  for (BlockNum i = 0; i < 16; ++i) {
    ASSERT_TRUE(raid_.Write(i, Pat(i), Uid::Make(0, i + 1)).ok());
  }
  ASSERT_TRUE(raid_.FailDisk(3).ok());
  EXPECT_TRUE(raid_.Degraded());
  Result<OpCounts> ops = raid_.Rebuild();
  ASSERT_TRUE(ops.ok()) << ops.status().ToString();
  EXPECT_FALSE(raid_.Degraded());
  for (BlockNum i = 0; i < 16; ++i) {
    Result<BlockRecord> r = raid_.Read(i);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->data, Pat(i));
  }
}

TEST_F(LocalRaidTest, MetadataSurvivesDiskFailure) {
  BlockRecord rec(512);
  rec.data = Pat(9);
  rec.uid = Uid::Make(3, 77);
  rec.uid_array = {Uid::Make(1, 1), Uid::Make(2, 2)};
  rec.logical_uid = Uid::Make(3, 76);
  rec.spare_for = 4;
  ASSERT_TRUE(raid_.WriteRecord(0, rec).ok());
  ASSERT_TRUE(raid_.FailDisk(raid_.DiskOfLogical(0)).ok());
  Result<BlockRecord> r = raid_.Read(0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->data, Pat(9));
  EXPECT_EQ(r->uid, Uid::Make(3, 77));
  ASSERT_EQ(r->uid_array.size(), 2u);
  EXPECT_EQ(r->uid_array[1], Uid::Make(2, 2));
  EXPECT_EQ(r->logical_uid, Uid::Make(3, 76));
  EXPECT_EQ(r->spare_for, 4);
}

TEST_F(LocalRaidTest, ApplyMaskMaintainsLocalParity) {
  ASSERT_TRUE(raid_.Write(0, Pat(1), Uid::Make(0, 1)).ok());
  Result<ChangeMask> mask = ChangeMask::Diff(Pat(1), Pat(2));
  ASSERT_TRUE(mask.ok());
  ASSERT_TRUE(raid_.ApplyMask(0, *mask, Uid::Make(0, 2), 1, 4).ok());
  // Kill the disk holding the block; reconstruction must give the masked
  // value, proving the local parity tracked the delta.
  ASSERT_TRUE(raid_.FailDisk(raid_.DiskOfLogical(0)).ok());
  Result<BlockRecord> r = raid_.Read(0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->data, Pat(2));
  ASSERT_GE(r->uid_array.size(), 2u);
  EXPECT_EQ(r->uid_array[1], Uid::Make(0, 2));
}

TEST_F(LocalRaidTest, DoubleDiskFailureLosesData) {
  ASSERT_TRUE(raid_.Write(0, Pat(1), Uid::Make(0, 1)).ok());
  int d0 = raid_.DiskOfLogical(0);
  ASSERT_TRUE(raid_.FailDisk(d0).ok());
  ASSERT_TRUE(raid_.FailDisk((d0 + 1) % 10).ok());
  Result<BlockRecord> r = raid_.Read(0);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsDataLoss());
}

// ---------------------------------------------------------------------------
// Rowb.
// ---------------------------------------------------------------------------

class RowbTest : public ::testing::Test {
 protected:
  RowbTest()
      : cluster_(4, SiteConfig{1, 16, 512}), rowb_(&cluster_, 8, 512) {}

  Cluster cluster_;
  Rowb rowb_;
};

TEST_F(RowbTest, ReadBackAfterWrite) {
  ASSERT_TRUE(rowb_.Write(1, 1, 3, Pat(1)).ok());
  OpResult r = rowb_.Read(1, 1, 3);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.data, Pat(1));
  EXPECT_TRUE(rowb_.VerifyInvariants().ok());
}

TEST_F(RowbTest, WriteUpdatesBothCopies) {
  ASSERT_TRUE(rowb_.Write(1, 1, 0, Pat(1)).ok());
  auto [bsite, bphys] = rowb_.BackupOf(1, 0);
  EXPECT_NE(bsite, 1u);
  Result<BlockRecord> backup = cluster_.site(bsite)->store()->Peek(bphys);
  ASSERT_TRUE(backup.ok());
  EXPECT_EQ(backup->data, Pat(1));
}

TEST_F(RowbTest, ReadsSurviveHomeCrash) {
  ASSERT_TRUE(rowb_.Write(1, 1, 0, Pat(1)).ok());
  ASSERT_TRUE(cluster_.CrashSite(1).ok());
  OpResult r = rowb_.Read(3, 1, 0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.data, Pat(1));
  EXPECT_EQ(r.counts.remote_reads, 1u);
}

TEST_F(RowbTest, DegradedWriteAndRecovery) {
  ASSERT_TRUE(rowb_.Write(1, 1, 0, Pat(1)).ok());
  ASSERT_TRUE(cluster_.CrashSite(1).ok());
  ASSERT_TRUE(rowb_.Write(3, 1, 0, Pat(2)).ok());
  ASSERT_TRUE(cluster_.RestoreSite(1).ok());
  Result<OpCounts> rec = rowb_.RunRecovery(1);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(cluster_.StateOf(1), SiteState::kUp);
  EXPECT_TRUE(rowb_.VerifyInvariants().ok());
  OpResult r = rowb_.Read(1, 1, 0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.data, Pat(2));
  EXPECT_EQ(r.counts.local_reads, 1u);
}

TEST_F(RowbTest, DisasterRecoveryCopiesEverything) {
  for (BlockNum i = 0; i < 8; ++i) {
    ASSERT_TRUE(rowb_.Write(1, 1, i, Pat(i)).ok());
    // Site 1 also hosts backups for site 0.
    ASSERT_TRUE(rowb_.Write(0, 0, i, Pat(100 + i)).ok());
  }
  ASSERT_TRUE(cluster_.DisasterSite(1).ok());
  ASSERT_TRUE(cluster_.RestoreSite(1).ok());
  Result<OpCounts> rec = rowb_.RunRecovery(1);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_TRUE(rowb_.VerifyInvariants().ok());
  for (BlockNum i = 0; i < 8; ++i) {
    OpResult r = rowb_.Read(1, 1, i);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.data, Pat(i));
  }
}

TEST_F(RowbTest, BothCopiesDownBlocks) {
  ASSERT_TRUE(rowb_.Write(1, 1, 0, Pat(1)).ok());
  auto [bsite, bphys] = rowb_.BackupOf(1, 0);
  ASSERT_TRUE(cluster_.CrashSite(1).ok());
  ASSERT_TRUE(cluster_.CrashSite(bsite).ok());
  EXPECT_TRUE(rowb_.Read(3, 1, 0).status.IsBlocked());
  EXPECT_TRUE(rowb_.Write(3, 1, 0, Pat(2)).status.IsBlocked());
}

TEST(RowbScattered, BackupsSpreadAcrossSites) {
  Cluster cluster(5, SiteConfig{1, 40, 512});
  Rowb rowb(&cluster, 20, 512, RowbPlacement::kScattered);
  std::set<SiteId> partners;
  for (BlockNum i = 0; i < 20; ++i) {
    partners.insert(rowb.BackupOf(2, i).first);
  }
  EXPECT_GT(partners.size(), 1u);
  EXPECT_EQ(partners.count(2), 0u) << "backup must not share the home site";
}

// ---------------------------------------------------------------------------
// TwoDRadd.
// ---------------------------------------------------------------------------

class TwoDRaddTest : public ::testing::Test {
 protected:
  TwoDRaddTest() : radd2d_(TwoDRaddConfig{4, 4, 4, 512}) {}
  TwoDRadd radd2d_;
};

TEST_F(TwoDRaddTest, SpaceOverheadMatchesPaper) {
  // 8x8 grid: the paper's 50 %.
  TwoDRadd big(TwoDRaddConfig{8, 8, 1, 64});
  EXPECT_DOUBLE_EQ(big.SpaceOverheadPercent(), 50.0);
}

TEST_F(TwoDRaddTest, ReadBackAndParity) {
  SiteId s = radd2d_.DataSite(1, 2);
  ASSERT_TRUE(radd2d_.Write(s, 1, 2, 0, Pat(1)).ok());
  OpResult r = radd2d_.Read(s, 1, 2, 0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.data, Pat(1));
  EXPECT_TRUE(radd2d_.VerifyInvariants().ok());
}

TEST_F(TwoDRaddTest, NormalWriteTouchesBothParities) {
  SiteId s = radd2d_.DataSite(0, 0);
  radd2d_.Write(s, 0, 0, 0, Pat(1));
  OpResult w = radd2d_.Write(s, 0, 0, 0, Pat(2));
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(w.counts.local_writes, 1u);
  EXPECT_EQ(w.counts.remote_writes, 2u);  // row + column parity
}

TEST_F(TwoDRaddTest, SurvivesRowAndColumnReconstruction) {
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) {
      SiteId s = radd2d_.DataSite(r, c);
      ASSERT_TRUE(
          radd2d_.Write(s, r, c, 0, Pat(uint64_t(r) * 10 + c)).ok());
    }
  }
  ASSERT_TRUE(radd2d_.cluster()->CrashSite(radd2d_.DataSite(2, 1)).ok());
  OpResult r = radd2d_.Read(radd2d_.DataSite(2, 0), 2, 1, 0);
  ASSERT_TRUE(r.ok()) << r.status.ToString();
  EXPECT_EQ(r.data, Pat(21));
}

TEST_F(TwoDRaddTest, DegradedWriteRecovery) {
  SiteId victim = radd2d_.DataSite(1, 1);
  SiteId client = radd2d_.DataSite(0, 0);
  ASSERT_TRUE(radd2d_.Write(victim, 1, 1, 0, Pat(1)).ok());
  ASSERT_TRUE(radd2d_.cluster()->CrashSite(victim).ok());
  ASSERT_TRUE(radd2d_.Write(client, 1, 1, 0, Pat(2)).ok());
  OpResult during = radd2d_.Read(client, 1, 1, 0);
  ASSERT_TRUE(during.ok());
  EXPECT_EQ(during.data, Pat(2));
  ASSERT_TRUE(radd2d_.cluster()->RestoreSite(victim).ok());
  Result<OpCounts> rec = radd2d_.RunRecovery(1, 1);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_TRUE(radd2d_.VerifyInvariants().ok());
  OpResult after = radd2d_.Read(victim, 1, 1, 0);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.data, Pat(2));
}

// ---------------------------------------------------------------------------
// The Figure-3 measurement grid: measured formulas must match the paper
// (documented deviations carry their own expectations).
// ---------------------------------------------------------------------------

struct Fig3Case {
  const char* scheme;
  Scenario scenario;
  const char* formula;  // expected measured formula
};

// gtest's default printer dumps the struct's raw bytes, pointers and
// padding included, and CTest builds each test's name from that dump, so
// the names would change from one run to the next.
void PrintTo(const Fig3Case& c, std::ostream* os) {
  *os << c.scheme << ", " << ScenarioName(c.scenario);
}

class Fig3Test : public ::testing::TestWithParam<Fig3Case> {};

TEST_P(Fig3Test, MeasuredCountsMatch) {
  const Fig3Case& c = GetParam();
  auto schemes = MakeAllSchemes(8);
  Scheme* scheme = nullptr;
  for (auto& s : schemes) {
    if (s->name() == c.scheme) scheme = s.get();
  }
  ASSERT_NE(scheme, nullptr);
  std::optional<OpCounts> counts = scheme->Measure(c.scenario);
  ASSERT_TRUE(counts.has_value());
  EXPECT_EQ(counts->ToFormula(), c.formula);
}

INSTANTIATE_TEST_SUITE_P(
    PaperGrid, Fig3Test,
    ::testing::Values(
        // RADD column (Fig. 3).
        Fig3Case{"RADD", Scenario::kNoFailureRead, "R"},
        Fig3Case{"RADD", Scenario::kNoFailureWrite, "W+RW"},
        Fig3Case{"RADD", Scenario::kDiskFailureRead, "8*RR"},
        Fig3Case{"RADD", Scenario::kDiskFailureWrite, "2*RW"},
        // Deviation: the paper counts R+RR ("counting both reads"); our
        // spare-first protocol needs only the spare read.
        Fig3Case{"RADD", Scenario::kReconstructedRead, "RR"},
        Fig3Case{"RADD", Scenario::kSiteFailureRead, "8*RR"},
        Fig3Case{"RADD", Scenario::kSiteFailureWrite, "2*RW"},
        // ROWB column.
        Fig3Case{"ROWB", Scenario::kNoFailureRead, "R"},
        Fig3Case{"ROWB", Scenario::kNoFailureWrite, "W+RW"},
        Fig3Case{"ROWB", Scenario::kDiskFailureRead, "RR"},
        Fig3Case{"ROWB", Scenario::kDiskFailureWrite, "RW"},
        Fig3Case{"ROWB", Scenario::kReconstructedRead, "R"},
        Fig3Case{"ROWB", Scenario::kSiteFailureRead, "RR"},
        Fig3Case{"ROWB", Scenario::kSiteFailureWrite, "RW"},
        // RAID column.
        Fig3Case{"RAID", Scenario::kNoFailureRead, "R"},
        Fig3Case{"RAID", Scenario::kNoFailureWrite, "2*W"},
        Fig3Case{"RAID", Scenario::kDiskFailureRead, "8*R"},
        Fig3Case{"RAID", Scenario::kDiskFailureWrite, "2*W"},
        Fig3Case{"RAID", Scenario::kReconstructedRead, "R"},
        // C-RAID column (Fig. 4's evaluated numbers; see EXPERIMENTS.md
        // for where Fig. 3's symbolic row disagrees with Fig. 4).
        Fig3Case{"C-RAID", Scenario::kNoFailureWrite, "3*W+RW"},
        Fig3Case{"C-RAID", Scenario::kDiskFailureRead, "8*R"},
        Fig3Case{"C-RAID", Scenario::kDiskFailureWrite, "3*W+RW"},
        Fig3Case{"C-RAID", Scenario::kSiteFailureRead, "8*RR"},
        Fig3Case{"C-RAID", Scenario::kSiteFailureWrite, "2*W+2*RW"},
        // 2D-RADD column.
        Fig3Case{"2D-RADD", Scenario::kNoFailureWrite, "W+2*RW"},
        Fig3Case{"2D-RADD", Scenario::kDiskFailureRead, "8*RR"},
        Fig3Case{"2D-RADD", Scenario::kDiskFailureWrite, "4*RW"},
        Fig3Case{"2D-RADD", Scenario::kSiteFailureRead, "8*RR"},
        Fig3Case{"2D-RADD", Scenario::kSiteFailureWrite, "4*RW"},
        // 1/2-RADD column: G/2 = 4.
        Fig3Case{"1/2-RADD", Scenario::kDiskFailureRead, "4*RR"},
        Fig3Case{"1/2-RADD", Scenario::kSiteFailureRead, "4*RR"},
        Fig3Case{"1/2-RADD", Scenario::kSiteFailureWrite, "2*RW"}));

TEST(Fig2Space, OverheadsMatchPaper) {
  auto schemes = MakeAllSchemes(8);
  std::map<std::string, double> expected = {
      {"RADD", 25.0},    {"ROWB", 100.0},   {"RAID", 25.0},
      {"C-RAID", 56.25}, {"2D-RADD", 50.0}, {"1/2-RADD", 50.0},
  };
  for (auto& s : schemes) {
    EXPECT_DOUBLE_EQ(s->SpaceOverheadPercent(), expected[s->name()])
        << s->name();
  }
}

TEST(PqRaddScheme, SpaceOverheadIsThreePerG) {
  // G data + P + Q + spare per (G+3)-row cycle: 3/G overhead.
  EXPECT_DOUBLE_EQ(MakePqRaddScheme(8)->SpaceOverheadPercent(), 37.5);
  EXPECT_DOUBLE_EQ(MakePqRaddScheme(4)->SpaceOverheadPercent(), 75.0);
}

TEST(PqRaddScheme, NotPartOfThePaperGrid) {
  // Figures 2/3/4 compare the paper's six systems; the P+Q extension must
  // not leak into them.
  for (auto& s : MakeAllSchemes(8)) {
    EXPECT_NE(s->name(), "P+Q RADD");
  }
}

struct PqFig3Case {
  Scenario scenario;
  const char* formula;
};

void PrintTo(const PqFig3Case& c, std::ostream* os) {
  *os << ScenarioName(c.scenario);
}

class PqFig3Test : public ::testing::TestWithParam<PqFig3Case> {};

TEST_P(PqFig3Test, MeasuredCountsMatch) {
  const PqFig3Case& c = GetParam();
  auto scheme = MakePqRaddScheme(8);
  std::optional<OpCounts> counts = scheme->Measure(c.scenario);
  ASSERT_TRUE(counts.has_value());
  EXPECT_EQ(counts->ToFormula(), c.formula);
}

// The P+Q column next to Figure 3's RADD column: reads cost the same (the
// decode still touches G row members), every write pays one extra RW for
// the Q parity leg.
INSTANTIATE_TEST_SUITE_P(
    PqGrid, PqFig3Test,
    ::testing::Values(
        PqFig3Case{Scenario::kNoFailureRead, "R"},
        PqFig3Case{Scenario::kNoFailureWrite, "W+2*RW"},
        PqFig3Case{Scenario::kDiskFailureRead, "8*RR"},
        PqFig3Case{Scenario::kDiskFailureWrite, "3*RW"},
        PqFig3Case{Scenario::kReconstructedRead, "RR"},
        PqFig3Case{Scenario::kSiteFailureRead, "8*RR"},
        PqFig3Case{Scenario::kSiteFailureWrite, "3*RW"}));

TEST(Fig3Raid, BlocksOnSiteFailure) {
  auto raid = MakeRaid5Scheme(8);
  EXPECT_FALSE(raid->Measure(Scenario::kSiteFailureRead).has_value());
  EXPECT_FALSE(raid->Measure(Scenario::kSiteFailureWrite).has_value());
}

TEST(CostModel, PaperConstants) {
  CostModel cm;
  OpCounts c;
  c.local_reads = 1;
  EXPECT_DOUBLE_EQ(cm.Price(c), 30.0);
  c = OpCounts{};
  c.remote_writes = 2;
  EXPECT_DOUBLE_EQ(cm.Price(c), 150.0);
}

}  // namespace
}  // namespace radd
