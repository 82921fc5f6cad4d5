// Tests for the Fig. 1 layout math and the §4 grouping algorithm.

#include "layout/layout.h"
#include "layout/placement.h"

#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <set>

namespace radd {
namespace {

// ---------------------------------------------------------------------------
// Figure 1 reproduction: G = 4, six sites, first six rows.
// ---------------------------------------------------------------------------

TEST(LayoutFig1, ParityPlacementMatchesPaper) {
  RotatedLayout layout(4);
  // Fig. 1: P on the diagonal — row K's parity at site K mod 6.
  EXPECT_EQ(layout.ParitySite(0), 0u);
  EXPECT_EQ(layout.ParitySite(1), 1u);
  EXPECT_EQ(layout.ParitySite(2), 2u);
  EXPECT_EQ(layout.ParitySite(3), 3u);
  EXPECT_EQ(layout.ParitySite(4), 4u);
  EXPECT_EQ(layout.ParitySite(5), 5u);
  EXPECT_EQ(layout.ParitySite(6), 0u);
}

TEST(LayoutFig1, SparePlacementMatchesPaper) {
  RotatedLayout layout(4);
  // Fig. 1: S one column right of P (wrapping): row 0 -> site 1, ...,
  // row 5 -> site 0.
  EXPECT_EQ(layout.SpareSite(0), 1u);
  EXPECT_EQ(layout.SpareSite(1), 2u);
  EXPECT_EQ(layout.SpareSite(2), 3u);
  EXPECT_EQ(layout.SpareSite(3), 4u);
  EXPECT_EQ(layout.SpareSite(4), 5u);
  EXPECT_EQ(layout.SpareSite(5), 0u);
}

TEST(LayoutFig1, ExactDataNumbering) {
  // The full Fig. 1 table. -1 = P, -2 = S, otherwise the data block
  // number printed in the figure.
  RotatedLayout layout(4);
  const int expected[6][6] = {
      {-1, -2, 0, 0, 0, 0},  // block 0
      {0, -1, -2, 1, 1, 1},  // block 1
      {1, 0, -1, -2, 2, 2},  // block 2
      {2, 1, 1, -1, -2, 3},  // block 3
      {3, 2, 2, 2, -1, -2},  // block 4
      {-2, 3, 3, 3, 3, -1},  // block 5
  };
  for (BlockNum row = 0; row < 6; ++row) {
    for (SiteId site = 0; site < 6; ++site) {
      SCOPED_TRACE("row " + std::to_string(row) + " site " +
                   std::to_string(site));
      int want = expected[row][site];
      BlockRole role = layout.RoleOf(site, row);
      if (want == -1) {
        EXPECT_EQ(role, BlockRole::kParity);
      } else if (want == -2) {
        EXPECT_EQ(role, BlockRole::kSpare);
      } else {
        ASSERT_EQ(role, BlockRole::kData);
        Result<BlockNum> idx = layout.RowToData(site, row);
        ASSERT_TRUE(idx.ok());
        EXPECT_EQ(*idx, static_cast<BlockNum>(want));
      }
    }
  }
}

TEST(LayoutFig1, PaperS1Formula) {
  // §3.2: on site S[1], K = (G+2)*quotient(I/G) + remainder(I/G) + 2.
  RotatedLayout layout(4);
  for (BlockNum i = 0; i < 40; ++i) {
    BlockNum expected = 6 * (i / 4) + (i % 4) + 2;
    EXPECT_EQ(layout.DataToRow(1, i), expected) << "I=" << i;
  }
}

// ---------------------------------------------------------------------------
// Structural properties, swept over group sizes.
// ---------------------------------------------------------------------------

class LayoutPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(LayoutPropertyTest, EveryRowHasOneParityOneSpareGData) {
  RotatedLayout layout(GetParam());
  const int n = layout.num_sites();
  for (BlockNum row = 0; row < static_cast<BlockNum>(3 * n); ++row) {
    int parity = 0, spare = 0, data = 0;
    for (int j = 0; j < n; ++j) {
      switch (layout.RoleOf(static_cast<SiteId>(j), row)) {
        case BlockRole::kParity:
          ++parity;
          EXPECT_EQ(layout.ParitySite(row), static_cast<SiteId>(j));
          break;
        case BlockRole::kParityQ:
          ADD_FAILURE() << "single-parity layout produced a Q role";
          break;
        case BlockRole::kSpare:
          ++spare;
          EXPECT_EQ(layout.SpareSite(row), static_cast<SiteId>(j));
          break;
        case BlockRole::kData:
          ++data;
          break;
        case BlockRole::kNone:
          ADD_FAILURE() << "rotated layout produced a none role";
          break;
      }
    }
    EXPECT_EQ(parity, 1);
    EXPECT_EQ(spare, 1);
    EXPECT_EQ(data, GetParam());
  }
}

TEST_P(LayoutPropertyTest, DataToRowRoundTrips) {
  RotatedLayout layout(GetParam());
  const int n = layout.num_sites();
  for (int j = 0; j < n; ++j) {
    SiteId site = static_cast<SiteId>(j);
    for (BlockNum i = 0; i < static_cast<BlockNum>(4 * GetParam()); ++i) {
      BlockNum row = layout.DataToRow(site, i);
      EXPECT_EQ(layout.RoleOf(site, row), BlockRole::kData);
      Result<BlockNum> back = layout.RowToData(site, row);
      ASSERT_TRUE(back.ok());
      EXPECT_EQ(*back, i);
    }
  }
}

TEST_P(LayoutPropertyTest, DataNumberingIsDenseAndOrdered) {
  // Walking rows top to bottom, each site's data blocks appear as
  // 0, 1, 2, ... with no gaps (that is how Fig. 1 numbers them).
  RotatedLayout layout(GetParam());
  const int n = layout.num_sites();
  for (int j = 0; j < n; ++j) {
    SiteId site = static_cast<SiteId>(j);
    BlockNum next = 0;
    for (BlockNum row = 0; row < static_cast<BlockNum>(5 * n); ++row) {
      if (layout.RoleOf(site, row) != BlockRole::kData) continue;
      Result<BlockNum> idx = layout.RowToData(site, row);
      ASSERT_TRUE(idx.ok());
      EXPECT_EQ(*idx, next) << "site " << j << " row " << row;
      ++next;
    }
  }
}

TEST_P(LayoutPropertyTest, RowToDataRejectsParityAndSpare) {
  RotatedLayout layout(GetParam());
  const int n = layout.num_sites();
  for (BlockNum row = 0; row < static_cast<BlockNum>(2 * n); ++row) {
    EXPECT_FALSE(layout.RowToData(layout.ParitySite(row), row).ok());
    EXPECT_FALSE(layout.RowToData(layout.SpareSite(row), row).ok());
  }
}

TEST_P(LayoutPropertyTest, ReconstructionSourcesExcludeFailedAndSpare) {
  RotatedLayout layout(GetParam());
  const int n = layout.num_sites();
  for (BlockNum row = 0; row < static_cast<BlockNum>(2 * n); ++row) {
    for (int f = 0; f < n; ++f) {
      SiteId failed = static_cast<SiteId>(f);
      if (layout.RoleOf(failed, row) != BlockRole::kData) continue;
      std::vector<SiteId> sources =
          layout.ReconstructionSources(failed, row);
      EXPECT_EQ(sources.size(), static_cast<size_t>(GetParam()));
      std::set<SiteId> set(sources.begin(), sources.end());
      EXPECT_EQ(set.size(), sources.size()) << "duplicate source";
      EXPECT_EQ(set.count(failed), 0u);
      EXPECT_EQ(set.count(layout.SpareSite(row)), 0u);
      EXPECT_EQ(set.count(layout.ParitySite(row)), 1u);
    }
  }
}

TEST_P(LayoutPropertyTest, CapacityAccounting) {
  RotatedLayout layout(GetParam());
  const BlockNum n = static_cast<BlockNum>(layout.num_sites());
  const BlockNum g = static_cast<BlockNum>(GetParam());
  EXPECT_EQ(layout.DataBlocksPerSite(0), 0u);
  EXPECT_EQ(layout.DataBlocksPerSite(n), g);
  EXPECT_EQ(layout.DataBlocksPerSite(n - 1), 0u);  // partial cycle unused
  EXPECT_EQ(layout.DataBlocksPerSite(10 * n), 10 * g);
  EXPECT_EQ(layout.RowsForDataBlocks(g), n);
  EXPECT_EQ(layout.RowsForDataBlocks(g + 1), 2 * n);
}

INSTANTIATE_TEST_SUITE_P(GroupSizes, LayoutPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 8, 16));

// ---------------------------------------------------------------------------
// §4 grouping algorithm.
// ---------------------------------------------------------------------------

TEST(GroupAssigner, UniformSitesOneDriveEach) {
  GroupAssigner assigner(4);  // groups of 6
  Result<std::vector<DriveGroup>> groups = assigner.Assign({1, 1, 1, 1, 1, 1});
  ASSERT_TRUE(groups.ok()) << groups.status().ToString();
  ASSERT_EQ(groups->size(), 1u);
  EXPECT_EQ((*groups)[0].members.size(), 6u);
}

TEST(GroupAssigner, RejectsNonMultipleTotal) {
  GroupAssigner assigner(4);
  EXPECT_FALSE(assigner.Assign({1, 1, 1, 1, 1, 1, 1}).ok());
}

TEST(GroupAssigner, RejectsSiteOwningMoreThanA) {
  // total = 12 = 2 * 6, A = 2, but one site owns 3 > A.
  GroupAssigner assigner(4);
  EXPECT_FALSE(assigner.Assign({3, 2, 2, 2, 1, 1, 1}).ok());
}

TEST(GroupAssigner, RejectsTooFewSites) {
  GroupAssigner assigner(4);
  EXPECT_FALSE(assigner.Assign({3, 3}).ok());
}

// Precondition failures must name the offending site and the counts the
// operator needs to fix the census — "invalid argument" alone is useless
// when a 40-site census fails to pack.
std::string AssignError(const GroupAssigner& assigner,
                        const std::vector<int>& drives) {
  Result<std::vector<DriveGroup>> groups = assigner.Assign(drives);
  EXPECT_FALSE(groups.ok());
  EXPECT_TRUE(groups.status().IsInvalidArgument())
      << groups.status().ToString();
  return groups.status().ToString();
}

void ExpectContains(const std::string& message, const std::string& needle) {
  EXPECT_NE(message.find(needle), std::string::npos)
      << "message \"" << message << "\" lacks \"" << needle << "\"";
}

TEST(GroupAssignerDiagnostics, NegativeCountNamesSiteAndValue) {
  GroupAssigner assigner(4);
  std::string msg = AssignError(assigner, {1, -2, 1, 1, 1, 1});
  ExpectContains(msg, "site 1");
  ExpectContains(msg, "(-2)");
}

TEST(GroupAssignerDiagnostics, AllZeroNamesSiteCount) {
  GroupAssigner assigner(4);
  ExpectContains(AssignError(assigner, {0, 0, 0, 0, 0, 0, 0}),
                 "all 7 sites report zero drives");
}

TEST(GroupAssignerDiagnostics, NonMultipleNamesTotalAndWidth) {
  GroupAssigner assigner(4);
  std::string msg = AssignError(assigner, {2, 1, 1, 1, 1, 1});
  ExpectContains(msg, "total drives 7");
  ExpectContains(msg, "6 sites");
  ExpectContains(msg, "group width 6");
}

TEST(GroupAssignerDiagnostics, OverweightSiteNamesSiteAndBound) {
  // Total 12, A = 2, site 0 owns 3.
  GroupAssigner assigner(4);
  std::string msg = AssignError(assigner, {3, 2, 2, 2, 1, 1, 1});
  ExpectContains(msg, "site 0 owns 3 of the 12 drives");
  ExpectContains(msg, "A = total/width = 2");
  ExpectContains(msg, "width 6");
}

TEST(GroupAssignerDiagnostics, TooFewSitesNamesAConcreteCause) {
  // A census on fewer than `width` sites whose total is a multiple of
  // the width always has some site above A = total/width (total <=
  // sites * A would force sites >= width), so the overweight check
  // fires first — what matters is that the message names the site and
  // both counts, not which precondition catches it.
  GroupAssigner assigner(4);
  std::string msg = AssignError(assigner, {3, 3, 3, 3});
  ExpectContains(msg, "site 0 owns 3 of the 12 drives");
  ExpectContains(msg, "A = total/width = 2");
}

TEST(GroupAssignerDiagnostics, WidthOverrideIsReflectedInMessages) {
  // Declustered groups span `width` sites, not G + 1 + parities; the
  // diagnostics must report the width actually enforced.
  GroupAssigner assigner(2, 1, /*width=*/8);
  std::string msg = AssignError(assigner, {1, 1, 1, 1, 1, 1, 1});
  ExpectContains(msg, "group width 8");
}

TEST(GroupAssignerDiagnostics, IndivisibleCapacityNamesSiteAndSizes) {
  GroupAssigner assigner(4);
  Result<std::vector<DriveGroup>> groups =
      assigner.AssignBlocks({150, 100, 100, 100, 100, 100}, 100);
  ASSERT_FALSE(groups.ok());
  std::string msg = groups.status().ToString();
  ExpectContains(msg, "site 0 capacity 150");
  ExpectContains(msg, "logical drive size 100");
}

// The paper's claim: any configuration meeting the preconditions packs
// completely, with each group's members on distinct sites.
class GroupAssignerPropertyTest
    : public ::testing::TestWithParam<std::vector<int>> {};

TEST_P(GroupAssignerPropertyTest, ValidConfigurationsPackCompletely) {
  const int g = 4;
  const int members = g + 2;
  GroupAssigner assigner(g);
  std::vector<int> drives = GetParam();
  long total = std::accumulate(drives.begin(), drives.end(), 0L);
  ASSERT_EQ(total % members, 0);
  Result<std::vector<DriveGroup>> groups = assigner.Assign(drives);
  ASSERT_TRUE(groups.ok()) << groups.status().ToString();
  EXPECT_EQ(static_cast<long>(groups->size()), total / members);

  std::map<SiteId, int> used;
  for (const DriveGroup& grp : *groups) {
    EXPECT_EQ(grp.members.size(), static_cast<size_t>(members));
    std::set<SiteId> sites;
    for (const LogicalDrive& d : grp.members) {
      sites.insert(d.site);
      ++used[d.site];
    }
    EXPECT_EQ(sites.size(), static_cast<size_t>(members))
        << "two drives of one group share a site";
  }
  // Every drive used exactly once.
  for (size_t j = 0; j < drives.size(); ++j) {
    EXPECT_EQ(used[static_cast<SiteId>(j)], drives[j]) << "site " << j;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configurations, GroupAssignerPropertyTest,
    ::testing::Values(
        std::vector<int>{1, 1, 1, 1, 1, 1},           // A=1
        std::vector<int>{2, 2, 2, 2, 2, 2},           // A=2 uniform
        std::vector<int>{2, 2, 2, 2, 1, 1, 1, 1},     // A=2 skewed
        std::vector<int>{3, 3, 3, 3, 2, 2, 1, 1},     // A=3 skewed
        std::vector<int>{4, 4, 4, 3, 3, 3, 2, 1},     // A=4
        std::vector<int>{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1},  // 12 sites
        std::vector<int>{5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5,
                         1, 1, 1, 1, 1, 1}));          // A=11, 18 sites

TEST(GroupAssigner, MinimalGroupSizeOne) {
  // Smallest legal RADD: G = 1 means groups of 3 (data, parity, spare).
  GroupAssigner assigner(1);
  Result<std::vector<DriveGroup>> groups = assigner.Assign({1, 1, 1});
  ASSERT_TRUE(groups.ok()) << groups.status().ToString();
  ASSERT_EQ(groups->size(), 1u);
  std::set<SiteId> sites;
  for (const LogicalDrive& d : (*groups)[0].members) sites.insert(d.site);
  EXPECT_EQ(sites.size(), 3u);
}

TEST(GroupAssigner, HeterogeneousCapacityMustFail) {
  // Total 18 = 3 * 6 so A = 3, but the heavy site owns 7 > A drives:
  // after it contributes to all 3 groups, 4 of its drives are stranded.
  GroupAssigner assigner(4);
  Result<std::vector<DriveGroup>> groups =
      assigner.Assign({7, 3, 2, 2, 2, 1, 1});
  EXPECT_FALSE(groups.ok());
  EXPECT_TRUE(groups.status().IsInvalidArgument())
      << groups.status().ToString();
}

TEST(GroupAssigner, AssignmentIsDeterministic) {
  // The volume address map is derived from the assignment, so the same
  // drive census must always produce the same grouping.
  GroupAssigner assigner(4);
  const std::vector<int> drives = {3, 3, 3, 3, 2, 2, 1, 1};
  Result<std::vector<DriveGroup>> a = assigner.Assign(drives);
  Result<std::vector<DriveGroup>> b = assigner.Assign(drives);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (size_t g = 0; g < a->size(); ++g) {
    ASSERT_EQ((*a)[g].members.size(), (*b)[g].members.size());
    for (size_t m = 0; m < (*a)[g].members.size(); ++m) {
      EXPECT_EQ((*a)[g].members[m].site, (*b)[g].members[m].site);
      EXPECT_EQ((*a)[g].members[m].first_block,
                (*b)[g].members[m].first_block);
      EXPECT_EQ((*a)[g].members[m].drive_blocks,
                (*b)[g].members[m].drive_blocks);
    }
  }
}

TEST(GroupAssigner, AssignBlocksSlicesLogicalDrives) {
  // §4's non-uniform disk sizes: slice into logical drives of B blocks.
  GroupAssigner assigner(4);
  // Nine sites with mixed capacities, B = 100 -> drives {2,2,2,1,1,1,1,1,1},
  // total 12 = 2 groups of 6, A = 2, no site above A.
  Result<std::vector<DriveGroup>> groups = assigner.AssignBlocks(
      {200, 200, 200, 100, 100, 100, 100, 100, 100}, 100);
  ASSERT_TRUE(groups.ok()) << groups.status().ToString();
  ASSERT_EQ(groups->size(), 2u);
  for (const DriveGroup& grp : *groups) {
    for (const LogicalDrive& d : grp.members) {
      EXPECT_EQ(d.drive_blocks, 100u);
      EXPECT_EQ(d.first_block % 100, 0u);
    }
  }
}

TEST(GroupAssigner, AssignBlocksRejectsIndivisibleCapacity) {
  GroupAssigner assigner(4);
  EXPECT_FALSE(assigner.AssignBlocks({150, 100, 100, 100, 100}, 100).ok());
}

TEST(GroupAssigner, AssignBlocksDistinctRangesPerSite) {
  GroupAssigner assigner(1);  // groups of 3
  Result<std::vector<DriveGroup>> groups =
      assigner.AssignBlocks({300, 300, 200, 100}, 100);
  ASSERT_TRUE(groups.ok()) << groups.status().ToString();
  ASSERT_EQ(groups->size(), 3u);
  // No two drives on the same site overlap.
  std::map<SiteId, std::set<BlockNum>> starts;
  for (const DriveGroup& grp : *groups) {
    for (const LogicalDrive& d : grp.members) {
      EXPECT_TRUE(starts[d.site].insert(d.first_block).second)
          << "overlapping drives at site " << d.site;
    }
  }
}

TEST(BlockRoleName, Names) {
  EXPECT_EQ(BlockRoleName(BlockRole::kData), "data");
  EXPECT_EQ(BlockRoleName(BlockRole::kParity), "parity");
  EXPECT_EQ(BlockRoleName(BlockRole::kSpare), "spare");
}

}  // namespace
}  // namespace radd
