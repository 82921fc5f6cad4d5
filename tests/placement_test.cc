// Layout-invariant property suite over every PlacementMap implementation
// (layout/placement.h): the rotated closed forms, the declustered
// t-design tables, and the epoch-versioned expandable map. Every
// implementation must honor the same row-composition, round-trip and
// reconstruction-source contracts; the rotated implementation must match
// the Fig. 1 closed forms of its header, written out independently here.

#include "layout/placement.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <vector>

namespace radd {
namespace {

constexpr uint64_t kSeed = 0x9a1a7;

// ---------------------------------------------------------------------------
// Shared property checks. `rows` is the physical blocks per member the
// map was built for; every logical row of NumRows(rows) is swept.
// ---------------------------------------------------------------------------

// Each row has exactly one parity, one spare, G data blocks (and one Q
// when dual parity), each on a distinct member, and the role queries
// agree with the site queries.
void CheckRowComposition(const PlacementMap& map, BlockNum rows) {
  const int width = map.num_sites();
  const int g = map.group_size();
  for (BlockNum row = 0; row < map.NumRows(rows); ++row) {
    SCOPED_TRACE("row " + std::to_string(row));
    int parity = 0, q = 0, spare = 0, data = 0;
    for (int m = 0; m < width; ++m) {
      const SiteId member = static_cast<SiteId>(m);
      switch (map.RoleOf(member, row)) {
        case BlockRole::kParity:
          ++parity;
          EXPECT_EQ(map.ParitySite(row), member);
          break;
        case BlockRole::kParityQ:
          ++q;
          EXPECT_TRUE(map.dual_parity()) << "Q role without dual parity";
          if (map.dual_parity()) {
            EXPECT_EQ(map.QParitySite(row), member);
          }
          break;
        case BlockRole::kSpare:
          ++spare;
          EXPECT_EQ(map.SpareSite(row), member);
          break;
        case BlockRole::kData:
          ++data;
          break;
        case BlockRole::kNone:
          break;
      }
    }
    EXPECT_EQ(parity, 1);
    EXPECT_EQ(spare, 1);
    EXPECT_EQ(q, map.dual_parity() ? 1 : 0);
    EXPECT_EQ(data, g);

    // DataSites returns exactly the data members, no duplicates.
    std::vector<SiteId> ds = map.DataSites(row);
    ASSERT_EQ(ds.size(), static_cast<size_t>(g));
    std::set<SiteId> dset(ds.begin(), ds.end());
    EXPECT_EQ(dset.size(), ds.size()) << "duplicate data site";
    for (SiteId m : ds) {
      EXPECT_EQ(map.RoleOf(m, row), BlockRole::kData);
    }
  }
}

// RowToData inverts DataToRow over every member's whole data-index
// domain, and rejects the member's non-data rows. `strict` relaxes the
// exact identity for maps holding a committed expansion: an expansion
// owner's per-round data blocks all live in the round's new stripe, so
// several indices share one row and RowToData can only return a
// representative index of that row (host resolution goes by index —
// CheckOwnerPhysicalBijection — so the data path never needs the exact
// inverse).
void CheckRoundTrip(const PlacementMap& map, BlockNum rows,
                    bool strict = true) {
  const int width = map.num_sites();
  for (int m = 0; m < width; ++m) {
    const SiteId member = static_cast<SiteId>(m);
    for (BlockNum i = 0; i < map.DataBlocksPerSite(rows); ++i) {
      const BlockNum row = map.DataToRow(member, i);
      EXPECT_LT(row, map.NumRows(rows));
      Result<BlockNum> back = map.RowToData(member, row);
      ASSERT_TRUE(back.ok()) << "member " << m << " index " << i << ": "
                             << back.status().ToString();
      if (strict) {
        EXPECT_EQ(*back, i);
      } else {
        EXPECT_EQ(map.DataToRow(member, *back), row);
      }
    }
  }
  for (BlockNum row = 0; row < map.NumRows(rows); ++row) {
    EXPECT_FALSE(map.RowToData(map.ParitySite(row), row).ok());
    EXPECT_FALSE(map.RowToData(map.SpareSite(row), row).ok());
    if (map.dual_parity()) {
      EXPECT_FALSE(map.RowToData(map.QParitySite(row), row).ok());
    }
  }
}

// ReconstructionSources: every participant except the failed member and
// the spare, each distinct, parity always present.
void CheckReconstructionSources(const PlacementMap& map, BlockNum rows) {
  const int width = map.num_sites();
  const size_t expected = static_cast<size_t>(map.stripe_width()) - 2;
  for (BlockNum row = 0; row < map.NumRows(rows); ++row) {
    for (int f = 0; f < width; ++f) {
      const SiteId failed = static_cast<SiteId>(f);
      const BlockRole role = map.RoleOf(failed, row);
      if (role == BlockRole::kNone || role == BlockRole::kSpare) continue;
      std::vector<SiteId> sources = map.ReconstructionSources(failed, row);
      EXPECT_EQ(sources.size(), expected)
          << "row " << row << " failed " << f;
      std::set<SiteId> set(sources.begin(), sources.end());
      EXPECT_EQ(set.size(), sources.size()) << "duplicate source";
      EXPECT_EQ(set.count(failed), 0u);
      EXPECT_EQ(set.count(map.SpareSite(row)), 0u);
      for (SiteId m : sources) {
        EXPECT_NE(map.RoleOf(m, row), BlockRole::kNone)
            << "source " << m << " does not participate in row " << row;
      }
      if (failed != map.ParitySite(row)) {
        EXPECT_EQ(set.count(map.ParitySite(row)), 1u);
      }
    }
  }
}

// Physical addressing: within one member, every row the member
// participates in maps to a distinct in-range drive address.
void CheckAddressBijection(const PlacementMap& map, BlockNum rows) {
  const int width = map.num_sites();
  const BlockNum cycle = static_cast<BlockNum>(map.stripe_width());
  const BlockNum used = (rows / cycle) * cycle;
  for (int m = 0; m < width; ++m) {
    const SiteId member = static_cast<SiteId>(m);
    std::set<BlockNum> addrs;
    for (BlockNum row = 0; row < map.NumRows(rows); ++row) {
      if (map.RoleOf(member, row) == BlockRole::kNone) continue;
      const BlockNum a = map.AddressOf(member, row);
      EXPECT_LT(a, used) << "member " << m << " row " << row;
      EXPECT_TRUE(addrs.insert(a).second)
          << "member " << m << ": two rows share address " << a;
    }
  }
}

// Outside an expansion every owner hosts its own blocks.
void CheckHostIsOwner(const PlacementMap& map, BlockNum rows) {
  for (int m = 0; m < map.num_sites(); ++m) {
    const SiteId member = static_cast<SiteId>(m);
    for (BlockNum i = 0; i < map.DataBlocksPerSite(rows); ++i) {
      const BlockNum row = map.DataToRow(member, i);
      EXPECT_EQ(map.HostOfData(member, row), member);
      EXPECT_EQ(map.HostOfDataIndex(member, i), member);
    }
  }
}

// The end-to-end addressing contract the data path relies on: every
// (owner, data index) resolves through DataToRow + HostOfDataIndex to a
// data-role host and a physical block no other (owner, index) touches.
void CheckOwnerPhysicalBijection(const PlacementMap& map, BlockNum rows) {
  std::set<std::pair<SiteId, BlockNum>> blocks;
  for (int m = 0; m < map.num_sites(); ++m) {
    const SiteId member = static_cast<SiteId>(m);
    for (BlockNum i = 0; i < map.DataBlocksPerSite(rows); ++i) {
      const BlockNum row = map.DataToRow(member, i);
      const SiteId host = map.HostOfDataIndex(member, i);
      EXPECT_EQ(map.RoleOf(host, row), BlockRole::kData)
          << "member " << m << " index " << i << " hosted at " << host;
      EXPECT_TRUE(blocks.insert({host, map.AddressOf(host, row)}).second)
          << "member " << m << " index " << i
          << " aliases another owner's block";
    }
  }
}

void CheckAllProperties(const PlacementMap& map, BlockNum rows,
                        bool strict_round_trip = true) {
  CheckRowComposition(map, rows);
  CheckRoundTrip(map, rows, strict_round_trip);
  CheckReconstructionSources(map, rows);
  CheckAddressBijection(map, rows);
  CheckOwnerPhysicalBijection(map, rows);
}

// ---------------------------------------------------------------------------
// The suite, instantiated for every implementation and parity mode.
// ---------------------------------------------------------------------------

struct MapCase {
  std::string name;
  int g;
  int parities;
  int sites;  // 0 = rotated
  BlockNum rows;
};

// A stable test name: gtest's default printer would dump the string's
// heap pointer, which changes from one run to the next.
void PrintTo(const MapCase& c, std::ostream* os) {
  *os << c.name;
}

class PlacementPropertyTest : public ::testing::TestWithParam<MapCase> {
 protected:
  std::shared_ptr<PlacementMap> Make() const {
    const MapCase& c = GetParam();
    PlacementSpec spec;
    if (c.sites > 0) {
      spec.kind = PlacementKind::kDeclustered;
      spec.sites = c.sites;
      spec.seed = kSeed;
    }
    return MakePlacement(spec, c.g, c.parities, c.rows);
  }
};

TEST_P(PlacementPropertyTest, HonorsPlacementContract) {
  std::shared_ptr<PlacementMap> map = Make();
  const MapCase& c = GetParam();
  EXPECT_EQ(map->group_size(), c.g);
  EXPECT_EQ(map->parities(), c.parities);
  EXPECT_EQ(map->num_sites(),
            c.sites > 0 ? c.sites : c.g + 1 + c.parities);
  EXPECT_EQ(map->stripe_width(), c.g + 1 + c.parities);
  CheckAllProperties(*map, c.rows);
  CheckHostIsOwner(*map, c.rows);
}

TEST_P(PlacementPropertyTest, ParityLegsAreTheRowsParityRoles) {
  // The paper's XOR parity is the one-leg case of P+Q: LegsOf lists P,
  // then Q in a dual map, and nothing else.
  std::shared_ptr<PlacementMap> map = Make();
  const MapCase& c = GetParam();
  for (BlockNum row = 0; row < map->NumRows(c.rows); ++row) {
    const ParityLegs legs = map->LegsOf(row);
    ASSERT_EQ(legs.count, c.parities) << "row " << row;
    EXPECT_EQ(legs[0], map->ParitySite(row));
    EXPECT_EQ(map->RoleOf(legs[0], row), BlockRole::kParity);
    if (c.parities == 2) {
      EXPECT_EQ(legs[1], map->QParitySite(row));
      EXPECT_EQ(map->RoleOf(legs[1], row), BlockRole::kParityQ);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMaps, PlacementPropertyTest,
    ::testing::Values(
        MapCase{"rotated_g1", 1, 1, 0, 12},
        MapCase{"rotated_g4", 4, 1, 0, 24},
        MapCase{"rotated_g4_pq", 4, 2, 0, 28},
        MapCase{"declustered_min_width", 2, 1, 4, 16},
        MapCase{"declustered_g2_c8", 2, 1, 8, 16},
        MapCase{"declustered_g4_c12", 4, 1, 12, 48},
        MapCase{"declustered_pq_c10", 4, 2, 10, 21},
        MapCase{"declustered_wide", 3, 1, 16, 30}),
    [](const ::testing::TestParamInfo<MapCase>& info) {
      return info.param.name;
    });

// ---------------------------------------------------------------------------
// RotatedLayout must be the closed forms of its header, query for query,
// checked exhaustively for small G x rows grids in both parity modes. The
// reference below restates the formulas directly: roles from
// i = (K - J - 1) mod n, data indices by counting a member's data rows
// down its column.
// ---------------------------------------------------------------------------

struct ClosedForms {
  int g, parities, n;
  BlockRole Role(int j, BlockNum k) const {
    const int i = static_cast<int>(((static_cast<long long>(k) - j - 1) % n +
                                    n) % n);
    if (i < g) return BlockRole::kData;
    if (i == g) return BlockRole::kSpare;
    if (i == n - 1) return BlockRole::kParity;
    return BlockRole::kParityQ;
  }
  /// Data index of member j's block in row k (k must hold data at j).
  BlockNum Index(int j, BlockNum k) const {
    const BlockNum cycle_start = k - k % static_cast<BlockNum>(n);
    BlockNum above = 0;
    for (BlockNum r = cycle_start; r < k; ++r) {
      if (Role(j, r) == BlockRole::kData) ++above;
    }
    return (k / static_cast<BlockNum>(n)) * static_cast<BlockNum>(g) + above;
  }
};

class RotatedEquivalenceTest
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(RotatedEquivalenceTest, MatchesClosedForms) {
  const int g = GetParam().first;
  const int parities = GetParam().second;
  RotatedLayout map(g, parities);
  const int n = g + 1 + parities;
  const ClosedForms closed{g, parities, n};
  const BlockNum rows = static_cast<BlockNum>(5 * n);
  const BlockNum bn = static_cast<BlockNum>(n);

  ASSERT_EQ(map.num_sites(), n);
  EXPECT_EQ(map.NumRows(rows), rows);
  EXPECT_EQ(map.DataBlocksPerSite(rows), 5 * static_cast<BlockNum>(g));
  EXPECT_EQ(map.RowsForDataBlocks(7),
            (7 + static_cast<BlockNum>(g) - 1) / static_cast<BlockNum>(g) *
                bn);
  for (BlockNum row = 0; row < rows; ++row) {
    SCOPED_TRACE("row " + std::to_string(row));
    EXPECT_EQ(map.ParitySite(row), static_cast<SiteId>(row % bn));
    EXPECT_EQ(map.SpareSite(row),
              static_cast<SiteId>((row + static_cast<BlockNum>(parities)) %
                                  bn));
    if (parities == 2) {
      EXPECT_EQ(map.QParitySite(row), static_cast<SiteId>((row + 1) % bn));
    }
    std::vector<SiteId> data_sites;
    for (int m = 0; m < n; ++m) {
      if (closed.Role(m, row) == BlockRole::kData) {
        data_sites.push_back(static_cast<SiteId>(m));
      }
    }
    EXPECT_EQ(map.DataSites(row), data_sites);
    for (int m = 0; m < n; ++m) {
      const SiteId member = static_cast<SiteId>(m);
      EXPECT_EQ(map.RoleOf(member, row), closed.Role(m, row));
      EXPECT_EQ(map.AddressOf(member, row), row);  // identity addressing
      std::vector<SiteId> sources;
      for (int o = 0; o < n; ++o) {
        if (o != m && closed.Role(o, row) != BlockRole::kSpare) {
          sources.push_back(static_cast<SiteId>(o));
        }
      }
      EXPECT_EQ(map.ReconstructionSources(member, row), sources);
      Result<BlockNum> a = map.RowToData(member, row);
      ASSERT_EQ(a.ok(), closed.Role(m, row) == BlockRole::kData);
      if (a.ok()) {
        const BlockNum want = closed.Index(m, row);
        EXPECT_EQ(*a, want);
        EXPECT_EQ(map.DataToRow(member, want), row);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SmallGrids, RotatedEquivalenceTest,
    ::testing::Values(std::make_pair(1, 1), std::make_pair(2, 1),
                      std::make_pair(3, 1), std::make_pair(4, 1),
                      std::make_pair(8, 1), std::make_pair(2, 2),
                      std::make_pair(4, 2)));

// ---------------------------------------------------------------------------
// Declustered-specific structure: exact per-round load balance and the
// reconstruction spread the t-design tables exist to provide.
// ---------------------------------------------------------------------------

TEST(DeclusteredLayout, RoleLoadIsExactlyBalanced) {
  // Within one round every member plays every stripe offset exactly
  // once, so over R rounds each member holds R parity, R spare and R*G
  // data blocks — no member is a recovery hotspot.
  const int g = 4, c = 12;
  const BlockNum rows = 48;  // 8 rounds of width 6
  DeclusteredLayout map(g, 1, c, rows, kSeed, 4);
  const BlockNum rounds = map.rounds();
  std::map<int, BlockNum> parity, spare, data;
  for (BlockNum row = 0; row < map.NumRows(rows); ++row) {
    for (int m = 0; m < c; ++m) {
      switch (map.RoleOf(static_cast<SiteId>(m), row)) {
        case BlockRole::kParity: ++parity[m]; break;
        case BlockRole::kSpare: ++spare[m]; break;
        case BlockRole::kData: ++data[m]; break;
        default: break;
      }
    }
  }
  for (int m = 0; m < c; ++m) {
    EXPECT_EQ(parity[m], rounds) << "member " << m;
    EXPECT_EQ(spare[m], rounds) << "member " << m;
    EXPECT_EQ(data[m], rounds * static_cast<BlockNum>(g)) << "member " << m;
  }
}

TEST(DeclusteredLayout, ReconstructionSourcesSpreadOverCluster) {
  // The point of declustering (§3.2's bottleneck): a failed member's
  // reconstruction reads fan out over far more peers than the rotated
  // fixed group of G+P. Required spread: more than 2*(G+P) distinct
  // sources per member.
  const int g = 4, parities = 1, c = 12;
  const BlockNum rows = 48;
  DeclusteredLayout map(g, parities, c, rows, kSeed, 4);
  for (int f = 0; f < c; ++f) {
    const SiteId failed = static_cast<SiteId>(f);
    std::set<SiteId> union_sources;
    for (BlockNum row = 0; row < map.NumRows(rows); ++row) {
      const BlockRole role = map.RoleOf(failed, row);
      if (role == BlockRole::kNone || role == BlockRole::kSpare) continue;
      for (SiteId m : map.ReconstructionSources(failed, row)) {
        union_sources.insert(m);
      }
    }
    EXPECT_GT(union_sources.size(), static_cast<size_t>(2 * (g + parities)))
        << "member " << f << " reconstructs from a narrow peer set";
  }

  // Contrast: the rotated layout can never exceed its G+1+P-1 fixed
  // co-members, which is the bottleneck declustering removes.
  RotatedLayout rot(g, parities);
  std::set<SiteId> rot_union;
  for (BlockNum row = 0; row < 48; ++row) {
    if (rot.RoleOf(0, row) == BlockRole::kSpare) continue;
    for (SiteId m : rot.ReconstructionSources(0, row)) rot_union.insert(m);
  }
  EXPECT_LE(rot_union.size(), static_cast<size_t>(g + parities + 1));
}

TEST(DeclusteredLayout, DeterministicForSeedAndShape) {
  const BlockNum rows = 24;
  DeclusteredLayout a(2, 1, 8, rows, kSeed, 4);
  DeclusteredLayout b(2, 1, 8, rows, kSeed, 4);
  DeclusteredLayout other(2, 1, 8, rows, kSeed + 1, 4);
  bool differs = false;
  for (BlockNum row = 0; row < a.NumRows(rows); ++row) {
    EXPECT_EQ(a.ParitySite(row), b.ParitySite(row));
    EXPECT_EQ(a.SpareSite(row), b.SpareSite(row));
    if (a.ParitySite(row) != other.ParitySite(row)) differs = true;
  }
  EXPECT_TRUE(differs) << "seed does not influence the tables";
}

TEST(DeclusteredLayout, CapacityAccountingMatchesRotated) {
  // Capacity rounding is placement-independent: only whole n-row cycles
  // count, regardless of how rows spread over the cluster.
  DeclusteredLayout map(4, 1, 12, 48, kSeed, 4);
  RotatedLayout rot(4, 1);
  EXPECT_EQ(map.DataBlocksPerSite(48), rot.DataBlocksPerSite(48));
  EXPECT_EQ(map.CapacityWasteBlocks(48), 0u);
  EXPECT_EQ(rot.CapacityWasteBlocks(50), 2u);
  EXPECT_EQ(map.CapacityWasteBlocks(50), 2u);
  // More logical rows than physical addresses per member: each row only
  // touches n of the C members.
  EXPECT_EQ(map.NumRows(48), static_cast<BlockNum>(48 / 6) * 12);
}

// ---------------------------------------------------------------------------
// PlacementGroupWidth / MakePlacement factory.
// ---------------------------------------------------------------------------

TEST(PlacementFactory, WidthAndKinds) {
  PlacementSpec rotated;
  EXPECT_EQ(PlacementGroupWidth(rotated, 4, 1), 6);
  EXPECT_EQ(PlacementGroupWidth(rotated, 4, 2), 7);

  PlacementSpec declustered;
  declustered.kind = PlacementKind::kDeclustered;
  EXPECT_EQ(PlacementGroupWidth(declustered, 4, 1), 6);  // 0 = minimum
  declustered.sites = 12;
  EXPECT_EQ(PlacementGroupWidth(declustered, 4, 1), 12);

  std::shared_ptr<PlacementMap> r = MakePlacement(rotated, 4, 1, 24);
  EXPECT_EQ(r->kind(), PlacementKind::kRotated);
  EXPECT_EQ(r->num_sites(), 6);

  std::shared_ptr<PlacementMap> d = MakePlacement(declustered, 4, 1, 24);
  EXPECT_EQ(d->kind(), PlacementKind::kDeclustered);
  EXPECT_EQ(d->num_sites(), 12);
  // Declustered maps are always epoch-capable for online expansion.
  EXPECT_NE(dynamic_cast<EpochedPlacement*>(d.get()), nullptr);

  EXPECT_EQ(PlacementKindName(PlacementKind::kRotated), "rotated");
  EXPECT_EQ(PlacementKindName(PlacementKind::kDeclustered), "declustered");
}

// ---------------------------------------------------------------------------
// Epoched expansion: plan shape, bounded movement, table consistency at
// every intermediate step, and ownership stability across the epoch flip.
// ---------------------------------------------------------------------------

class EpochedExpansionTest : public ::testing::Test {
 protected:
  static constexpr int kG = 4, kParities = 1, kC = 12;
  static constexpr BlockNum kRows = 24;  // 4 rounds of width 6

  EpochedExpansionTest()
      : map_(kG, kParities, kC, kRows, kSeed, 4) {}

  EpochedPlacement map_;
};

TEST_F(EpochedExpansionTest, PlanIsMinimalAndWellFormed) {
  const int n = map_.stripe_width();
  const BlockNum rounds = map_.rounds();
  Result<std::vector<PlacementMove>> plan = map_.BeginAddMember();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  // Exactly rounds * (n-1) moves: the minimal set.
  EXPECT_EQ(plan->size(), static_cast<size_t>(rounds) *
                              static_cast<size_t>(n - 1));
  // Bounded movement: moved blocks <= the added capacity share,
  // total/(C+1), of the pre-expansion physical blocks.
  EXPECT_LE(plan->size() * static_cast<size_t>(kC + 1),
            static_cast<size_t>(kC) * static_cast<size_t>(kRows));

  // Per round: one move per offset except the new member's own slot,
  // from distinct stripes and distinct donors.
  std::map<BlockNum, std::set<int>> offsets_by_round, donors_by_round;
  std::map<BlockNum, std::set<BlockNum>> rows_by_round;
  for (const PlacementMove& mv : *plan) {
    const BlockNum q = mv.donor_addr / static_cast<BlockNum>(n);
    EXPECT_GE(mv.offset, 0);
    EXPECT_LT(mv.offset, n);
    EXPECT_NE(mv.offset, static_cast<int>(q % static_cast<BlockNum>(n)))
        << "move takes over the new member's own slot";
    EXPECT_LT(mv.donor, kC);
    EXPECT_TRUE(offsets_by_round[q].insert(mv.offset).second)
        << "round " << q << ": duplicate offset";
    EXPECT_TRUE(donors_by_round[q].insert(mv.donor).second)
        << "round " << q << ": donor drained twice";
    EXPECT_TRUE(rows_by_round[q].insert(mv.row).second)
        << "round " << q << ": two moves in one stripe";
  }
  for (auto& [q, offs] : offsets_by_round) {
    EXPECT_EQ(offs.size(), static_cast<size_t>(n - 1)) << "round " << q;
  }
}

TEST_F(EpochedExpansionTest, EpochAndRowsFlipOnlyAtCommit) {
  LayoutEpoch e0 = map_.CurrentEpoch();
  EXPECT_EQ(e0.epoch, 0u);
  EXPECT_FALSE(e0.migrating);
  EXPECT_EQ(e0.members, kC);
  const BlockNum rows_before = map_.NumRows(kRows);

  Result<std::vector<PlacementMove>> plan = map_.BeginAddMember();
  ASSERT_TRUE(plan.ok());
  LayoutEpoch e1 = map_.CurrentEpoch();
  EXPECT_EQ(e1.epoch, 1u);
  EXPECT_TRUE(e1.migrating);
  EXPECT_EQ(e1.members, kC + 1);          // addressable immediately
  EXPECT_EQ(e1.num_rows, rows_before);    // capacity exposed only at commit
  EXPECT_EQ(map_.pending_member(), kC);

  for (const PlacementMove& mv : *plan) map_.ApplyMove(mv);
  ASSERT_TRUE(map_.CommitAddMember().ok());

  LayoutEpoch e2 = map_.CurrentEpoch();
  EXPECT_EQ(e2.epoch, 2u);
  EXPECT_FALSE(e2.migrating);
  EXPECT_EQ(e2.num_rows, rows_before + map_.rounds());
  EXPECT_EQ(map_.pending_member(), -1);
}

TEST_F(EpochedExpansionTest, ExpandedMapHonorsAllProperties) {
  // Record the pre-expansion ownership map: it must survive unchanged.
  std::map<std::pair<int, BlockNum>, BlockNum> owner_rows;
  for (int m = 0; m < kC; ++m) {
    for (BlockNum i = 0; i < map_.DataBlocksPerSite(kRows); ++i) {
      owner_rows[{m, i}] = map_.DataToRow(static_cast<SiteId>(m), i);
    }
  }

  Result<std::vector<PlacementMove>> plan = map_.BeginAddMember();
  ASSERT_TRUE(plan.ok());
  size_t data_moves = 0;
  for (const PlacementMove& mv : *plan) {
    map_.ApplyMove(mv);
    if (mv.offset >= kG) continue;
    ++data_moves;
    // The donor still *owns* the block (LBA space fixed for the volume's
    // life) but the new member now *hosts* it.
    Result<BlockNum> idx = map_.RowToData(
        static_cast<SiteId>(mv.donor), mv.row);
    EXPECT_TRUE(idx.ok()) << idx.status().ToString();
    EXPECT_EQ(map_.HostOfData(static_cast<SiteId>(mv.donor), mv.row),
              static_cast<SiteId>(kC));
    EXPECT_EQ(map_.RoleOf(static_cast<SiteId>(kC), mv.row),
              BlockRole::kData);
    EXPECT_EQ(map_.RoleOf(static_cast<SiteId>(mv.donor), mv.row),
              BlockRole::kNone);
  }
  EXPECT_GT(data_moves, 0u);
  ASSERT_TRUE(map_.CommitAddMember().ok());

  EXPECT_EQ(map_.num_sites(), kC + 1);
  CheckAllProperties(map_, kRows, /*strict_round_trip=*/false);

  // Ownership stable: every pre-expansion (member, index) still maps to
  // the same row.
  for (const auto& [key, row] : owner_rows) {
    EXPECT_EQ(map_.DataToRow(static_cast<SiteId>(key.first), key.second),
              row)
        << "member " << key.first << " index " << key.second;
  }
  // The new member owns the new stripes' data blocks: per round all of
  // its G indices share the round's new-stripe row but resolve to G
  // distinct hosts — the disambiguation HostOfDataIndex exists for.
  const BlockNum g = static_cast<BlockNum>(kG);
  for (BlockNum i = 0; i < map_.DataBlocksPerSite(kRows); ++i) {
    const BlockNum row = map_.DataToRow(static_cast<SiteId>(kC), i);
    EXPECT_GE(row, static_cast<BlockNum>(kC) * map_.rounds())
        << "new member owns a pre-expansion row";
    EXPECT_EQ(row, map_.DataToRow(static_cast<SiteId>(kC), (i / g) * g))
        << "one new stripe per round";
  }
  for (BlockNum q = 0; q < map_.rounds(); ++q) {
    std::set<SiteId> hosts;
    for (BlockNum k = 0; k < g; ++k) {
      hosts.insert(map_.HostOfDataIndex(static_cast<SiteId>(kC), q * g + k));
    }
    EXPECT_EQ(hosts.size(), static_cast<size_t>(kG))
        << "round " << q << ": new-stripe blocks share a host";
  }
}

TEST_F(EpochedExpansionTest, SecondExpansionStacksOnTheFirst) {
  for (int round = 0; round < 2; ++round) {
    Result<std::vector<PlacementMove>> plan = map_.BeginAddMember();
    ASSERT_TRUE(plan.ok()) << "expansion " << round << ": "
                           << plan.status().ToString();
    for (const PlacementMove& mv : *plan) map_.ApplyMove(mv);
    ASSERT_TRUE(map_.CommitAddMember().ok());
  }
  EXPECT_EQ(map_.num_sites(), kC + 2);
  EXPECT_EQ(map_.NumRows(kRows),
            static_cast<BlockNum>(kC + 2) * map_.rounds());
  EXPECT_EQ(map_.CurrentEpoch().epoch, 4u);
  CheckAllProperties(map_, kRows, /*strict_round_trip=*/false);
}

TEST_F(EpochedExpansionTest, GuardsAgainstMisuse) {
  // Commit without a migration in flight.
  EXPECT_FALSE(map_.CommitAddMember().ok());

  Result<std::vector<PlacementMove>> plan = map_.BeginAddMember();
  ASSERT_TRUE(plan.ok());
  // Only one expansion at a time.
  EXPECT_FALSE(map_.BeginAddMember().ok());
  // Commit before every move landed.
  map_.ApplyMove((*plan)[0]);
  Status st = map_.CommitAddMember();
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("1 of"), std::string::npos) << st.ToString();
}

}  // namespace
}  // namespace radd
