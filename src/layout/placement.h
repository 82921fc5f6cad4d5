// Pluggable placement: the map from (member, row) to block roles and
// physical addresses, behind a virtual interface so the rotated closed
// forms (paper §3.2/Fig. 1), a declustered t-design table and an
// epoch-versioned expandable remap are interchangeable.
//
// Vocabulary. A *group* has `num_sites()` members (the map's "sites":
// member indices, not cluster site ids). A *row* is one
// parity stripe: G data blocks, one spare, and `parities` parity blocks,
// each on a distinct member. Under the rotated layout every member
// appears in every row and member m's block for row r sits at physical
// address r, so rows == physical addresses. Table-driven maps decouple
// the two:
//   * NumRows(rows)       — logical rows exposed given `rows` physical
//                           blocks per member (rotated: rows; declustered
//                           with cluster width C > n: (rows/n)*C — more
//                           rows, each touching only n of C members).
//   * AddressOf(m, row)   — the physical block offset within member m's
//                           drive holding its block of `row`; meaningful
//                           only when RoleOf(m, row) != kNone.
//   * HostOfData(m, row)  — the member *hosting* owner m's data block of
//                           `row`. Ownership (the LBA space: DataToRow /
//                           RowToData) is fixed for the life of a volume;
//                           hosting changes when an expansion migrates
//                           blocks. Everywhere except mid-expansion the
//                           host is the owner.
//
// Declustered construction (parity declustering via t-design-style
// balanced tables). Rows are built in *rounds* of C stripes from k
// seeded permutation templates. Round q uses template t = q mod k, a
// permutation pi of the C members; stripe s of the round places member
// pi[(s + j) mod C] at stripe offset j for j = 0..n-1. Offsets carry the
// roles in layout.h order (j < G data, j == G spare, j == G+1 Q when
// dual, j == n-1 parity). Within one round every member plays every
// offset exactly once, so data/parity/spare load is exactly balanced;
// across rounds the templates differ, so a member's reconstruction
// sources — its co-participants — spread over the whole cluster instead
// of hammering a fixed set of G+P peers (the §3.2 bottleneck).
//
// Epoched expansion (LayoutEpoch). Adding member X to a C-member group
// creates one new stripe per round and moves exactly n-1 existing blocks
// per round onto X's drive: per round, X keeps one slot of the new
// stripe (offset j_X = q mod n) and takes over n-1 slots of existing
// stripes from n-1 distinct donor members; each donor's freed physical
// address becomes its slot in the new stripe (content: never-written
// zeros, like any fresh volume). Moved fraction = (n-1)/(C*n) of
// physical blocks per round, <= 1/(C+1) — the added capacity share —
// versus ~100 % for a reshuffle. The epoch number versions the tables:
// queries answer for the current epoch, and per-move table flips keep the
// map consistent with physical reality at every intermediate step (a
// block is re-addressed only after its bytes moved).

#ifndef RADD_LAYOUT_PLACEMENT_H_
#define RADD_LAYOUT_PLACEMENT_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/block.h"
#include "common/status.h"
#include "common/uid.h"
#include "layout/layout.h"

namespace radd {

enum class PlacementKind { kRotated, kDeclustered };

std::string_view PlacementKindName(PlacementKind kind);

/// How a group's placement map is built. Carried inside RaddConfig.
struct PlacementSpec {
  PlacementKind kind = PlacementKind::kRotated;
  /// Declustered only: cluster width C — the number of members the
  /// group's rows spread over. 0 means the minimum, G + 1 + parities.
  int sites = 0;
  /// Declustered only: seed for the permutation templates.
  uint64_t seed = 0x9a1a7 /* "palat" */;
  /// Declustered only: distinct permutation templates, reused
  /// round-robin over rounds. More templates -> wider reconstruction
  /// spread.
  int templates = 4;
};

/// Group width (member count) implied by a spec.
int PlacementGroupWidth(const PlacementSpec& spec, int group_size,
                        int parities);

/// The parity legs of one row, in decode-preference order: P, then Q in a
/// dual-parity map. The paper's XOR parity is the one-leg case of P+Q.
/// Inline storage, so per-write callers allocate nothing for it.
struct ParityLegs {
  std::array<SiteId, 2> member{};
  int count = 0;

  SiteId operator[](int leg) const {
    return member[static_cast<size_t>(leg)];
  }
};

/// The placement interface; see the file comment for the table-layout
/// extensions.
class PlacementMap {
 public:
  virtual ~PlacementMap() = default;

  virtual PlacementKind kind() const = 0;
  virtual int group_size() const = 0;
  virtual int parities() const = 0;
  bool dual_parity() const { return parities() == 2; }
  /// Stripe width n = G + 1 + parities (blocks per row).
  int stripe_width() const { return group_size() + 1 + parities(); }
  /// Members in the group (the map's site-id space).
  virtual int num_sites() const = 0;

  virtual SiteId ParitySite(BlockNum row) const = 0;
  virtual SiteId QParitySite(BlockNum row) const = 0;
  /// Every parity leg of `row`: {P}, or {P, Q} when dual_parity().
  ParityLegs LegsOf(BlockNum row) const {
    ParityLegs legs;
    legs.member[0] = ParitySite(row);
    legs.count = parities();
    if (legs.count == 2) legs.member[1] = QParitySite(row);
    return legs;
  }
  virtual SiteId SpareSite(BlockNum row) const = 0;
  virtual BlockRole RoleOf(SiteId member, BlockNum row) const = 0;
  virtual BlockNum DataToRow(SiteId member, BlockNum data_index) const = 0;
  virtual Result<BlockNum> RowToData(SiteId member, BlockNum row) const = 0;
  virtual std::vector<SiteId> DataSites(BlockNum row) const = 0;
  virtual std::vector<SiteId> ReconstructionSources(SiteId failed_site,
                                                    BlockNum row) const = 0;

  /// Data blocks each member exposes given `rows` physical blocks per
  /// member. Identical for every placement: only whole n-row cycles are
  /// used, a trailing partial cycle is left unused (documented capacity
  /// rounding — see CapacityWasteBlocks).
  BlockNum DataBlocksPerSite(BlockNum rows) const {
    BlockNum cycle = static_cast<BlockNum>(stripe_width());
    return (rows / cycle) * static_cast<BlockNum>(group_size());
  }
  /// Rows needed to expose `data_blocks` data blocks per member.
  BlockNum RowsForDataBlocks(BlockNum data_blocks) const {
    BlockNum g = static_cast<BlockNum>(group_size());
    BlockNum cycles = (data_blocks + g - 1) / g;
    return cycles * static_cast<BlockNum>(stripe_width());
  }
  /// Physical blocks per member lost to the trailing partial cycle.
  BlockNum CapacityWasteBlocks(BlockNum rows) const {
    return rows % static_cast<BlockNum>(stripe_width());
  }

  // --- table-layout extensions -----------------------------------------
  /// Logical rows exposed given `rows` physical blocks per member.
  virtual BlockNum NumRows(BlockNum rows) const = 0;
  /// Physical block offset within member's drive for its block of `row`.
  /// Only meaningful when RoleOf(member, row) != kNone.
  virtual BlockNum AddressOf(SiteId member, BlockNum row) const = 0;
  /// Member hosting owner `member`'s data block of `row` (== member
  /// except for blocks migrated by an expansion). Ambiguous for a member
  /// added by an expansion — all of its per-round data blocks share one
  /// row (the round's new stripe) — so data-path host resolution must go
  /// through HostOfDataIndex instead.
  virtual SiteId HostOfData(SiteId member, BlockNum row) const {
    (void)row;
    return member;
  }
  /// Member hosting owner `member`'s data block `data_index`. Unlike
  /// HostOfData this is well defined for every owner: the index carries
  /// the stripe offset that (owner, row) loses when an expansion owner
  /// holds several blocks of one row.
  virtual SiteId HostOfDataIndex(SiteId member, BlockNum data_index) const {
    return HostOfData(member, DataToRow(member, data_index));
  }
};

/// (a) The rotated layout of the paper's Fig. 1, in closed form.
///
/// A group has n = G + 1 + P members, where P is the number of rotating
/// parity roles (1 in the paper; 2 for the P+Q double-failure scheme).
/// Member m's block for row K sits at physical address K. In row K:
///   * member  K      mod n holds the row's parity block (P),
///   * member (K + 1) mod n holds the row's Q parity when P == 2,
///   * member (K + P) mod n holds the row's spare block (S),
///   * the remaining G members hold data blocks.
/// With P == 1 this is exactly Fig. 1 (n = G+2, spare at K+1).
///
/// Closed forms (generalizing the paper's S[1] example):
///   role(J, K) : let i = (K - J - 1) mod n;
///                i < G    -> data
///                i == G   -> spare
///                i == G+1 -> Q parity   (P == 2 only)
///                i == n-1 -> parity
///   data index : each member numbers its own data blocks 0, 1, 2, ...
///                down its column (Fig. 1): the block in row K is
///                (K div n) * G plus the number of J's data rows above K
///                in its n-row cycle.
class RotatedLayout : public PlacementMap {
 public:
  /// `group_size` is the paper's G (>= 1); `parities` is 1 for the
  /// paper's single rotating parity, 2 for the P+Q scheme.
  explicit RotatedLayout(int group_size, int parities = 1);

  PlacementKind kind() const override { return PlacementKind::kRotated; }
  int group_size() const override { return g_; }
  int parities() const override { return parities_; }
  int num_sites() const override { return g_ + 1 + parities_; }

  /// K mod n.
  SiteId ParitySite(BlockNum row) const override {
    return static_cast<SiteId>(row % static_cast<BlockNum>(num_sites()));
  }
  /// (K + 1) mod n; only meaningful when dual_parity().
  SiteId QParitySite(BlockNum row) const override {
    return static_cast<SiteId>((row + 1) %
                               static_cast<BlockNum>(num_sites()));
  }
  /// (K + P) mod n: the paper's A' = (K+1) mod (G+2) when P == 1.
  SiteId SpareSite(BlockNum row) const override {
    return static_cast<SiteId>((row + static_cast<BlockNum>(parities_)) %
                               static_cast<BlockNum>(num_sites()));
  }
  BlockRole RoleOf(SiteId member, BlockNum row) const override;
  /// The paper's K for data block `data_index` of `member`.
  BlockNum DataToRow(SiteId member, BlockNum data_index) const override;
  /// Inverse of DataToRow. Fails with InvalidArgument if `row` holds this
  /// member's parity or spare block.
  Result<BlockNum> RowToData(SiteId member, BlockNum row) const override;
  /// The G data members of `row`, in member order.
  std::vector<SiteId> DataSites(BlockNum row) const override;
  /// Every member except `failed_site` and the row's spare — the blocks
  /// formula (2) (or its two-erasure GF(256) generalization) combines; in
  /// dual-parity mode the Q member is included and decoders weight it by
  /// role.
  std::vector<SiteId> ReconstructionSources(SiteId failed_site,
                                            BlockNum row) const override;
  BlockNum NumRows(BlockNum rows) const override { return rows; }
  BlockNum AddressOf(SiteId member, BlockNum row) const override {
    (void)member;
    return row;
  }

 private:
  int g_;
  int parities_;
};

/// (b) Declustered placement: per-round permutation tables (see the file
/// comment). Queries are table lookups; tables are mutable only through
/// the EpochedPlacement subclass.
class DeclusteredLayout : public PlacementMap {
 public:
  /// `sites` is the cluster width C >= G + 1 + parities; `rows` the
  /// physical blocks per member (only whole n-row cycles are used).
  DeclusteredLayout(int group_size, int parities, int sites, BlockNum rows,
                    uint64_t seed, int templates);

  PlacementKind kind() const override { return PlacementKind::kDeclustered; }
  int group_size() const override { return g_; }
  int parities() const override { return parities_; }
  int num_sites() const override { return width_; }

  SiteId ParitySite(BlockNum row) const override;
  SiteId QParitySite(BlockNum row) const override;
  SiteId SpareSite(BlockNum row) const override;
  BlockRole RoleOf(SiteId member, BlockNum row) const override;
  BlockNum DataToRow(SiteId member, BlockNum data_index) const override;
  Result<BlockNum> RowToData(SiteId member, BlockNum row) const override;
  std::vector<SiteId> DataSites(BlockNum row) const override;
  std::vector<SiteId> ReconstructionSources(SiteId failed_site,
                                            BlockNum row) const override;
  BlockNum NumRows(BlockNum rows) const override;
  BlockNum AddressOf(SiteId member, BlockNum row) const override;
  SiteId HostOfData(SiteId member, BlockNum row) const override;
  SiteId HostOfDataIndex(SiteId member, BlockNum data_index) const override;

  /// Rounds of stripes (rows/n whole cycles).
  BlockNum rounds() const { return rounds_; }
  /// Stripes per round (base width + committed expansions).
  int stripes_per_round() const { return base_width_ + committed_; }

 protected:
  /// One block slot: a (stripe, offset) coordinate within a round.
  struct Slot {
    int stripe = -1;
    int offset = -1;
  };
  /// Placement tables for one round of stripes. `members[s][j]` is the
  /// member at offset j of stripe s; `addr[m][a]` the slot whose block
  /// sits at member m's physical address q*n + a (sentinel stripe -1 =
  /// unused); `bind[m][k]` the slot *owned* as m's k-th data block of the
  /// round (fixed at creation — ownership never moves, only hosting).
  struct Round {
    std::vector<std::vector<int>> members;
    std::vector<std::vector<Slot>> addr;
    std::vector<std::vector<Slot>> bind;
  };

  /// Decodes a row id into (round, stripe); false when out of range for
  /// the committed width.
  bool DecodeRow(BlockNum row, BlockNum* round, int* stripe) const;
  /// Row id of stripe `s` in round `q` (stable across expansions: base
  /// stripes first, then one block of `rounds_` rows per expansion).
  BlockNum RowOf(BlockNum round, int stripe) const;
  /// Offset of `member` in stripe `s` of round `q`, or -1.
  int OffsetIn(BlockNum round, int stripe, SiteId member) const;
  BlockRole RoleAtOffset(int offset) const;

  int g_;
  int parities_;
  int base_width_;  // C at construction
  int width_;       // current member count (grows with expansions)
  int committed_;   // committed expansions (extra stripes per round)
  BlockNum rows_;   // physical blocks per member, as configured
  BlockNum rounds_;
  std::vector<Round> rounds_tab_;
};

/// Epoch metadata for the expandable map: even epochs are stable, odd
/// epochs have a migration in flight.
struct LayoutEpoch {
  uint32_t epoch = 0;
  int members = 0;
  BlockNum num_rows = 0;
  bool migrating = false;
};

/// One physical block relocation of an expansion plan: the new member
/// takes over `offset` of `row` from `donor`. Addresses are drive-local
/// block offsets (add the member's first_block for the absolute address).
struct PlacementMove {
  BlockNum row = 0;
  int offset = 0;
  int donor = 0;
  BlockNum donor_addr = 0;
  BlockNum new_addr = 0;
};

/// (c) The epoch-versioned expandable map. BeginAddMember() plans the
/// minimal move set for one new member; the caller (RaddGroup, paced by
/// the RecoverySweeper) migrates the bytes and calls ApplyMove() per
/// relocated block, then CommitAddMember() to expose the new rows.
class EpochedPlacement : public DeclusteredLayout {
 public:
  using DeclusteredLayout::DeclusteredLayout;

  LayoutEpoch CurrentEpoch() const {
    LayoutEpoch e;
    e.epoch = epoch_;
    e.members = width_;
    e.num_rows = NumRows(rows_);
    e.migrating = pending_;
    return e;
  }
  bool migrating() const { return pending_; }
  /// The member index being added, or -1.
  int pending_member() const { return pending_ ? width_ - 1 : -1; }

  /// Plans the addition of one member (index = num_sites() before the
  /// call). On success num_sites() grows by one (the new member is
  /// addressable immediately) but NumRows() and all role queries answer
  /// for the old epoch until moves are applied and committed. Exactly
  /// rounds() * (n-1) moves are returned — the minimal set: the added
  /// capacity share of physical blocks, bounded by total/(C+1).
  Result<std::vector<PlacementMove>> BeginAddMember();

  /// Flips the tables for one migrated block. Call only after the bytes
  /// physically moved (donor's block copied to the new member and the
  /// donor's freed address zeroed). Idempotence is the caller's job:
  /// apply each move exactly once.
  void ApplyMove(const PlacementMove& move);

  /// All moves applied: bumps the epoch and exposes the new stripe's
  /// rows (one per round) through NumRows()/role queries.
  Status CommitAddMember();

 private:
  uint32_t epoch_ = 0;
  bool pending_ = false;
  BlockNum moves_applied_ = 0;
  BlockNum moves_planned_ = 0;
};

/// Builds the map for a group: `spec.kind` selects the implementation;
/// declustered maps are always EpochedPlacement so a live group can
/// expand. Aborts on malformed specs (sites < width, templates < 1).
std::shared_ptr<PlacementMap> MakePlacement(const PlacementSpec& spec,
                                            int group_size, int parities,
                                            BlockNum rows);

}  // namespace radd

#endif  // RADD_LAYOUT_PLACEMENT_H_
