#include "layout/placement.h"

#include <algorithm>
#include <cassert>
#include <functional>

namespace radd {

std::string_view PlacementKindName(PlacementKind kind) {
  switch (kind) {
    case PlacementKind::kRotated:
      return "rotated";
    case PlacementKind::kDeclustered:
      return "declustered";
  }
  return "?";
}

int PlacementGroupWidth(const PlacementSpec& spec, int group_size,
                        int parities) {
  const int n = group_size + 1 + parities;
  if (spec.kind == PlacementKind::kRotated) return n;
  return spec.sites > 0 ? spec.sites : n;
}

RotatedLayout::RotatedLayout(int group_size, int parities)
    : g_(group_size), parities_(parities) {
  assert(group_size >= 1);
  assert(parities >= 1 && parities <= 2);
}

BlockRole RotatedLayout::RoleOf(SiteId site, BlockNum row) const {
  const BlockNum n = static_cast<BlockNum>(num_sites());
  // i = (K - J - 1) mod n, computed without underflow.
  BlockNum i = (row % n + n + n - static_cast<BlockNum>(site) - 1) % n;
  if (i < static_cast<BlockNum>(g_)) return BlockRole::kData;
  if (i == static_cast<BlockNum>(g_)) return BlockRole::kSpare;
  if (i == n - 1) return BlockRole::kParity;
  return BlockRole::kParityQ;
}

namespace {
/// The non-data rows of site J's column within one n-row cycle: its
/// parity row (r = J), its Q row ((J-1) mod n, dual parity only) and its
/// spare row ((J - parities) mod n) — a contiguous run of parities+1
/// rows ending at J, returned in ascending order.
void SkipRows(SiteId site, BlockNum n, int parities, BlockNum* skips,
              int* num_skips) {
  const BlockNum last = static_cast<BlockNum>(site);
  const BlockNum first = (last + n - static_cast<BlockNum>(parities)) % n;
  int k = 0;
  if (first > last) {
    // The run wraps past row n-1: rows 0..J sort ahead of first..n-1.
    for (BlockNum r = 0; r <= last; ++r) skips[k++] = r;
    for (BlockNum r = first; r < n; ++r) skips[k++] = r;
  } else {
    for (BlockNum r = first; r <= last; ++r) skips[k++] = r;
  }
  *num_skips = k;
}
}  // namespace

BlockNum RotatedLayout::DataToRow(SiteId site, BlockNum data_index) const {
  // Within each n-row cycle, site J's column skips its parity/Q/spare
  // rows; the remaining rows carry data blocks numbered densely top to
  // bottom (Fig. 1's 0,1,2,... down each column). Inserting past the
  // ascending skip list turns data index i into its row offset.
  const BlockNum n = static_cast<BlockNum>(num_sites());
  const BlockNum g = static_cast<BlockNum>(g_);
  BlockNum cycle = data_index / g;
  BlockNum i = data_index % g;
  BlockNum skips[3];
  int num_skips = 0;
  SkipRows(site, n, parities_, skips, &num_skips);
  BlockNum r = i;
  for (int k = 0; k < num_skips; ++k) {
    if (r >= skips[k]) ++r;
  }
  return n * cycle + r;
}

Result<BlockNum> RotatedLayout::RowToData(SiteId site, BlockNum row) const {
  const BlockNum n = static_cast<BlockNum>(num_sites());
  const BlockNum g = static_cast<BlockNum>(g_);
  BlockNum r = row % n;
  BlockNum skips[3];
  int num_skips = 0;
  SkipRows(site, n, parities_, skips, &num_skips);
  BlockNum i = r;
  for (int k = 0; k < num_skips; ++k) {
    if (r == skips[k]) {
      return Status::InvalidArgument(
          "row " + std::to_string(row) + " is the " +
          std::string(BlockRoleName(RoleOf(site, row))) + " block at site " +
          std::to_string(site));
    }
    if (r > skips[k]) --i;
  }
  return (row / n) * g + i;
}

std::vector<SiteId> RotatedLayout::DataSites(BlockNum row) const {
  std::vector<SiteId> out;
  out.reserve(static_cast<size_t>(g_));
  for (int j = 0; j < num_sites(); ++j) {
    SiteId s = static_cast<SiteId>(j);
    if (RoleOf(s, row) == BlockRole::kData) out.push_back(s);
  }
  return out;
}

std::vector<SiteId> RotatedLayout::ReconstructionSources(
    SiteId failed_site, BlockNum row) const {
  // Formula (2): failed block = XOR{other blocks in the group}. The group
  // for parity purposes is the G data blocks plus the parity block; the
  // spare site holds no parity-covered content.
  std::vector<SiteId> out;
  out.reserve(static_cast<size_t>(g_));
  SiteId spare = SpareSite(row);
  for (int j = 0; j < num_sites(); ++j) {
    SiteId s = static_cast<SiteId>(j);
    if (s == failed_site || s == spare) continue;
    out.push_back(s);
  }
  return out;
}

namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Seeded Fisher-Yates permutation of 0..width-1 for template `t`.
std::vector<int> TemplatePermutation(uint64_t seed, int t, int width) {
  std::vector<int> perm(static_cast<size_t>(width));
  for (int i = 0; i < width; ++i) perm[static_cast<size_t>(i)] = i;
  uint64_t state = seed ^ (static_cast<uint64_t>(t) + 1) *
                              0xd1342543de82ef95ULL;
  for (int i = width - 1; i > 0; --i) {
    uint64_t j = SplitMix64(&state) % static_cast<uint64_t>(i + 1);
    std::swap(perm[static_cast<size_t>(i)], perm[static_cast<size_t>(j)]);
  }
  return perm;
}

}  // namespace

DeclusteredLayout::DeclusteredLayout(int group_size, int parities, int sites,
                                     BlockNum rows, uint64_t seed,
                                     int templates)
    : g_(group_size),
      parities_(parities),
      base_width_(sites),
      width_(sites),
      committed_(0),
      rows_(rows) {
  assert(group_size >= 1);
  assert(parities >= 1 && parities <= 2);
  const int n = stripe_width();
  assert(sites >= n);
  assert(templates >= 1);
  rounds_ = rows / static_cast<BlockNum>(n);

  std::vector<std::vector<int>> perms;
  perms.reserve(static_cast<size_t>(templates));
  for (int t = 0; t < templates; ++t) {
    perms.push_back(TemplatePermutation(seed, t, sites));
  }

  rounds_tab_.resize(static_cast<size_t>(rounds_));
  for (BlockNum q = 0; q < rounds_; ++q) {
    const std::vector<int>& perm =
        perms[static_cast<size_t>(q % static_cast<BlockNum>(templates))];
    Round& r = rounds_tab_[static_cast<size_t>(q)];
    r.members.assign(static_cast<size_t>(sites),
                     std::vector<int>(static_cast<size_t>(n), -1));
    r.addr.assign(static_cast<size_t>(sites),
                  std::vector<Slot>(static_cast<size_t>(n)));
    r.bind.assign(static_cast<size_t>(sites),
                  std::vector<Slot>(static_cast<size_t>(g_)));
    // Member perm[pos] sits at offset j of stripe (pos - j) mod C; its
    // offset-j block occupies drive address q*n + j.
    for (int pos = 0; pos < sites; ++pos) {
      const int m = perm[static_cast<size_t>(pos)];
      for (int j = 0; j < n; ++j) {
        const int s = (pos - j + sites) % sites;
        r.members[static_cast<size_t>(s)][static_cast<size_t>(j)] = m;
        r.addr[static_cast<size_t>(m)][static_cast<size_t>(j)] = Slot{s, j};
        if (j < g_) {
          r.bind[static_cast<size_t>(m)][static_cast<size_t>(j)] =
              Slot{s, j};
        }
      }
    }
  }
}

bool DeclusteredLayout::DecodeRow(BlockNum row, BlockNum* round,
                                  int* stripe) const {
  const BlockNum c0 = static_cast<BlockNum>(base_width_);
  const BlockNum n0 = rounds_ * c0;
  if (row < n0) {
    *round = row / c0;
    *stripe = static_cast<int>(row % c0);
    return true;
  }
  if (rounds_ == 0) return false;
  const BlockNum i = row - n0;
  const BlockNum e = i / rounds_;
  // Expansion stripes: committed ones plus (while migrating) the pending
  // one, whose rows exist in the tables but are not yet exposed.
  const int extra = committed_ + (width_ > base_width_ + committed_ ? 1 : 0);
  if (e >= static_cast<BlockNum>(extra)) return false;
  *round = i % rounds_;
  *stripe = base_width_ + static_cast<int>(e);
  return true;
}

BlockNum DeclusteredLayout::RowOf(BlockNum round, int stripe) const {
  if (stripe < base_width_) {
    return round * static_cast<BlockNum>(base_width_) +
           static_cast<BlockNum>(stripe);
  }
  const BlockNum e = static_cast<BlockNum>(stripe - base_width_);
  return rounds_ * static_cast<BlockNum>(base_width_) + e * rounds_ + round;
}

int DeclusteredLayout::OffsetIn(BlockNum round, int stripe,
                                SiteId member) const {
  const std::vector<int>& slots =
      rounds_tab_[static_cast<size_t>(round)]
          .members[static_cast<size_t>(stripe)];
  for (size_t j = 0; j < slots.size(); ++j) {
    if (slots[j] == static_cast<int>(member)) return static_cast<int>(j);
  }
  return -1;
}

BlockRole DeclusteredLayout::RoleAtOffset(int offset) const {
  if (offset < 0) return BlockRole::kNone;
  if (offset < g_) return BlockRole::kData;
  if (offset == g_) return BlockRole::kSpare;
  if (offset == stripe_width() - 1) return BlockRole::kParity;
  return BlockRole::kParityQ;
}

SiteId DeclusteredLayout::ParitySite(BlockNum row) const {
  BlockNum q;
  int s;
  bool ok = DecodeRow(row, &q, &s);
  assert(ok);
  if (!ok) return 0;
  return static_cast<SiteId>(
      rounds_tab_[static_cast<size_t>(q)].members[static_cast<size_t>(s)]
                 [static_cast<size_t>(stripe_width() - 1)]);
}

SiteId DeclusteredLayout::QParitySite(BlockNum row) const {
  BlockNum q;
  int s;
  bool ok = DecodeRow(row, &q, &s);
  assert(ok);
  if (!ok) return 0;
  return static_cast<SiteId>(
      rounds_tab_[static_cast<size_t>(q)].members[static_cast<size_t>(s)]
                 [static_cast<size_t>(g_ + 1)]);
}

SiteId DeclusteredLayout::SpareSite(BlockNum row) const {
  BlockNum q;
  int s;
  bool ok = DecodeRow(row, &q, &s);
  assert(ok);
  if (!ok) return 0;
  return static_cast<SiteId>(
      rounds_tab_[static_cast<size_t>(q)].members[static_cast<size_t>(s)]
                 [static_cast<size_t>(g_)]);
}

BlockRole DeclusteredLayout::RoleOf(SiteId member, BlockNum row) const {
  BlockNum q;
  int s;
  if (!DecodeRow(row, &q, &s)) return BlockRole::kNone;
  if (static_cast<int>(member) >= width_) return BlockRole::kNone;
  return RoleAtOffset(OffsetIn(q, s, member));
}

BlockNum DeclusteredLayout::DataToRow(SiteId member,
                                      BlockNum data_index) const {
  const BlockNum g = static_cast<BlockNum>(g_);
  const BlockNum q = data_index / g;
  const int k = static_cast<int>(data_index % g);
  assert(q < rounds_);
  assert(static_cast<int>(member) < width_);
  const Slot& slot = rounds_tab_[static_cast<size_t>(q)]
                         .bind[static_cast<size_t>(member)]
                             [static_cast<size_t>(k)];
  return RowOf(q, slot.stripe);
}

Result<BlockNum> DeclusteredLayout::RowToData(SiteId member,
                                              BlockNum row) const {
  BlockNum q;
  int s;
  if (!DecodeRow(row, &q, &s) || static_cast<int>(member) >= width_) {
    return Status::InvalidArgument("row " + std::to_string(row) +
                                   " has no block at site " +
                                   std::to_string(member));
  }
  const std::vector<Slot>& bind = rounds_tab_[static_cast<size_t>(q)]
                                      .bind[static_cast<size_t>(member)];
  for (size_t k = 0; k < bind.size(); ++k) {
    if (bind[k].stripe == s) {
      return q * static_cast<BlockNum>(g_) + static_cast<BlockNum>(k);
    }
  }
  return Status::InvalidArgument(
      "row " + std::to_string(row) + " is the " +
      std::string(BlockRoleName(RoleAtOffset(OffsetIn(q, s, member)))) +
      " block at site " + std::to_string(member));
}

std::vector<SiteId> DeclusteredLayout::DataSites(BlockNum row) const {
  BlockNum q;
  int s;
  std::vector<SiteId> out;
  if (!DecodeRow(row, &q, &s)) return out;
  const std::vector<int>& slots =
      rounds_tab_[static_cast<size_t>(q)].members[static_cast<size_t>(s)];
  out.reserve(static_cast<size_t>(g_));
  for (int j = 0; j < g_; ++j) {
    out.push_back(static_cast<SiteId>(slots[static_cast<size_t>(j)]));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<SiteId> DeclusteredLayout::ReconstructionSources(
    SiteId failed_site, BlockNum row) const {
  BlockNum q;
  int s;
  std::vector<SiteId> out;
  if (!DecodeRow(row, &q, &s)) return out;
  const std::vector<int>& slots =
      rounds_tab_[static_cast<size_t>(q)].members[static_cast<size_t>(s)];
  out.reserve(slots.size());
  for (size_t j = 0; j < slots.size(); ++j) {
    if (static_cast<int>(j) == g_) continue;  // spare: no covered content
    const SiteId m = static_cast<SiteId>(slots[j]);
    if (m == failed_site) continue;
    out.push_back(m);
  }
  std::sort(out.begin(), out.end());
  return out;
}

BlockNum DeclusteredLayout::NumRows(BlockNum rows) const {
  assert(rows == rows_);
  const BlockNum r = rows / static_cast<BlockNum>(stripe_width());
  return r * static_cast<BlockNum>(base_width_) +
         static_cast<BlockNum>(committed_) * r;
}

BlockNum DeclusteredLayout::AddressOf(SiteId member, BlockNum row) const {
  BlockNum q;
  int s;
  bool ok = DecodeRow(row, &q, &s);
  assert(ok);
  if (!ok) return 0;
  const std::vector<Slot>& addr = rounds_tab_[static_cast<size_t>(q)]
                                      .addr[static_cast<size_t>(member)];
  for (size_t a = 0; a < addr.size(); ++a) {
    if (addr[a].stripe == s) {
      return q * static_cast<BlockNum>(stripe_width()) +
             static_cast<BlockNum>(a);
    }
  }
  assert(false && "AddressOf: member does not participate in row");
  return 0;
}

SiteId DeclusteredLayout::HostOfData(SiteId member, BlockNum row) const {
  BlockNum q;
  int s;
  if (!DecodeRow(row, &q, &s)) return member;
  const std::vector<Slot>& bind = rounds_tab_[static_cast<size_t>(q)]
                                      .bind[static_cast<size_t>(member)];
  for (const Slot& slot : bind) {
    if (slot.stripe == s) {
      return static_cast<SiteId>(
          rounds_tab_[static_cast<size_t>(q)].members[static_cast<size_t>(s)]
                     [static_cast<size_t>(slot.offset)]);
    }
  }
  return member;
}

SiteId DeclusteredLayout::HostOfDataIndex(SiteId member,
                                          BlockNum data_index) const {
  const BlockNum g = static_cast<BlockNum>(g_);
  const BlockNum q = data_index / g;
  const int k = static_cast<int>(data_index % g);
  assert(q < rounds_);
  assert(static_cast<int>(member) < width_);
  const Round& r = rounds_tab_[static_cast<size_t>(q)];
  const Slot& slot =
      r.bind[static_cast<size_t>(member)][static_cast<size_t>(k)];
  return static_cast<SiteId>(
      r.members[static_cast<size_t>(slot.stripe)]
               [static_cast<size_t>(slot.offset)]);
}

Result<std::vector<PlacementMove>> EpochedPlacement::BeginAddMember() {
  if (pending_) {
    return Status::InvalidArgument("an expansion is already in flight");
  }
  const int n = stripe_width();
  const int c = stripes_per_round();
  const int x = width_;
  const int s_new = c;

  std::vector<PlacementMove> plan;
  plan.reserve(static_cast<size_t>(rounds_ * (n - 1)));

  for (BlockNum q = 0; q < rounds_; ++q) {
    Round& r = rounds_tab_[static_cast<size_t>(q)];
    const int jx = static_cast<int>(q % static_cast<BlockNum>(n));

    // The n-1 offsets X takes over from donors this round.
    std::vector<int> offsets;
    offsets.reserve(static_cast<size_t>(n - 1));
    for (int j = 0; j < n; ++j) {
      if (j != jx) offsets.push_back(j);
    }
    // Pick a distinct (stripe, donor) pair per offset. Within a round
    // each offset's column holds every member exactly once, so this is a
    // system of distinct representatives; the backtracking is tiny.
    std::vector<int> chosen(offsets.size(), -1);
    std::vector<char> stripe_used(static_cast<size_t>(c), 0);
    std::vector<char> donor_used(static_cast<size_t>(width_), 0);
    std::function<bool(size_t)> pick = [&](size_t k) {
      if (k == offsets.size()) return true;
      const int j = offsets[k];
      for (int step = 0; step < c; ++step) {
        const int s = static_cast<int>(
            (q * 7 + static_cast<BlockNum>(j + step)) %
            static_cast<BlockNum>(c));
        const int donor =
            r.members[static_cast<size_t>(s)][static_cast<size_t>(j)];
        if (stripe_used[static_cast<size_t>(s)] ||
            donor_used[static_cast<size_t>(donor)]) {
          continue;
        }
        stripe_used[static_cast<size_t>(s)] = 1;
        donor_used[static_cast<size_t>(donor)] = 1;
        chosen[k] = s;
        if (pick(k + 1)) return true;
        stripe_used[static_cast<size_t>(s)] = 0;
        donor_used[static_cast<size_t>(donor)] = 0;
        chosen[k] = -1;
      }
      return false;
    };
    if (!pick(0)) {
      return Status::Internal("no expansion move plan for round " +
                              std::to_string(q));
    }

    // Extend the tables for X and the new stripe. Only X's own slot of
    // the new stripe is placed now; each donor joins the new stripe when
    // its move is applied, so the tables track physical reality.
    r.members.push_back(std::vector<int>(static_cast<size_t>(n), -1));
    r.members[static_cast<size_t>(s_new)][static_cast<size_t>(jx)] = x;
    r.addr.push_back(std::vector<Slot>(static_cast<size_t>(n)));
    r.addr[static_cast<size_t>(x)][0] = Slot{s_new, jx};
    std::vector<Slot> bind(static_cast<size_t>(g_));
    for (int k = 0; k < g_; ++k) {
      bind[static_cast<size_t>(k)] = Slot{s_new, k};
    }
    r.bind.push_back(std::move(bind));

    for (size_t k = 0; k < offsets.size(); ++k) {
      const int j = offsets[k];
      const int s = chosen[k];
      const int donor =
          r.members[static_cast<size_t>(s)][static_cast<size_t>(j)];
      const std::vector<Slot>& daddr =
          r.addr[static_cast<size_t>(donor)];
      BlockNum a_d = 0;
      for (size_t a = 0; a < daddr.size(); ++a) {
        if (daddr[a].stripe == s && daddr[a].offset == j) {
          a_d = static_cast<BlockNum>(a);
          break;
        }
      }
      PlacementMove mv;
      mv.row = RowOf(q, s);
      mv.offset = j;
      mv.donor = donor;
      mv.donor_addr = q * static_cast<BlockNum>(n) + a_d;
      mv.new_addr =
          q * static_cast<BlockNum>(n) + 1 + static_cast<BlockNum>(k);
      plan.push_back(mv);
    }
  }

  width_ = x + 1;
  pending_ = true;
  ++epoch_;
  moves_planned_ = static_cast<BlockNum>(plan.size());
  moves_applied_ = 0;
  return plan;
}

void EpochedPlacement::ApplyMove(const PlacementMove& move) {
  assert(pending_);
  BlockNum q;
  int s;
  bool ok = DecodeRow(move.row, &q, &s);
  assert(ok);
  if (!ok) return;
  const int n = stripe_width();
  const int x = width_ - 1;
  const int s_new = stripes_per_round();
  Round& r = rounds_tab_[static_cast<size_t>(q)];
  assert(r.members[static_cast<size_t>(s)][static_cast<size_t>(move.offset)] ==
         move.donor);
  r.members[static_cast<size_t>(s)][static_cast<size_t>(move.offset)] = x;
  r.members[static_cast<size_t>(s_new)][static_cast<size_t>(move.offset)] =
      move.donor;
  r.addr[static_cast<size_t>(x)]
        [static_cast<size_t>(move.new_addr % static_cast<BlockNum>(n))] =
      Slot{s, move.offset};
  r.addr[static_cast<size_t>(move.donor)]
        [static_cast<size_t>(move.donor_addr % static_cast<BlockNum>(n))] =
      Slot{s_new, move.offset};
  ++moves_applied_;
}

Status EpochedPlacement::CommitAddMember() {
  if (!pending_) {
    return Status::InvalidArgument("no expansion in flight");
  }
  if (moves_applied_ != moves_planned_) {
    return Status::InvalidArgument(
        "expansion commit with " + std::to_string(moves_applied_) + " of " +
        std::to_string(moves_planned_) + " moves applied");
  }
  ++committed_;
  pending_ = false;
  ++epoch_;
  return Status::OK();
}

std::shared_ptr<PlacementMap> MakePlacement(const PlacementSpec& spec,
                                            int group_size, int parities,
                                            BlockNum rows) {
  if (spec.kind == PlacementKind::kRotated) {
    return std::make_shared<RotatedLayout>(group_size, parities);
  }
  const int width = PlacementGroupWidth(spec, group_size, parities);
  const int templates = spec.templates < 1 ? 1 : spec.templates;
  return std::make_shared<EpochedPlacement>(group_size, parities, width, rows,
                                            spec.seed, templates);
}

}  // namespace radd
