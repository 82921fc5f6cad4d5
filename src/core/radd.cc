#include "core/radd.h"

#include <cstdio>
#include <cstdlib>
#include <set>

#include "common/gf256.h"
#include "core/row_code.h"

namespace radd {

namespace {
/// Wire overhead per protocol message (headers, block number, UID).
constexpr size_t kMsgHeader = 32;
}  // namespace

RaddGroup::RaddGroup(Cluster* cluster, const RaddConfig& config)
    : cluster_(cluster),
      config_(config),
      map_(MakePlacement(config.placement, config.group_size, config.parities,
                         config.rows)) {
  epoch_ = dynamic_cast<EpochedPlacement*>(map_.get());
  members_.reserve(static_cast<size_t>(map_->num_sites()));
  for (int m = 0; m < map_->num_sites(); ++m) {
    LogicalDrive d;
    d.site = static_cast<SiteId>(m);
    d.first_block = 0;
    d.drive_blocks = config_.rows;
    members_.push_back(d);
  }
}

RaddGroup::RaddGroup(Cluster* cluster, const RaddConfig& config,
                     std::vector<LogicalDrive> members)
    : cluster_(cluster),
      config_(config),
      map_(MakePlacement(config.placement, config.group_size, config.parities,
                         config.rows)),
      members_(std::move(members)) {
  epoch_ = dynamic_cast<EpochedPlacement*>(map_.get());
  Status st = ValidateMembers(*cluster, config_, members_);
  if (!st.ok()) {
    // A malformed member list would address blocks of *other* groups (or
    // fall off the disk) and corrupt data that is not even this group's;
    // refuse to run rather than limp on.
    std::fprintf(stderr, "RaddGroup: invalid member list: %s\n",
                 st.ToString().c_str());
    std::abort();
  }
}

Status RaddGroup::ValidateMembers(const Cluster& cluster,
                                  const RaddConfig& config,
                                  const std::vector<LogicalDrive>& members) {
  const int expect = PlacementGroupWidth(config.placement, config.group_size,
                                         config.parities);
  if (static_cast<int>(members.size()) != expect) {
    return Status::InvalidArgument(
        "group has " + std::to_string(members.size()) +
        " members, needs " + std::to_string(expect) + " for " +
        std::string(PlacementKindName(config.placement.kind)) +
        " placement");
  }
  std::set<SiteId> sites;
  for (size_t m = 0; m < members.size(); ++m) {
    const LogicalDrive& d = members[m];
    if (d.site >= static_cast<SiteId>(cluster.num_sites())) {
      return Status::InvalidArgument("member " + std::to_string(m) +
                                     " names unknown site " +
                                     std::to_string(d.site));
    }
    if (!sites.insert(d.site).second) {
      return Status::InvalidArgument(
          "two members share site " + std::to_string(d.site) +
          " (a single failure would lose both)");
    }
    if (d.drive_blocks < config.rows) {
      return Status::InvalidArgument(
          "member " + std::to_string(m) + "'s drive holds " +
          std::to_string(d.drive_blocks) + " blocks, fewer than rows = " +
          std::to_string(config.rows));
    }
    const BlockNum total = cluster.site(d.site)->store()->total_blocks();
    if (d.first_block > total || d.first_block + config.rows > total) {
      return Status::InvalidArgument(
          "member " + std::to_string(m) + "'s window [" +
          std::to_string(d.first_block) + ", " +
          std::to_string(d.first_block + config.rows) +
          ") exceeds site " + std::to_string(d.site) + "'s " +
          std::to_string(total) + " blocks");
    }
  }
  return Status::OK();
}

Status RaddGroup::CheckMember(int m) const {
  if (m >= 0 && m < num_members()) return Status::OK();
  return Status::InvalidArgument("no member " + std::to_string(m));
}

Status RaddGroup::CheckDataAddress(int home, BlockNum data_index) const {
  RADD_RETURN_NOT_OK(CheckMember(home));
  if (data_index < DataBlocksPerMember()) return Status::OK();
  return Status::InvalidArgument("data block " + std::to_string(data_index) +
                                 " out of range");
}

int RaddGroup::MemberAtSite(SiteId site) const {
  for (size_t m = 0; m < members_.size(); ++m) {
    if (members_[m].site == site) return static_cast<int>(m);
  }
  return -1;
}

Site* RaddGroup::SiteOf(int m) const {
  return cluster_->site(members_[static_cast<size_t>(m)].site);
}

SiteState RaddGroup::StateOfMember(int m) const {
  return cluster_->StateOf(members_[static_cast<size_t>(m)].site);
}

bool RaddGroup::BlockReadable(int m, BlockNum row) const {
  if (StateOfMember(m) == SiteState::kDown) return false;
  return SiteOf(m)->store()->PeekMeta(Phys(m, row)).ok();
}

void RaddGroup::ChargeRead(SiteId client, int target_member,
                           OpCounts* c) const {
  if (members_[static_cast<size_t>(target_member)].site == client) {
    ++c->local_reads;
  } else {
    ++c->remote_reads;
  }
}

void RaddGroup::ChargeWrite(SiteId client, int target_member,
                            OpCounts* c) const {
  if (members_[static_cast<size_t>(target_member)].site == client) {
    ++c->local_writes;
  } else {
    ++c->remote_writes;
  }
}

bool RaddGroup::SpareExists(BlockNum row) const {
  if (config_.spare_fraction >= 1.0) return true;
  if (config_.spare_fraction <= 0.0) return false;
  // Bresenham thinning: exactly the configured fraction of rows, spread
  // evenly, carry a spare.
  double f = config_.spare_fraction;
  return static_cast<uint64_t>(static_cast<double>(row + 1) * f) >
         static_cast<uint64_t>(static_cast<double>(row) * f);
}

std::optional<BlockRecord> RaddGroup::ValidSpare(BlockNum row) const {
  if (!SpareExists(row)) return std::nullopt;
  const int sm = static_cast<int>(map_->SpareSite(row));
  if (StateOfMember(sm) == SiteState::kDown) return std::nullopt;
  Result<BlockRecord> srec = SiteOf(sm)->store()->Peek(Phys(sm, row));
  if (!srec.ok() || !srec->uid.valid()) return std::nullopt;
  return std::move(srec).value();
}

std::optional<BlockMeta> RaddGroup::ValidSpareMeta(BlockNum row) const {
  if (!SpareExists(row)) return std::nullopt;
  const int sm = static_cast<int>(map_->SpareSite(row));
  if (StateOfMember(sm) == SiteState::kDown) return std::nullopt;
  Result<BlockMeta> srec = SiteOf(sm)->store()->PeekMeta(Phys(sm, row));
  if (!srec.ok() || !srec->uid.valid()) return std::nullopt;
  return *srec;
}

Result<BlockRecord> RaddGroup::ReadPhys(int m, BlockNum row) const {
  if (StateOfMember(m) == SiteState::kDown) {
    return Status::Unavailable("site " +
                               std::to_string(members_[size_t(m)].site) +
                               " is down");
  }
  return SiteOf(m)->store()->Read(Phys(m, row));
}

// ---------------------------------------------------------------------------
// Reads
// ---------------------------------------------------------------------------

OpResult RaddGroup::Read(SiteId client, int home, BlockNum data_index) {
  OpResult out;
  out.status = CheckDataAddress(home, data_index);
  if (!out.ok()) return out;
  BlockNum row = map_->DataToRow(static_cast<SiteId>(home), data_index);
  // An expansion may have migrated the block onto another member; from
  // here on the protocol runs against the hosting member (the parity UID
  // array is indexed by host position). Resolved by index, not row — an
  // expansion owner holds several blocks of one row.
  home = static_cast<int>(
      map_->HostOfDataIndex(static_cast<SiteId>(home), data_index));

  switch (StateOfMember(home)) {
    case SiteState::kUp: {
      Result<BlockRecord> rec = ReadPhys(home, row);
      if (!rec.ok()) {
        // A lost block at an up site should not occur (disk failure moves
        // the site to recovering), but handle it like the degraded path.
        if (rec.status().IsDataLoss()) return DegradedRead(client, home, row);
        out.status = rec.status();
        return out;
      }
      ChargeRead(client, home, &out.counts);
      out.data = std::move(rec->data);
      out.uid = rec->uid;
      out.status = Status::OK();
      return out;
    }
    case SiteState::kDown:
      return DegradedRead(client, home, row);
    case SiteState::kRecovering:
      return RecoveringRead(client, home, row);
  }
  out.status = Status::Internal("unreachable");
  return out;
}

OpResult RaddGroup::DegradedRead(SiteId client, int home, BlockNum row) {
  OpResult out;
  int sm = static_cast<int>(map_->SpareSite(row));

  // Try the spare first (paper: "the decision is based on the state of the
  // spare block"). Validity is a metadata check; the counted read happens
  // only when the spare's contents are actually used.
  bool spare_usable = false;
  if (SpareExists(row) && StateOfMember(sm) != SiteState::kDown) {
    Result<BlockRecord> srec = SiteOf(sm)->store()->Peek(Phys(sm, row));
    spare_usable = srec.ok();
    if (srec.ok() && srec->uid.valid()) {
      if (srec->spare_for == home) {
        (void)ReadPhys(sm, row);  // the physical spare read
        ChargeRead(client, sm, &out.counts);
        out.uid = srec->logical_uid;
        out.data = std::move(srec->data);
        out.status = Status::OK();
        return out;
      }
      // Double failure: the row's one spare is absorbing writes for the
      // *other* dead member. Leave it alone and decode; the legs already
      // carry that member's spare-absorbed deltas, and the decode reads
      // the member through the spare.
      spare_usable = false;
    }
  }

  // Spare invalid: reconstruct via formula (2).
  Result<Reconstructed> recon = Reconstruct(client, home, row, &out.counts);
  if (!recon.ok()) {
    out.status = recon.status();
    return out;
  }

  // Materialize into the spare so subsequent reads resolve with a single
  // spare access (§3.2). Recorded with "a new UID obtained from the local
  // system" — the spare site's generator. Asynchronous side effect: not
  // charged to this read.
  if (config_.materialize_on_degraded_read && spare_usable &&
      StateOfMember(sm) == SiteState::kUp) {
    BlockRecord srec(0);
    srec.data = recon->data;  // the read's caller still needs the value
    srec.uid = SiteOf(sm)->uids()->Next();
    srec.logical_uid = recon->logical_uid;
    srec.spare_for = home;
    Status st = SiteOf(sm)->store()->WriteRecord(Phys(sm, row), srec);
    if (st.ok()) {
      stats_.Add("radd.materialize");
      if (members_[static_cast<size_t>(sm)].site != client) {
        stats_.Add("radd.bytes.spare_write",
                   config_.block_size + kMsgHeader);
      }
    }
  }

  out.data = std::move(recon->data);
  out.uid = recon->logical_uid;
  out.status = Status::OK();
  return out;
}

OpResult RaddGroup::RecoveringRead(SiteId client, int home, BlockNum row) {
  OpResult out;
  int sm = static_cast<int>(map_->SpareSite(row));

  // 1. Valid spare wins (it holds writes made while the site was down).
  if (std::optional<BlockRecord> spare = ValidSpare(row);
      spare && spare->spare_for == home) {
    (void)ReadPhys(sm, row);  // the physical spare read
    ChargeRead(client, sm, &out.counts);
    // Side effect (§3.2): install the correct contents locally and
    // invalidate the spare.
    Status st = SiteOf(home)->store()->Write(Phys(home, row), spare->data,
                                             spare->logical_uid);
    if (st.ok()) {
      (void)SiteOf(sm)->store()->Invalidate(Phys(sm, row));
      stats_.Add("radd.spare_invalidate");
    }
    out.data = std::move(spare->data);
    out.uid = spare->logical_uid;
    out.status = Status::OK();
    return out;
  }

  // 2. Valid local block.
  Result<BlockRecord> lrec = SiteOf(home)->store()->Read(Phys(home, row));
  if (lrec.ok() && lrec->uid.valid()) {
    ChargeRead(client, home, &out.counts);
    out.data = std::move(lrec->data);
    out.uid = lrec->uid;
    out.status = Status::OK();
    return out;
  }
  // An intact but never-written block (invalid UID, readable) is simply
  // its initial zero state; no reconstruction needed.
  if (lrec.ok()) {
    ChargeRead(client, home, &out.counts);
    out.data = std::move(lrec->data);
    out.uid = lrec->uid;
    out.status = Status::OK();
    return out;
  }

  // 3. Both invalid/lost: reconstruct as if the site were down, then
  // install locally (§3.2 "the system should write local block K with its
  // correct contents").
  Result<Reconstructed> recon = Reconstruct(client, home, row, &out.counts);
  if (!recon.ok()) {
    out.status = recon.status();
    return out;
  }
  Status st = SiteOf(home)->store()->Write(Phys(home, row), recon->data,
                                           recon->logical_uid);
  if (!st.ok()) {
    out.status = st;
    return out;
  }
  stats_.Add("radd.recovering_read_repair");
  out.data = std::move(recon->data);
  out.uid = recon->logical_uid;
  out.status = Status::OK();
  return out;
}

Result<RaddGroup::Reconstructed> RaddGroup::Reconstruct(SiteId client,
                                                        int home,
                                                        BlockNum row,
                                                        OpCounts* counts) {
  const ParityLegs legs = map_->LegsOf(row);
  const int sm = static_cast<int>(map_->SpareSite(row));
  const std::vector<SiteId> data_members = map_->DataSites(row);

  // Set once a P-only decode fails validation: P may lag a member that Q
  // holds (a torn pair), so the next attempt decodes through Q.
  PlanHints hints;
  for (int attempt = 0; attempt < config_.max_reconstruct_attempts;
       ++attempt) {
    // A parity leg has decode authority only while its site is up: a
    // recovering parity may have dropped updates for exactly the member
    // being decoded, which no surviving UID array can expose. Its sweep
    // restores authority.
    std::array<bool, 2> usable{};
    for (int leg = 0; leg < legs.count; ++leg) {
      const int pm = static_cast<int>(legs[leg]);
      usable[static_cast<size_t>(leg)] =
          StateOfMember(pm) == SiteState::kUp && BlockReadable(pm, row);
    }

    // A valid spare stands in for the data member it shadows: the member's
    // own copy is stale or gone, but the legs already carry the
    // spare-absorbed deltas and the arrays record the spare's logical UID.
    const std::optional<BlockMeta> spare = ValidSpareMeta(row);
    const int shadowed_dm = spare ? spare->spare_for : -1;
    std::vector<int> sources;
    std::vector<int> erased;
    for (SiteId dm_id : data_members) {
      const int dm = static_cast<int>(dm_id);
      if (dm == home) continue;
      if (dm == shadowed_dm || BlockReadable(dm, row)) {
        sources.push_back(dm);
      } else {
        erased.push_back(dm);
      }
    }
    Result<RowPlan> plan = PlanDecode(home, erased, usable, hints);
    if (!plan.ok()) {
      return Status::Blocked("cannot reconstruct row " + std::to_string(row) +
                             ": " + plan.status().message());
    }

    // Read the sources, then the planned legs. `read` points into `recs`,
    // reserved up front so no push moves a record.
    std::vector<BlockRecord> recs;
    recs.reserve(sources.size() + 2);
    RowRead read;
    read.data.reserve(sources.size());
    auto read_block = [&](int from) -> const BlockRecord* {
      Result<BlockRecord> rec = ReadPhys(from, row);
      if (!rec.ok()) return nullptr;
      ChargeRead(client, from, counts);
      recs.push_back(std::move(rec).value());
      return &recs.back();
    };
    for (int dm : sources) {
      const bool via_spare = dm == shadowed_dm;
      const BlockRecord* rec = read_block(via_spare ? sm : dm);
      if (rec == nullptr) {
        return Status::Blocked(
            "source became unreadable during reconstruction");
      }
      read.data.push_back(
          {dm, via_spare ? rec->logical_uid : rec->uid, &rec->data});
    }
    for (int leg = 0; leg < legs.count; ++leg) {
      if (!plan->use[static_cast<size_t>(leg)]) continue;
      const BlockRecord* rec = read_block(static_cast<int>(legs[leg]));
      if (rec == nullptr) {
        return Status::Blocked(
            "parity became unreadable during reconstruction");
      }
      read.legs[static_cast<size_t>(leg)] = {&rec->data, &rec->uid_array};
    }

    if (!CheckRow(*plan, read, data_members)) {
      stats_.Add("radd.uid_retry");
      if (!plan->two_legs() && plan->use[0]) hints.avoid_p = true;
      continue;  // "the read was not consistent and must be retried"
    }
    Reconstructed out;
    out.data = Block(config_.block_size);
    RADD_RETURN_NOT_OK(DecodeRow(*plan, read, &out.data));
    if (plan->two_legs()) stats_.Add("radd.reconstructions_two_erasure");
    stats_.Add("radd.reconstructions");
    out.logical_uid = DecodedUid(*plan, read);
    return out;
  }
  return Status::Inconsistent(
      "reconstruction of row " + std::to_string(row) + " failed UID "
      "validation after " + std::to_string(config_.max_reconstruct_attempts) +
      " attempts");
}

// ---------------------------------------------------------------------------
// Writes
// ---------------------------------------------------------------------------

OpResult RaddGroup::Write(SiteId client, int home, BlockNum data_index,
                          const Block& new_data) {
  OpResult out;
  out.status = CheckDataAddress(home, data_index);
  if (!out.ok()) return out;
  if (new_data.size() != config_.block_size) {
    out.status = Status::InvalidArgument("wrong block size");
    return out;
  }
  BlockNum row = map_->DataToRow(static_cast<SiteId>(home), data_index);
  // Run against the hosting member, resolved by index (see Read).
  home = static_cast<int>(
      map_->HostOfDataIndex(static_cast<SiteId>(home), data_index));

  switch (StateOfMember(home)) {
    case SiteState::kUp:
    case SiteState::kRecovering: {
      const bool recovering = StateOfMember(home) == SiteState::kRecovering;
      if (recovering &&
          !SiteOf(home)->store()->PeekMeta(Phys(home, row)).ok()) {
        // The block is lost to a disk failure and not yet reconstructed:
        // the system "continues with write operations to the down disks"
        // through the spare (§3.2; Figure 3's disk-failure write = 2 RW).
        return DegradedWrite(client, home, row, new_data);
      }
      // Determine the current logical value for a correct parity delta.
      // Every path below assigns it, so start empty instead of zeroing a
      // block-sized buffer that is immediately overwritten.
      Block old_value(0);
      bool have_old = false;
      int sm = static_cast<int>(map_->SpareSite(row));
      bool spare_valid = false;
      std::optional<BlockRecord> spare;
      if (recovering) spare = ValidSpare(row);
      if (spare && spare->spare_for == home) {
        // Writes made while this site was down live in the spare; the
        // local copy is stale. Fetch the spare for the delta.
        (void)ReadPhys(sm, row);  // the physical spare read
        ChargeRead(client, sm, &out.counts);
        old_value = std::move(spare->data);
        have_old = true;
        spare_valid = true;
      }
      if (!have_old) {
        // Up sites: the buffered old value, free. Recovering with the local
        // block invalid but readable: its initial zero state.
        Result<BlockRecord> lrec =
            SiteOf(home)->store()->Peek(Phys(home, row));
        if (lrec.ok()) {
          old_value = std::move(lrec->data);
          have_old = true;
        }
      }
      if (!have_old) {
        // Recovering with the block lost to a disk failure: reconstruct
        // the old value so the parity delta is correct.
        Result<Reconstructed> recon =
            Reconstruct(client, home, row, &out.counts);
        if (!recon.ok()) {
          out.status = recon.status();
          return out;
        }
        old_value = std::move(recon->data);
      }

      // W1: write the local block with a fresh UID.
      Uid u = SiteOf(home)->uids()->Next();
      Status st = SiteOf(home)->store()->Write(Phys(home, row), new_data, u);
      if (!st.ok()) {
        out.status = st;
        return out;
      }
      ChargeWrite(client, home, &out.counts);

      // W2-W4: parity delta.
      Result<ChangeMask> mask = ChangeMask::Diff(old_value, new_data);
      if (!mask.ok()) {
        out.status = mask.status();
        return out;
      }
      UpdateParity(members_[size_t(home)].site, home, row, *mask, u,
                   &out.counts);

      // Recovering side effect: the spare no longer shadows this block.
      if (recovering && spare_valid) {
        (void)SiteOf(sm)->store()->Invalidate(Phys(sm, row));
        stats_.Add("radd.spare_invalidate");
      }

      out.uid = u;
      out.status = Status::OK();
      return out;
    }
    case SiteState::kDown:
      return DegradedWrite(client, home, row, new_data);
  }
  out.status = Status::Internal("unreachable");
  return out;
}

OpResult RaddGroup::DegradedWrite(SiteId client, int home, BlockNum row,
                                  const Block& new_data) {
  OpResult out;
  int sm = static_cast<int>(map_->SpareSite(row));
  if (!SpareExists(row)) {
    // §7.2's availability price: without a spare, writes to the down
    // member's block must wait for repair.
    out.status = Status::Blocked(
        "row " + std::to_string(row) +
        " has no spare block (spare_fraction < 1); write must wait");
    stats_.Add("radd.write_blocked_no_spare");
    return out;
  }
  if (StateOfMember(sm) != SiteState::kUp || !BlockReadable(sm, row)) {
    out.status = Status::Blocked(
        "spare site for row " + std::to_string(row) +
        " unavailable while home member is down (multiple failures)");
    return out;
  }

  // Old logical value: the spare if it is valid (free — buffered at the
  // spare site which we are about to write anyway), else reconstructed.
  Block old_value(0);
  if (std::optional<BlockRecord> spare = ValidSpare(row)) {
    if (spare->spare_for != home) {
      // Double failure: the row's one spare already absorbs writes for the
      // other dead member. A second concurrent write stream has nowhere to
      // land.
      out.status = Status::Blocked(
          "spare of row " + std::to_string(row) + " already shadows member " +
          std::to_string(spare->spare_for) +
          " (double failure); write must wait");
      stats_.Add("radd.write_blocked_spare_busy");
      return out;
    }
    old_value = std::move(spare->data);
  } else {
    Result<Reconstructed> recon = Reconstruct(client, home, row, &out.counts);
    if (!recon.ok()) {
      out.status = recon.status();
      return out;
    }
    old_value = std::move(recon->data);
    stats_.Add("radd.degraded_write_reconstruct");
  }

  // W1': write the contents to the spare site with a fresh UID obtained by
  // the writer.
  Site* writer = cluster_->site(client);
  if (writer == nullptr) {
    out.status = Status::InvalidArgument("no client site " +
                                         std::to_string(client));
    return out;
  }
  Uid u = writer->uids()->Next();
  BlockRecord new_rec(0);
  new_rec.data = new_data;
  new_rec.uid = u;
  new_rec.logical_uid = u;
  new_rec.spare_for = home;
  Status st = SiteOf(sm)->store()->WriteRecord(Phys(sm, row), new_rec);
  if (!st.ok()) {
    out.status = st;
    return out;
  }
  ChargeWrite(client, sm, &out.counts);
  if (members_[static_cast<size_t>(sm)].site != client) {
    stats_.Add("radd.bytes.spare_write", config_.block_size + kMsgHeader);
  }

  // W2-W4 with the delta against the old logical value, recorded at the
  // *home* member's position so reconstruction validation still works.
  Result<ChangeMask> mask = ChangeMask::Diff(old_value, new_data);
  if (!mask.ok()) {
    out.status = mask.status();
    return out;
  }
  UpdateParity(members_[static_cast<size_t>(sm)].site, home, row, *mask, u,
               &out.counts);

  out.uid = u;
  out.status = Status::OK();
  return out;
}

void RaddGroup::UpdateParity(SiteId issuer, int home, BlockNum row,
                             const ChangeMask& mask, Uid uid,
                             OpCounts* counts) {
  // Every leg ships the *same* delta; the Q site scales it by the member's
  // coefficient before folding it in (Q' = Q ^ g^home * delta).
  const ParityLegs legs = map_->LegsOf(row);
  for (int leg = 0; leg < legs.count; ++leg) {
    ApplyParityLeg(issuer, home, row, mask, uid, counts,
                   static_cast<int>(legs[leg]), LegCoeff(leg, home));
  }
}

void RaddGroup::ApplyParityLeg(SiteId issuer, int home, BlockNum row,
                               const ChangeMask& mask, Uid uid,
                               OpCounts* counts, int pm, uint8_t coeff) {
  if (StateOfMember(pm) == SiteState::kDown) {
    // The parity site cannot accept updates; its recovery sweep will
    // recompute this row's parity from the data blocks.
    stats_.Add("radd.parity_dropped");
    return;
  }
  Status st;
  if (coeff == 1) {
    st = SiteOf(pm)->store()->ApplyMask(Phys(pm, row), mask, uid,
                                        static_cast<size_t>(home),
                                        static_cast<size_t>(num_members()));
  } else {
    Block delta = mask.delta();
    GfScaleInPlace(&delta, coeff);
    st = SiteOf(pm)->store()->ApplyMask(
        Phys(pm, row), ChangeMask::FromFull(std::move(delta)), uid,
        static_cast<size_t>(home), static_cast<size_t>(num_members()));
  }
  if (!st.ok()) {
    // Lost parity block (disk failure at the parity site): same story.
    stats_.Add("radd.parity_dropped");
    return;
  }
  ChargeWrite(issuer, pm, counts);
  if (members_[static_cast<size_t>(pm)].site != issuer) {
    size_t bytes = config_.use_change_masks
                       ? mask.EncodedSize() + kMsgHeader
                       : config_.block_size + kMsgHeader;
    stats_.Add("radd.bytes.parity", bytes);
    stats_.Add("radd.parity_updates");
  }
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

Result<OpCounts> RaddGroup::RunRecovery(int home, bool mark_up) {
  RADD_RETURN_NOT_OK(CheckMember(home));
  Site* site = SiteOf(home);
  if (site->state() != SiteState::kRecovering) {
    return Status::InvalidArgument(
        "site " + std::to_string(site->id()) + " is " +
        std::string(SiteStateName(site->state())) + ", not recovering");
  }
  OpCounts counts;
  const BlockNum rows = NumRows();
  for (BlockNum row = 0; row < rows; ++row) {
    RADD_RETURN_NOT_OK(RecoverRow(home, row, &counts));
  }

  if (mark_up) {
    RADD_RETURN_NOT_OK(cluster_->MarkUp(site->id()));
  }
  stats_.Add("radd.recoveries_completed");
  return counts;
}

Status RaddGroup::RecoverRow(int home, BlockNum row, OpCounts* counts) {
  RADD_RETURN_NOT_OK(CheckMember(home));
  if (row >= NumRows()) {
    return Status::InvalidArgument("no row " + std::to_string(row));
  }
  Site* site = SiteOf(home);
  const SiteId self = site->id();
  BlockRole role = map_->RoleOf(static_cast<SiteId>(home), row);
  if (role == BlockRole::kNone) return Status::OK();  // not a participant
  BlockNum phys = Phys(home, row);

  switch (role) {
    case BlockRole::kData: {
      int sm = static_cast<int>(map_->SpareSite(row));
      // Drain a valid spare (lock, copy, invalidate). One shadowing the
      // episode's *other* failed member is left for that member's own
      // sweep; the decode below reads the shadowed member through it.
      if (std::optional<BlockRecord> spare = ValidSpare(row);
          spare && spare->spare_for == home) {
        (void)ReadPhys(sm, row);  // the physical spare read
        ChargeRead(self, sm, counts);
        RADD_RETURN_NOT_OK(
            site->store()->Write(phys, spare->data, spare->logical_uid));
        ++counts->local_writes;
        (void)SiteOf(sm)->store()->Invalidate(Phys(sm, row));
        ChargeWrite(self, sm, counts);  // the invalidate message
        stats_.Add("radd.recovery_spare_drained");
        break;
      }
      // No spare: the local block is either intact (temporary outage —
      // nothing to do) or lost (disk failure / disaster — reconstruct). An
      // intact copy must still agree with the parity's UID array: a row
      // rebuilt from the parity before an in-flight update landed looks
      // readable but is one write behind (§3.3).
      Result<BlockMeta> lrec = site->store()->PeekMeta(phys);
      if (lrec.ok() && !ParityEntrySupersedes(home, row, lrec->uid)) {
        // A copy newer than a leg (the home crashed before flushing its
        // delta) rolls the leg forward from the data. When a second
        // erasure blocks that, the copy rolls back to what the legs
        // encode instead: a leg with authority acknowledges only what it
        // holds, so the copy's extra write was never acknowledged.
        Status st = ReconcileParityLegs(home, row, lrec->uid, counts);
        if (!st.IsBlocked()) return st;
      }
      if (!lrec.ok() && !lrec.status().IsDataLoss()) return lrec.status();
      if (lrec.ok()) stats_.Add("radd.recovery_uid_reconciled");
      Result<Reconstructed> recon = Reconstruct(self, home, row, counts);
      if (!recon.ok()) return recon.status();
      RADD_RETURN_NOT_OK(
          site->store()->Write(phys, recon->data, recon->logical_uid));
      ++counts->local_writes;
      stats_.Add("radd.recovery_reconstructed");
      break;
    }

    case BlockRole::kParity:
    case BlockRole::kParityQ:
      return RebuildParityRow(home, row, counts,
                              role == BlockRole::kParityQ ? 1 : 0);

    case BlockRole::kNone:
      break;  // handled above

    case BlockRole::kSpare: {
      // A lost spare is simply re-initialized to the invalid state. So is
      // a stale shadow: the shadowed member recovered while this spare's
      // own site was down (a double failure), so its sweep could not
      // drain this record and instead decoded the rows from the
      // parities — which carry every spare-landed write. The record is
      // redundant now, and an up member must never stay shadowed.
      Result<BlockMeta> lrec = site->store()->PeekMeta(phys);
      const bool lost = !lrec.ok() && lrec.status().IsDataLoss();
      if (lost || (lrec.ok() && lrec->uid.valid() &&
                   StateOfMember(lrec->spare_for) == SiteState::kUp)) {
        BlockRecord empty(config_.block_size);
        RADD_RETURN_NOT_OK(site->store()->WriteRecord(phys, empty));
        ++counts->local_writes;
        stats_.Add(lost ? "radd.recovery_spare_cleared"
                        : "radd.recovery_spare_stale_dropped");
      }
      break;
    }
  }
  if (role == BlockRole::kData) {
    Result<BlockMeta> lrec = site->store()->PeekMeta(phys);
    if (!lrec.ok()) return lrec.status();
    return ReconcileParityLegs(home, row, lrec->uid, counts);
  }
  return Status::OK();
}

Status RaddGroup::ReconcileParityLegs(int home, BlockNum row, Uid copy,
                                      OpCounts* counts) {
  const ParityLegs legs = map_->LegsOf(row);
  for (int leg = 0; leg < legs.count; ++leg) {
    const int pm = static_cast<int>(legs[leg]);
    if (!ParityLegLags(pm, home, row, copy)) continue;
    stats_.Add("radd.recovery_lagging_leg_rebuilt");
    RADD_RETURN_NOT_OK(RebuildParityRow(pm, row, counts, leg));
  }
  return Status::OK();
}

Status RaddGroup::RebuildParityRow(int home, BlockNum row, OpCounts* counts,
                                   int leg) {
  Site* site = SiteOf(home);
  const SiteId self = site->id();
  const BlockNum phys = Phys(home, row);
  const int sm = static_cast<int>(map_->SpareSite(row));
  const std::vector<SiteId> data_members = map_->DataSites(row);
  const std::optional<BlockRecord> spare = ValidSpare(row);

  // Gather each data member's logical value: a valid spare shadowing it
  // wins (it holds writes the member's own copy missed), then the readable
  // local block, then a decode via the other legs. `data` points into
  // `values`, reserved up front so no push moves a block.
  std::vector<Block> values;
  std::vector<RowBlock> data;
  values.reserve(data_members.size());
  data.reserve(data_members.size());
  for (SiteId dm_id : data_members) {
    const int dm = static_cast<int>(dm_id);
    Uid uid;
    bool have = false;
    if (spare && spare->spare_for == dm) {
      (void)ReadPhys(sm, row);  // the physical spare read
      ChargeRead(self, sm, counts);
      values.push_back(spare->data);
      uid = spare->logical_uid;
      have = true;
    } else if (BlockReadable(dm, row)) {
      Result<BlockRecord> rec = ReadPhys(dm, row);
      if (rec.ok()) {
        ChargeRead(self, dm, counts);
        values.push_back(std::move(rec->data));
        uid = rec->uid;
        have = true;
      }
    }
    if (!have) {
      // Decode the missing member via the surviving legs and the other
      // data blocks; Reconstruct refuses (Blocked) past the legs' reach
      // and the sweeper retries the row later.
      Result<Reconstructed> recon = Reconstruct(self, dm, row, counts);
      if (!recon.ok()) {
        if (recon.status().IsBlocked()) return recon.status();
        return Status::Blocked("cannot rebuild " +
                               std::string(leg == 1 ? "Q parity" : "parity") +
                               " of row " + std::to_string(row) +
                               ": member " + std::to_string(dm) +
                               " undecodable: " + recon.status().ToString());
      }
      values.push_back(std::move(recon->data));
      uid = recon->logical_uid;
    }
    data.push_back({dm, uid, &values.back()});
  }

  // Recompute only when the local copy is lost or its UID array disagrees
  // with the gathered logical UIDs (updates missed while down).
  Result<BlockMeta> lrec = site->store()->PeekMeta(phys);
  if (lrec.ok() && ArrayNames(lrec->uid_array, data)) return Status::OK();

  BlockRecord prec(config_.block_size);
  RADD_RETURN_NOT_OK(EncodeLeg(leg, data, &prec.data));
  prec.uid = site->uids()->Next();
  prec.uid_array = EncodeArray(data, static_cast<size_t>(num_members()));
  RADD_RETURN_NOT_OK(site->store()->WriteRecord(phys, prec));
  ++counts->local_writes;
  stats_.Add(leg == 1 ? "radd.recovery_q_rebuilt"
                      : "radd.recovery_parity_rebuilt");
  return Status::OK();
}

std::optional<Uid> RaddGroup::ParityEntry(int pm, int home,
                                          BlockNum row) const {
  if (StateOfMember(pm) != SiteState::kUp) return std::nullopt;
  Result<BlockMeta> prec = SiteOf(pm)->store()->PeekMeta(Phys(pm, row));
  if (!prec.ok()) return std::nullopt;
  return ArrayEntry(prec->uid_array, home);
}

bool RaddGroup::ParityLegLags(int pm, int home, BlockNum row,
                              Uid local) const {
  const std::optional<Uid> entry = ParityEntry(pm, home, row);
  return entry && *entry != local;
}

bool RaddGroup::ParityLagsCopy(int home, BlockNum row, Uid local) const {
  const ParityLegs legs = map_->LegsOf(row);
  for (int leg = 0; leg < legs.count; ++leg) {
    if (ParityLegLags(static_cast<int>(legs[leg]), home, row, local)) {
      return true;
    }
  }
  return false;
}

bool RaddGroup::ParityEntrySupersedes(int home, BlockNum row,
                                      Uid local) const {
  // §3.3: a parity leg's UID array is the authority on which writes a row
  // has accepted. A data copy whose UID disagrees with (and does not
  // postdate) a leg's entry missed an update — e.g. it was rebuilt from
  // the parity before an in-flight delta for the same row landed.
  const ParityLegs legs = map_->LegsOf(row);
  for (int leg = 0; leg < legs.count; ++leg) {
    const std::optional<Uid> entry =
        ParityEntry(static_cast<int>(legs[leg]), home, row);
    if (!entry || !entry->valid() || *entry == local) continue;
    if (!local.valid()) return true;
    // Same generator: sequences order the writes. A local copy newer than
    // the entry holds an update the leg missed — keep it; the leg is
    // rebuilt from the data (its own recovery, or ReconcileParityLegs).
    // Cross-site disagreement: the leg accepted a write (e.g. a degraded
    // write through the spare) this copy never held.
    if (entry->site() != local.site() ||
        entry->sequence() > local.sequence()) {
      return true;
    }
  }
  return false;
}

Result<BlockNum> RaddGroup::FirstUnrecoveredRow(int home,
                                                BlockNum from) const {
  RADD_RETURN_NOT_OK(CheckMember(home));
  const Site* site = SiteOf(home);
  const BlockNum rows = NumRows();
  for (BlockNum row = from; row < rows; ++row) {
    if (map_->RoleOf(static_cast<SiteId>(home), row) == BlockRole::kNone) {
      continue;
    }
    BlockNum phys = Phys(home, row);
    if (map_->RoleOf(static_cast<SiteId>(home), row) == BlockRole::kData) {
      // A valid spare shadowing this member must be drained before MarkUp:
      // a spare shadowing an up member violates the group invariant, and
      // the writes it holds would be lost to readers going to the home.
      std::optional<BlockMeta> spare = ValidSpareMeta(row);
      if (spare && spare->spare_for == home) return row;
    }
    Result<BlockMeta> lrec = site->store()->PeekMeta(phys);
    if (!lrec.ok() && lrec.status().IsDataLoss()) return row;
    if (lrec.ok() &&
        map_->RoleOf(static_cast<SiteId>(home), row) == BlockRole::kData &&
        ParityLagsCopy(home, row, lrec->uid)) {
      return row;
    }
  }
  return rows;
}

Result<int> RaddGroup::ScrubParity(int parity_member) {
  RADD_RETURN_NOT_OK(CheckMember(parity_member));
  if (StateOfMember(parity_member) != SiteState::kUp) {
    return Status::InvalidArgument("scrub requires the site to be up");
  }
  Site* site = SiteOf(parity_member);
  int repaired = 0;

  const BlockNum rows = NumRows();
  for (BlockNum row = 0; row < rows; ++row) {
    const BlockRole role =
        map_->RoleOf(static_cast<SiteId>(parity_member), row);
    if (role != BlockRole::kParity && role != BlockRole::kParityQ) {
      continue;
    }
    // Collect the row's data blocks; skip rows with unreadable members
    // (degraded rows belong to the recovery sweep, not the scrubber).
    std::vector<SiteId> data_members = map_->DataSites(row);
    std::vector<BlockRecord> recs;
    recs.reserve(data_members.size());
    std::vector<RowBlock> data;
    bool auditable = true;
    for (SiteId dm : data_members) {
      int m = static_cast<int>(dm);
      if (StateOfMember(m) != SiteState::kUp) {
        auditable = false;
        break;
      }
      Result<BlockRecord> rec = SiteOf(m)->store()->Peek(Phys(m, row));
      if (!rec.ok()) {
        auditable = false;
        break;
      }
      recs.push_back(std::move(rec).value());
      data.push_back({m, recs.back().uid, &recs.back().data});
    }
    if (auditable && ValidSpareMeta(row)) auditable = false;  // degraded row
    if (!auditable) {
      stats_.Add("radd.scrub_skipped");
      continue;
    }

    // Q rows sum g^m-weighted data; P rows are the plain XOR.
    const int leg = role == BlockRole::kParityQ ? 1 : 0;
    BlockRecord fresh(config_.block_size);
    RADD_RETURN_NOT_OK(EncodeLeg(leg, data, &fresh.data));
    Result<BlockRecord> prec = site->store()->Peek(Phys(parity_member, row));
    if (prec.ok() && fresh.data == prec->data &&
        ArrayNames(prec->uid_array, data)) {
      continue;
    }
    fresh.uid = site->uids()->Next();
    fresh.uid_array = EncodeArray(data, static_cast<size_t>(num_members()));
    RADD_RETURN_NOT_OK(
        site->store()->WriteRecord(Phys(parity_member, row), fresh));
    ++repaired;
    stats_.Add("radd.scrub_repaired");
  }
  return repaired;
}

Result<int> RaddGroup::ScrubData(int data_member) {
  RADD_RETURN_NOT_OK(CheckMember(data_member));
  if (StateOfMember(data_member) != SiteState::kUp) {
    return Status::InvalidArgument("scrub requires the site to be up");
  }
  Site* site = SiteOf(data_member);
  const SiteId self = site->id();
  int repaired = 0;

  const BlockNum rows = NumRows();
  for (BlockNum row = 0; row < rows; ++row) {
    if (map_->RoleOf(static_cast<SiteId>(data_member), row) !=
        BlockRole::kData) {
      continue;
    }
    BlockNum phys = Phys(data_member, row);
    Result<BlockMeta> rec = site->store()->PeekMeta(phys);
    if (rec.ok() || !rec.status().IsDataLoss()) continue;  // healthy
    OpCounts counts;
    Result<Reconstructed> recon =
        Reconstruct(self, data_member, row, &counts);
    if (!recon.ok()) {
      // Sources unavailable (multiple failures) or UID-inconsistent under
      // concurrent writes; leave the block for the recovery sweep.
      stats_.Add("radd.scrub_skipped");
      continue;
    }
    RADD_RETURN_NOT_OK(
        site->store()->Write(phys, recon->data, recon->logical_uid));
    ++repaired;
    stats_.Add("radd.scrub_data_repaired");
  }
  return repaired;
}

// ---------------------------------------------------------------------------
// Invariants
// ---------------------------------------------------------------------------

Status RaddGroup::VerifyInvariants() const {
  const BlockNum rows = NumRows();
  for (BlockNum row = 0; row < rows; ++row) {
    const ParityLegs legs = map_->LegsOf(row);
    const int sm = static_cast<int>(map_->SpareSite(row));

    // Legs with up sites and readable blocks are audited; the rest are
    // pending recompute. A row with none is skipped.
    std::array<std::optional<BlockRecord>, 2> leg_recs;
    bool audited = false;
    for (int leg = 0; leg < legs.count; ++leg) {
      const int pm = static_cast<int>(legs[leg]);
      if (StateOfMember(pm) != SiteState::kUp) continue;
      Result<BlockRecord> r = SiteOf(pm)->store()->Peek(Phys(pm, row));
      if (!r.ok()) continue;
      leg_recs[static_cast<size_t>(leg)] = std::move(r).value();
      audited = true;
    }
    if (!audited) continue;

    // Logical values: a valid spare shadowing a member wins; otherwise the
    // member's physical block (peeked directly — simulator's privilege —
    // even if the site is down).
    std::optional<BlockRecord> spare;
    if (SpareExists(row)) {
      Result<BlockRecord> srec = SiteOf(sm)->store()->Peek(Phys(sm, row));
      if (srec.ok() && srec->uid.valid()) spare = std::move(srec).value();
    }
    const std::vector<SiteId> data_members = map_->DataSites(row);
    std::vector<BlockRecord> recs;
    recs.reserve(data_members.size());
    std::vector<RowBlock> data;
    bool verifiable = true;
    for (SiteId dm_id : data_members) {
      const int dm = static_cast<int>(dm_id);
      const bool shadowed = spare && spare->spare_for == dm;
      if (shadowed) {
        if (StateOfMember(dm) == SiteState::kUp) {
          return Status::Internal(
              "row " + std::to_string(row) + ": spare shadows member " +
              std::to_string(dm) + " whose site is up");
        }
        data.push_back({dm, spare->logical_uid, &spare->data});
      } else {
        Result<BlockRecord> lrec = SiteOf(dm)->store()->Peek(Phys(dm, row));
        if (!lrec.ok()) {
          verifiable = false;  // lost block pending reconstruction
          break;
        }
        recs.push_back(std::move(lrec).value());
        data.push_back({dm, recs.back().uid, &recs.back().data});
      }
      // UID-array agreement (only meaningful for up members; down /
      // recovering members may legitimately lag).
      if (StateOfMember(dm) != SiteState::kUp && !shadowed) continue;
      for (int leg = 0; leg < legs.count; ++leg) {
        const std::optional<BlockRecord>& rec =
            leg_recs[static_cast<size_t>(leg)];
        if (!rec) continue;
        const Uid entry = ArrayEntry(rec->uid_array, dm);
        if (entry != data.back().uid) {
          return Status::Internal(
              "row " + std::to_string(row) + ": " +
              (leg == 1 ? "Q " : "") + "UID array entry for member " +
              std::to_string(dm) + " is " + entry.ToString() +
              ", expected " + data.back().uid.ToString());
        }
      }
    }
    if (!verifiable) continue;
    for (int leg = 0; leg < legs.count; ++leg) {
      const std::optional<BlockRecord>& rec =
          leg_recs[static_cast<size_t>(leg)];
      if (!rec) continue;
      Block expected(config_.block_size);
      RADD_RETURN_NOT_OK(EncodeLeg(leg, data, &expected));
      if (expected != rec->data) {
        return Status::Internal(
            "row " + std::to_string(row) +
            (leg == 1 ? ": Q parity does not equal the GF(256) sum of "
                        "logical data values"
                      : ": parity does not equal XOR of logical data "
                        "values"));
      }
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Online expansion
// ---------------------------------------------------------------------------

Status RaddGroup::BeginExpansion(const LogicalDrive& drive) {
  if (epoch_ == nullptr) {
    return Status::InvalidArgument(
        "expansion requires a declustered placement (the rotated closed "
        "forms admit no incremental growth)");
  }
  if (config_.parities != 1) {
    return Status::InvalidArgument(
        "expansion with dual parity is not supported: Q coefficients are "
        "bound to host positions, so a data move would need a Q rewrite");
  }
  if (epoch_->migrating()) {
    return Status::InvalidArgument("an expansion is already in flight");
  }
  if (drive.site >= static_cast<SiteId>(cluster_->num_sites())) {
    return Status::InvalidArgument("new member names unknown site " +
                                   std::to_string(drive.site));
  }
  for (const LogicalDrive& d : members_) {
    if (d.site == drive.site) {
      return Status::InvalidArgument(
          "site " + std::to_string(drive.site) +
          " already hosts a member of this group");
    }
  }
  if (drive.drive_blocks < config_.rows) {
    return Status::InvalidArgument(
        "new member's drive holds " + std::to_string(drive.drive_blocks) +
        " blocks, fewer than rows = " + std::to_string(config_.rows));
  }
  const BlockNum total = cluster_->site(drive.site)->store()->total_blocks();
  if (drive.first_block > total || drive.first_block + config_.rows > total) {
    return Status::InvalidArgument(
        "new member's window exceeds site " + std::to_string(drive.site) +
        "'s " + std::to_string(total) + " blocks");
  }

  RADD_ASSIGN_OR_RETURN(std::vector<PlacementMove> plan,
                        epoch_->BeginAddMember());
  members_.push_back(drive);
  pending_moves_.assign(plan.begin(), plan.end());
  expansion_moves_planned_ = static_cast<BlockNum>(plan.size());
  expansion_moves_done_ = 0;
  stats_.Add("radd.expansion_begun");
  return Status::OK();
}

Result<int> RaddGroup::MigrateStep(int max_moves) {
  if (!ExpansionPending()) {
    return Status::InvalidArgument("no expansion in flight");
  }
  const int x = epoch_->pending_member();
  int applied = 0;
  // One pass over the queue at most per call: a skipped move goes to the
  // back and is not retried until conditions can have changed.
  size_t scan = pending_moves_.size();
  while (applied < max_moves && !pending_moves_.empty() && scan-- > 0) {
    PlacementMove mv = pending_moves_.front();
    pending_moves_.pop_front();
    if (TryApplyMove(x, mv)) {
      ++applied;
      ++expansion_moves_done_;
      stats_.Add("radd.expansion_moved");
    } else {
      pending_moves_.push_back(mv);
      stats_.Add("radd.expansion_move_skipped");
    }
  }
  if (pending_moves_.empty()) {
    RADD_RETURN_NOT_OK(epoch_->CommitAddMember());
    stats_.Add("radd.expansion_committed");
  }
  return applied;
}

bool RaddGroup::TryApplyMove(int new_member, const PlacementMove& mv) {
  // Both ends of the copy must be up; a move never runs degraded.
  if (StateOfMember(mv.donor) != SiteState::kUp) return false;
  if (StateOfMember(new_member) != SiteState::kUp) return false;
  const BlockNum src =
      members_[static_cast<size_t>(mv.donor)].first_block + mv.donor_addr;
  const BlockNum dst =
      members_[static_cast<size_t>(new_member)].first_block + mv.new_addr;
  const bool is_data = mv.offset < config_.group_size;
  const bool is_spare = mv.offset == config_.group_size;
  Result<BlockRecord> rec = SiteOf(mv.donor)->store()->Peek(src);
  if (!rec.ok()) {
    // Read-repair. An unreadable donor block would park this move at the
    // back of the queue forever, and some of these slots are repaired by
    // nobody else: a latent sector error on a never-written spare or data
    // slot is invisible to the scrubs (they skip unwritten content) and
    // to the recovery sweep (the site is up). Rebuild the logical content
    // in place, then move it like any healthy block.
    if (is_data) {
      OpCounts counts;
      Result<Reconstructed> recon =
          Reconstruct(SiteOf(mv.donor)->id(), mv.donor, mv.row, &counts);
      if (!recon.ok()) return false;  // multiple failures: recovery first
      if (!SiteOf(mv.donor)
               ->store()
               ->Write(src, recon->data, recon->logical_uid)
               .ok()) {
        return false;
      }
    } else if (is_spare) {
      // A live spare (committed writes shadowing a down member) must never
      // be discarded — but an unreadable slot can't say what it held. The
      // slot may be reset exactly when the row is provably clean: every
      // data member up and agreeing with the parity's UID array, making
      // any spare content stale by definition.
      if (SpareExists(mv.row)) {
        const int pmr = static_cast<int>(map_->ParitySite(mv.row));
        if (StateOfMember(pmr) != SiteState::kUp) return false;
        Result<BlockMeta> prow =
            SiteOf(pmr)->store()->PeekMeta(Phys(pmr, mv.row));
        if (!prow.ok()) return false;
        for (SiteId dm : map_->DataSites(mv.row)) {
          const int m = static_cast<int>(dm);
          if (StateOfMember(m) != SiteState::kUp) return false;
          Result<BlockMeta> drec =
              SiteOf(m)->store()->PeekMeta(Phys(m, mv.row));
          if (!drec.ok()) return false;
          if (ArrayEntry(prow->uid_array, m) != drec->uid) return false;
        }
      }
      BlockRecord empty(config_.block_size);
      if (!SiteOf(mv.donor)->store()->WriteRecord(src, empty).ok()) {
        return false;
      }
    } else {
      // Parity slot: the parity scrub recomputes it from the row's data.
      Result<int> scrubbed = ScrubParity(mv.donor);
      if (!scrubbed.ok()) return false;
    }
    rec = SiteOf(mv.donor)->store()->Peek(src);
    if (!rec.ok()) return false;
    stats_.Add("radd.expansion_move_repaired");
  }

  std::optional<BlockRecord> fixed_parity;
  int pm = -1;
  if (is_data) {
    // A data block may move only when its copy is clean: UID equal to the
    // parity array entry (no un-acked delta in flight) and no valid spare
    // shadowing the donor (no recovery debt). The parity must be up so
    // its array can be re-indexed in the same step.
    pm = static_cast<int>(map_->ParitySite(mv.row));
    if (StateOfMember(pm) != SiteState::kUp) return false;
    Result<BlockRecord> prec = SiteOf(pm)->store()->Peek(Phys(pm, mv.row));
    if (!prec.ok()) return false;
    const Uid entry = ArrayEntry(prec->uid_array, mv.donor);
    if (entry != rec->uid) return false;
    std::optional<BlockMeta> spare = ValidSpareMeta(mv.row);
    if (spare && spare->spare_for == mv.donor) return false;
    fixed_parity = std::move(prec).value();
    if (fixed_parity->uid_array.size() <
        static_cast<size_t>(num_members())) {
      fixed_parity->uid_array.resize(static_cast<size_t>(num_members()),
                                     Uid());
    }
    fixed_parity->uid_array[static_cast<size_t>(new_member)] = entry;
    fixed_parity->uid_array[static_cast<size_t>(mv.donor)] = Uid();
  }

  // The copy, the zeroing of the freed address (which becomes the donor's
  // never-written slot in the new stripe) and the array fix are one
  // atomic step in the synchronous model; the node layer's epoch guards
  // cover messages already in flight.
  if (!SiteOf(new_member)->store()->WriteRecord(dst, *rec).ok()) {
    return false;
  }
  BlockRecord freed(config_.block_size);
  if (!SiteOf(mv.donor)->store()->WriteRecord(src, freed).ok()) return false;
  if (fixed_parity.has_value()) {
    if (!SiteOf(pm)
             ->store()
             ->WriteRecord(Phys(pm, mv.row), *fixed_parity)
             .ok()) {
      return false;
    }
  }
  epoch_->ApplyMove(mv);
  return true;
}

}  // namespace radd
