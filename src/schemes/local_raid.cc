#include "schemes/local_raid.h"

#include <cassert>

namespace radd {

LocalRaid::LocalRaid(DiskArray* disks, const LocalRaidConfig& config)
    : disks_(disks), config_(config), layout_(config.group_size) {
  assert(disks_->num_disks() == layout_.num_sites() &&
         "LocalRaid needs exactly G_local + 2 disks");
  stripes_ = disks_->blocks_per_disk();
  data_blocks_ = stripes_ * static_cast<BlockNum>(config_.group_size);
}

LocalRaid::Addr LocalRaid::AddrOf(BlockNum logical) const {
  // Stripe-major dense mapping: stripe s carries logical blocks
  // [s*G, (s+1)*G) on its G data disks, in disk order.
  const BlockNum g = static_cast<BlockNum>(config_.group_size);
  BlockNum stripe = logical / g;
  BlockNum j = logical % g;
  std::vector<SiteId> data_disks = layout_.DataSites(stripe);
  int disk = static_cast<int>(data_disks[static_cast<size_t>(j)]);
  return Addr{disk, stripe, PhysOf(disk, stripe)};
}

BlockNum LocalRaid::PhysOf(int disk, BlockNum stripe) const {
  return static_cast<BlockNum>(disk) * stripes_ + stripe;
}

void LocalRaid::SaveMeta(BlockNum phys, const BlockMeta& meta) const {
  meta_[phys] = Meta{meta.uid,
                     {meta.uid_array.begin(), meta.uid_array.end()},
                     meta.logical_uid, meta.spare_for};
}

void LocalRaid::RestoreMeta(BlockNum phys, BlockRecord* rec) const {
  auto it = meta_.find(phys);
  if (it == meta_.end()) return;
  rec->uid = it->second.uid;
  rec->uid_array = it->second.uid_array;
  rec->logical_uid = it->second.logical_uid;
  rec->spare_for = it->second.spare_for;
}

Result<Block> LocalRaid::ReconstructCell(int disk, BlockNum stripe) const {
  std::vector<SiteId> sources =
      layout_.ReconstructionSources(static_cast<SiteId>(disk), stripe);
  Block out(disks_->block_size());
  for (SiteId src : sources) {
    Result<BlockRecord> rec = disks_->Read(PhysOf(static_cast<int>(src),
                                                  stripe));
    if (!rec.ok()) {
      return Status::DataLoss(
          "double disk failure in stripe " + std::to_string(stripe) +
          ": cannot reconstruct");
    }
    ++ops_.local_reads;
    RADD_RETURN_NOT_OK(out.XorWith(rec->data));
  }
  return out;
}

Result<BlockRecord> LocalRaid::ReadCell(int disk, BlockNum stripe) const {
  Result<BlockRecord> rec = disks_->Read(PhysOf(disk, stripe));
  if (rec.ok()) {
    ++ops_.local_reads;
    return rec;
  }
  if (!rec.status().IsDataLoss()) return rec.status();

  // Lost cell: reconstruct from the stripe (paper §2: "the corresponding
  // block must be reconstructed immediately").
  Result<Block> data = ReconstructCell(disk, stripe);
  if (!data.ok()) return data.status();
  BlockRecord out(disks_->block_size());
  out.data = *data;
  RestoreMeta(PhysOf(disk, stripe), &out);
  if (config_.repair_on_read) {
    ++ops_.local_writes;
    Status st = disks_->WriteRecord(PhysOf(disk, stripe), out);
    if (!st.ok()) return st;
  }
  return out;
}

Result<BlockRecord> LocalRaid::Read(BlockNum block) const {
  if (block >= data_blocks_) {
    return Status::NotFound("logical block beyond RAID capacity");
  }
  Addr a = AddrOf(block);
  return ReadCell(a.disk, a.stripe);
}

Result<BlockRecord> LocalRaid::Peek(BlockNum block) const {
  if (block >= data_blocks_) {
    return Status::NotFound("logical block beyond RAID capacity");
  }
  Addr a = AddrOf(block);
  Result<BlockRecord> rec = disks_->Read(a.phys);
  if (rec.ok()) return rec;  // buffered: uncounted
  if (!rec.status().IsDataLoss()) return rec.status();
  // A lost cell still costs real reconstruction work even on a peek.
  Result<Block> data = ReconstructCell(a.disk, a.stripe);
  if (!data.ok()) return data.status();
  BlockRecord out(disks_->block_size());
  out.data = std::move(data).value();
  RestoreMeta(a.phys, &out);
  return out;
}

Result<BlockMeta> LocalRaid::PeekMeta(BlockNum block) const {
  if (block >= data_blocks_) {
    return Status::NotFound("logical block beyond RAID capacity");
  }
  Addr a = AddrOf(block);
  Result<BlockMeta> meta = disks_->PeekMeta(a.phys);
  if (meta.ok() || !meta.status().IsDataLoss()) return meta;
  // As in Peek: a lost cell is still reconstructed (and counted), and a
  // second loss in its stripe fails the peek. Its metadata is the mirror.
  Result<Block> data = ReconstructCell(a.disk, a.stripe);
  if (!data.ok()) return data.status();
  auto it = meta_.find(a.phys);
  if (it == meta_.end()) return BlockMeta{};
  return BlockMeta{it->second.uid, it->second.logical_uid,
                   it->second.spare_for, it->second.uid_array};
}

Status LocalRaid::Write(BlockNum block, const Block& data, Uid uid) {
  if (block >= data_blocks_) {
    return Status::NotFound("logical block beyond RAID capacity");
  }
  Addr a = AddrOf(block);
  // Old value for the parity delta (buffered: not charged when intact).
  Block old_value(disks_->block_size());
  bool stripe_unrecoverable = false;
  Result<BlockRecord> old = disks_->Read(a.phys);
  if (old.ok()) {
    old_value = old->data;
  } else if (old.status().IsDataLoss()) {
    Result<Block> recon = ReconstructCell(a.disk, a.stripe);
    if (recon.ok()) {
      old_value = std::move(recon).value();
    } else if (recon.status().IsDataLoss()) {
      // Total stripe loss (e.g. a disaster wiped the whole array while a
      // higher layer rebuilds it block by block): accept the write and
      // defer the stripe's parity.
      stripe_unrecoverable = true;
    } else {
      return recon.status();
    }
  } else {
    return old.status();
  }
  RADD_RETURN_NOT_OK(disks_->Write(a.phys, data, uid));
  {
    BlockMeta written;
    written.uid = uid;
    SaveMeta(a.phys, written);
  }
  ++ops_.local_writes;
  if (stripe_unrecoverable) return PoisonLocalParity(a.stripe);
  Result<ChangeMask> mask = ChangeMask::Diff(old_value, data);
  if (!mask.ok()) return mask.status();
  return UpdateLocalParity(a.stripe, *mask);
}

Status LocalRaid::WriteRecord(BlockNum block, const BlockRecord& record) {
  if (block >= data_blocks_) {
    return Status::NotFound("logical block beyond RAID capacity");
  }
  Addr a = AddrOf(block);
  // Old value for the parity delta (buffered: not charged when intact).
  Block old_value(disks_->block_size());
  bool stripe_unrecoverable = false;
  Result<BlockRecord> old = disks_->Read(a.phys);
  if (old.ok()) {
    old_value = old->data;
  } else if (old.status().IsDataLoss()) {
    Result<Block> recon = ReconstructCell(a.disk, a.stripe);
    if (recon.ok()) {
      old_value = std::move(recon).value();
    } else if (recon.status().IsDataLoss()) {
      // Total stripe loss (e.g. a disaster wiped the whole array while a
      // higher layer rebuilds it block by block): accept the write and
      // defer the stripe's parity.
      stripe_unrecoverable = true;
    } else {
      return recon.status();
    }
  } else {
    return old.status();
  }
  RADD_RETURN_NOT_OK(disks_->WriteRecord(a.phys, record));
  SaveMeta(a.phys, MetaOf(record));
  ++ops_.local_writes;
  if (stripe_unrecoverable) return PoisonLocalParity(a.stripe);
  Result<ChangeMask> mask = ChangeMask::Diff(old_value, record.data);
  if (!mask.ok()) return mask.status();
  return UpdateLocalParity(a.stripe, *mask);
}

Status LocalRaid::ApplyMask(BlockNum block, const ChangeMask& mask, Uid uid,
                            size_t group_position, size_t group_size) {
  if (block >= data_blocks_) {
    return Status::NotFound("logical block beyond RAID capacity");
  }
  Addr a = AddrOf(block);
  Status st = disks_->ApplyMask(a.phys, mask, uid, group_position,
                                group_size);
  if (st.IsDataLoss()) {
    // The cell is lost: restore its contents first, then apply.
    Result<Block> recon = ReconstructCell(a.disk, a.stripe);
    if (!recon.ok()) return recon.status();
    BlockRecord rec(disks_->block_size());
    rec.data = std::move(recon).value();
    RestoreMeta(a.phys, &rec);
    RADD_RETURN_NOT_OK(disks_->WriteRecord(a.phys, rec));
    ++ops_.local_writes;
    st = disks_->ApplyMask(a.phys, mask, uid, group_position, group_size);
  }
  RADD_RETURN_NOT_OK(st);
  {
    Result<BlockMeta> now = disks_->PeekMeta(a.phys);
    if (now.ok()) SaveMeta(a.phys, *now);
  }
  ++ops_.local_writes;
  // The same delta keeps the *local* stripe parity current — XOR delta
  // composition: local-parity' = local-parity XOR (new XOR old).
  return UpdateLocalParity(a.stripe, mask);
}

Status LocalRaid::Invalidate(BlockNum block) {
  if (block >= data_blocks_) {
    return Status::NotFound("logical block beyond RAID capacity");
  }
  Addr a = AddrOf(block);
  ++ops_.local_writes;
  // Metadata-only change: contents untouched, so local parity is
  // unaffected.
  RADD_RETURN_NOT_OK(disks_->Invalidate(a.phys));
  Result<BlockMeta> now = disks_->PeekMeta(a.phys);
  if (now.ok()) SaveMeta(a.phys, *now);
  return Status::OK();
}

Status LocalRaid::PoisonLocalParity(BlockNum stripe) {
  // The stripe's parity can no longer be made consistent (siblings are
  // still lost): mark it lost so nothing reconstructs from stale parity.
  // Rebuild() restores it once the stripe's cells are back.
  int pd = static_cast<int>(layout_.ParitySite(stripe));
  return disks_->Discard(PhysOf(pd, stripe));
}

Status LocalRaid::UpdateLocalParity(BlockNum stripe, const ChangeMask& delta) {
  int pd = static_cast<int>(layout_.ParitySite(stripe));
  BlockNum phys = PhysOf(pd, stripe);
  Result<BlockRecord> rec = disks_->Read(phys);
  if (!rec.ok()) {
    if (!rec.status().IsDataLoss()) return rec.status();
    // Lost parity cell: a delta is meaningless; rebuild it from scratch
    // AFTER the data write that produced `delta` (so the fresh parity
    // already includes it). If siblings are still lost, defer to
    // Rebuild().
    Result<Block> fresh = ReconstructCell(pd, stripe);
    if (!fresh.ok()) {
      return fresh.status().IsDataLoss() ? Status::OK() : fresh.status();
    }
    BlockRecord prec(disks_->block_size());
    prec.data = std::move(fresh).value();
    ++ops_.local_writes;
    return disks_->WriteRecord(phys, prec);
  }
  Block parity = rec->data;
  RADD_RETURN_NOT_OK(delta.ApplyTo(&parity));
  ++ops_.local_writes;
  return disks_->Write(phys, parity, rec->uid);
}

Status LocalRaid::FailDisk(int d) { return disks_->FailDisk(d); }

bool LocalRaid::Degraded() const {
  for (int d = 0; d < disks_->num_disks(); ++d) {
    if (disks_->DiskFailed(d)) return true;
  }
  return false;
}

Result<OpCounts> LocalRaid::Rebuild() {
  OpCounts before = ops_;
  for (int d = 0; d < disks_->num_disks(); ++d) {
    if (!disks_->DiskFailed(d)) continue;
    for (BlockNum stripe = 0; stripe < stripes_; ++stripe) {
      BlockNum phys = PhysOf(d, stripe);
      Result<BlockMeta> rec = disks_->PeekMeta(phys);
      if (rec.ok()) continue;  // already repaired (e.g. on read)
      if (!rec.status().IsDataLoss()) return rec.status();
      BlockRecord out(disks_->block_size());
      if (layout_.RoleOf(static_cast<SiteId>(d), stripe) ==
          BlockRole::kSpare) {
        // Spare cells carry no parity-covered content: just clear.
        meta_.erase(phys);
      } else {
        Result<Block> data = ReconstructCell(d, stripe);
        if (!data.ok()) return data.status();
        out.data = std::move(data).value();
        RestoreMeta(phys, &out);
      }
      RADD_RETURN_NOT_OK(disks_->WriteRecord(phys, out));
      ++ops_.local_writes;
    }
  }
  return ops_ - before;
}

}  // namespace radd
