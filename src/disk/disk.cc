#include "disk/disk.h"

#include "common/crc32c.h"

namespace radd {

namespace {

/// A record's integrity stamp for bytes whose CRC32C is `crc`: never 0,
/// which marks an untracked record.
uint32_t Stamp(uint32_t crc) { return crc != 0 ? crc : 1; }

uint32_t StampOf(const Block& data) {
  return Stamp(Crc32c(data.data(), data.size()));
}

/// True when `rec`'s bytes no longer match its stamp. A verified record's
/// bytes have not changed since the disk stamped them, so only an
/// unverified one is hashed.
bool Rotted(const BlockRecord& rec) {
  return !rec.verified && rec.checksum != 0 &&
         rec.checksum != StampOf(rec.data);
}

}  // namespace

void SimDisk::Fail() {
  failed_ = true;
  lost_.clear();
  latent_.clear();
  // Every materialized block is lost; unmaterialized blocks become lost
  // too — we mark the whole address space lazily via the failed_ flag and
  // record explicit loss marks for materialized blocks so rewrites can
  // clear them individually.
  for (BlockNum b = 0; b < capacity_; ++b) lost_[b] = true;
  blocks_.clear();
}

Status SimDisk::CheckAddress(BlockNum block) const {
  if (block >= capacity_) {
    return Status::NotFound("block " + std::to_string(block) +
                            " beyond disk capacity " +
                            std::to_string(capacity_));
  }
  return Status::OK();
}

BlockRecord& SimDisk::GetOrCreate(BlockNum block) {
  auto it = blocks_.find(block);
  if (it == blocks_.end()) {
    it = blocks_.emplace(block, BlockRecord(block_size_)).first;
  }
  return it->second;
}

Status SimDisk::CheckReadable(BlockNum block) const {
  auto lost = lost_.find(block);
  if (lost != lost_.end() && lost->second) {
    return Status::DataLoss("block " + std::to_string(block) +
                            " lost to disk failure");
  }
  auto latent = latent_.find(block);
  if (latent != latent_.end() && latent->second) {
    return Status::DataLoss("block " + std::to_string(block) +
                            " unreadable (latent sector error)");
  }
  return Status::OK();
}

Result<const BlockRecord*> SimDisk::FindReadable(BlockNum block) const {
  RADD_RETURN_NOT_OK(CheckAddress(block));
  RADD_RETURN_NOT_OK(CheckReadable(block));
  auto it = blocks_.find(block);
  if (it == blocks_.end()) return static_cast<const BlockRecord*>(nullptr);
  const BlockRecord& rec = it->second;
  // End-to-end integrity: the CRC32C stamped at write time must match
  // the bytes the medium returns. A mismatch is silent corruption; report
  // it as DataLoss so the RADD layer reconstructs instead of serving rot.
  if (Rotted(rec)) {
    ++corruptions_detected_;
    return Status::DataLoss("block " + std::to_string(block) +
                            " failed checksum (silent corruption)");
  }
  return &rec;
}

Result<BlockRecord> SimDisk::Read(BlockNum block) const {
  Result<const BlockRecord*> rec = FindReadable(block);
  if (!rec.ok()) return rec.status();
  if (*rec == nullptr) return BlockRecord(block_size_);
  return **rec;
}

Result<BlockMeta> SimDisk::PeekMeta(BlockNum block) const {
  Result<const BlockRecord*> rec = FindReadable(block);
  if (!rec.ok()) return rec.status();
  if (*rec == nullptr) return BlockMeta{};
  return MetaOf(**rec);
}

Status SimDisk::Write(BlockNum block, const Block& data, Uid uid) {
  RADD_RETURN_NOT_OK(CheckAddress(block));
  if (data.size() != block_size_) {
    return Status::InvalidArgument("write size " +
                                   std::to_string(data.size()) +
                                   " != block size " +
                                   std::to_string(block_size_));
  }
  BlockRecord& rec = GetOrCreate(block);
  rec.data = data;
  rec.uid = uid;
  rec.logical_uid = Uid();
  rec.spare_for = -1;
  rec.checksum = StampOf(rec.data);
  rec.verified = true;
  lost_.erase(block);
  latent_.erase(block);
  return Status::OK();
}

Status SimDisk::WriteRecord(BlockNum block, const BlockRecord& record) {
  RADD_RETURN_NOT_OK(CheckAddress(block));
  if (record.data.size() != block_size_) {
    return Status::InvalidArgument("record block size mismatch");
  }
  BlockRecord& rec = GetOrCreate(block);
  rec = record;
  // The disk, not the caller, owns the integrity stamp.
  rec.checksum = StampOf(rec.data);
  rec.verified = true;
  lost_.erase(block);
  latent_.erase(block);
  return Status::OK();
}

Status SimDisk::ApplyMask(BlockNum block, const ChangeMask& mask, Uid uid,
                          size_t group_position, size_t group_size) {
  RADD_RETURN_NOT_OK(CheckAddress(block));
  RADD_RETURN_NOT_OK(CheckReadable(block));
  if (mask.block_size() != block_size_) {
    return Status::InvalidArgument("mask size mismatch");
  }
  if (group_position >= group_size) {
    return Status::InvalidArgument("group position out of range");
  }
  BlockRecord& rec = GetOrCreate(block);
  // Applying a delta on top of rotted parity would propagate the rot into
  // every future reconstruction of this row, so the old stamp is checked
  // before the delta is XORed in.
  if (Rotted(rec)) {
    ++corruptions_detected_;
    return Status::DataLoss("parity block " + std::to_string(block) +
                            " failed checksum (silent corruption)");
  }
  if (!mask.IsNoop()) {
    internal::XorBytes(rec.data.data(), mask.delta().data(),
                       rec.data.size());
  }
  rec.checksum = StampOf(rec.data);
  rec.verified = true;
  if (rec.uid_array.size() < group_size) rec.uid_array.resize(group_size);
  rec.uid_array[group_position] = uid;
  // The parity block itself also becomes "valid": stamp the triggering UID.
  rec.uid = uid;
  return Status::OK();
}

Status SimDisk::Invalidate(BlockNum block) {
  RADD_RETURN_NOT_OK(CheckAddress(block));
  auto it = blocks_.find(block);
  if (it != blocks_.end()) {
    it->second.uid = Uid();
    it->second.logical_uid = Uid();
    it->second.spare_for = -1;
  }
  return Status::OK();
}

Status SimDisk::Discard(BlockNum block) {
  RADD_RETURN_NOT_OK(CheckAddress(block));
  blocks_.erase(block);
  latent_.erase(block);
  lost_[block] = true;
  return Status::OK();
}

Status SimDisk::InjectLatentError(BlockNum block) {
  RADD_RETURN_NOT_OK(CheckAddress(block));
  latent_[block] = true;
  return Status::OK();
}

Result<bool> SimDisk::CorruptBlock(BlockNum block, uint64_t seed,
                                   int bits) {
  RADD_RETURN_NOT_OK(CheckAddress(block));
  auto it = blocks_.find(block);
  if (it == blocks_.end()) return false;  // nothing materialized to rot
  // The bytes no longer match the stamp: reads must hash them again.
  it->second.verified = false;
  Block& data = it->second.data;
  // splitmix64 over the seed picks the bit positions deterministically.
  uint64_t x = seed;
  for (int i = 0; i < bits; ++i) {
    x += 0x9e3779b97f4a7c15ull;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    size_t pos = static_cast<size_t>(z % (data.size() * 8));
    data[pos / 8] = static_cast<uint8_t>(data[pos / 8] ^ (1u << (pos % 8)));
  }
  return true;
}

bool SimDisk::IsValid(BlockNum block) const {
  if (!CheckReadable(block).ok()) return false;
  auto it = blocks_.find(block);
  return it != blocks_.end() && it->second.uid.valid();
}

DiskArray::DiskArray(int num_disks, BlockNum blocks_per_disk,
                     size_t block_size)
    : blocks_per_disk_(blocks_per_disk), block_size_(block_size) {
  disks_.reserve(static_cast<size_t>(num_disks));
  for (int i = 0; i < num_disks; ++i) {
    disks_.emplace_back(blocks_per_disk, block_size);
  }
}

Status DiskArray::FailDisk(int d) {
  if (d < 0 || d >= num_disks()) {
    return Status::InvalidArgument("no disk " + std::to_string(d));
  }
  disks_[static_cast<size_t>(d)].Fail();
  return Status::OK();
}

bool DiskArray::DiskFailed(int d) const {
  if (d < 0 || d >= num_disks()) return false;
  return disks_[static_cast<size_t>(d)].lost_count() > 0;
}

Result<BlockRecord> DiskArray::Read(BlockNum block) const {
  if (block >= total_blocks()) {
    return Status::NotFound("block beyond array capacity");
  }
  return disks_[static_cast<size_t>(DiskOf(block))].Read(
      block % blocks_per_disk_);
}

Result<BlockMeta> DiskArray::PeekMeta(BlockNum block) const {
  if (block >= total_blocks()) {
    return Status::NotFound("block beyond array capacity");
  }
  return disks_[static_cast<size_t>(DiskOf(block))].PeekMeta(
      block % blocks_per_disk_);
}

Status DiskArray::Write(BlockNum block, const Block& data, Uid uid) {
  if (block >= total_blocks()) {
    return Status::NotFound("block beyond array capacity");
  }
  return disks_[static_cast<size_t>(DiskOf(block))].Write(
      block % blocks_per_disk_, data, uid);
}

Status DiskArray::WriteRecord(BlockNum block, const BlockRecord& record) {
  if (block >= total_blocks()) {
    return Status::NotFound("block beyond array capacity");
  }
  return disks_[static_cast<size_t>(DiskOf(block))].WriteRecord(
      block % blocks_per_disk_, record);
}

Status DiskArray::ApplyMask(BlockNum block, const ChangeMask& mask, Uid uid,
                            size_t group_position, size_t group_size) {
  if (block >= total_blocks()) {
    return Status::NotFound("block beyond array capacity");
  }
  return disks_[static_cast<size_t>(DiskOf(block))].ApplyMask(
      block % blocks_per_disk_, mask, uid, group_position, group_size);
}

Status DiskArray::Invalidate(BlockNum block) {
  if (block >= total_blocks()) {
    return Status::NotFound("block beyond array capacity");
  }
  return disks_[static_cast<size_t>(DiskOf(block))].Invalidate(
      block % blocks_per_disk_);
}

Status DiskArray::Discard(BlockNum block) {
  if (block >= total_blocks()) {
    return Status::NotFound("block beyond array capacity");
  }
  return disks_[static_cast<size_t>(DiskOf(block))].Discard(
      block % blocks_per_disk_);
}

Status DiskArray::InjectLatentError(BlockNum block) {
  if (block >= total_blocks()) {
    return Status::NotFound("block beyond array capacity");
  }
  return disks_[static_cast<size_t>(DiskOf(block))].InjectLatentError(
      block % blocks_per_disk_);
}

Result<bool> DiskArray::CorruptBlock(BlockNum block, uint64_t seed,
                                     int bits) {
  if (block >= total_blocks()) {
    return Status::NotFound("block beyond array capacity");
  }
  return disks_[static_cast<size_t>(DiskOf(block))].CorruptBlock(
      block % blocks_per_disk_, seed, bits);
}

uint64_t DiskArray::corruptions_detected() const {
  uint64_t total = 0;
  for (const SimDisk& d : disks_) total += d.corruptions_detected();
  return total;
}

bool DiskArray::IsValid(BlockNum block) const {
  if (block >= total_blocks()) return false;
  return disks_[static_cast<size_t>(DiskOf(block))].IsValid(
      block % blocks_per_disk_);
}

std::vector<BlockNum> DiskArray::LostBlocks() const {
  std::vector<BlockNum> out;
  for (size_t d = 0; d < disks_.size(); ++d) {
    const SimDisk& disk = disks_[d];
    for (BlockNum b = 0; b < disk.capacity(); ++b) {
      // A block is lost if the disk failed and the block has not been
      // rewritten since.
      Result<BlockMeta> r = disk.PeekMeta(b);
      if (!r.ok() && r.status().IsDataLoss()) {
        out.push_back(static_cast<BlockNum>(d) * blocks_per_disk_ + b);
      }
    }
  }
  return out;
}

}  // namespace radd
