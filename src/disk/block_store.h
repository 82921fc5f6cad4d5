// BlockStore — the block-device interface one site exposes to the
// distributed layer.
//
// DiskArray implements it directly (plain disks). LocalRaid (see
// schemes/local_raid.h) implements it over a DiskArray while transparently
// maintaining *local* striped parity, which is exactly the paper's C-RAID
// composition: "the single site RAID algorithms are also applied to each
// local I/O operation, transparent to the higher level RADD operations".
//
// Implementations count the physical disk operations they perform; the
// composite schemes read those counters to report write amplification.

#ifndef RADD_DISK_BLOCK_STORE_H_
#define RADD_DISK_BLOCK_STORE_H_

#include "disk/disk.h"
#include "sim/stats.h"

namespace radd {

/// Abstract block device with the record semantics the RADD layer needs.
class BlockStore {
 public:
  virtual ~BlockStore() = default;

  virtual BlockNum total_blocks() const = 0;
  virtual size_t block_size() const = 0;

  virtual Result<BlockRecord> Read(BlockNum block) const = 0;

  /// Like Read but *uncounted*: used for buffered old-value fetches that
  /// the paper's cost model treats as free ("careful buffering of the old
  /// data block can remove one of the reads"). Implementations may still
  /// count real physical work this triggers (e.g. a RAID reconstructing a
  /// lost cell). A caller that needs no data bytes uses PeekMeta.
  virtual Result<BlockRecord> Peek(BlockNum block) const = 0;

  /// Peek's status and counters for every block state (unwritten, lost,
  /// latent error, rotted, a lost cell rebuilt by a local RAID), returning
  /// only the record's metadata: the status checks (is this block valid?
  /// lost? which UIDs does it carry?) that §3.3's UID rule runs on. The
  /// UID-array view stays valid until the store's next mutation.
  virtual Result<BlockMeta> PeekMeta(BlockNum block) const = 0;

  virtual Status Write(BlockNum block, const Block& data, Uid uid) = 0;
  virtual Status WriteRecord(BlockNum block, const BlockRecord& record) = 0;
  virtual Status ApplyMask(BlockNum block, const ChangeMask& mask, Uid uid,
                           size_t group_position, size_t group_size) = 0;
  virtual Status Invalidate(BlockNum block) = 0;

  /// Cumulative physical disk operations performed by this store.
  virtual OpCounts PhysicalOps() const = 0;
};

/// Pass-through store over a DiskArray: one logical op = one physical op.
class PlainStore : public BlockStore {
 public:
  explicit PlainStore(DiskArray* disks) : disks_(disks) {}

  BlockNum total_blocks() const override { return disks_->total_blocks(); }
  size_t block_size() const override { return disks_->block_size(); }

  Result<BlockRecord> Read(BlockNum block) const override {
    ++ops_.local_reads;
    return disks_->Read(block);
  }
  Result<BlockRecord> Peek(BlockNum block) const override {
    return disks_->Read(block);
  }
  Result<BlockMeta> PeekMeta(BlockNum block) const override {
    return disks_->PeekMeta(block);
  }
  Status Write(BlockNum block, const Block& data, Uid uid) override {
    ++ops_.local_writes;
    return disks_->Write(block, data, uid);
  }
  Status WriteRecord(BlockNum block, const BlockRecord& record) override {
    ++ops_.local_writes;
    return disks_->WriteRecord(block, record);
  }
  Status ApplyMask(BlockNum block, const ChangeMask& mask, Uid uid,
                   size_t group_position, size_t group_size) override {
    ++ops_.local_writes;
    return disks_->ApplyMask(block, mask, uid, group_position, group_size);
  }
  Status Invalidate(BlockNum block) override {
    ++ops_.local_writes;
    return disks_->Invalidate(block);
  }
  OpCounts PhysicalOps() const override { return ops_; }

 private:
  DiskArray* disks_;
  mutable OpCounts ops_;
};

}  // namespace radd

#endif  // RADD_DISK_BLOCK_STORE_H_
