// LocalRaid — a software Level-5 RAID with striped parity and a striped
// spare, over one site's DiskArray ([PATT88], as summarized in paper §2).
//
// The disk group has G_local + 2 disks; physical block r of the disks forms
// a stripe laid out with the same rotating P/S placement as the distributed
// layout (Fig. 1 with disks in place of sites — the paper's Fig. 2 charges
// RAID the same 2-in-10 overhead as RADD, i.e. it too carries a spare).
//
// LocalRaid implements BlockStore, so a Site can mount it under the RADD
// layer to form the paper's C-RAID: every logical write becomes two
// physical writes (data + local parity), and a failed local disk is
// reconstructed transparently with G_local local reads.
//
// All operations are local; PhysicalOps() reports them so composite
// schemes can account for the amplification.

#ifndef RADD_SCHEMES_LOCAL_RAID_H_
#define RADD_SCHEMES_LOCAL_RAID_H_

#include <unordered_map>
#include <vector>

#include "disk/block_store.h"
#include "layout/placement.h"

namespace radd {

/// Configuration of a local RAID group.
struct LocalRaidConfig {
  /// Data disks per parity group (the local G).
  int group_size = 8;
  /// Reconstruct lost blocks lazily on read (true) in addition to the
  /// explicit Rebuild() sweep.
  bool repair_on_read = true;
};

/// A Level-5 RAID over `disks`. The array must have exactly
/// `group_size + 2` disks; its per-disk capacity defines the stripe count.
/// Logical blocks are exposed densely: logical block L lives on the disk
/// and stripe given by the rotating layout, skipping parity/spare cells.
class LocalRaid : public BlockStore {
 public:
  LocalRaid(DiskArray* disks, const LocalRaidConfig& config);

  /// Logical (data) capacity in blocks.
  BlockNum total_blocks() const override { return data_blocks_; }
  size_t block_size() const override { return disks_->block_size(); }

  Result<BlockRecord> Read(BlockNum block) const override;
  Result<BlockRecord> Peek(BlockNum block) const override;
  Result<BlockMeta> PeekMeta(BlockNum block) const override;
  Status Write(BlockNum block, const Block& data, Uid uid) override;
  Status WriteRecord(BlockNum block, const BlockRecord& record) override;
  Status ApplyMask(BlockNum block, const ChangeMask& mask, Uid uid,
                   size_t group_position, size_t group_size) override;
  Status Invalidate(BlockNum block) override;

  OpCounts PhysicalOps() const override { return ops_; }

  /// Injects a failure of local disk `d`.
  Status FailDisk(int d);
  /// True if any block is still lost.
  bool Degraded() const;
  /// Reconstructs every lost block onto the (swapped-in) replacement disk
  /// — the paper §2's background reconstruction. Returns ops performed.
  Result<OpCounts> Rebuild();

  const RotatedLayout& layout() const { return layout_; }

  /// Disk on which logical block L's cell lives (for fault injection).
  int DiskOfLogical(BlockNum logical) const { return AddrOf(logical).disk; }

 private:
  struct Addr {
    int disk;
    BlockNum stripe;
    BlockNum phys;  // flat address in the DiskArray
  };
  /// Maps logical data block L to its physical location.
  Addr AddrOf(BlockNum logical) const;
  BlockNum PhysOf(int disk, BlockNum stripe) const;

  /// Reads a physical cell, reconstructing from the stripe if it is lost
  /// (and repairing it when configured). Counts physical ops.
  Result<BlockRecord> ReadCell(int disk, BlockNum stripe) const;

  /// XOR-reconstructs cell (disk, stripe) from the other G+1 non-spare
  /// cells of the stripe.
  Result<Block> ReconstructCell(int disk, BlockNum stripe) const;

  /// Applies `delta` to the stripe's parity cell (formula (1)). Lost
  /// parity cells are rebuilt from scratch first (deferred to Rebuild()
  /// while sibling cells are themselves lost).
  Status UpdateLocalParity(BlockNum stripe, const ChangeMask& delta);

  /// Marks a stripe's parity lost when it can no longer be kept
  /// consistent (total stripe loss being rebuilt from above).
  Status PoisonLocalParity(BlockNum stripe);

  /// Per-block record metadata (UIDs, UID arrays, spare bookkeeping of the
  /// layer above). XOR parity protects block *contents* only, so the
  /// metadata is mirrored here — the software analogue of the duplexed
  /// NVRAM metadata store a real array controller keeps — and restored
  /// when a lost cell is reconstructed.
  struct Meta {
    Uid uid;
    std::vector<Uid> uid_array;
    Uid logical_uid;
    int32_t spare_for = -1;
  };
  void SaveMeta(BlockNum phys, const BlockMeta& meta) const;
  void RestoreMeta(BlockNum phys, BlockRecord* rec) const;

  DiskArray* disks_;
  LocalRaidConfig config_;
  RotatedLayout layout_;
  BlockNum stripes_;
  BlockNum data_blocks_;
  mutable OpCounts ops_;
  mutable std::unordered_map<BlockNum, Meta> meta_;
};

}  // namespace radd

#endif  // RADD_SCHEMES_LOCAL_RAID_H_
