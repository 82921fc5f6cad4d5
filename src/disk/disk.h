// Simulated disks.
//
// A SimDisk is a pure state container: an array of B blocks, where each
// block carries its contents, the UID of the last write (zero = invalid,
// per paper §3.2), and — when the block serves as a parity block — the
// per-site UID array the paper requires for consistency-validated
// reconstruction. Latency is *not* modelled here; the site/controller layer
// charges costs from a DiskModel so that local and remote accesses can be
// accounted separately (Table 1).
//
// Failure injection: a failed disk loses all its blocks (media loss); reads
// return DataLoss until the block is rewritten (reconstruction). Two finer
// fault classes are injectable per block:
//   * latent sector errors — the medium reports an unreadable sector; the
//     read fails with DataLoss until the block is rewritten;
//   * silent corruption (bit rot) — the medium returns wrong bytes with no
//     error. Every write stamps the record with the CRC32C of its bytes
//     and every read verifies it, so rotted reads are *detected* and
//     surface as DataLoss (routed to formula-(2) reconstruction by the
//     RADD layer) instead of being returned to clients. A parity update
//     verifies the old stamp, XORs the mask in and computes the new stamp
//     in one pass over the block (common/crc32c.h).

#ifndef RADD_DISK_DISK_H_
#define RADD_DISK_DISK_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/block.h"
#include "common/status.h"
#include "common/uid.h"
#include "sim/simulator.h"

namespace radd {

/// Latency parameters of one disk (Table 1's R and W for local access).
/// Defaults are the paper's §7.3 numbers: R = W = 30 ms.
struct DiskModel {
  SimTime read_latency = Millis(30);
  SimTime write_latency = Millis(30);
};

/// The full record stored for one physical block.
struct BlockRecord {
  Block data;
  /// UID of the operation that last wrote this block; invalid (zero) means
  /// the block is in the paper's "invalid" state.
  Uid uid;
  /// For parity blocks only: UID of the latest update applied on behalf of
  /// each site in the group (indexed by position within the group).
  std::vector<Uid> uid_array;
  /// For spare blocks only: the UID the shadowed home block must carry
  /// when the spare is drained back during recovery. A degraded *write*
  /// sets this to the freshly minted UID it also sends to the parity
  /// site; a degraded-read *materialization* sets it to the parity UID
  /// array's entry for the home member, so the home-block/parity-array
  /// UID agreement survives recovery.
  Uid logical_uid;
  /// For spare blocks only: which group member this spare currently
  /// shadows (-1 = none). Under the single-failure assumption at most one
  /// member's content occupies a spare at a time; tracking it explicitly
  /// lets recovery detect double-failure artifacts instead of silently
  /// draining another member's data.
  int32_t spare_for = -1;
  /// Integrity stamp: the CRC32C of `data`, set by the disk on every write
  /// and kept nonzero (a CRC of 0 is stamped as 1), because 0 means
  /// untracked (never-written blocks). Read and ApplyMask verify it so
  /// silent corruption is detected instead of served or spread.
  uint32_t checksum = 0;

  explicit BlockRecord(size_t block_size) : data(block_size) {}
};

/// One simulated disk: `capacity` blocks of `block_size` bytes.
class SimDisk {
 public:
  SimDisk(BlockNum capacity, size_t block_size)
      : capacity_(capacity), block_size_(block_size) {}

  BlockNum capacity() const { return capacity_; }
  size_t block_size() const { return block_size_; }
  bool failed() const { return failed_; }

  /// Simulates a head crash / media failure: all blocks are lost. The disk
  /// stays addressable (a spare has been swapped in) but every block reads
  /// as DataLoss until rewritten.
  void Fail();

  /// Returns the record for `block`, or NotFound / DataLoss.
  /// An address that was never written reads as an all-zero block with an
  /// invalid UID (the paper's initial state).
  Result<BlockRecord> Read(BlockNum block) const;

  /// Overwrites `block` with `data`, stamping `uid`. Clears any loss mark
  /// and any spare bookkeeping (the block becomes a plain valid block).
  Status Write(BlockNum block, const Block& data, Uid uid);

  /// Overwrites the whole record for `block` (used for spare blocks,
  /// which carry extra bookkeeping). Clears any loss mark.
  Status WriteRecord(BlockNum block, const BlockRecord& record);

  /// Applies `mask` to the block in place (parity maintenance, formula (1))
  /// and records `uid` at `group_position` of the block's UID array, which
  /// is grown to `group_size` on first use (paper step W4). Returns
  /// DataLoss, leaving the block as it was, if the stored bytes fail their
  /// stamp.
  Status ApplyMask(BlockNum block, const ChangeMask& mask, Uid uid,
                   size_t group_position, size_t group_size);

  /// Marks `block` invalid (zero UID) without touching contents — e.g. a
  /// recovering site invalidating its spare after draining it.
  Status Invalidate(BlockNum block);

  /// Marks `block` lost (reads return DataLoss until rewritten) — used by
  /// layered stores to poison stale redundancy they can no longer repair.
  Status Discard(BlockNum block);

  /// Injects a latent sector error: reads of `block` fail with DataLoss
  /// (the medium reports the sector unreadable) until it is rewritten.
  /// Unlike Fail()/Discard() this does not mark the disk failed.
  Status InjectLatentError(BlockNum block);

  /// Injects silent corruption: flips `bits` pseudo-random bits (derived
  /// from `seed`) in the stored contents of `block` without updating the
  /// stamp, modelling bit rot the medium does not report. Returns false
  /// if the block is not materialized (nothing to rot).
  Result<bool> CorruptBlock(BlockNum block, uint64_t seed, int bits = 1);

  /// Reads and parity updates whose stamp check caught silent corruption.
  uint64_t corruptions_detected() const { return corruptions_detected_; }

  /// True if the block holds a valid (nonzero) UID.
  bool IsValid(BlockNum block) const;

  /// Number of blocks ever written (for space accounting in tests).
  size_t materialized_blocks() const { return blocks_.size(); }

  /// Number of blocks still lost to a media failure (0 once fully rebuilt).
  size_t lost_count() const { return lost_.size(); }

 private:
  Status CheckAddress(BlockNum block) const;
  BlockRecord& GetOrCreate(BlockNum block);
  /// DataLoss if `block` is lost or latent-errored; OK otherwise.
  Status CheckReadable(BlockNum block) const;

  BlockNum capacity_;
  size_t block_size_;
  bool failed_ = false;
  mutable uint64_t corruptions_detected_ = 0;
  /// Blocks lost to a media failure and not yet rewritten.
  std::unordered_map<BlockNum, bool> lost_;
  /// Blocks with an injected latent sector error, cleared on rewrite.
  std::unordered_map<BlockNum, bool> latent_;
  /// Sparse store: untouched blocks are implicit zero/invalid.
  std::unordered_map<BlockNum, BlockRecord> blocks_;
};

/// The disk system of one site: N disks of B blocks each, addressed by a
/// flat block number in [0, N*B). Paper §3.1's "N physical disks each with
/// B blocks ... managed by the local operating system".
class DiskArray {
 public:
  DiskArray(int num_disks, BlockNum blocks_per_disk, size_t block_size);

  int num_disks() const { return static_cast<int>(disks_.size()); }
  BlockNum blocks_per_disk() const { return blocks_per_disk_; }
  BlockNum total_blocks() const {
    return blocks_per_disk_ * static_cast<BlockNum>(disks_.size());
  }
  size_t block_size() const { return block_size_; }

  /// Which disk a flat block number lives on.
  int DiskOf(BlockNum block) const {
    return static_cast<int>(block / blocks_per_disk_);
  }

  /// Fails disk `d` (media loss of its blocks). Out-of-range is a no-op
  /// returning InvalidArgument.
  Status FailDisk(int d);

  /// True if the disk holding `block` has unrepaired loss marks.
  bool DiskFailed(int d) const;

  /// Flat-address forms of the SimDisk operations.
  Result<BlockRecord> Read(BlockNum block) const;
  Status Write(BlockNum block, const Block& data, Uid uid);
  Status WriteRecord(BlockNum block, const BlockRecord& record);
  Status ApplyMask(BlockNum block, const ChangeMask& mask, Uid uid,
                   size_t group_position, size_t group_size);
  Status Invalidate(BlockNum block);
  Status Discard(BlockNum block);
  Status InjectLatentError(BlockNum block);
  Result<bool> CorruptBlock(BlockNum block, uint64_t seed, int bits = 1);
  bool IsValid(BlockNum block) const;

  /// Stamp-detected corruptions summed over all disks.
  uint64_t corruptions_detected() const;

  /// Blocks on `disk` that are currently lost (need reconstruction).
  std::vector<BlockNum> LostBlocks() const;

 private:
  BlockNum blocks_per_disk_;
  size_t block_size_;
  std::vector<SimDisk> disks_;
};

}  // namespace radd

#endif  // RADD_DISK_DISK_H_
