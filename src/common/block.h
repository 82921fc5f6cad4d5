// Disk block buffers and the XOR algebra the paper's parity maintenance
// rests on.
//
// Formula (1):  parity' = parity XOR (new_data XOR old_data)
// Formula (2):  failed  = XOR{ other blocks in the group }
//
// The "change mask" of W3(b) — "the bits in the block which changed value"
// — is exactly `new XOR old`; we also provide a compact run-length encoding
// of the mask so the network layer can account bytes the way §7.4 argues
// (a 100-byte record update in a 4 KB block ships ~100 bytes, not 4 KB).
//
// Performance: every RADD operation bottoms out here, so the kernels
// (XOR, zero test, diff) run word-at-a-time over uint64_t lanes or 16-byte
// SSE2 vectors with unaligned-safe head/tail handling. A change mask learns
// its §7.4 wire size in the same pass that writes its delta, so
// EncodedSize() and IsNoop() are reads, not scans. Byte-level semantics
// (including the §7.4 run coalescing rule) are unchanged —
// tests/block_kernel_test.cc checks the kernels against byte-wise
// references at awkward sizes.

#ifndef RADD_COMMON_BLOCK_H_
#define RADD_COMMON_BLOCK_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/status.h"

namespace radd {

namespace internal {
/// dst[i] ^= src[i] for i in [0, n). Word-at-a-time; any alignment.
void XorBytes(uint8_t* dst, const uint8_t* src, size_t n);
/// dst[i] = a[i] ^ b[i] for i in [0, n) (`dst` may be `a`), returning the
/// §7.4 encoded size of the result (ChangeMask::EncodedSize) from the same
/// pass.
size_t XorBytesSized(uint8_t* dst, const uint8_t* a, const uint8_t* b,
                     size_t n);
/// The §7.4 encoded size of the mask bytes [p, p+n).
size_t EncodedSizeOf(const uint8_t* p, size_t n);
/// True if every byte of [p, p+n) is zero.
bool AllZero(const uint8_t* p, size_t n);
}  // namespace internal

/// Index of a physical block (row) on a site's logical disk.
using BlockNum = uint64_t;

/// A fixed-size byte buffer representing one disk block's contents.
///
/// All blocks participating in one parity group must share a size; parity
/// arithmetic on mismatched sizes is a caller error.
class Block {
 public:
  /// Default block size used throughout the library (§7.4's 4 KB example).
  static constexpr size_t kDefaultSize = 4096;

  /// Creates an all-zero block of `size` bytes.
  explicit Block(size_t size = kDefaultSize) : data_(size, 0) {}

  /// Creates a block holding a copy of `bytes`.
  explicit Block(std::vector<uint8_t> bytes) : data_(std::move(bytes)) {}

  size_t size() const { return data_.size(); }
  const uint8_t* data() const { return data_.data(); }
  uint8_t* data() { return data_.data(); }
  const std::vector<uint8_t>& bytes() const { return data_; }

  /// Relinquishes the backing buffer (leaves this block empty). Lets a
  /// BlockArena recycle storage from a block that is done carrying data.
  std::vector<uint8_t> TakeBytes() && { return std::move(data_); }

  uint8_t operator[](size_t i) const { return data_[i]; }
  uint8_t& operator[](size_t i) { return data_[i]; }

  /// True if every byte is zero.
  bool IsZero() const;

  /// Sets all bytes to zero.
  void Clear();

  /// In-place XOR with `other`. Sizes must match.
  Status XorWith(const Block& other);

  /// Writes `bytes` at `offset`, as a record update would. Fails if the
  /// write would run off the end of the block.
  Status WriteAt(size_t offset, const uint8_t* bytes, size_t n);

  /// Fills the block with bytes derived deterministically from `seed`
  /// (useful for tests and workload generation).
  void FillPattern(uint64_t seed);

  /// 64-bit FNV-1a-style content identity, folded over uint64_t lanes
  /// (plus a length term). The chaos ledger and read-back checks compare
  /// blocks by it, where a 32-bit value would be too narrow over millions
  /// of comparisons. It is not the disk's integrity stamp: SimDisk stamps
  /// records with CRC32C (common/crc32c.h).
  uint64_t Checksum() const;

  friend bool operator==(const Block& a, const Block& b) {
    return a.data_ == b.data_;
  }
  friend bool operator!=(const Block& a, const Block& b) {
    return !(a == b);
  }

 private:
  std::vector<uint8_t> data_;
};

/// XOR of two blocks, returned by value. Sizes must match (asserted).
Block Xor(const Block& a, const Block& b);

/// Three-operand XOR kernel: *dst = a ^ b, no temporary. `dst` must
/// already have the operands' size (it is not resized).
Status XorInto(Block* dst, const Block& a, const Block& b);

/// Single-pass formula-(2) accumulation without pointer-vector churn:
/// XORs the `n` blocks produced by `at(0) .. at(n-1)` (each returning a
/// `const Block&`) into `*out`, which must already be sized to match.
template <typename BlockAt>
Status XorAllInto(Block* out, size_t n, BlockAt&& at) {
  if (n == 0) return Status::InvalidArgument("XorAll of empty group");
  const Block& first = at(size_t{0});
  if (out->size() != first.size()) {
    return Status::InvalidArgument("XorAll into mismatched block size");
  }
  std::memcpy(out->data(), first.data(), first.size());
  for (size_t i = 1; i < n; ++i) {
    const Block& b = at(i);
    if (b.size() != out->size()) {
      return Status::InvalidArgument("XorAll of mismatched block sizes");
    }
    internal::XorBytes(out->data(), b.data(), out->size());
  }
  return Status::OK();
}

/// XOR of a whole group of blocks — formula (2) reconstruction. Returns
/// InvalidArgument if `blocks` is empty or sizes differ.
Result<Block> XorAll(const std::vector<const Block*>& blocks);

/// The bitwise difference between an old and a new version of a block,
/// plus the size of its compact wire encoding.
///
/// Delivery semantics: applying a ChangeMask to a block XORs the delta in,
/// which is exactly the parity-site side of formula (1). Applying the same
/// mask to the old data block yields the new one.
///
/// Every mask carries its §7.4 encoded size, computed by the pass that
/// built the delta (Diff's XOR, FromFull's scan, the parity coalescer's
/// merge), so EncodedSize() and IsNoop() never rescan the delta.
class ChangeMask {
 public:
  /// Wire bytes of a mask with no runs: block number, mask version, etc.
  static constexpr size_t kHeaderBytes = 8;

  /// Computes `new_block XOR old_block`. Sizes must match.
  static Result<ChangeMask> Diff(const Block& old_block,
                                 const Block& new_block);

  /// A mask equal to the full contents of `block` (i.e. diff against an
  /// all-zero old block). Used when the old contents are unknown. Accepts
  /// the block by value so callers can move instead of copy; one scan
  /// learns its size.
  static ChangeMask FromFull(Block block);

  /// XORs the delta into `target` (formula (1) parity update, or forward
  /// application old -> new). Sizes must match. A no-op mask skips the
  /// XOR pass entirely.
  Status ApplyTo(Block* target) const;

  /// Size of the block this mask applies to.
  size_t block_size() const { return delta_.size(); }

  /// True if the mask changes nothing.
  bool IsNoop() const { return encoded_size_ == kHeaderBytes; }

  /// Number of bytes in which old and new differ.
  size_t ChangedBytes() const;

  /// Bytes this mask occupies on the wire under the §7.4 encoding:
  /// changed bytes are shipped as (offset, length, payload) runs behind an
  /// 8-byte run header; runs at most 8 bytes apart are coalesced. A no-op
  /// mask costs the header only.
  size_t EncodedSize() const { return encoded_size_; }

  const Block& delta() const { return delta_; }

  /// Relinquishes the delta block (e.g. to recycle its buffer after the
  /// mask has been applied).
  Block TakeDelta() && { return std::move(delta_); }

 private:
  ChangeMask(Block delta, size_t encoded_size)
      : delta_(std::move(delta)), encoded_size_(encoded_size) {}
  Block delta_;
  size_t encoded_size_;
};

}  // namespace radd

#endif  // RADD_COMMON_BLOCK_H_
