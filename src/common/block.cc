#include "common/block.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace radd {

namespace internal {

namespace {

/// Unaligned-safe word loads/stores: memcpy compiles to single unaligned
/// move instructions on every target we care about, so the word loops
/// below need no alignment peeling.
inline uint64_t LoadU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
inline void StoreU64(uint8_t* p, uint64_t v) { std::memcpy(p, &v, sizeof(v)); }

}  // namespace

void XorBytes(uint8_t* dst, const uint8_t* src, size_t n) {
  size_t i = 0;
  // 4-word strides auto-vectorize to full-width SIMD XORs.
  for (; i + 32 <= n; i += 32) {
    StoreU64(dst + i, LoadU64(dst + i) ^ LoadU64(src + i));
    StoreU64(dst + i + 8, LoadU64(dst + i + 8) ^ LoadU64(src + i + 8));
    StoreU64(dst + i + 16, LoadU64(dst + i + 16) ^ LoadU64(src + i + 16));
    StoreU64(dst + i + 24, LoadU64(dst + i + 24) ^ LoadU64(src + i + 24));
  }
  for (; i + 8 <= n; i += 8) {
    StoreU64(dst + i, LoadU64(dst + i) ^ LoadU64(src + i));
  }
  for (; i < n; ++i) dst[i] ^= src[i];
}

namespace {

/// Accumulates the §7.4 encoded size of a mask fed to it as 64-byte zero
/// maps (bit j set iff byte j of the chunk is zero), in order.
///
/// Call a byte *covered* if it or one of the 8 bytes before it is nonzero.
/// From the first changed byte to the last, every covered byte costs one
/// wire byte: a changed byte is payload, a gap of g <= 8 zeros is shipped
/// inside its run (g bytes), and the first 8 zeros of a wider gap pay for
/// the 8-byte header of the run after it. Zeros past the eighth are free.
/// So the size is the mask and first-run headers plus the covered bytes,
/// less the (at most 8) covered bytes after the last changed one. The
/// scan counts the uncovered bytes with shift-and-AND over the zero maps,
/// and all-nonzero and all-zero chunks skip even that.
class RunSizer {
 public:
  void Add(uint64_t z) {
    if (z == 0) {
      // Every byte changed: all covered, and no zero run reaches past it.
      z1_ = z2_ = z4_ = 0;
      end_ = base_ + 64;
    } else if (z == ~uint64_t{0} && z1_ == ~uint64_t{0}) {
      // Deep inside a gap: nothing covered, every run map stays full.
      z2_ = z4_ = ~uint64_t{0};
      uncovered_ += 64;
    } else {
      // zk: bit j set iff bytes j-k+1 .. j are all zero, with the previous
      // chunk's maps shifted in from below.
      const uint64_t z2 = z & ((z << 1) | (z1_ >> 63));
      const uint64_t z4 = z2 & ((z2 << 2) | (z2_ >> 62));
      const uint64_t z8 = z4 & ((z4 << 4) | (z4_ >> 60));
      const uint64_t z9 = z8 & ((z << 8) | (z1_ >> 56));
      uncovered_ += static_cast<size_t>(std::popcount(z9));
      if (~z != 0) {
        end_ = base_ + 64 - static_cast<size_t>(std::countl_zero(~z));
      }
      z1_ = z;
      z2_ = z2;
      z4_ = z4;
    }
    base_ += 64;
  }

  /// The encoded size once every chunk (zero-padded to 64) has been added.
  size_t Size() const {
    constexpr size_t kRunHeader = 8;
    if (end_ == 0) return ChangeMask::kHeaderBytes;
    return ChangeMask::kHeaderBytes + kRunHeader + (base_ - uncovered_) -
           std::min(base_ - end_, kRunHeader);
  }

 private:
  // The previous chunk's z1/z2/z4 maps; the mask starts behind a gap.
  uint64_t z1_ = ~uint64_t{0};
  uint64_t z2_ = ~uint64_t{0};
  uint64_t z4_ = ~uint64_t{0};
  size_t uncovered_ = 0;
  size_t end_ = 0;  // one past the last nonzero byte so far; 0 = none yet
  size_t base_ = 0;
};

/// The chunk of `len` <= 64 bytes at offset i of a sized pass, a byte at a
/// time: with kXor, writes dst = a ^ b; either way returns the zero map of
/// the result (a itself without kXor), with bytes past `len` read as zero.
template <bool kXor>
uint64_t ScalarChunk(uint8_t* dst, const uint8_t* a, const uint8_t* b,
                     size_t i, size_t len) {
  uint64_t z = ~uint64_t{0};
  for (size_t k = 0; k < len; ++k) {
    uint8_t v = a[i + k];
    if constexpr (kXor) {
      v = static_cast<uint8_t>(v ^ b[i + k]);
      dst[i + k] = v;
    }
    if (v != 0) z &= ~(uint64_t{1} << k);
  }
  return z;
}

/// ScalarChunk of a whole 64-byte chunk, as four SSE2 vectors where the
/// target has them.
template <bool kXor>
inline uint64_t Chunk64(uint8_t* dst, const uint8_t* a, const uint8_t* b,
                        size_t i) {
#if defined(__SSE2__)
  const __m128i zero = _mm_setzero_si128();
  __m128i v[4];
  for (size_t k = 0; k < 4; ++k) {
    const size_t at = i + 16 * k;
    v[k] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + at));
    if constexpr (kXor) {
      v[k] = _mm_xor_si128(
          v[k], _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + at)));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + at), v[k]);
    }
  }
  // Most chunks of a mask are all changed (dense masks) or all zero
  // (sparse ones): one compare of the bytewise min, or of the OR, settles
  // those without building the map.
  const __m128i lo =
      _mm_min_epu8(_mm_min_epu8(v[0], v[1]), _mm_min_epu8(v[2], v[3]));
  if (_mm_movemask_epi8(_mm_cmpeq_epi8(lo, zero)) == 0) return 0;
  const __m128i any =
      _mm_or_si128(_mm_or_si128(v[0], v[1]), _mm_or_si128(v[2], v[3]));
  if (_mm_movemask_epi8(_mm_cmpeq_epi8(any, zero)) == 0xFFFF) {
    return ~uint64_t{0};
  }
  uint64_t z = 0;
  for (size_t k = 0; k < 4; ++k) {
    const uint32_t bits =
        static_cast<uint32_t>(_mm_movemask_epi8(_mm_cmpeq_epi8(v[k], zero)));
    z |= static_cast<uint64_t>(bits) << (16 * k);
  }
  return z;
#else
  return ScalarChunk<kXor>(dst, a, b, i, 64);
#endif
}

/// Sizes (and with kXor writes) a mask chunk by chunk. Pointers are only
/// offset inside the chunk functions, so the unused `dst` and `b` of a
/// scan may be null.
template <bool kXor>
size_t SizedPass(uint8_t* dst, const uint8_t* a, const uint8_t* b,
                 size_t n) {
  RunSizer sizer;
  size_t i = 0;
  for (; i + 64 <= n; i += 64) sizer.Add(Chunk64<kXor>(dst, a, b, i));
  if (i < n) sizer.Add(ScalarChunk<kXor>(dst, a, b, i, n - i));
  return sizer.Size();
}

}  // namespace

size_t XorBytesSized(uint8_t* dst, const uint8_t* a, const uint8_t* b,
                     size_t n) {
  return SizedPass<true>(dst, a, b, n);
}

size_t EncodedSizeOf(const uint8_t* p, size_t n) {
  return SizedPass<false>(nullptr, p, nullptr, n);
}

bool AllZero(const uint8_t* p, size_t n) {
  size_t i = 0;
  // OR-accumulate one cache line at a time with early exit.
  for (; i + 64 <= n; i += 64) {
    uint64_t acc = 0;
    for (size_t w = 0; w < 64; w += 8) acc |= LoadU64(p + i + w);
    if (acc != 0) return false;
  }
  for (; i + 8 <= n; i += 8) {
    if (LoadU64(p + i) != 0) return false;
  }
  for (; i < n; ++i) {
    if (p[i] != 0) return false;
  }
  return true;
}

}  // namespace internal

bool Block::IsZero() const {
  return internal::AllZero(data_.data(), data_.size());
}

void Block::Clear() {
  if (!data_.empty()) std::memset(data_.data(), 0, data_.size());
}

Status Block::XorWith(const Block& other) {
  if (other.size() != size()) {
    return Status::InvalidArgument("XOR of mismatched block sizes: " +
                                   std::to_string(size()) + " vs " +
                                   std::to_string(other.size()));
  }
  internal::XorBytes(data_.data(), other.data_.data(), data_.size());
  return Status::OK();
}

Status Block::WriteAt(size_t offset, const uint8_t* bytes, size_t n) {
  if (offset + n > data_.size()) {
    return Status::InvalidArgument(
        "write of " + std::to_string(n) + " bytes at offset " +
        std::to_string(offset) + " overruns block of " +
        std::to_string(data_.size()));
  }
  std::memcpy(data_.data() + offset, bytes, n);
  return Status::OK();
}

void Block::FillPattern(uint64_t seed) {
  // splitmix64 stream; deterministic and well-distributed.
  uint64_t x = seed;
  size_t i = 0;
  while (i < data_.size()) {
    x += 0x9e3779b97f4a7c15ULL;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    size_t n = std::min<size_t>(8, data_.size() - i);
    std::memcpy(data_.data() + i, &z, n);
    i += n;
  }
}

uint64_t Block::Checksum() const {
  // FNV-1a folded over 64-bit lanes (tail zero-padded, length mixed in at
  // the end so blocks differing only in trailing zeros still differ).
  uint64_t h = 0xcbf29ce484222325ULL;
  constexpr uint64_t kPrime = 0x100000001b3ULL;
  const uint8_t* p = data_.data();
  const size_t n = data_.size();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t w;
    std::memcpy(&w, p + i, 8);
    h = (h ^ w) * kPrime;
  }
  if (i < n) {
    uint64_t w = 0;
    std::memcpy(&w, p + i, n - i);
    h = (h ^ w) * kPrime;
  }
  return (h ^ static_cast<uint64_t>(n)) * kPrime;
}

Block Xor(const Block& a, const Block& b) {
  assert(a.size() == b.size());
  Block out = a;
  Status st = out.XorWith(b);
  (void)st;
  assert(st.ok());
  return out;
}

Status XorInto(Block* dst, const Block& a, const Block& b) {
  if (a.size() != b.size() || dst->size() != a.size()) {
    return Status::InvalidArgument("XorInto of mismatched block sizes: " +
                                   std::to_string(dst->size()) + ", " +
                                   std::to_string(a.size()) + ", " +
                                   std::to_string(b.size()));
  }
  internal::XorBytesSized(dst->data(), a.data(), b.data(), dst->size());
  return Status::OK();
}

Result<Block> XorAll(const std::vector<const Block*>& blocks) {
  if (blocks.empty()) {
    return Status::InvalidArgument("XorAll of empty group");
  }
  Block out(blocks[0]->size());
  RADD_RETURN_NOT_OK(XorAllInto(
      &out, blocks.size(),
      [&blocks](size_t i) -> const Block& { return *blocks[i]; }));
  return out;
}

Result<ChangeMask> ChangeMask::Diff(const Block& old_block,
                                    const Block& new_block) {
  if (old_block.size() != new_block.size()) {
    return Status::InvalidArgument("diff of mismatched block sizes");
  }
  Block delta(old_block.size());
  const size_t size = internal::XorBytesSized(
      delta.data(), old_block.data(), new_block.data(), delta.size());
  return ChangeMask(std::move(delta), size);
}

ChangeMask ChangeMask::FromFull(Block block) {
  const size_t size = internal::EncodedSizeOf(block.data(), block.size());
  return ChangeMask(std::move(block), size);
}

Status ChangeMask::ApplyTo(Block* target) const {
  if (target->size() != delta_.size()) {
    return Status::InvalidArgument("XOR of mismatched block sizes: " +
                                   std::to_string(target->size()) + " vs " +
                                   std::to_string(delta_.size()));
  }
  if (IsNoop()) return Status::OK();  // XOR with zero: no-op
  return target->XorWith(delta_);
}

size_t ChangeMask::ChangedBytes() const {
  if (IsNoop()) return 0;
  const uint8_t* p = delta_.data();
  const size_t n = delta_.size();
  size_t count = 0;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t w;
    std::memcpy(&w, p + i, 8);
    if (w == 0) continue;  // the common case for sparse masks
    for (size_t b = 0; b < 8; ++b) count += p[i + b] != 0;
  }
  for (; i < n; ++i) count += p[i] != 0;
  return count;
}

}  // namespace radd
