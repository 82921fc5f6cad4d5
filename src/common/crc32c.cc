#include "common/crc32c.h"

#include <array>
#include <cstring>

#if defined(__GNUC__) && defined(__x86_64__)
#include <immintrin.h>
#define RADD_CRC32C_X86 1
#endif

namespace radd {

namespace {

// The reflected form of 0x1EDC6F41: bytes are processed LSB-first, the
// same convention as the SSE4.2 crc32 instruction.
constexpr uint32_t kPoly = 0x82F63B78u;

// Table for the byte-at-a-time kernel, built once at startup.
std::array<uint32_t, 256> BuildTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0u);
    }
    table[i] = crc;
  }
  return table;
}

const std::array<uint32_t, 256>& Table() {
  static const std::array<uint32_t, 256> kTable = BuildTable();
  return kTable;
}

inline uint32_t TableStep(const std::array<uint32_t, 256>& table,
                          uint32_t crc, uint8_t byte) {
  return table[(crc ^ byte) & 0xFF] ^ (crc >> 8);
}

#if RADD_CRC32C_X86

#define RADD_CRC_HW __attribute__((target("sse4.2,pclmul")))

inline uint64_t Load64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

// x^k mod P, in the CRC register's reflected bit order (x^0 is the top bit;
// one multiply-by-x is one step of the bitwise CRC).
constexpr uint32_t XPowMod(uint64_t k) {
  uint32_t r = 0x80000000u;
  for (; k > 0; --k) r = (r >> 1) ^ ((r & 1) ? kPoly : 0u);
  return r;
}

// Bytes per stream in one three-stream stripe: long stripes carry the
// bulk of a 4 KiB frame, short ones most of what remains, and the last
// few words run as one stream.
constexpr size_t kLong = 1024;
constexpr size_t kShort = 128;

// Multiplying a raw CRC by x^(8*len) mod P moves it past `len` zero bytes,
// which is how a stream's CRC is carried over the streams after it. The
// carry-less product of the CRC with x^(8*len-33) holds that value times
// x^-33 in 64 bits; crc32 of the product then multiplies by x^32 and
// reduces, and the reflected bit order supplies the last factor of x.
constexpr uint32_t kLongShift = XPowMod(8 * kLong - 33);
constexpr uint32_t kShortShift = XPowMod(8 * kShort - 33);

RADD_CRC_HW inline uint64_t Shift(uint64_t crc, uint32_t k) {
  const __m128i product = _mm_clmulepi64_si128(
      _mm_cvtsi64_si128(static_cast<int64_t>(crc)),
      _mm_cvtsi32_si128(static_cast<int>(k)), 0);
  return _mm_crc32_u64(0, static_cast<uint64_t>(_mm_cvtsi128_si64(product)));
}

// Raw CRC (no inversion) of the 3*kLen bytes at p, continuing from c: the
// three thirds run as independent crc32 chains, so the instruction's
// three-cycle latency overlaps, and are merged at the end.
template <size_t kLen>
RADD_CRC_HW inline uint64_t Stripe(uint64_t c0, const uint8_t* p,
                                   uint32_t k) {
  uint64_t c1 = 0;
  uint64_t c2 = 0;
  for (size_t i = 0; i < kLen; i += 8) {
    c0 = _mm_crc32_u64(c0, Load64(p + i));
    c1 = _mm_crc32_u64(c1, Load64(p + kLen + i));
    c2 = _mm_crc32_u64(c2, Load64(p + 2 * kLen + i));
  }
  return Shift(Shift(c0, k) ^ c1, k) ^ c2;
}

#endif  // RADD_CRC32C_X86

using ExtendFn = uint32_t (*)(uint32_t, const uint8_t*, size_t);

// Chosen on first use; a function-local static, so concurrent first calls
// from the sharded engine's threads initialise it exactly once.
ExtendFn Selected() {
  static const ExtendFn kExtend = internal::HardwareCrc32c()
                                      ? internal::Crc32cExtendHardware
                                      : internal::Crc32cExtendTable;
  return kExtend;
}

}  // namespace

namespace internal {

bool HardwareCrc32c() {
#if RADD_CRC32C_X86
  static const bool kHave = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") &&
           __builtin_cpu_supports("pclmul");
  }();
  return kHave;
#else
  return false;
#endif
}

uint32_t Crc32cExtendTable(uint32_t crc, const uint8_t* data, size_t n) {
  const std::array<uint32_t, 256>& table = Table();
  crc = ~crc;
  for (size_t i = 0; i < n; ++i) crc = TableStep(table, crc, data[i]);
  return ~crc;
}

#if RADD_CRC32C_X86

RADD_CRC_HW uint32_t Crc32cExtendHardware(uint32_t crc, const uint8_t* data,
                                          size_t n) {
  uint64_t c = ~crc;
  for (; n >= 3 * kLong; data += 3 * kLong, n -= 3 * kLong) {
    c = Stripe<kLong>(c, data, kLongShift);
  }
  for (; n >= 3 * kShort; data += 3 * kShort, n -= 3 * kShort) {
    c = Stripe<kShort>(c, data, kShortShift);
  }
  for (; n >= 8; data += 8, n -= 8) c = _mm_crc32_u64(c, Load64(data));
  uint32_t c32 = static_cast<uint32_t>(c);
  for (; n > 0; ++data, --n) c32 = _mm_crc32_u8(c32, *data);
  return ~c32;
}

#else  // !RADD_CRC32C_X86: no hardware kernel; HardwareCrc32c() is false.

uint32_t Crc32cExtendHardware(uint32_t crc, const uint8_t* data, size_t n) {
  return Crc32cExtendTable(crc, data, n);
}

#endif  // RADD_CRC32C_X86

}  // namespace internal

uint32_t Crc32cExtend(uint32_t crc, const uint8_t* data, size_t n) {
  return Selected()(crc, data, n);
}

uint32_t Crc32c(const uint8_t* data, size_t n) {
  return Crc32cExtend(0, data, n);
}

}  // namespace radd
