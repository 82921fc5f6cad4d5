// CRC32C (Castagnoli, polynomial 0x1EDC6F41) over byte ranges.
//
// Two users stamp bytes with it: the frame codec (net/frame.h) checks every
// serialized payload so a receiver rejects frames that were truncated or
// bit-flipped in transit, and SimDisk (disk/disk.h) stamps every record it
// writes so a read catches silent corruption. CRC32C is the storage-stack
// convention (iSCSI, ext4, RocksDB) because its error-detection properties
// for short frames are well studied.
//
// On x86 CPUs with SSE4.2 and PCLMUL the kernel is the `crc32` instruction
// over 8-byte words, run as three interleaved streams whose partial CRCs
// are merged with carry-less multiplies. The kernel is chosen once, on
// first use, from the CPU's feature bits; every other CPU, and every
// non-x86 build, runs the portable one-table-lookup-per-byte form. Both
// kernels give the same value for every input.

#ifndef RADD_COMMON_CRC32C_H_
#define RADD_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace radd {

/// CRC32C of [data, data+n), with the conventional pre/post inversion.
/// Crc32c(nullptr, 0) == 0.
uint32_t Crc32c(const uint8_t* data, size_t n);

/// Incremental form: extends `crc` (a previous Crc32c result) with more
/// bytes, as if the two ranges had been checksummed in one call.
uint32_t Crc32cExtend(uint32_t crc, const uint8_t* data, size_t n);

namespace internal {
/// The two kernels behind the functions above, exposed so tests can hold
/// them to each other. The hardware one may only be called when
/// HardwareCrc32c() is true.
bool HardwareCrc32c();
uint32_t Crc32cExtendTable(uint32_t crc, const uint8_t* data, size_t n);
uint32_t Crc32cExtendHardware(uint32_t crc, const uint8_t* data, size_t n);
}  // namespace internal

}  // namespace radd

#endif  // RADD_COMMON_CRC32C_H_
