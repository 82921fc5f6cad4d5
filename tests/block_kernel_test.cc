// The word-at-a-time block kernels against byte-wise references, at
// awkward sizes (0, 1, 7, 9, 4095, 4097, ...) and unaligned offsets where
// the head/tail handling earns its keep, plus the BlockArena free-list.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/block.h"
#include "common/block_arena.h"
#include "common/rng.h"
#include "core/parity_coalescer.h"

namespace radd {
namespace {

const size_t kAwkwardSizes[] = {0, 1, 7, 8, 9, 15, 63, 64, 65,
                                511, 4095, 4096, 4097};

Block RandomBlock(size_t n, Rng* rng) {
  Block b(n);
  for (size_t i = 0; i < n; ++i) {
    b[i] = static_cast<uint8_t>(rng->Uniform(256));
  }
  return b;
}

// --- byte-wise references --------------------------------------------------

Block ReferenceXor(const Block& a, const Block& b) {
  Block out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] ^ b[i];
  return out;
}

bool ReferenceIsZero(const Block& b) {
  for (size_t i = 0; i < b.size(); ++i) {
    if (b[i] != 0) return false;
  }
  return true;
}

/// The original byte-serial §7.4 encoder, kept verbatim as the spec the
/// word-hopping run scan must match (EncodedSize feeds net.bytes stats, so
/// any divergence breaks deterministic benchmark outputs).
size_t ReferenceEncodedSize(const Block& delta) {
  constexpr size_t kRunHeader = 8;
  constexpr size_t kMaskHeader = 8;
  size_t total = kMaskHeader;
  size_t i = 0;
  const size_t n = delta.size();
  while (i < n) {
    if (delta[i] == 0) {
      ++i;
      continue;
    }
    size_t end = i + 1;
    size_t last_nonzero = i;
    while (end < n) {
      if (delta[end] != 0) {
        last_nonzero = end;
        ++end;
      } else if (end - last_nonzero <= kRunHeader) {
        ++end;
      } else {
        break;
      }
    }
    total += kRunHeader + (last_nonzero - i + 1);
    i = last_nonzero + 1;
  }
  return total;
}

// --- XOR kernels -----------------------------------------------------------

TEST(BlockKernel, XorWithMatchesByteReferenceAtAwkwardSizes) {
  Rng rng(1);
  for (size_t n : kAwkwardSizes) {
    Block a = RandomBlock(n, &rng);
    Block b = RandomBlock(n, &rng);
    Block expected = ReferenceXor(a, b);
    Block got = a;
    ASSERT_TRUE(got.XorWith(b).ok()) << "n=" << n;
    EXPECT_EQ(got, expected) << "n=" << n;
  }
}

TEST(BlockKernel, XorIntoEqualsXorUnderRandomSeeds) {
  Rng rng(42);
  for (int round = 0; round < 50; ++round) {
    size_t n = kAwkwardSizes[static_cast<size_t>(
        rng.Uniform(sizeof(kAwkwardSizes) / sizeof(kAwkwardSizes[0])))];
    Block a = RandomBlock(n, &rng);
    Block b = RandomBlock(n, &rng);
    Block dst(n);
    ASSERT_TRUE(XorInto(&dst, a, b).ok());
    EXPECT_EQ(dst, Xor(a, b)) << "n=" << n << " round=" << round;
    EXPECT_EQ(dst, ReferenceXor(a, b));
  }
}

TEST(BlockKernel, XorIntoRejectsMismatchedSizes) {
  Block a(16), b(16), small(8);
  EXPECT_FALSE(XorInto(&small, a, b).ok());
  Block dst(16);
  EXPECT_FALSE(XorInto(&dst, a, small).ok());
}

TEST(BlockKernel, XorSelfInverse) {
  Rng rng(7);
  Block a = RandomBlock(4097, &rng);
  Block b = RandomBlock(4097, &rng);
  Block x = a;
  ASSERT_TRUE(x.XorWith(b).ok());
  ASSERT_TRUE(x.XorWith(b).ok());
  EXPECT_EQ(x, a);
}

TEST(BlockKernel, XorAllIntoMatchesXorAll) {
  Rng rng(9);
  std::vector<Block> blocks;
  for (int i = 0; i < 5; ++i) blocks.push_back(RandomBlock(4095, &rng));
  std::vector<const Block*> ptrs;
  for (const Block& b : blocks) ptrs.push_back(&b);
  Result<Block> via_vector = XorAll(ptrs);
  ASSERT_TRUE(via_vector.ok());
  Block via_into(4095);
  ASSERT_TRUE(XorAllInto(&via_into, blocks.size(),
                         [&](size_t i) -> const Block& {
                           return blocks[i];
                         })
                  .ok());
  EXPECT_EQ(via_into, *via_vector);
}

// --- zero test / clear -----------------------------------------------------

TEST(BlockKernel, IsZeroMatchesByteReference) {
  for (size_t n : kAwkwardSizes) {
    Block z(n);
    EXPECT_TRUE(z.IsZero()) << "n=" << n;
    EXPECT_EQ(z.IsZero(), ReferenceIsZero(z));
    // A single nonzero byte anywhere must be found — probe first, last,
    // and a middle position (covers unaligned head, word body, and tail).
    for (size_t pos : {size_t{0}, n / 2, n - 1}) {
      if (n == 0) continue;
      Block b(n);
      b[pos] = 1;
      EXPECT_FALSE(b.IsZero()) << "n=" << n << " pos=" << pos;
      EXPECT_EQ(b.IsZero(), ReferenceIsZero(b));
    }
  }
}

TEST(BlockKernel, ClearZeroesEveryByte) {
  Rng rng(11);
  for (size_t n : kAwkwardSizes) {
    Block b = RandomBlock(n, &rng);
    b.Clear();
    EXPECT_TRUE(b.IsZero()) << "n=" << n;
  }
}

// --- unaligned WriteAt -----------------------------------------------------

TEST(BlockKernel, WriteAtUnalignedOffsetsThenKernelsAgree) {
  const uint8_t payload[13] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13};
  for (size_t offset : {size_t{0}, size_t{1}, size_t{3}, size_t{7},
                        size_t{9}, size_t{4083}}) {
    Block a(4096), b(4096);
    ASSERT_TRUE(a.WriteAt(offset, payload, sizeof(payload)).ok());
    // The diff of (written, empty) must flag exactly the written bytes.
    Result<ChangeMask> mask = ChangeMask::Diff(b, a);
    ASSERT_TRUE(mask.ok());
    EXPECT_EQ(mask->ChangedBytes(), sizeof(payload)) << "offset=" << offset;
    EXPECT_EQ(mask->EncodedSize(), ReferenceEncodedSize(mask->delta()));
    // Applying the mask to the empty block reproduces the written one.
    Block reapplied(4096);
    ASSERT_TRUE(mask->ApplyTo(&reapplied).ok());
    EXPECT_EQ(reapplied, a) << "offset=" << offset;
  }
}

TEST(BlockKernel, WriteAtRejectsOverrun) {
  Block b(16);
  uint8_t byte = 1;
  EXPECT_FALSE(b.WriteAt(16, &byte, 1).ok());
  EXPECT_TRUE(b.WriteAt(15, &byte, 1).ok());
}

// --- change-mask encoder ---------------------------------------------------

TEST(BlockKernel, EncodedSizeMatchesByteSerialEncoder) {
  Rng rng(23);
  for (int round = 0; round < 200; ++round) {
    size_t n = kAwkwardSizes[static_cast<size_t>(
        rng.Uniform(sizeof(kAwkwardSizes) / sizeof(kAwkwardSizes[0])))];
    Block old_block = RandomBlock(n, &rng);
    Block new_block = old_block;
    // Sprinkle a random number of changed runs, including gap widths right
    // at the coalescing boundary (8 and 9 zero bytes apart).
    uint64_t changes = rng.Uniform(8);
    for (uint64_t c = 0; c < changes && n > 0; ++c) {
      size_t at = static_cast<size_t>(rng.Uniform(n));
      size_t len = 1 + static_cast<size_t>(rng.Uniform(12));
      for (size_t i = at; i < at + len && i < n; ++i) new_block[i] ^= 0xA5;
    }
    Result<ChangeMask> mask = ChangeMask::Diff(old_block, new_block);
    ASSERT_TRUE(mask.ok());
    EXPECT_EQ(mask->EncodedSize(), ReferenceEncodedSize(mask->delta()))
        << "n=" << n << " round=" << round;
  }
}

TEST(BlockKernel, EncoderCoalescingBoundary) {
  // Two changed bytes exactly 8 zeros apart coalesce into one run; 9 zeros
  // apart split into two runs.
  Block old_block(64), coalesced(64), split(64);
  coalesced[10] = 1;
  coalesced[19] = 1;  // gap of 8 -> one run of length 10
  split[10] = 1;
  split[20] = 1;  // gap of 9 -> two runs of length 1
  Result<ChangeMask> m1 = ChangeMask::Diff(old_block, coalesced);
  Result<ChangeMask> m2 = ChangeMask::Diff(old_block, split);
  ASSERT_TRUE(m1.ok() && m2.ok());
  EXPECT_EQ(m1->EncodedSize(), 8u + 8u + 10u);
  EXPECT_EQ(m2->EncodedSize(), 8u + (8u + 1u) + (8u + 1u));
  EXPECT_EQ(m1->EncodedSize(), ReferenceEncodedSize(m1->delta()));
  EXPECT_EQ(m2->EncodedSize(), ReferenceEncodedSize(m2->delta()));
}

TEST(BlockKernel, IdenticalBlocksShortCircuit) {
  Rng rng(31);
  Block a = RandomBlock(4096, &rng);
  Block b = a;
  Result<ChangeMask> mask = ChangeMask::Diff(a, b);
  ASSERT_TRUE(mask.ok());
  EXPECT_TRUE(mask->IsNoop());
  EXPECT_EQ(mask->ChangedBytes(), 0u);
  EXPECT_EQ(mask->EncodedSize(), 8u);  // mask header only, no run scan
  EXPECT_EQ(mask->EncodedSize(), ReferenceEncodedSize(mask->delta()));
  // Applying a no-op mask changes nothing.
  Block target = RandomBlock(4096, &rng);
  Block before = target;
  ASSERT_TRUE(mask->ApplyTo(&target).ok());
  EXPECT_EQ(target, before);
}

TEST(BlockKernel, FromFullMaskDetectsNoopLazily) {
  ChangeMask zero_mask = ChangeMask::FromFull(Block(256));
  EXPECT_TRUE(zero_mask.IsNoop());
  EXPECT_EQ(zero_mask.EncodedSize(), 8u);
  Block nonzero(256);
  nonzero[255] = 9;
  ChangeMask mask = ChangeMask::FromFull(std::move(nonzero));
  EXPECT_FALSE(mask.IsNoop());
}

// --- carried encoded size --------------------------------------------------
//
// Every mask carries the size learned by the pass that built it; each case
// checks that size and IsNoop against the byte-serial reference encoder,
// for masks built by Diff and by FromFull.

void ExpectCarriedSize(const Block& delta, const std::string& what) {
  const size_t want = ReferenceEncodedSize(delta);
  Result<ChangeMask> diffed = ChangeMask::Diff(Block(delta.size()), delta);
  ASSERT_TRUE(diffed.ok());
  EXPECT_EQ(diffed->EncodedSize(), want) << what;
  EXPECT_EQ(diffed->IsNoop(), ReferenceIsZero(delta)) << what;
  const ChangeMask full = ChangeMask::FromFull(delta);
  EXPECT_EQ(full.EncodedSize(), want) << what;
  EXPECT_EQ(full.IsNoop(), ReferenceIsZero(delta)) << what;
}

const size_t kSizedLengths[] = {1,  5,   8,   13,  63,  64,   65,   127,
                                128, 129, 200, 511, 513, 4095, 4096, 4101};

TEST(CarriedSize, RandomSparseAndDenseMasks) {
  Rng rng(61);
  for (int round = 0; round < 400; ++round) {
    const size_t n = kSizedLengths[static_cast<size_t>(
        rng.Uniform(sizeof(kSizedLengths) / sizeof(kSizedLengths[0])))];
    // Density from one changed byte in 256 to every byte.
    const uint64_t per256 = 1 + rng.Uniform(256);
    Block delta(n);
    for (size_t i = 0; i < n; ++i) {
      if (rng.Uniform(256) < per256) {
        delta[i] = static_cast<uint8_t>(1 + rng.Uniform(255));
      }
    }
    ExpectCarriedSize(delta, "n=" + std::to_string(n) +
                                 " per256=" + std::to_string(per256));
  }
}

TEST(CarriedSize, GapsOfEightAndNineAtEveryOffset) {
  // Two changed bytes 8 zeros apart share a run; 9 zeros apart they do
  // not. Sliding the pair across a 192-byte mask puts the gap inside a
  // word, across word boundaries and across the 64-byte chunks of the
  // size pass.
  for (size_t gap : {size_t{7}, size_t{8}, size_t{9}, size_t{10}}) {
    for (size_t at = 0; at + gap + 1 < 192; ++at) {
      Block delta(192);
      delta[at] = 1;
      delta[at + gap + 1] = 2;
      ExpectCarriedSize(delta, "gap=" + std::to_string(gap) +
                                   " at=" + std::to_string(at));
    }
  }
}

TEST(CarriedSize, RunsStraddlingWordAndChunkBoundaries) {
  for (size_t len : {size_t{2}, size_t{9}, size_t{17}, size_t{70}}) {
    for (size_t at = 0; at + len <= 260; at += 3) {
      Block delta(260);
      for (size_t i = at; i < at + len; ++i) delta[i] = 0xFF;
      ExpectCarriedSize(delta, "len=" + std::to_string(len) +
                                   " at=" + std::to_string(at));
      // The same run with a hole punched in it, and a second run at the
      // end of the block.
      delta[at + len / 2] = 0;
      delta[259] = 4;
      ExpectCarriedSize(delta, "holed len=" + std::to_string(len) +
                                   " at=" + std::to_string(at));
    }
  }
}

TEST(CarriedSize, AllZeroAndAllNonzeroMasks) {
  for (size_t n : kSizedLengths) {
    ExpectCarriedSize(Block(n), "zero n=" + std::to_string(n));
    EXPECT_EQ(ChangeMask::FromFull(Block(n)).EncodedSize(),
              ChangeMask::kHeaderBytes);
    Block full(n);
    for (size_t i = 0; i < n; ++i) full[i] = static_cast<uint8_t>(i | 1);
    ExpectCarriedSize(full, "full n=" + std::to_string(n));
    EXPECT_EQ(ChangeMask::FromFull(full).EncodedSize(), 16 + n);
  }
  ExpectCarriedSize(Block(0), "empty");
}

TEST(CarriedSize, CoalescerMergesCarryTheMergedSize) {
  Rng rng(67);
  Block base = RandomBlock(4096, &rng);
  auto sparse_edit = [&](const Block& from) {
    Block to = from;
    for (int k = 0; k < 3; ++k) {
      const size_t at = static_cast<size_t>(rng.Uniform(4000));
      const size_t len = 1 + static_cast<size_t>(rng.Uniform(90));
      for (size_t i = at; i < at + len; ++i) to[i] ^= 0x3C;
    }
    return to;
  };
  const Block v1 = sparse_edit(base);
  const Block v2 = sparse_edit(v1);
  const Block v3 = sparse_edit(v2);

  ParityCoalescer c;
  c.Add(7, 1, ChangeMask::Diff(base, v1).value(), Uid::Make(1, 1), 0, 1);
  c.Add(7, 1, ChangeMask::Diff(v1, v2).value(), Uid::Make(1, 2), 0, 2);
  c.Add(7, 1, ChangeMask::Diff(v2, v3).value(), Uid::Make(1, 3), 0, 3);
  // A second key whose updates cancel: v1 then back to base.
  c.Add(8, 1, ChangeMask::Diff(base, v1).value(), Uid::Make(1, 4), 0, 4);
  c.Add(8, 1, ChangeMask::Diff(v1, base).value(), Uid::Make(1, 5), 0, 5);
  ASSERT_EQ(c.entry_count(), 2u);

  const size_t want_merged =
      ReferenceEncodedSize(ChangeMask::Diff(base, v3).value().delta());
  EXPECT_EQ(c.staged_bytes(), want_merged + ChangeMask::kHeaderBytes);
  std::vector<ParityCoalescer::Entry> taken = c.TakeEligible({});
  ASSERT_EQ(taken.size(), 2u);
  EXPECT_EQ(taken[0].delta, ChangeMask::Diff(base, v3).value().delta());
  EXPECT_EQ(taken[0].encoded_bytes, want_merged);
  EXPECT_TRUE(ReferenceIsZero(taken[1].delta));
  EXPECT_EQ(taken[1].encoded_bytes, ChangeMask::kHeaderBytes);
  EXPECT_TRUE(ChangeMask::FromFull(taken[1].delta).IsNoop());
}

// --- checksum --------------------------------------------------------------

TEST(BlockKernel, ChecksumDiscriminates) {
  Rng rng(47);
  for (size_t n : kAwkwardSizes) {
    Block a = RandomBlock(n, &rng);
    Block same = a;
    EXPECT_EQ(a.Checksum(), same.Checksum()) << "n=" << n;
    if (n == 0) continue;
    Block flipped = a;
    flipped[n - 1] ^= 1;  // a tail-byte flip must reach the digest
    EXPECT_NE(a.Checksum(), flipped.Checksum()) << "n=" << n;
  }
  // Length participates: zeros of different sizes digest differently.
  EXPECT_NE(Block(8).Checksum(), Block(16).Checksum());
}

// --- BlockArena ------------------------------------------------------------

TEST(BlockArena, LeaseIsZeroedAndSized) {
  BlockArena arena(512);
  Block b = arena.Lease();
  EXPECT_EQ(b.size(), 512u);
  EXPECT_TRUE(b.IsZero());
}

TEST(BlockArena, ReturnedBufferIsRecycledZeroed) {
  BlockArena arena(512);
  Block b = arena.Lease();
  b.FillPattern(3);
  arena.Return(std::move(b));
  EXPECT_EQ(arena.free_count(), 1u);
  Block again = arena.Lease();
  EXPECT_EQ(arena.reuses(), 1u);
  EXPECT_EQ(arena.free_count(), 0u);
  EXPECT_TRUE(again.IsZero());  // recycled storage must be re-zeroed
}

TEST(BlockArena, WrongSizeReturnIsDropped) {
  BlockArena arena(512);
  arena.Return(Block(4096));
  EXPECT_EQ(arena.free_count(), 0u);
}

TEST(BlockArena, FreeListIsBounded) {
  BlockArena arena(64, /*max_free=*/2);
  arena.Return(Block(64));
  arena.Return(Block(64));
  arena.Return(Block(64));
  EXPECT_EQ(arena.free_count(), 2u);
}

TEST(BlockArena, LeaseCopyOfCopiesContents) {
  BlockArena arena(256);
  arena.Return(Block(256));  // prime the free list
  Block src(256);
  src.FillPattern(5);
  Block copy = arena.LeaseCopyOf(src);
  EXPECT_EQ(copy, src);
  EXPECT_GE(arena.reuses(), 1u);
}

}  // namespace
}  // namespace radd
