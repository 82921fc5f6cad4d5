// Unit tests for the simulated disk and network substrates.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "disk/block_store.h"
#include "disk/disk.h"
#include "net/network.h"

namespace radd {
namespace {

Block Pat(uint64_t seed, size_t size = 256) {
  Block b(size);
  b.FillPattern(seed);
  return b;
}

// ---------------------------------------------------------------------------
// SimDisk.
// ---------------------------------------------------------------------------

TEST(SimDisk, UnwrittenBlockIsZeroInvalid) {
  SimDisk disk(16, 256);
  Result<BlockRecord> r = disk.Read(3);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->data.IsZero());
  EXPECT_FALSE(r->uid.valid());
  EXPECT_FALSE(disk.IsValid(3));
}

TEST(SimDisk, WriteReadRoundTrip) {
  SimDisk disk(16, 256);
  Uid u = Uid::Make(1, 7);
  ASSERT_TRUE(disk.Write(3, Pat(1), u).ok());
  Result<BlockRecord> r = disk.Read(3);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->data, Pat(1));
  EXPECT_EQ(r->uid, u);
  EXPECT_TRUE(disk.IsValid(3));
}

TEST(SimDisk, OutOfRangeRejected) {
  SimDisk disk(16, 256);
  EXPECT_TRUE(disk.Read(16).status().IsNotFound());
  EXPECT_TRUE(disk.Write(99, Pat(1), Uid::Make(1, 1)).IsNotFound());
}

TEST(SimDisk, WrongBlockSizeRejected) {
  SimDisk disk(16, 256);
  EXPECT_TRUE(disk.Write(0, Block(128), Uid::Make(1, 1)).IsInvalidArgument());
}

TEST(SimDisk, FailLosesEverythingUntilRewrite) {
  SimDisk disk(4, 256);
  ASSERT_TRUE(disk.Write(0, Pat(1), Uid::Make(1, 1)).ok());
  disk.Fail();
  EXPECT_TRUE(disk.failed());
  EXPECT_EQ(disk.lost_count(), 4u);
  EXPECT_TRUE(disk.Read(0).status().IsDataLoss());
  EXPECT_TRUE(disk.Read(3).status().IsDataLoss());  // even unwritten ones
  ASSERT_TRUE(disk.Write(0, Pat(2), Uid::Make(1, 2)).ok());
  EXPECT_EQ(disk.lost_count(), 3u);
  Result<BlockRecord> r = disk.Read(0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->data, Pat(2));
}

TEST(SimDisk, ApplyMaskXorsAndRecordsUid) {
  SimDisk disk(4, 256);
  ASSERT_TRUE(disk.Write(1, Pat(1), Uid::Make(1, 1)).ok());
  Result<ChangeMask> mask = ChangeMask::Diff(Pat(1), Pat(2));
  ASSERT_TRUE(mask.ok());
  Uid u = Uid::Make(3, 9);
  ASSERT_TRUE(disk.ApplyMask(1, *mask, u, 2, 6).ok());
  Result<BlockRecord> r = disk.Read(1);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->data, Pat(2));
  ASSERT_EQ(r->uid_array.size(), 6u);
  EXPECT_EQ(r->uid_array[2], u);
  EXPECT_FALSE(r->uid_array[0].valid());
}

TEST(SimDisk, ApplyMaskRejectsBadPosition) {
  SimDisk disk(4, 256);
  Result<ChangeMask> mask = ChangeMask::Diff(Block(256), Pat(1));
  ASSERT_TRUE(mask.ok());
  EXPECT_TRUE(
      disk.ApplyMask(0, *mask, Uid::Make(1, 1), 6, 6).IsInvalidArgument());
}

TEST(SimDisk, InvalidateClearsUidKeepsData) {
  SimDisk disk(4, 256);
  ASSERT_TRUE(disk.Write(0, Pat(1), Uid::Make(1, 1)).ok());
  ASSERT_TRUE(disk.Invalidate(0).ok());
  EXPECT_FALSE(disk.IsValid(0));
  Result<BlockRecord> r = disk.Read(0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->data, Pat(1));
}

TEST(SimDisk, WriteRecordPreservesSpareBookkeeping) {
  SimDisk disk(4, 256);
  BlockRecord rec(256);
  rec.data = Pat(5);
  rec.uid = Uid::Make(2, 2);
  rec.logical_uid = Uid::Make(4, 4);
  rec.spare_for = 3;
  ASSERT_TRUE(disk.WriteRecord(1, rec).ok());
  Result<BlockRecord> r = disk.Read(1);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->logical_uid, Uid::Make(4, 4));
  EXPECT_EQ(r->spare_for, 3);
  // A plain Write resets the bookkeeping.
  ASSERT_TRUE(disk.Write(1, Pat(6), Uid::Make(2, 3)).ok());
  r = disk.Read(1);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->logical_uid.valid());
  EXPECT_EQ(r->spare_for, -1);
}

// ---------------------------------------------------------------------------
// DiskArray.
// ---------------------------------------------------------------------------

TEST(DiskArray, FlatAddressingAcrossDisks) {
  DiskArray arr(4, 8, 256);
  EXPECT_EQ(arr.total_blocks(), 32u);
  EXPECT_EQ(arr.DiskOf(0), 0);
  EXPECT_EQ(arr.DiskOf(7), 0);
  EXPECT_EQ(arr.DiskOf(8), 1);
  EXPECT_EQ(arr.DiskOf(31), 3);
  ASSERT_TRUE(arr.Write(17, Pat(1), Uid::Make(1, 1)).ok());
  Result<BlockRecord> r = arr.Read(17);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->data, Pat(1));
}

TEST(DiskArray, FailDiskOnlyAffectsThatDisk) {
  DiskArray arr(4, 8, 256);
  ASSERT_TRUE(arr.Write(3, Pat(1), Uid::Make(1, 1)).ok());   // disk 0
  ASSERT_TRUE(arr.Write(20, Pat(2), Uid::Make(1, 2)).ok());  // disk 2
  ASSERT_TRUE(arr.FailDisk(2).ok());
  EXPECT_TRUE(arr.DiskFailed(2));
  EXPECT_FALSE(arr.DiskFailed(0));
  EXPECT_TRUE(arr.Read(20).status().IsDataLoss());
  EXPECT_TRUE(arr.Read(3).ok());
  std::vector<BlockNum> lost = arr.LostBlocks();
  EXPECT_EQ(lost.size(), 8u);
  for (BlockNum b : lost) EXPECT_EQ(arr.DiskOf(b), 2);
}

TEST(DiskArray, FailDiskOutOfRange) {
  DiskArray arr(2, 4, 256);
  EXPECT_TRUE(arr.FailDisk(5).IsInvalidArgument());
  EXPECT_TRUE(arr.FailDisk(-1).IsInvalidArgument());
}

TEST(PlainStore, CountsPhysicalOps) {
  DiskArray arr(1, 8, 256);
  PlainStore store(&arr);
  (void)store.Write(0, Pat(1), Uid::Make(1, 1));
  (void)store.Read(0);
  (void)store.Read(0);
  (void)store.Peek(0);  // uncounted
  OpCounts ops = store.PhysicalOps();
  EXPECT_EQ(ops.local_writes, 1u);
  EXPECT_EQ(ops.local_reads, 2u);
}

// ---------------------------------------------------------------------------
// Network.
// ---------------------------------------------------------------------------

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : net_(&sim_, NetworkModel{}, 7) {}

  Simulator sim_;
  Network net_;
};

TEST_F(NetworkTest, DeliversWithLatency) {
  SimTime delivered_at = 0;
  net_.RegisterHandler(1, [&](const Message&) { delivered_at = sim_.Now(); });
  Message m;
  m.from = 0;
  m.to = 1;
  m.wire_bytes = 100;
  net_.Send(std::move(m));
  sim_.Run();
  EXPECT_EQ(delivered_at, Micros(22500));
  EXPECT_EQ(net_.stats().Get("net.bytes"), 100u);
  EXPECT_EQ(net_.stats().Get("net.messages"), 1u);
}

TEST_F(NetworkTest, SelfSendIsFreeAndInstant) {
  int got = 0;
  net_.RegisterHandler(2, [&](const Message&) { ++got; });
  Message m;
  m.from = 2;
  m.to = 2;
  m.wire_bytes = 50;
  net_.Send(std::move(m));
  sim_.Run();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(net_.stats().Get("net.bytes"), 0u);
}

TEST_F(NetworkTest, PayloadRoundTrips) {
  uint64_t got = 0;
  net_.RegisterHandler(1, [&](const Message& m) {
    got = std::get<ReadReq>(m.payload).op;
  });
  Message m;
  m.from = 0;
  m.to = 1;
  m.type = MessageType::kReadReq;
  m.payload = ReadReq{42, 0, 0};
  net_.Send(std::move(m));
  sim_.Run();
  EXPECT_EQ(got, 42u);
}

TEST_F(NetworkTest, PartitionsBlockCrossTraffic) {
  int a_got = 0, b_got = 0;
  net_.RegisterHandler(0, [&](const Message&) { ++a_got; });
  net_.RegisterHandler(3, [&](const Message&) { ++b_got; });
  net_.SetPartitions({{0, 1, 2}, {3, 4}});
  EXPECT_TRUE(net_.CanCommunicate(0, 1));
  EXPECT_FALSE(net_.CanCommunicate(0, 3));

  Message cross;
  cross.from = 0;
  cross.to = 3;
  net_.Send(std::move(cross));
  Message within;
  within.from = 4;
  within.to = 3;
  net_.Send(std::move(within));
  sim_.Run();
  EXPECT_EQ(b_got, 1);
  EXPECT_EQ(net_.stats().Get("net.partition_blocked"), 1u);

  net_.Heal();
  EXPECT_TRUE(net_.CanCommunicate(0, 3));
  Message again;
  again.from = 0;
  again.to = 3;
  net_.Send(std::move(again));
  sim_.Run();
  EXPECT_EQ(b_got, 2);
}

TEST_F(NetworkTest, DropProbabilityLosesMessages) {
  net_.set_drop_probability(0.5);
  int got = 0;
  net_.RegisterHandler(1, [&](const Message&) { ++got; });
  for (int i = 0; i < 200; ++i) {
    Message m;
    m.from = 0;
    m.to = 1;
    net_.Send(std::move(m));
  }
  sim_.Run();
  EXPECT_GT(got, 60);
  EXPECT_LT(got, 140);
  EXPECT_EQ(net_.stats().Get("net.dropped") + static_cast<uint64_t>(got),
            200u);
}

TEST_F(NetworkTest, PerTypeByteAccounting) {
  net_.RegisterHandler(1, [](const Message&) {});
  Message m;
  m.from = 0;
  m.to = 1;
  m.type = MessageType::kParityBatch;
  m.wire_bytes = 132;
  net_.Send(std::move(m));
  sim_.Run();
  EXPECT_EQ(net_.stats().Get("net.bytes.parity_batch"), 132u);
  EXPECT_EQ(net_.stats().Get("net.messages.parity_batch"), 1u);
}

// ---------------------------------------------------------------------------
// Fault injection: latent sector errors, silent corruption, scripted and
// random network faults.
// ---------------------------------------------------------------------------

TEST(SimDisk, LatentErrorFailsReadsUntilRewrite) {
  SimDisk disk(4, 256);
  ASSERT_TRUE(disk.Write(1, Pat(1), Uid::Make(1, 1)).ok());
  ASSERT_TRUE(disk.InjectLatentError(1).ok());
  // The sector is unreadable, but the disk as a whole is healthy.
  EXPECT_TRUE(disk.Read(1).status().IsDataLoss());
  EXPECT_FALSE(disk.failed());
  EXPECT_TRUE(disk.Read(0).ok());  // other blocks unaffected
  // A rewrite (e.g. reconstruction writing the block back) clears it.
  ASSERT_TRUE(disk.Write(1, Pat(2), Uid::Make(1, 2)).ok());
  Result<BlockRecord> r = disk.Read(1);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->data, Pat(2));
}

TEST(SimDisk, SilentCorruptionIsCaughtByChecksum) {
  SimDisk disk(4, 256);
  ASSERT_TRUE(disk.Write(2, Pat(3), Uid::Make(1, 1)).ok());
  Result<bool> rotted = disk.CorruptBlock(2, /*seed=*/42, /*bits=*/3);
  ASSERT_TRUE(rotted.ok());
  EXPECT_TRUE(*rotted);
  // The end-to-end checksum turns silent bit rot into detected DataLoss
  // instead of serving the rotten bytes.
  EXPECT_TRUE(disk.Read(2).status().IsDataLoss());
  EXPECT_GE(disk.corruptions_detected(), 1u);
  // A fresh write restores the block.
  ASSERT_TRUE(disk.Write(2, Pat(4), Uid::Make(1, 2)).ok());
  Result<BlockRecord> r = disk.Read(2);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->data, Pat(4));
}

TEST(SimDisk, RotFailsReadPeekAndApplyMaskWithOneCountEach) {
  DiskArray disks(1, 4, 256);
  PlainStore store(&disks);
  ASSERT_TRUE(store.Write(1, Pat(5), Uid::Make(1, 1)).ok());
  ASSERT_TRUE(disks.CorruptBlock(1, /*seed=*/9).value());
  EXPECT_TRUE(store.Read(1).status().IsDataLoss());
  EXPECT_EQ(disks.corruptions_detected(), 1u);
  EXPECT_TRUE(store.Peek(1).status().IsDataLoss());
  EXPECT_EQ(disks.corruptions_detected(), 2u);
  // A parity update onto rotted bytes is refused and leaves them as they
  // were, so the rot stays detectable rather than being folded in.
  Block changed = Pat(5);
  changed[7] ^= 0x5A;
  ChangeMask mask = ChangeMask::Diff(Pat(5), changed).value();
  EXPECT_TRUE(
      store.ApplyMask(1, mask, Uid::Make(2, 1), 0, 3).IsDataLoss());
  EXPECT_EQ(disks.corruptions_detected(), 3u);
  EXPECT_TRUE(store.Read(1).status().IsDataLoss());
  EXPECT_EQ(disks.corruptions_detected(), 4u);
  // A no-op mask is checked too.
  ChangeMask noop = ChangeMask::Diff(Pat(5), Pat(5)).value();
  ASSERT_TRUE(noop.IsNoop());
  EXPECT_TRUE(
      store.ApplyMask(1, noop, Uid::Make(2, 2), 0, 3).IsDataLoss());
  EXPECT_EQ(disks.corruptions_detected(), 5u);
}

TEST(SimDisk, WrittenZeroBlockIsStamped) {
  SimDisk disk(4, 256);
  ASSERT_TRUE(disk.Write(0, Block(256), Uid::Make(1, 1)).ok());
  Result<BlockRecord> r = disk.Read(0);
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r->checksum, 0u);  // tracked, so rot of zeros is caught
  ASSERT_TRUE(disk.CorruptBlock(0, /*seed=*/3).value());
  EXPECT_TRUE(disk.Read(0).status().IsDataLoss());
  EXPECT_EQ(disk.corruptions_detected(), 1u);
}

TEST(SimDisk, ApplyMaskRestampsInTheSamePass) {
  SimDisk disk(4, 4096);
  ASSERT_TRUE(disk.Write(2, Pat(6, 4096), Uid::Make(1, 1)).ok());
  Block changed = Pat(6, 4096);
  for (size_t i = 100; i < 300; ++i) changed[i] ^= 0xC3;
  ChangeMask mask = ChangeMask::Diff(Pat(6, 4096), changed).value();
  ASSERT_TRUE(disk.ApplyMask(2, mask, Uid::Make(1, 2), 1, 3).ok());
  // The new stamp matches the new bytes: reads verify and return them.
  Result<BlockRecord> r = disk.Read(2);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->data, changed);
  // Rot after the update is still caught by the refreshed stamp.
  ASSERT_TRUE(disk.CorruptBlock(2, /*seed=*/11).value());
  EXPECT_TRUE(disk.Read(2).status().IsDataLoss());
  EXPECT_EQ(disk.corruptions_detected(), 1u);
}

TEST(SimDisk, RewriteClearsRot) {
  SimDisk disk(4, 256);
  ASSERT_TRUE(disk.Write(3, Pat(7), Uid::Make(1, 1)).ok());
  ASSERT_TRUE(disk.CorruptBlock(3, /*seed=*/1, /*bits=*/8).value());
  EXPECT_TRUE(disk.Read(3).status().IsDataLoss());
  // WriteRecord restamps whatever stamp the caller's record carried.
  BlockRecord rec(256);
  rec.data = Pat(8);
  rec.uid = Uid::Make(1, 2);
  rec.checksum = 12345;
  ASSERT_TRUE(disk.WriteRecord(3, rec).ok());
  Result<BlockRecord> r = disk.Read(3);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->data, Pat(8));
  EXPECT_NE(r->checksum, 12345u);
  EXPECT_EQ(disk.corruptions_detected(), 1u);
}

TEST(SimDisk, CorruptingUnmaterializedBlockIsANoOp) {
  SimDisk disk(4, 256);
  Result<bool> rotted = disk.CorruptBlock(0, /*seed=*/7);
  ASSERT_TRUE(rotted.ok());
  EXPECT_FALSE(*rotted);  // nothing stored, nothing to rot
  EXPECT_TRUE(disk.Read(0).ok());
}

TEST_F(NetworkTest, FaultHookDropsAreCountedPerType) {
  int got = 0;
  net_.RegisterHandler(1, [&](const Message&) { ++got; });
  net_.SetFaultHook("parity_batch",
                    [](const Message&) { return FaultAction::kDrop; });
  for (int i = 0; i < 5; ++i) {
    Message m;
    m.from = 0;
    m.to = 1;
    m.type = (i % 2 == 0) ? MessageType::kParityBatch
                           : MessageType::kWriteReq;
    net_.Send(std::move(m));
  }
  sim_.Run();
  EXPECT_EQ(got, 2);  // only the write_reqs survive
  EXPECT_EQ(net_.stats().Get("net.dropped"), 3u);
  EXPECT_EQ(net_.stats().Get("net.drop.parity_batch"), 3u);
  EXPECT_EQ(net_.stats().Get("net.drop.write_req"), 0u);
}

TEST_F(NetworkTest, FaultHookDuplicatesAreCountedPerType) {
  int got = 0;
  net_.RegisterHandler(1, [&](const Message&) { ++got; });
  net_.SetFaultHook("parity_batch_ack",
                    [](const Message&) { return FaultAction::kDuplicate; });
  Message m;
  m.from = 0;
  m.to = 1;
  m.type = MessageType::kParityBatchAck;
  net_.Send(std::move(m));
  sim_.Run();
  EXPECT_EQ(got, 2);
  EXPECT_EQ(net_.stats().Get("net.duplicated"), 1u);
  EXPECT_EQ(net_.stats().Get("net.dup.parity_batch_ack"), 1u);
}

TEST_F(NetworkTest, RandomDuplicatesAreCountedPerType) {
  net_.set_duplicate_probability(1.0);
  int got = 0;
  net_.RegisterHandler(1, [&](const Message&) { ++got; });
  for (int i = 0; i < 10; ++i) {
    Message m;
    m.from = 0;
    m.to = 1;
    m.type = MessageType::kWriteReq;
    net_.Send(std::move(m));
  }
  sim_.Run();
  EXPECT_EQ(got, 20);
  EXPECT_EQ(net_.stats().Get("net.duplicated"), 10u);
  EXPECT_EQ(net_.stats().Get("net.dup.write_req"), 10u);
}

TEST_F(NetworkTest, ReorderJitterReordersAndCounts) {
  net_.set_reorder_jitter(Millis(50));
  std::vector<uint64_t> order;
  net_.RegisterHandler(1, [&](const Message& m) { order.push_back(m.seq); });
  for (int i = 0; i < 50; ++i) {
    Message m;
    m.from = 0;
    m.to = 1;
    m.type = MessageType::kWriteReq;
    net_.Send(std::move(m));
  }
  sim_.Run();
  ASSERT_EQ(order.size(), 50u);
  EXPECT_FALSE(std::is_sorted(order.begin(), order.end()))
      << "jitter this large must overtake some earlier send";
  EXPECT_GT(net_.stats().Get("net.reordered"), 0u);
  EXPECT_EQ(net_.stats().Get("net.reorder.write_req"),
            net_.stats().Get("net.reordered"));
}

}  // namespace
}  // namespace radd
