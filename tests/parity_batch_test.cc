// Tests for the batched parity pipeline (DESIGN.md §10): the coalescer's
// XOR-merge rules, flush thresholds, and the end-to-end protocol with
// batching enabled — message reduction, idempotent re-apply of duplicated
// frames, retransmission of dropped frames, and invariant preservation
// under scripted drop/dup/reorder of the batch traffic.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <vector>

#include "core/node.h"
#include "core/parity_coalescer.h"
#include "net/wire.h"

namespace radd {
namespace {

// ---------------------------------------------------------------------------
// ParityCoalescer unit tests
// ---------------------------------------------------------------------------

constexpr size_t kBlk = 64;

Block PatBlock(uint64_t seed) {
  Block b(kBlk);
  b.FillPattern(seed);
  return b;
}

ChangeMask MaskOf(const Block& from, const Block& to) {
  Result<ChangeMask> m = ChangeMask::Diff(from, to);
  EXPECT_TRUE(m.ok());
  return std::move(m).value();
}

TEST(ParityCoalescer, DistinctKeysStageSeparately) {
  ParityCoalescer c;
  c.Add(0, 1, MaskOf(PatBlock(1), PatBlock(2)), Uid::Make(1, 1), 0, 101);
  c.Add(1, 1, MaskOf(PatBlock(3), PatBlock(4)), Uid::Make(1, 2), 0, 102);
  c.Add(0, 2, MaskOf(PatBlock(5), PatBlock(6)), Uid::Make(2, 1), 0, 103);
  EXPECT_EQ(c.entry_count(), 3u);
  EXPECT_EQ(c.op_count(), 3u);
}

TEST(ParityCoalescer, SameKeyXorMerges) {
  // Two masks for the same (row, position) must fold into one entry whose
  // delta is their XOR: applying it once equals applying both in order
  // (formula 1 is associative).
  Block v0 = PatBlock(10), v1 = PatBlock(11), v2 = PatBlock(12);
  ParityCoalescer c;
  c.Add(3, 1, MaskOf(v0, v1), Uid::Make(1, 1), 0, 201);
  c.Add(3, 1, MaskOf(v1, v2), Uid::Make(1, 2), 0, 202);
  ASSERT_EQ(c.entry_count(), 1u);
  EXPECT_EQ(c.op_count(), 2u);

  std::vector<ParityCoalescer::Entry> taken = c.TakeEligible({});
  ASSERT_EQ(taken.size(), 1u);
  // XOR of the two deltas == direct diff v0 -> v2.
  Block direct = std::move(MaskOf(v0, v2)).TakeDelta();
  EXPECT_EQ(taken[0].delta, direct);
  EXPECT_EQ(taken[0].ops.size(), 2u);
  EXPECT_TRUE(c.empty());
}

TEST(ParityCoalescer, LatestUidWinsOnMerge) {
  ParityCoalescer c;
  const Uid newer = Uid::Make(1, 9);
  const Uid older = Uid::Make(1, 3);
  c.Add(0, 0, MaskOf(PatBlock(1), PatBlock(2)), newer, 0, 1);
  c.Add(0, 0, MaskOf(PatBlock(2), PatBlock(3)), older, 0, 2);
  std::vector<ParityCoalescer::Entry> taken = c.TakeEligible({});
  ASSERT_EQ(taken.size(), 1u);
  // The merged entry must leave the parity UID array exactly where
  // applying the members in order would have: at the newest UID.
  EXPECT_TRUE(taken[0].uid == newer);
}

TEST(ParityCoalescer, OldestEpochWinsOnMerge) {
  ParityCoalescer c;
  c.Add(0, 0, MaskOf(PatBlock(1), PatBlock(2)), Uid::Make(1, 1), 5, 1);
  c.Add(0, 0, MaskOf(PatBlock(2), PatBlock(3)), Uid::Make(1, 2), 7, 2);
  std::vector<ParityCoalescer::Entry> taken = c.TakeEligible({});
  ASSERT_EQ(taken.size(), 1u);
  // One pre-transition contributor poisons the merge: the receiver must
  // see the oldest stamp and reject the whole entry.
  EXPECT_EQ(taken[0].home_epoch, 5u);
}

TEST(ParityCoalescer, MergeCancellationShrinksEncodedBytes) {
  // A -> B then B -> A: the XOR-merge cancels to all zeroes, and the
  // recomputed wire cost must reflect that (empty mask).
  Block a = PatBlock(20), b = PatBlock(21);
  ParityCoalescer c;
  c.Add(0, 0, MaskOf(a, b), Uid::Make(1, 1), 0, 1);
  const size_t one = c.staged_bytes();
  c.Add(0, 0, MaskOf(b, a), Uid::Make(1, 2), 0, 2);
  EXPECT_LT(c.staged_bytes(), one);
}

TEST(ParityCoalescer, TakeEligibleSkipsBlockedKeysAndKeepsOrder) {
  ParityCoalescer c;
  c.Add(0, 0, MaskOf(PatBlock(1), PatBlock(2)), Uid::Make(1, 1), 0, 1);
  c.Add(1, 0, MaskOf(PatBlock(3), PatBlock(4)), Uid::Make(1, 2), 0, 2);
  c.Add(2, 0, MaskOf(PatBlock(5), PatBlock(6)), Uid::Make(1, 3), 0, 3);

  std::set<ParityCoalescer::Key> blocked = {{1, 0}};
  std::vector<ParityCoalescer::Entry> taken = c.TakeEligible(blocked);
  ASSERT_EQ(taken.size(), 2u);
  EXPECT_EQ(taken[0].row, 0u);
  EXPECT_EQ(taken[1].row, 2u);
  // The blocked entry stays staged and is still mergeable.
  EXPECT_EQ(c.entry_count(), 1u);
  c.Add(1, 0, MaskOf(PatBlock(4), PatBlock(7)), Uid::Make(1, 4), 0, 4);
  EXPECT_EQ(c.entry_count(), 1u);
  std::vector<ParityCoalescer::Entry> rest = c.TakeEligible({});
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].ops.size(), 2u);
}

// ---------------------------------------------------------------------------
// End-to-end: RaddNodeSystem with batching enabled
// ---------------------------------------------------------------------------

class ParityBatchTest : public ::testing::Test {
 protected:
  ParityBatchTest() { Build(); }

  void Build(double drop_probability = 0.0,
             ParityBatchConfig pb = Enabled(), int group_size = 4,
             BlockNum rows = 12, size_t block_size = 512) {
    config_.group_size = group_size;
    config_.rows = rows;
    config_.block_size = block_size;
    SiteConfig sc{1, config_.rows, config_.block_size};
    sim_ = std::make_unique<Simulator>();
    NetworkModel nm;
    nm.drop_probability = drop_probability;
    net_ = std::make_unique<Network>(sim_.get(), nm, 0xabc);
    cluster_ = std::make_unique<Cluster>(group_size + 2, sc);
    NodeConfig nc;
    nc.parity_batch = pb;
    sys_ = std::make_unique<RaddNodeSystem>(sim_.get(), net_.get(),
                                            cluster_.get(), config_, nc);
  }

  static ParityBatchConfig Enabled() {
    ParityBatchConfig pb;
    pb.enabled = true;
    return pb;
  }

  Block Pat(uint64_t seed) {
    Block b(config_.block_size);
    b.FillPattern(seed);
    return b;
  }
  SiteId SiteOf(int m) { return sys_->group(0)->SiteOfMember(m); }

  /// Outcome of the hot-record workload: ops, failures and parity-path
  /// messages (frames plus their acks) per op.
  struct HotRecordRun {
    int ops = 0;
    int failed = 0;
    double parity_msgs_per_op = 0;
  };
  HotRecordRun RunHotRecord();

  RaddConfig config_;
  std::unique_ptr<Simulator> sim_;
  std::unique_ptr<Network> net_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<RaddNodeSystem> sys_;
};

TEST_F(ParityBatchTest, SingleWriteCompletesViaBatch) {
  auto w = sys_->Write(SiteOf(2), 0, 2, 0, Pat(1));
  ASSERT_TRUE(w.status.ok()) << w.status.ToString();
  // The lone write waits out the group-commit delay before its frame
  // flushes: latency = W (30) + max_delay (2) + parity round trip.
  EXPECT_GT(w.latency, Micros(105000));
  sim_->Run();
  EXPECT_TRUE(sys_->group(0)->VerifyInvariants().ok());
  EXPECT_EQ(sys_->stats().Get("node.batches_sent"), 1u);
  auto r = sys_->Read(SiteOf(2), 0, 2, 0);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.data, Pat(1));
}

TEST_F(ParityBatchTest, ManyWritesPreserveInvariantsAndReduceMessages) {
  for (int round = 0; round < 3; ++round) {
    for (int m = 0; m < 6; ++m) {
      for (BlockNum i = 0; i < sys_->group(0)->DataBlocksPerMember(); ++i) {
        ASSERT_TRUE(sys_->Write(SiteOf(m), 0, m, i,
                                Pat(uint64_t(round) * 100 + m * 10 + i))
                        .status.ok());
      }
    }
  }
  sim_->Run();
  EXPECT_TRUE(sys_->group(0)->VerifyInvariants().ok());
  const uint64_t staged = sys_->stats().Get("node.parity_staged");
  const uint64_t frames = net_->stats().Get("net.messages.parity_batch");
  EXPECT_GT(staged, 0u);
  EXPECT_GT(frames, 0u);
  EXPECT_LE(frames, staged);  // never more frames than updates
}

TEST_F(ParityBatchTest, OpCountThresholdFlushesEarly) {
  // max_ops = 2: the second concurrent write to the same parity site must
  // trigger an immediate flush instead of waiting out max_delay.
  ParityBatchConfig pb = Enabled();
  pb.max_ops = 2;
  pb.max_delay = Seconds(10);  // a timer-driven flush would time the test out
  Build(0.0, pb);
  // Pick two data blocks of home 0 whose rows share a parity member, so
  // both updates land in the same staging buffer.
  const PlacementMap& lay = sys_->layout(0);
  const BlockNum nblocks = sys_->group(0)->DataBlocksPerMember();
  BlockNum i1 = 0, i2 = 0;
  bool found = false;
  for (BlockNum a = 0; a < nblocks && !found; ++a) {
    for (BlockNum b = a + 1; b < nblocks && !found; ++b) {
      if (lay.ParitySite(lay.DataToRow(0, a)) ==
          lay.ParitySite(lay.DataToRow(0, b))) {
        i1 = a;
        i2 = b;
        found = true;
      }
    }
  }
  ASSERT_TRUE(found);
  int done = 0;
  sys_->AsyncWrite(SiteOf(0), 0, 0, i1, Pat(1),
                   [&](Status st, SimTime) { ASSERT_TRUE(st.ok()); ++done; });
  sys_->AsyncWrite(SiteOf(0), 0, 0, i2, Pat(2),
                   [&](Status st, SimTime) { ASSERT_TRUE(st.ok()); ++done; });
  sim_->Run();
  EXPECT_EQ(done, 2);
  EXPECT_EQ(sys_->stats().Get("node.batches_sent"), 1u);
  EXPECT_TRUE(sys_->group(0)->VerifyInvariants().ok());
}

TEST_F(ParityBatchTest, DuplicatedFrameAppliesOnce) {
  net_->SetFaultHook(MessageType::kParityBatch, [](const Message&) {
    return FaultAction::kDuplicate;
  });
  for (BlockNum i = 0; i < 4; ++i) {
    ASSERT_TRUE(sys_->Write(SiteOf(1), 0, 1, i, Pat(i + 1)).status.ok());
  }
  sim_->Run();
  // Every frame arrived twice; the copy must be recognized by its batch
  // seq and never re-applied (XOR re-apply would corrupt the parity).
  EXPECT_GT(sys_->stats().Get("node.batch_duplicate"), 0u);
  EXPECT_TRUE(sys_->group(0)->VerifyInvariants().ok());
  for (BlockNum i = 0; i < 4; ++i) {
    auto r = sys_->Read(SiteOf(1), 0, 1, i);
    ASSERT_TRUE(r.status.ok());
    EXPECT_EQ(r.data, Pat(i + 1));
  }
}

TEST_F(ParityBatchTest, DroppedFrameIsRetransmitted) {
  int dropped = 0;
  net_->SetFaultHook(MessageType::kParityBatch,
                     [&dropped](const Message&) {
                       if (dropped < 2) {
                         ++dropped;
                         return FaultAction::kDrop;
                       }
                       return FaultAction::kDeliver;
                     });
  auto w = sys_->Write(SiteOf(2), 0, 2, 0, Pat(9));
  ASSERT_TRUE(w.status.ok()) << w.status.ToString();
  EXPECT_EQ(dropped, 2);
  EXPECT_GE(sys_->stats().Get("node.batch_retransmit"), 2u);
  sim_->Run();
  EXPECT_TRUE(sys_->group(0)->VerifyInvariants().ok());
}

TEST_F(ParityBatchTest, DroppedAckIsResolvedByReplayedAck) {
  int dropped = 0;
  net_->SetFaultHook(MessageType::kParityBatchAck,
                     [&dropped](const Message&) {
                       if (dropped < 1) {
                         ++dropped;
                         return FaultAction::kDrop;
                       }
                       return FaultAction::kDeliver;
                     });
  auto w = sys_->Write(SiteOf(2), 0, 2, 0, Pat(5));
  ASSERT_TRUE(w.status.ok()) << w.status.ToString();
  // The retransmitted frame hits the seq table; the recorded ack is
  // replayed verbatim, and the parity was applied exactly once.
  EXPECT_GE(sys_->stats().Get("node.batch_duplicate"), 1u);
  sim_->Run();
  EXPECT_TRUE(sys_->group(0)->VerifyInvariants().ok());
}

TEST_F(ParityBatchTest, ExhaustedRetriesFailTheWrite) {
  net_->SetFaultHook(MessageType::kParityBatch, [](const Message&) {
    return FaultAction::kDrop;  // the parity site never hears anything
  });
  auto w = sys_->Write(SiteOf(2), 0, 2, 0, Pat(1));
  // §5 commit condition: no parity ack, no completed write.
  EXPECT_FALSE(w.status.ok());
  EXPECT_GT(sys_->stats().Get("node.batch_gave_up"), 0u);
}

TEST_F(ParityBatchTest, ConcurrentSameRowWritesCoalesce) {
  // With the row lock released after the local apply (batched mode), two
  // writes to the same row from the same home can both be staged before
  // the frame flushes; the second's mask merges into the first's entry.
  ParityBatchConfig pb = Enabled();
  pb.max_ops = 8;
  pb.max_delay = Millis(50);  // wide window so both writes stage
  Build(0.0, pb);
  int done = 0;
  sys_->AsyncWrite(SiteOf(3), 0, 3, 2, Pat(1),
                   [&](Status st, SimTime) { ASSERT_TRUE(st.ok()); ++done; });
  sys_->AsyncWrite(SiteOf(3), 0, 3, 2, Pat(2),
                   [&](Status st, SimTime) { ASSERT_TRUE(st.ok()); ++done; });
  sim_->Run();
  EXPECT_EQ(done, 2);
  // Both ops rode one frame with one merged entry.
  EXPECT_EQ(sys_->stats().Get("node.batches_sent"), 1u);
  EXPECT_TRUE(sys_->group(0)->VerifyInvariants().ok());
  auto r = sys_->Read(SiteOf(3), 0, 3, 2);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.data, Pat(2));  // the later write's value
}

TEST_F(ParityBatchTest, RandomLossStressHoldsInvariants) {
  Build(0.05, Enabled());
  int completed = 0;
  for (int round = 0; round < 4; ++round) {
    for (int m = 0; m < 6; ++m) {
      auto w = sys_->Write(SiteOf(m), 0, m, round % 2, Pat(round * 7 + m));
      if (w.status.ok()) ++completed;
    }
  }
  sim_->Run();
  EXPECT_GT(completed, 0);
  EXPECT_TRUE(sys_->group(0)->VerifyInvariants().ok());
}

TEST_F(ParityBatchTest, BatchingOffSendsPlainParityUpdates) {
  // Batching off is the coalescer with a threshold of one: a lone write's
  // update rides a one-entry frame that flushes at once instead of
  // waiting out the group-commit delay.
  const SimTime batched = sys_->Write(SiteOf(2), 0, 2, 0, Pat(1)).latency;
  ParityBatchConfig pb;  // disabled
  Build(0.0, pb);
  auto w = sys_->Write(SiteOf(2), 0, 2, 0, Pat(1));
  ASSERT_TRUE(w.status.ok()) << w.status.ToString();
  sim_->Run();
  EXPECT_EQ(sys_->stats().Get("node.parity_staged"), 1u);
  EXPECT_EQ(net_->stats().Get("net.messages.parity_batch"), 1u);
  EXPECT_EQ(w.latency + ParityBatchConfig{}.max_delay, batched);
  EXPECT_TRUE(sys_->group(0)->VerifyInvariants().ok());
}

/// The regime the parity pipeline targets. A group of 8, every member
/// runs a closed loop of 200 record updates (64..256 bytes, 8 outstanding)
/// against its hottest block: the data index whose rows land on its most
/// common parity site. Client == home, so the parity traffic is all that
/// crosses the wire. Successive masks overlap at the record's offset, so
/// a merge stays one record wide.
ParityBatchTest::HotRecordRun ParityBatchTest::RunHotRecord() {
  constexpr int kOpsPerMember = 200;
  constexpr int kOutstanding = 8;
  constexpr size_t kRecordBytes = 128;
  RaddNodeSystem& sys = *sys_;
  const int sites = config_.group_size + 2;
  const PlacementMap& lay = sys.layout(0);
  const BlockNum blocks = sys.group(0)->DataBlocksPerMember();
  std::vector<BlockNum> hot(static_cast<size_t>(sites));
  std::vector<Block> image;
  for (int m = 0; m < sites; ++m) {
    std::map<SiteId, std::vector<BlockNum>> by_parity;
    for (BlockNum i = 0; i < blocks; ++i) {
      by_parity[lay.ParitySite(lay.DataToRow(static_cast<SiteId>(m), i))]
          .push_back(i);
    }
    size_t best = 0;
    for (const auto& [ps, idxs] : by_parity) {
      if (idxs.size() > best) {
        best = idxs.size();
        hot[static_cast<size_t>(m)] = idxs.front();
      }
    }
    image.emplace_back(config_.block_size);
  }
  HotRecordRun run;
  std::vector<int> issued(static_cast<size_t>(sites), 0);
  std::function<void(int)> issue = [&](int m) {
    if (issued[static_cast<size_t>(m)] >= kOpsPerMember) return;
    const int seq = issued[static_cast<size_t>(m)]++;
    const size_t len = kRecordBytes * (1 + static_cast<size_t>(seq) % 4) / 2;
    uint8_t rec[kRecordBytes * 2];
    for (size_t j = 0; j < len; ++j) {
      rec[j] = static_cast<uint8_t>(m * 31 + seq * 7 + static_cast<int>(j));
    }
    Block& img = image[static_cast<size_t>(m)];
    ASSERT_TRUE(img.WriteAt(0, rec, len).ok());
    sys.AsyncWrite(sys.group(0)->SiteOfMember(m), 0, m,
                   hot[static_cast<size_t>(m)], Block(img),
                   [&, m](Status st, SimTime) {
                     ++(st.ok() ? run.ops : run.failed);
                     issue(m);
                   });
  };
  for (int m = 0; m < sites; ++m) {
    for (int k = 0; k < kOutstanding; ++k) issue(m);
  }
  sim_->Run();
  const Stats& net = net_->stats();
  run.parity_msgs_per_op =
      static_cast<double>(net.Get("net.messages.parity_batch") +
                          net.Get("net.messages.parity_batch_ack")) /
      std::max(run.ops, 1);
  return run;
}

TEST_F(ParityBatchTest, HotRecordWorkloadSendsAtMostOneParityMessagePerOp) {
  // Batching off (a flush threshold of one) already merges the updates
  // that queue behind the hot row's frame in flight, so the parity path
  // costs at most one message per op; a 100 ms group-commit window of 8
  // ops never costs more than that.
  Build(0.0, ParityBatchConfig{}, /*group_size=*/8, /*rows=*/40, 4096);
  const HotRecordRun one = RunHotRecord();
  EXPECT_TRUE(sys_->group(0)->VerifyInvariants().ok());
  ParityBatchConfig window = Enabled();
  window.max_ops = 8;
  window.max_delay = Millis(100);
  Build(0.0, window, /*group_size=*/8, /*rows=*/40, 4096);
  const HotRecordRun batched = RunHotRecord();
  EXPECT_TRUE(sys_->group(0)->VerifyInvariants().ok());
  EXPECT_EQ(one.ops, 10 * 200);
  EXPECT_EQ(one.failed, 0);
  EXPECT_EQ(batched.ops, 10 * 200);
  EXPECT_EQ(batched.failed, 0);
  EXPECT_LE(one.parity_msgs_per_op, 1.0);
  EXPECT_LE(batched.parity_msgs_per_op, one.parity_msgs_per_op);
  std::printf("parity msgs/op: threshold one %.3f, batched %.3f\n",
              one.parity_msgs_per_op, batched.parity_msgs_per_op);
}

}  // namespace
}  // namespace radd
