// Tests for the modeled disk subsystem: DiskScheduler policies (FIFO
// equivalence with the legacy closed-form serial clock, elevator ordering,
// deadline class separation with a bounded starvation guarantee), crash
// fencing, the UID-validated site block cache — standalone, wired into the
// protocol layer, and under chaos load with ledger readback.

#include "disk/scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/node.h"
#include "disk/block_cache.h"
#include "fault/chaos.h"

namespace radd {
namespace {

// ---------------------------------------------------------------------------
// DiskScheduler: policies and fencing.
// ---------------------------------------------------------------------------

TEST(DiskScheduler, FifoSingleSpindleMatchesClosedFormClock) {
  // The paper's §7.3 model: one serial clock per site,
  //   start = max(now, free_at); free_at = start + latency.
  // With spindles=1/FIFO/no-seek the scheduler must produce the exact
  // same completion times for any arrival pattern.
  Simulator sim;
  DiskModel model;  // 30 ms reads and writes
  DiskSchedConfig cfg;
  DiskScheduler sched(&sim, model, cfg);

  struct Arrival {
    SimTime at;
    IoKind kind;
    uint32_t units;
    uint32_t slow;
  };
  const std::vector<Arrival> arrivals = {
      {Millis(0), IoKind::kWrite, 1, 1},  {Millis(0), IoKind::kRead, 1, 1},
      {Millis(10), IoKind::kWrite, 3, 1}, {Millis(95), IoKind::kRead, 1, 2},
      {Millis(400), IoKind::kWrite, 1, 1}};

  std::vector<SimTime> actual(arrivals.size(), 0);
  for (size_t i = 0; i < arrivals.size(); ++i) {
    const Arrival& a = arrivals[i];
    sim.At(a.at, [&, i]() {
      sched.Submit(IoClass::kForeground, arrivals[i].kind, /*addr=*/0,
                   arrivals[i].units, arrivals[i].slow,
                   [&, i]() { actual[i] = sim.Now(); });
    });
  }
  sim.Run();

  SimTime free_at = 0;
  for (size_t i = 0; i < arrivals.size(); ++i) {
    const Arrival& a = arrivals[i];
    const SimTime latency = (a.kind == IoKind::kRead ? model.read_latency
                                                     : model.write_latency) *
                            a.units * a.slow;
    const SimTime start = std::max(a.at, free_at);
    free_at = start + latency;
    EXPECT_EQ(actual[i], free_at) << "request " << i;
  }
  EXPECT_EQ(sched.completed(), arrivals.size());
  EXPECT_EQ(sched.queued(), 0u);
}

TEST(DiskScheduler, FifoIgnoresClassAndAddress) {
  // FIFO is strict arrival order: a foreground request queued after a
  // background one waits its turn (the legacy discipline).
  Simulator sim;
  DiskSchedConfig cfg;
  DiskScheduler sched(&sim, DiskModel{}, cfg);
  std::vector<int> order;
  sim.At(0, [&]() {
    sched.Submit(IoClass::kRecovery, IoKind::kWrite, 7, 1, 1,
                 [&]() { order.push_back(0); });
    sched.Submit(IoClass::kScrub, IoKind::kWrite, 3, 1, 1,
                 [&]() { order.push_back(1); });
    sched.Submit(IoClass::kForeground, IoKind::kRead, 99, 1, 1,
                 [&]() { order.push_back(2); });
  });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(DiskScheduler, SpindlesServeStripedAddressesConcurrently) {
  // 4 spindles, 4 same-cost writes to addresses 0..3 (one per spindle):
  // all complete at one service time instead of serializing to 4x.
  Simulator sim;
  DiskSchedConfig cfg;
  cfg.spindles = 4;
  DiskScheduler sched(&sim, DiskModel{}, cfg);
  std::vector<SimTime> done(4, 0);
  sim.At(0, [&]() {
    for (BlockNum a = 0; a < 4; ++a) {
      sched.Submit(IoClass::kForeground, IoKind::kWrite, a, 1, 1,
                   [&, a]() { done[static_cast<size_t>(a)] = sim.Now(); });
    }
  });
  sim.Run();
  for (const SimTime t : done) EXPECT_EQ(t, Millis(30));
  EXPECT_EQ(sched.spindles(), 4);
}

TEST(DiskScheduler, ElevatorServesNearestInSweepDirection) {
  // LOOK: after the in-flight request leaves the head at address 10, the
  // queue {50, 12, 11, 49} is served 11, 12, 49, 50 (upward sweep) rather
  // than in arrival order.
  Simulator sim;
  DiskSchedConfig cfg;
  cfg.policy = IoPolicy::kElevator;
  cfg.seek_unit = Micros(10);
  DiskScheduler sched(&sim, DiskModel{}, cfg);
  std::vector<BlockNum> order;
  sim.At(0, [&]() {
    sched.Submit(IoClass::kForeground, IoKind::kRead, 10, 1, 1, [&]() {});
    for (const BlockNum a : {50, 12, 11, 49}) {
      sched.Submit(IoClass::kForeground, IoKind::kRead, a, 1, 1,
                   [&, a]() { order.push_back(a); });
    }
  });
  sim.Run();
  EXPECT_EQ(order, (std::vector<BlockNum>{11, 12, 49, 50}));
}

TEST(DiskScheduler, DeadlineClassSeparationPrefersForeground) {
  // While a background request is in service, a later-arriving foreground
  // request jumps the queued background one.
  Simulator sim;
  DiskSchedConfig cfg;
  cfg.policy = IoPolicy::kDeadline;
  DiskScheduler sched(&sim, DiskModel{}, cfg);
  std::vector<int> order;
  sim.At(0, [&]() {
    sched.Submit(IoClass::kRecovery, IoKind::kWrite, 0, 1, 1,
                 [&]() { order.push_back(0); });  // in service
    sched.Submit(IoClass::kRecovery, IoKind::kWrite, 1, 1, 1,
                 [&]() { order.push_back(1); });  // queued background
    sched.Submit(IoClass::kForeground, IoKind::kRead, 2, 1, 1,
                 [&]() { order.push_back(2); });  // queued foreground
  });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 1}));
}

TEST(DiskScheduler, DeadlineBoundsBackgroundStarvation) {
  // A steady foreground flood would starve background forever under pure
  // class priority. The deadline policy bounds the wait: once the
  // background request's deadline expires it trumps class, so it completes
  // within background_deadline + (non-preemptive slack of) two service
  // times.
  Simulator sim;
  DiskSchedConfig cfg;
  cfg.policy = IoPolicy::kDeadline;
  cfg.background_deadline = Millis(100);
  DiskScheduler sched(&sim, DiskModel{}, cfg);

  SimTime bg_done = 0;
  bool stop = false;
  std::function<void()> flood = [&]() {
    if (stop) return;
    sched.Submit(IoClass::kForeground, IoKind::kRead, 0, 1, 1,
                 [&]() { flood(); });
  };
  sim.At(0, [&]() {
    flood();  // takes the spindle
    flood();  // keeps the queue non-empty forever
    sched.Submit(IoClass::kRecovery, IoKind::kWrite, 1, 1, 1, [&]() {
      bg_done = sim.Now();
      stop = true;
    });
  });
  sim.Run();

  ASSERT_GT(bg_done, 0u);
  EXPECT_LE(bg_done, cfg.background_deadline + Millis(60));
  EXPECT_GE(sched.deadline_dispatches(), 1u);
}

TEST(DiskScheduler, ResetDropsQueueAndFencesInFlightCompletions) {
  // Crash semantics: Reset discards the queue, and the completion of the
  // request that was in service must not fire (it belonged to the dead
  // incarnation). The scheduler is immediately usable again.
  Simulator sim;
  DiskSchedConfig cfg;
  DiskScheduler sched(&sim, DiskModel{}, cfg);
  int dead_fires = 0;
  SimTime after_reset_done = 0;
  sim.At(0, [&]() {
    sched.Submit(IoClass::kForeground, IoKind::kWrite, 0, 1, 1,
                 [&]() { ++dead_fires; });
    sched.Submit(IoClass::kForeground, IoKind::kWrite, 1, 1, 1,
                 [&]() { ++dead_fires; });
  });
  sim.At(Millis(10), [&]() {
    sched.Reset();
    EXPECT_EQ(sched.queued(), 0u);
    sched.Submit(IoClass::kForeground, IoKind::kWrite, 2, 1, 1,
                 [&]() { after_reset_done = sim.Now(); });
  });
  sim.Run();
  EXPECT_EQ(dead_fires, 0);
  // The post-crash disk starts idle: 10 + 30 ms.
  EXPECT_EQ(after_reset_done, Millis(40));
}

// ---------------------------------------------------------------------------
// BlockCache: LRU mechanics and counters.
// ---------------------------------------------------------------------------

Block PatternBlock(uint64_t seed) {
  Block b(64);
  b.FillPattern(seed);
  return b;
}

TEST(BlockCache, LruEvictsLeastRecentlyUsed) {
  BlockCache cache(2);
  cache.Insert(1, PatternBlock(1), Uid(11));
  cache.Insert(2, PatternBlock(2), Uid(12));
  ASSERT_NE(cache.Lookup(1), nullptr);       // 1 becomes MRU
  cache.Insert(3, PatternBlock(3), Uid(13));  // evicts 2
  EXPECT_EQ(cache.Lookup(2), nullptr);
  EXPECT_NE(cache.Lookup(1), nullptr);
  EXPECT_NE(cache.Lookup(3), nullptr);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(BlockCache, InsertUpdatesInPlace) {
  BlockCache cache(2);
  cache.Insert(1, PatternBlock(1), Uid(11));
  cache.Insert(1, PatternBlock(9), Uid(19));
  const BlockCache::Entry* e = cache.Lookup(1);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->uid, (Uid(19)));
  EXPECT_EQ(e->data, PatternBlock(9));
  EXPECT_EQ(cache.size(), 1u);
}

TEST(BlockCache, InvalidateAndClear) {
  BlockCache cache(4);
  cache.Insert(1, PatternBlock(1), Uid(11));
  cache.Insert(2, PatternBlock(2), Uid(12));
  cache.Invalidate(1);
  EXPECT_EQ(cache.Lookup(1), nullptr);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Lookup(2), nullptr);
}

TEST(BlockCache, ZeroCapacityDisablesEverything) {
  BlockCache cache(0);
  cache.Insert(1, PatternBlock(1), Uid(11));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Lookup(1), nullptr);
}

// ---------------------------------------------------------------------------
// Protocol-layer cache: hits are free, and the §3.3 UID validation rejects
// entries the store has moved past.
// ---------------------------------------------------------------------------

class NodeCacheTest : public ::testing::Test {
 protected:
  NodeCacheTest() {
    config_.group_size = 4;
    config_.rows = 12;
    config_.block_size = 512;
    NodeConfig nc;
    nc.disk_sched.cache_blocks = 16;
    SiteConfig sc{1, config_.rows, config_.block_size};
    sim_ = std::make_unique<Simulator>();
    net_ = std::make_unique<Network>(sim_.get(), NetworkModel{}, 0xabc);
    cluster_ = std::make_unique<Cluster>(6, sc);
    sys_ = std::make_unique<RaddNodeSystem>(sim_.get(), net_.get(),
                                            cluster_.get(), config_, nc);
  }

  Block Pat(uint64_t seed) {
    Block b(config_.block_size);
    b.FillPattern(seed);
    return b;
  }
  SiteId SiteOf(int m) { return sys_->group(0)->SiteOfMember(m); }

  RaddConfig config_;
  std::unique_ptr<Simulator> sim_;
  std::unique_ptr<Network> net_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<RaddNodeSystem> sys_;
};

TEST_F(NodeCacheTest, WriteThroughMakesLocalReadsFree) {
  ASSERT_TRUE(sys_->Write(SiteOf(2), 0, 2, 0, Pat(1)).status.ok());
  // The write-through filled the cache, so the local read skips the
  // R = 30 ms disk charge entirely.
  auto r = sys_->Read(SiteOf(2), 0, 2, 0);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.data, Pat(1));
  EXPECT_LT(r.latency, Millis(30));
  EXPECT_GE(sys_->CacheStats().hits, 1u);
}

TEST_F(NodeCacheTest, UidValidationRejectsEntryAfterOutOfBandWrite) {
  // A write through the synchronous reference model mutates the store
  // behind the node layer's back — exactly what a recovery rebuild or a
  // scrub repair does. The cached entry's UID no longer matches the
  // store's record, so the next read must decline the hit and serve the
  // new bytes from disk.
  ASSERT_TRUE(sys_->Write(SiteOf(2), 0, 2, 0, Pat(1)).status.ok());
  ASSERT_TRUE(sys_->Read(SiteOf(2), 0, 2, 0).status.ok());  // fills the cache
  ASSERT_TRUE(sys_->group(0)->Write(SiteOf(2), 2, 0, Pat(99)).ok());
  auto r = sys_->Read(SiteOf(2), 0, 2, 0);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.data, Pat(99));
  EXPECT_GE(sys_->CacheStats().stale_rejected, 1u);
  // The disk-path read refilled the cache with the new record.
  const uint64_t hits_before = sys_->CacheStats().hits;
  auto again = sys_->Read(SiteOf(2), 0, 2, 0);
  ASSERT_TRUE(again.status.ok());
  EXPECT_EQ(again.data, Pat(99));
  EXPECT_GT(sys_->CacheStats().hits, hits_before);
}

TEST_F(NodeCacheTest, WritesInvalidateThenReadsRefill) {
  ASSERT_TRUE(sys_->Write(SiteOf(2), 0, 2, 0, Pat(1)).status.ok());
  ASSERT_TRUE(sys_->Read(SiteOf(2), 0, 2, 0).status.ok());
  ASSERT_TRUE(sys_->Write(SiteOf(2), 0, 2, 0, Pat(2)).status.ok());
  auto r = sys_->Read(SiteOf(2), 0, 2, 0);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.data, Pat(2));  // never the stale Pat(1)
}

// ---------------------------------------------------------------------------
// Chaos with the full modeled disk subsystem: 40 seeds in each mode, with
// the cache and the deadline scheduler on. Every protocol read inside the
// episodes is ledger-validated, so a cache bug that serves stale bytes
// fails the invariant check, not just a counter.
// ---------------------------------------------------------------------------

ChaosConfig ModeledDiskChaosConfig() {
  ChaosConfig cfg;
  cfg.node.disk_sched.spindles = 2;
  cfg.node.disk_sched.policy = IoPolicy::kDeadline;
  cfg.node.disk_sched.cache_blocks = 32;
  return cfg;
}

TEST(DiskChaos, CachePathHoldsLedgerInvariantsManual) {
  ChaosHarness harness(ModeledDiskChaosConfig());
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    ChaosReport r = harness.Run(seed);
    EXPECT_TRUE(r.ok) << r.Summary() << "\n" << r.plan;
    EXPECT_GT(r.reads_validated, 0u);
  }
}

TEST(DiskChaos, CachePathHoldsLedgerInvariantsAutopilot) {
  ChaosConfig cfg = ModeledDiskChaosConfig();
  cfg.autopilot = true;
  ChaosHarness harness(cfg);
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    ChaosReport r = harness.Run(seed);
    EXPECT_TRUE(r.ok) << r.Summary() << "\n" << r.plan;
    EXPECT_GT(r.reads_validated, 0u);
  }
}

}  // namespace
}  // namespace radd
