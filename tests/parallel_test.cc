// Determinism oracle for the parallel execution engine (DESIGN.md §12).
//
// Three layers under test:
//   * ThreadPool / ParallelRunner — the run-farm substrate: every index
//     runs exactly once, serial fallback preserves index order, repeated
//     use is safe.
//   * The sharded Simulator — conservative windows must produce the same
//     simulated outcome at every worker count, and (for the workloads this
//     repo ships) the same outcome as the monolithic single-queue engine.
//   * Shared infrastructure (Stats, BlockArena) — internally synchronized,
//     so concurrent shards and run-farm jobs cannot corrupt counters or
//     the buffer free list.
//
// The volume oracle drives a miniature volume: a closed loop of mixed
// reads/writes per site, client == home, fault-free network — the
// confinement contract under which sharding is defined.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "fault/chaos.h"
#include "sim/parallel_runner.h"
#include "sim/simulator.h"
#include "sim/stats.h"
#include "sim/thread_pool.h"
#include "volume_load.h"

namespace radd {
namespace {

// ---------------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(97);
  pool.ParallelFor(97, [&](int i) { ++hits[static_cast<size_t>(i)]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ReusableAcrossCalls) {
  ThreadPool pool(3);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> sum{0};
    pool.ParallelFor(round, [&](int i) { sum += i; });
    EXPECT_EQ(sum.load(), round * (round - 1) / 2);
  }
}

TEST(ThreadPoolTest, MoreWorkersThanWork) {
  ThreadPool pool(8);
  std::atomic<int> count{0};
  pool.ParallelFor(2, [&](int) { ++count; });
  EXPECT_EQ(count.load(), 2);
}

// ------------------------------------------------------------ ParallelRunner

TEST(ParallelRunnerTest, SerialFallbackPreservesIndexOrder) {
  std::vector<int> order;
  ParallelRunner::Map(1, 10, [&](int i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(ParallelRunnerTest, ParallelCoversEveryJob) {
  std::vector<std::atomic<int>> hits(50);
  ParallelRunner::Map(4, 50, [&](int i) { ++hits[static_cast<size_t>(i)]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelRunnerTest, ZeroAndSingleJobEdges) {
  int runs = 0;
  ParallelRunner::Map(4, 0, [&](int) { ++runs; });
  EXPECT_EQ(runs, 0);
  ParallelRunner::Map(4, 1, [&](int) { ++runs; });
  EXPECT_EQ(runs, 1);
}

// ------------------------------------------------- sharded Simulator (toy)

/// Ping-pong across shards: each shard s, on every tick it owns, sends to
/// shard (s+1)%n with the lookahead delay, recording its execution trace.
/// The trace must be identical at every worker count.
std::vector<std::string> PingPongTrace(int shards, int threads, int hops) {
  Simulator sim;
  const SimTime kLookahead = Micros(500);
  sim.ConfigureShards(shards, kLookahead);
  std::vector<std::string> trace;
  std::mutex mu;  // traces from concurrent shards interleave; sort later
  std::function<void(int, int)> hop = [&](int s, int remaining) {
    {
      std::lock_guard<std::mutex> lock(mu);
      trace.push_back("s" + std::to_string(s) + "@" +
                      std::to_string(sim.Now()));
    }
    if (remaining == 0) return;
    int next = (s + 1) % shards;
    sim.AtShard(next, sim.Now() + kLookahead,
                [&hop, next, remaining]() { hop(next, remaining - 1); });
  };
  for (int s = 0; s < shards; ++s) {
    sim.AtShard(s, 0, [&hop, s, hops]() { hop(s, hops); });
  }
  sim.RunParallel(threads);
  std::sort(trace.begin(), trace.end());
  return trace;
}

TEST(ShardedSimulatorTest, PingPongIdenticalAtEveryThreadCount) {
  std::vector<std::string> t1 = PingPongTrace(4, 1, 40);
  EXPECT_EQ(t1.size(), 4u * 41u);
  EXPECT_EQ(t1, PingPongTrace(4, 2, 40));
  EXPECT_EQ(t1, PingPongTrace(4, 4, 40));
}

TEST(ShardedSimulatorTest, CrossShardScheduleIsUncancellable) {
  Simulator sim;
  sim.ConfigureShards(2, Micros(100));
  uint64_t cross_id = 123;
  bool fired = false;
  sim.AtShard(0, 0, [&]() {
    cross_id = sim.AtShard(1, sim.Now() + Micros(100), [&]() { fired = true; });
  });
  sim.RunParallel(1);
  EXPECT_EQ(cross_id, 0u);  // no handle across shards
  EXPECT_TRUE(fired);
  EXPECT_FALSE(sim.Cancel(0));  // the null id is never cancellable
}

TEST(ShardedSimulatorTest, SameShardCancelStillWorks) {
  Simulator sim;
  sim.ConfigureShards(2, Micros(100));
  bool fired = false;
  sim.AtShard(1, 0, [&]() {
    uint64_t id = sim.Schedule(Micros(50), [&]() { fired = true; });
    EXPECT_TRUE(sim.Cancel(id));
  });
  sim.RunParallel(2);
  EXPECT_FALSE(fired);
}

TEST(ShardedSimulatorTest, SingleShardRunParallelMatchesRun) {
  // An unsharded simulator reached through RunParallel must behave exactly
  // like Run(): same event order, same clock.
  auto run = [](bool parallel) {
    Simulator sim;
    std::vector<int> order;
    sim.Schedule(Micros(10), [&]() { order.push_back(1); });
    sim.Schedule(Micros(10), [&]() { order.push_back(2); });
    sim.Schedule(Micros(5), [&]() { order.push_back(0); });
    SimTime end = parallel ? sim.RunParallel(4) : sim.Run();
    order.push_back(static_cast<int>(end));
    return order;
  };
  EXPECT_EQ(run(false), run(true));
}

// --------------------------------------------------- volume oracle (mini)

/// The miniature volume: groups of G = 2 over 8 rows of 128-byte blocks,
/// two ops in flight per drive.
VolumeOutcome RunMiniVolume(int groups, int threads, int ops_per_site) {
  VolumeLoad load;
  load.group.group_size = 2;  // members = 4
  load.group.rows = 8;
  load.group.block_size = 128;
  load.groups = groups;
  load.ops_per_site = ops_per_site;
  load.threads = threads;
  return RunVolumeLoad(load);
}

TEST(VolumeOracleTest, ShardedMatchesMonolithicAtG1) {
  VolumeOutcome mono = RunMiniVolume(1, 0, 30);
  EXPECT_EQ(mono.completed, 4 * 30);
  EXPECT_EQ(mono, RunMiniVolume(1, 1, 30));
  EXPECT_EQ(mono, RunMiniVolume(1, 4, 30));
}

TEST(VolumeOracleTest, ShardedMatchesMonolithicAtG2) {
  VolumeOutcome mono = RunMiniVolume(2, 0, 24);
  EXPECT_EQ(mono, RunMiniVolume(2, 1, 24));
  EXPECT_EQ(mono, RunMiniVolume(2, 4, 24));
}

TEST(VolumeOracleTest, ShardedMatchesMonolithicAtG4) {
  VolumeOutcome mono = RunMiniVolume(4, 0, 18);
  EXPECT_EQ(mono, RunMiniVolume(4, 1, 18));
  EXPECT_EQ(mono, RunMiniVolume(4, 2, 18));
  EXPECT_EQ(mono, RunMiniVolume(4, 4, 18));
}

TEST(VolumeOracleTest, ThreadCountInvarianceAtG8) {
  // At g8 the monolithic and sharded engines may resolve very deep
  // same-tick causal ties differently (see simulator.h); thread-count
  // invariance of the sharded engine itself is unconditional.
  VolumeOutcome one = RunMiniVolume(8, 1, 12);
  EXPECT_EQ(one, RunMiniVolume(8, 2, 12));
  EXPECT_EQ(one, RunMiniVolume(8, 4, 12));
  EXPECT_EQ(one, RunMiniVolume(8, 8, 12));
}

TEST(VolumeOracleTest, FourGroupsAtFourThreadsUnderLoad) {
  // The parallel engine under contention, for the TSan job: a 4-group
  // volume on 7 sites at 4 worker threads, 16,100 ops, against the
  // monolithic engine's outcome.
  VolumeOutcome mono = RunMiniVolume(4, 0, 2300);
  EXPECT_EQ(mono.completed, 7 * 2300);
  EXPECT_EQ(mono, RunMiniVolume(4, 4, 2300));
}

TEST(VolumeOracleTest, DualParityVolumesCompleteEveryOpAtG1ToG8) {
  // P+Q volumes under the full closed loop: groups of G = 8 with two
  // parity legs over 60 rows of 4 KiB, 4 ops in flight per drive and
  // 4,000 ops per group, at 1, 2, 4 and 8 groups. Every op completes and
  // succeeds, and every group's P and Q invariants hold at the end.
  for (int groups : {1, 2, 4, 8}) {
    SCOPED_TRACE(groups);
    VolumeLoad load;
    load.group.group_size = 8;
    load.group.parities = 2;
    load.group.rows = 60;
    load.group.block_size = 4096;
    load.groups = groups;
    const int sites = VolumeSites(load.group, groups);
    load.ops_per_site = 4000 * groups / sites;
    load.outstanding_per_drive = 4;
    VolumeOutcome out = RunVolumeLoad(load);
    EXPECT_EQ(out.completed, sites * load.ops_per_site);
    EXPECT_EQ(out.failed, 0);
    EXPECT_TRUE(out.invariants_ok);
  }
}

// ----------------------------------------------------- chaos oracle (farm)

TEST(ChaosOracleTest, ConcurrentSeedsMatchSerialSummaries) {
  ChaosConfig config;
  config.plan.episodes = 2;
  config.ops_per_episode = 40;
  constexpr int kSeeds = 6;
  std::vector<std::string> serial(kSeeds), parallel(kSeeds);
  for (int i = 0; i < kSeeds; ++i) {
    ChaosHarness harness(config);
    serial[static_cast<size_t>(i)] =
        harness.Run(static_cast<uint64_t>(i + 1)).Summary();
  }
  ParallelRunner::Map(4, kSeeds, [&](int i) {
    ChaosHarness harness(config);
    parallel[static_cast<size_t>(i)] =
        harness.Run(static_cast<uint64_t>(i + 1)).Summary();
  });
  EXPECT_EQ(serial, parallel);
}

// ------------------------------------------------- shared infrastructure

TEST(SharedStateTest, StatsCountersAreExactUnderConcurrency) {
  Stats stats;
  Stats::Counter c = stats.Intern("hammer");
  constexpr int kThreads = 4, kPerThread = 10000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&]() {
      for (int i = 0; i < kPerThread; ++i) {
        ++*c;
        stats.Add("named", 2);
        stats.Observe("sample", static_cast<double>(i));
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(stats.Get("hammer"), kThreads * kPerThread);
  EXPECT_EQ(stats.Get("named"), 2u * kThreads * kPerThread);
  EXPECT_EQ(stats.SampleCount("sample"),
            static_cast<size_t>(kThreads * kPerThread));
}

TEST(SharedStateTest, BlockArenaSurvivesConcurrentLeaseReturn) {
  BlockArena arena(64);
  constexpr int kThreads = 4, kRounds = 5000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&]() {
      for (int i = 0; i < kRounds; ++i) {
        Block a = arena.Lease();
        Block b = arena.LeaseCopyOf(a);
        arena.Return(std::move(a));
        arena.Return(std::move(b));
      }
    });
  }
  for (auto& w : workers) w.join();
  // Everything leased came back: the next lease is free-list reuse.
  uint64_t reuses_before = arena.reuses();
  Block x = arena.Lease();
  EXPECT_EQ(arena.reuses(), reuses_before + 1);
  EXPECT_EQ(x.size(), 64u);
}

}  // namespace
}  // namespace radd
