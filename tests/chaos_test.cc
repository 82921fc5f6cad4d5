// Tests for the fault-injection subsystem: FaultPlan determinism, the
// chaos harness's replayability contract, and targeted fault scenarios
// that the random schedules only cover probabilistically.

#include "fault/chaos.h"

#include <gtest/gtest.h>

#include "core/node.h"
#include "fault/fault.h"

namespace radd {
namespace {

// ---------------------------------------------------------------------------
// FaultPlan: seeded schedules.
// ---------------------------------------------------------------------------

TEST(FaultPlan, SameSeedSamePlan) {
  FaultPlanConfig cfg;
  FaultPlan a = FaultPlan::Random(99, cfg);
  FaultPlan b = FaultPlan::Random(99, cfg);
  EXPECT_EQ(a.ToString(), b.ToString());
  FaultPlan c = FaultPlan::Random(100, cfg);
  EXPECT_NE(a.ToString(), c.ToString());
}

TEST(FaultPlan, GuaranteesCrashAndLatentCoverage) {
  FaultPlanConfig cfg;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    FaultPlan p = FaultPlan::Random(seed, cfg);
    ASSERT_EQ(p.episodes.size(), size_t(cfg.episodes)) << "seed " << seed;
    bool crash = false, latent = false;
    for (const Episode& e : p.episodes) {
      crash = crash || e.kind == FaultKind::kCrashRestart;
      latent = latent || e.kind == FaultKind::kLatentErrors;
      EXPECT_GE(e.member, 0);
      EXPECT_LT(e.member, cfg.members);
      EXPECT_GE(e.duration, cfg.min_duration);
      EXPECT_LE(e.duration, cfg.max_duration);
      EXPECT_LT(e.fault_offset, e.duration);
    }
    EXPECT_TRUE(crash) << "seed " << seed << " has no crash-restart";
    EXPECT_TRUE(latent) << "seed " << seed << " has no latent-error burst";
  }
}

TEST(FaultPlan, DoubleFaultsLeaveBaseScheduleUnchanged) {
  // Second faults ride a separate RNG stream drawn after the base
  // schedule, so turning the mode on must not shift any base field.
  FaultPlanConfig cfg;
  FaultPlan off = FaultPlan::Random(42, cfg);
  cfg.double_faults = true;
  FaultPlan on = FaultPlan::Random(42, cfg);
  ASSERT_EQ(off.episodes.size(), on.episodes.size());
  for (size_t i = 0; i < off.episodes.size(); ++i) {
    EXPECT_EQ(off.episodes[i].kind, on.episodes[i].kind);
    EXPECT_EQ(off.episodes[i].member, on.episodes[i].member);
    EXPECT_EQ(off.episodes[i].duration, on.episodes[i].duration);
    EXPECT_EQ(off.episodes[i].fault_offset, on.episodes[i].fault_offset);
    EXPECT_EQ(off.episodes[i].second_member, -1);
  }
}

TEST(FaultPlan, DoubleFaultsTargetDistinctSitesWithSaneOffsets) {
  FaultPlanConfig cfg;
  cfg.double_faults = true;
  int attached = 0;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    FaultPlan p = FaultPlan::Random(seed, cfg);
    for (const Episode& e : p.episodes) {
      if (e.second_member < 0) continue;
      ++attached;
      // Only site-killing kinds gain a second strike, on a different site.
      EXPECT_TRUE(e.kind == FaultKind::kCrashRestart ||
                  e.kind == FaultKind::kDisaster ||
                  e.kind == FaultKind::kDiskFailure);
      EXPECT_NE(e.second_member, e.member);
      EXPECT_LT(e.second_member, cfg.members);
      EXPECT_TRUE(e.second_kind == FaultKind::kCrashRestart ||
                  e.second_kind == FaultKind::kDisaster ||
                  e.second_kind == FaultKind::kDiskFailure);
      EXPECT_GE(e.second_offset, e.fault_offset);
      // Either overlapping the window or during recovery, never later than
      // a quarter-window past it.
      EXPECT_LE(e.second_offset, e.duration + e.duration / 4);
    }
  }
  EXPECT_GT(attached, 0) << "no schedule gained a second fault";
}

// ---------------------------------------------------------------------------
// ChaosHarness: random schedules hold the invariants, and replay exactly.
// ---------------------------------------------------------------------------

TEST(ChaosHarness, FixedSeedSchedulesHoldInvariants) {
  ChaosHarness harness;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    ChaosReport r = harness.Run(seed);
    EXPECT_TRUE(r.ok) << r.Summary() << "\n" << r.plan;
    EXPECT_GT(r.ops_issued, 0u);
    EXPECT_GT(r.ops_acked, 0u);
    EXPECT_GT(r.reads_validated, 0u);
  }
}

TEST(ChaosHarness, ReplayIsDeterministic) {
  // The debuggability contract: a failing seed printed by a bulk run must
  // reproduce bit-for-bit. Two runs of one seed yield identical reports.
  ChaosHarness harness;
  ChaosReport a = harness.Run(36);
  ChaosReport b = harness.Run(36);
  EXPECT_EQ(a.Summary(), b.Summary());
  EXPECT_EQ(a.plan, b.plan);
}

// ---------------------------------------------------------------------------
// Autopilot: the control plane heals without manual repair.
// ---------------------------------------------------------------------------

TEST(ChaosHarness, AutopilotSchedulesConvergeWithoutManualRepair) {
  ChaosConfig cfg;
  cfg.autopilot = true;
  ChaosHarness harness(cfg);
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    ChaosReport r = harness.Run(seed);
    EXPECT_TRUE(r.ok) << r.Summary() << "\n" << r.plan;
    EXPECT_TRUE(r.autopilot);
    EXPECT_GT(r.ops_acked, 0u);
    // Every plan contains a crash episode, so real healing must have
    // happened: nonzero convergence time and a nonempty sweep.
    EXPECT_GT(r.convergence_max, 0u);
    EXPECT_GT(r.sweep_rows, 0u);
    EXPECT_LE(r.convergence_max, cfg.convergence_budget);
  }
}

TEST(ChaosHarness, AutopilotReplayIsDeterministic) {
  ChaosConfig cfg;
  cfg.autopilot = true;
  ChaosHarness harness(cfg);
  ChaosReport a = harness.Run(7);
  ChaosReport b = harness.Run(7);
  EXPECT_EQ(a.Summary(), b.Summary());
  EXPECT_EQ(a.plan, b.plan);
}

// ---------------------------------------------------------------------------
// P+Q double-failure schedules: two sites die per episode and the ledger
// still balances.
// ---------------------------------------------------------------------------

TEST(ChaosHarness, PqDoubleFailureSchedulesHoldInvariants) {
  ChaosConfig cfg;
  cfg.parities = 2;
  cfg.plan.double_faults = true;
  ChaosHarness harness(cfg);
  bool saw_double = false;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    ChaosReport r = harness.Run(seed);
    EXPECT_TRUE(r.ok) << r.Summary() << "\n" << r.plan;
    EXPECT_EQ(r.parities, 2);
    EXPECT_NE(r.Summary().find("scheme=pq"), std::string::npos);
    // Every injected fault of an ok schedule was survived.
    uint64_t injected = 0, survived = 0;
    for (const auto& [kind, n] : r.injected_by_kind) injected += n;
    for (const auto& [kind, n] : r.survived_by_kind) survived += n;
    EXPECT_EQ(injected, survived) << r.Summary();
    saw_double = saw_double || r.plan.find("+") != std::string::npos;
  }
  EXPECT_TRUE(saw_double) << "no schedule exercised a second fault";
}

TEST(ChaosHarness, PqAutopilotConvergesThroughDoubleFailures) {
  ChaosConfig cfg;
  cfg.parities = 2;
  cfg.plan.double_faults = true;
  cfg.autopilot = true;
  ChaosHarness harness(cfg);
  for (uint64_t seed = 1; seed <= 2; ++seed) {
    ChaosReport r = harness.Run(seed);
    EXPECT_TRUE(r.ok) << r.Summary() << "\n" << r.plan;
    EXPECT_TRUE(r.autopilot);
    EXPECT_GT(r.sweep_rows, 0u);
    EXPECT_LE(r.convergence_max, cfg.convergence_budget);
  }
}

TEST(ChaosHarness, PqReplayIsDeterministic) {
  ChaosConfig cfg;
  cfg.parities = 2;
  cfg.plan.double_faults = true;
  ChaosHarness harness(cfg);
  ChaosReport a = harness.Run(12);
  ChaosReport b = harness.Run(12);
  EXPECT_EQ(a.Summary(), b.Summary());
}

TEST(ChaosHarness, BatchedPqAutopilotRegressionSeeds) {
  // Seeds that once failed with batching, P+Q and the autopilot together
  // (chaos_main --batch --scheme pq --autopilot). 131 lost an acknowledged
  // write to a torn pair: one parity applied a delta the other refused as
  // stale, and the retry diffed against the copy rebuilt from the first.
  // 18 and 73 left a spare shadowing an up member: the spare's own site
  // merely suspected the home down, and no sweep ever drained the record.
  ChaosConfig cfg;
  cfg.parities = 2;
  cfg.plan.double_faults = true;
  cfg.autopilot = true;
  cfg.node.parity_batch.enabled = true;
  ChaosHarness harness(cfg);
  for (const uint64_t seed : {18, 73, 131}) {
    ChaosReport r = harness.Run(seed);
    EXPECT_TRUE(r.ok) << r.Summary() << "\n" << r.plan;
  }
}

TEST(ChaosHarness, PqRegressionSeeds) {
  // Seeds that failed under P+Q (chaos_main --scheme pq, plus the flags
  // named per list). 952 aborted with map::at: a P+Q spare write's per-leg
  // decode and its fallback shared one reconstruction key, so replies of
  // the finished decode passed the fallback's round check and the decode
  // ran without a Q reply. 4568 (--autopilot) is kept for the same change:
  // with fresh round tags but op-keyed flows it stopped converging.
  // Recovery's lagging-leg rules (DESIGN.md §14): 3102 and 2725 drained a
  // spare whose deltas were still in flight, 879 and 4348 need the copy
  // rolled back when a second erasure blocks the leg rebuild, and 661,
  // 371, 1851, 2640 and 3354 need a P-only decode that fails validation to
  // retry through Q. Spare-write rules: 3026 overwrote a spare that shadowed
  // another member, 69 stamped a zero delta into a recovering leg. 707,
  // 2787 and 4207 first surfaced the shadowed-spare overwrite.
  struct Mode {
    bool autopilot;
    bool batch;
    std::vector<uint64_t> seeds;
  };
  const std::vector<Mode> modes = {
      {false, false, {661, 952, 1062, 2729, 3879}},
      {true, false, {69, 371, 707, 2748, 2787, 3102, 4023, 4207, 4348, 4568}},
      {false, true, {1851, 3354, 3410}},
      {true, true, {879, 2640, 2725, 3026}},
  };
  for (const Mode& mode : modes) {
    ChaosConfig cfg;
    cfg.parities = 2;
    cfg.plan.double_faults = true;
    cfg.autopilot = mode.autopilot;
    cfg.node.parity_batch.enabled = mode.batch;
    ChaosHarness harness(cfg);
    for (const uint64_t seed : mode.seeds) {
      ChaosReport r = harness.Run(seed);
      EXPECT_TRUE(r.ok) << r.Summary() << "\n" << r.plan;
    }
  }
}

TEST(ChaosHarness, ModeledDiskAutopilotRegressionSeeds) {
  // Seeds that failed with the modeled disk subsystem and the autopilot
  // (chaos_main --spindles 4 --disk-policy deadline --cache-blocks 64
  // --autopilot). 4525 lost an acknowledged write when a spare write
  // committed after its home had restarted, while the client's retry of
  // the same op was already writing at the home.
  ChaosConfig cfg;
  cfg.autopilot = true;
  cfg.node.disk_sched.spindles = 4;
  cfg.node.disk_sched.policy = IoPolicy::kDeadline;
  cfg.node.disk_sched.cache_blocks = 64;
  ChaosHarness harness(cfg);
  for (const uint64_t seed : {439, 1873, 4289, 4302, 4525}) {
    ChaosReport r = harness.Run(seed);
    EXPECT_TRUE(r.ok) << r.Summary() << "\n" << r.plan;
  }
}

// ---------------------------------------------------------------------------
// Targeted scenarios on the protocol stack.
// ---------------------------------------------------------------------------

class ChaosNodeTest : public ::testing::Test {
 protected:
  ChaosNodeTest() {
    config_.group_size = 4;
    config_.rows = 12;
    config_.block_size = 256;
    SiteConfig sc{1, config_.rows, config_.block_size};
    sim_ = std::make_unique<Simulator>();
    net_ = std::make_unique<Network>(sim_.get(), NetworkModel{}, 0xc4a05);
    cluster_ = std::make_unique<Cluster>(6, sc);
    NodeConfig nc;
    nc.retry_timeout = Millis(80);
    nc.max_retries = 5;
    sys_ = std::make_unique<RaddNodeSystem>(sim_.get(), net_.get(),
                                            cluster_.get(), config_, nc);
  }

  Block Pat(uint64_t seed) {
    Block b(config_.block_size);
    b.FillPattern(seed);
    return b;
  }
  SiteId SiteOf(int m) { return sys_->group(0)->SiteOfMember(m); }
  /// Physical row on member `m`'s (single-disk) site for data block `idx`.
  BlockNum RowOf(int m, BlockNum idx) {
    return sys_->layout(0).DataToRow(static_cast<SiteId>(m), idx);
  }
  void ScrubAll() {
    for (int m = 0; m < 6; ++m) {
      ASSERT_TRUE(sys_->group(0)->ScrubData(m).ok());
      ASSERT_TRUE(sys_->group(0)->ScrubParity(m).ok());
    }
  }

  RaddConfig config_;
  std::unique_ptr<Simulator> sim_;
  std::unique_ptr<Network> net_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<RaddNodeSystem> sys_;
};

TEST_F(ChaosNodeTest, CrashMidWriteBetweenW1AndParityAck) {
  ASSERT_TRUE(sys_->Write(SiteOf(0), 0, 2, 0, Pat(1)).status.ok());
  sim_->Run();

  // Freeze the write protocol between W1 and the parity ack: the home
  // applies the data block, but its parity update never arrives.
  net_->SetFaultHook("parity_batch",
                     [](const Message&) { return FaultAction::kDrop; });
  bool write_done = false;
  Status write_status;
  sys_->AsyncWrite(SiteOf(0), 0, 2, 0, Pat(2), [&](Status st, SimTime) {
    write_done = true;
    write_status = st;
  });
  // Past W1 (client->home 22.5 ms + disk 30 ms) but before any give-up.
  sim_->RunUntil(sim_->Now() + Millis(60));

  // The home crashes holding the half-committed write, and restarts cold.
  ASSERT_TRUE(cluster_->CrashSite(SiteOf(2)).ok());
  sys_->ResetNodeVolatileState(SiteOf(2));
  net_->ClearFaultHooks();
  sim_->Run();
  // The client saw *some* completion — possibly a degraded-path success,
  // possibly NetworkError — but never a hang.
  ASSERT_TRUE(write_done) << "write hung after crash";

  ASSERT_TRUE(cluster_->RestoreSite(SiteOf(2)).ok());
  ASSERT_TRUE(sys_->group(0)->RunRecovery(2, true).ok());
  ScrubAll();
  EXPECT_TRUE(sys_->group(0)->VerifyInvariants().ok());

  // Atomicity across the crash: the block is the old or the new value,
  // never a torn mix; and an acked write must not be lost.
  auto r = sys_->Read(SiteOf(0), 0, 2, 0);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  if (write_status.ok()) {
    EXPECT_EQ(r.data, Pat(2)) << "acknowledged write was lost";
  } else {
    EXPECT_TRUE(r.data == Pat(1) || r.data == Pat(2)) << "torn write";
  }
}

TEST_F(ChaosNodeTest, LatentErrorReadRoutesToReconstruction) {
  ASSERT_TRUE(sys_->Write(SiteOf(2), 0, 2, 3, Pat(7)).status.ok());
  sim_->Run();
  ASSERT_TRUE(
      cluster_->site(SiteOf(2))->disks()->InjectLatentError(RowOf(2, 3)).ok());

  // The home's medium reports the sector unreadable; the read must fall
  // back to formula (2) reconstruction and still return the data.
  auto r = sys_->Read(SiteOf(0), 0, 2, 3);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.data, Pat(7));
  sim_->Run();
  EXPECT_GT(sys_->stats().Get("node.reconstructions"), 0u);
}

TEST_F(ChaosNodeTest, SilentCorruptionDetectedAndReconstructed) {
  ASSERT_TRUE(sys_->Write(SiteOf(1), 0, 1, 2, Pat(9)).status.ok());
  sim_->Run();
  Result<bool> rotted = cluster_->site(SiteOf(1))->disks()->CorruptBlock(
      RowOf(1, 2), /*seed=*/0xb17, /*bits=*/2);
  ASSERT_TRUE(rotted.ok());
  ASSERT_TRUE(*rotted);

  // The checksum catches the rot at read time (DataLoss, not bad bytes),
  // and reconstruction serves the true value.
  auto r = sys_->Read(SiteOf(0), 0, 1, 2);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.data, Pat(9));
  EXPECT_GE(cluster_->site(SiteOf(1))->disks()->corruptions_detected(), 1u);
}

TEST_F(ChaosNodeTest, ScrubDataRepairsLatentBlocks) {
  for (BlockNum i = 0; i < sys_->group(0)->DataBlocksPerMember(); ++i) {
    ASSERT_TRUE(sys_->Write(SiteOf(1), 0, 1, i, Pat(40 + i)).status.ok());
  }
  sim_->Run();
  ASSERT_TRUE(
      cluster_->site(SiteOf(1))->disks()->InjectLatentError(RowOf(1, 0)).ok());
  ASSERT_TRUE(
      cluster_->site(SiteOf(1))->disks()->InjectLatentError(RowOf(1, 5)).ok());

  Result<int> repaired = sys_->group(0)->ScrubData(1);
  ASSERT_TRUE(repaired.ok()) << repaired.status().ToString();
  EXPECT_EQ(*repaired, 2);

  // Repaired in place: local reads work again and values survived.
  EXPECT_TRUE(sys_->group(0)->VerifyInvariants().ok());
  for (BlockNum i : {BlockNum(0), BlockNum(5)}) {
    auto r = sys_->Read(SiteOf(1), 0, 1, i);
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_EQ(r.data, Pat(40 + i));
    EXPECT_EQ(r.latency, Millis(30)) << "should be served locally again";
  }
}

}  // namespace
}  // namespace radd
