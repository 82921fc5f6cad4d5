// Tests for the incremental recovery sweeper and its interplay with the
// epoch-stamped control plane: paced background recovery, crash-mid-sweep
// resume, foreground traffic during a sweep, and stale-epoch fencing of
// delayed messages from a previous incarnation.

#include "core/sweeper.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "core/node.h"

namespace radd {
namespace {

class SweeperTest : public ::testing::Test {
 protected:
  SweeperTest() {
    config_.group_size = 4;
    config_.rows = 12;
    config_.block_size = 256;
    SiteConfig sc{1, config_.rows, config_.block_size};
    sim_ = std::make_unique<Simulator>();
    net_ = std::make_unique<Network>(sim_.get(), NetworkModel{}, 0x5ee9);
    cluster_ = std::make_unique<Cluster>(6, sc);
    NodeConfig nc;
    nc.retry_timeout = Millis(80);
    nc.max_retries = 5;
    sys_ = std::make_unique<RaddNodeSystem>(sim_.get(), net_.get(),
                                            cluster_.get(), config_, nc);
    service_ = sys_->status();
    // What the chaos harness wires up: a declared-down site loses its
    // volatile protocol state (it is a process, not an oracle).
    service_->AddListener([this](SiteId site, SiteState state, uint64_t) {
      if (state == SiteState::kDown) sys_->ResetNodeVolatileState(site);
    });
  }

  void StartSweeper(SweeperConfig cfg = {}) {
    sweeper_.emplace(sim_.get(), sys_->group(0), service_, cfg);
    sweeper_->Start();
  }

  Block Pat(uint64_t seed) {
    Block b(config_.block_size);
    b.FillPattern(seed);
    return b;
  }
  SiteId SiteOf(int m) { return sys_->group(0)->SiteOfMember(m); }
  void PopulateMember(int m, uint64_t seed_base) {
    for (BlockNum i = 0; i < sys_->group(0)->DataBlocksPerMember(); ++i) {
      ASSERT_TRUE(
          sys_->Write(SiteOf(0), 0, m, i, Pat(seed_base + i)).status.ok());
    }
    sim_->Run();
  }

  RaddConfig config_;
  std::unique_ptr<Simulator> sim_;
  std::unique_ptr<Network> net_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<RaddNodeSystem> sys_;
  SiteStatusService* service_ = nullptr;
  std::optional<RecoverySweeper> sweeper_;
};

TEST_F(SweeperTest, PacedSweepDrainsSparesAndMarksUp) {
  PopulateMember(2, 100);
  StartSweeper();

  ASSERT_TRUE(service_->InjectCrash(SiteOf(2)).ok());
  // Writes during the outage land on spares (the ledger the sweep must
  // honor before the member may serve again).
  ASSERT_TRUE(sys_->Write(SiteOf(0), 0, 2, 1, Pat(201)).status.ok());
  ASSERT_TRUE(sys_->Write(SiteOf(1), 0, 2, 5, Pat(205)).status.ok());
  sim_->Run();

  ASSERT_TRUE(service_->NotifyRestart(SiteOf(2)).ok());
  EXPECT_TRUE(sweeper_->active(0, 2));
  sim_->Run();  // the sweep is the only periodic activity; it must finish

  EXPECT_EQ(cluster_->StateOf(SiteOf(2)), SiteState::kUp);
  EXPECT_EQ(sweeper_->stats().Get("sweeper.completed"), 1u);
  EXPECT_EQ(sweeper_->stats().Get("sweeper.rows_swept"),
            static_cast<uint64_t>(config_.rows));
  // Paced: 12 rows at 4 rows/tick is at least 3 ticks, not one burst.
  EXPECT_GE(sweeper_->stats().Get("sweeper.ticks"), 3u);
  EXPECT_FALSE(sweeper_->active(0, 2));
  EXPECT_EQ(sweeper_->cursor(0, 2), 0u) << "cursor resets after completion";

  EXPECT_TRUE(sys_->group(0)->VerifyInvariants().ok());
  auto r1 = sys_->Read(SiteOf(3), 0, 2, 1);
  ASSERT_TRUE(r1.status.ok());
  EXPECT_EQ(r1.data, Pat(201));
  auto r5 = sys_->Read(SiteOf(3), 0, 2, 5);
  ASSERT_TRUE(r5.status.ok());
  EXPECT_EQ(r5.data, Pat(205));
}

TEST_F(SweeperTest, CrashMidSweepResumesAtCursor) {
  PopulateMember(2, 300);
  StartSweeper();

  ASSERT_TRUE(service_->InjectCrash(SiteOf(2)).ok());
  ASSERT_TRUE(sys_->Write(SiteOf(0), 0, 2, 2, Pat(302)).status.ok());
  ASSERT_TRUE(sys_->Write(SiteOf(1), 0, 2, 7, Pat(307)).status.ok());
  sim_->Run();

  ASSERT_TRUE(service_->NotifyRestart(SiteOf(2)).ok());
  // Let the sweep get partway, then kill the site again mid-drain.
  ASSERT_TRUE(sim_->RunUntilPredicate(
      [&] { return sweeper_->cursor(0, 2) >= 4; }));
  const BlockNum mid = sweeper_->cursor(0, 2);
  ASSERT_LT(mid, static_cast<BlockNum>(config_.rows)) << "crash must be mid-sweep";
  ASSERT_TRUE(service_->InjectCrash(SiteOf(2)).ok());
  sim_->Run();
  EXPECT_FALSE(sweeper_->active(0, 2));
  EXPECT_EQ(sweeper_->cursor(0, 2), mid)
      << "cursor (the recovery log) survives";

  ASSERT_TRUE(service_->NotifyRestart(SiteOf(2)).ok());
  sim_->Run();

  EXPECT_EQ(cluster_->StateOf(SiteOf(2)), SiteState::kUp);
  EXPECT_GE(sweeper_->stats().Get("sweeper.resumes"), 1u);
  // Resume, not restart: rows [0, mid) were not re-drained, so the total
  // swept across both passes is exactly one pass over the member.
  EXPECT_EQ(sweeper_->stats().Get("sweeper.rows_swept"),
            static_cast<uint64_t>(config_.rows));
  EXPECT_TRUE(sys_->group(0)->VerifyInvariants().ok());
  // No acked write lost across the double outage.
  auto r2 = sys_->Read(SiteOf(3), 0, 2, 2);
  ASSERT_TRUE(r2.status.ok());
  EXPECT_EQ(r2.data, Pat(302));
  auto r7 = sys_->Read(SiteOf(3), 0, 2, 7);
  ASSERT_TRUE(r7.status.ok());
  EXPECT_EQ(r7.data, Pat(307));
  auto r0 = sys_->Read(SiteOf(3), 0, 2, 0);
  ASSERT_TRUE(r0.status.ok());
  EXPECT_EQ(r0.data, Pat(300));
}

TEST_F(SweeperTest, RowsDirtiedBehindTheCursorAreRescanned) {
  PopulateMember(2, 400);
  StartSweeper();

  ASSERT_TRUE(service_->InjectCrash(SiteOf(2)).ok());
  sim_->Run();
  ASSERT_TRUE(service_->NotifyRestart(SiteOf(2)).ok());
  ASSERT_TRUE(sim_->RunUntilPredicate(
      [&] { return sweeper_->cursor(0, 2) >= 8; }));

  // Second outage AFTER the cursor passed row 0's region: a write now
  // lands on a spare behind the cursor. Blind resume would miss it; the
  // verification scan must catch it and rewind.
  ASSERT_TRUE(service_->InjectCrash(SiteOf(2)).ok());
  ASSERT_TRUE(sys_->Write(SiteOf(0), 0, 2, 0, Pat(999)).status.ok());
  sim_->Run();
  ASSERT_TRUE(service_->NotifyRestart(SiteOf(2)).ok());
  sim_->Run();

  EXPECT_EQ(cluster_->StateOf(SiteOf(2)), SiteState::kUp);
  EXPECT_GE(sweeper_->stats().Get("sweeper.rescans"), 1u);
  EXPECT_TRUE(sys_->group(0)->VerifyInvariants().ok());
  auto r = sys_->Read(SiteOf(3), 0, 2, 0);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.data, Pat(999)) << "spare behind the cursor must be drained";
}

TEST_F(SweeperTest, ForegroundTrafficFlowsDuringSweep) {
  for (int m = 0; m < 4; ++m) PopulateMember(m, 100 * (m + 1));
  SweeperConfig cfg;
  cfg.backpressure_threshold = 1;  // any foreground op throttles the sweep
  cfg.load_probe = [this] { return sys_->InFlightOps(); };
  StartSweeper(cfg);

  ASSERT_TRUE(service_->InjectCrash(SiteOf(2)).ok());
  sim_->Run();
  ASSERT_TRUE(service_->NotifyRestart(SiteOf(2)).ok());

  // Client traffic to healthy members, issued while the sweep runs.
  int completed = 0, failed = 0;
  for (int i = 0; i < 8; ++i) {
    sim_->Schedule(Millis(5 * i), [this, i, &completed, &failed]() {
      sys_->AsyncWrite(SiteOf(3), 0, 1, static_cast<BlockNum>(i % 4),
                       Pat(700 + i), [&](Status st, SimTime) {
                         ++completed;
                         if (!st.ok()) ++failed;
                       });
    });
  }
  sim_->Run();

  EXPECT_EQ(completed, 8) << "foreground writes hung behind the sweep";
  EXPECT_EQ(failed, 0);
  EXPECT_EQ(cluster_->StateOf(SiteOf(2)), SiteState::kUp);
  EXPECT_GE(sweeper_->stats().Get("sweeper.backpressure_ticks"), 1u);
  // The per-tick I/O bound: under backpressure a tick repairs one row, and
  // even an idle tick is capped at rows_per_tick rows.
  EXPECT_LE(sweeper_->stats().Percentile("sweeper.tick_ops", 100.0),
            6.0 * cfg.rows_per_tick);
  EXPECT_TRUE(sys_->group(0)->VerifyInvariants().ok());
}

TEST_F(SweeperTest, DiskFailureSweepWithoutRestart) {
  PopulateMember(1, 500);
  StartSweeper();
  // Media failure: the site stays alive, goes kRecovering, and the sweep
  // reconstructs the lost blocks from the rest of the group.
  ASSERT_TRUE(service_->InjectDiskFailure(SiteOf(1), 0).ok());
  EXPECT_TRUE(sweeper_->active(0, 1));
  sim_->Run();
  EXPECT_EQ(cluster_->StateOf(SiteOf(1)), SiteState::kUp);
  for (BlockNum i = 0; i < sys_->group(0)->DataBlocksPerMember(); ++i) {
    auto r = sys_->Read(SiteOf(0), 0, 1, i);
    ASSERT_TRUE(r.status.ok()) << "block " << i << ": " << r.status.ToString();
    EXPECT_EQ(r.data, Pat(500 + i));
  }
  EXPECT_TRUE(sys_->group(0)->VerifyInvariants().ok());
}

TEST_F(SweeperTest, StaleEpochMessageFromOldIncarnationRejected) {
  PopulateMember(2, 600);
  StartSweeper();

  // Capture (and suppress) the parity frames of one write, simulating a
  // message stuck in the network from the home's current incarnation. The
  // spare path is blocked too, so the write fails outright and its UID
  // never reaches the parity array — the replayed update below cannot be
  // recognized by the §3.3 idempotence check and only the epoch stands
  // between it and the recovered parity block.
  std::optional<Message> delayed;
  net_->SetFaultHook("parity_batch", [&](const Message& m) {
    if (!delayed) delayed = m;
    return FaultAction::kDrop;
  });
  net_->SetFaultHook("spare_write_req",
                     [](const Message&) { return FaultAction::kDrop; });
  bool done = false;
  sys_->AsyncWrite(SiteOf(0), 0, 2, 3, Pat(777),
                   [&](Status, SimTime) { done = true; });
  sim_->RunUntil(sim_->Now() + Millis(120));
  ASSERT_TRUE(delayed.has_value()) << "no parity update captured";

  // The home dies and cycles down -> recovering -> up; every transition
  // bumps its epoch past the one the captured update carries.
  const uint64_t old_epoch = service_->Epoch(SiteOf(2));
  ASSERT_TRUE(service_->InjectCrash(SiteOf(2)).ok());
  sim_->Run();  // the write exhausts its retries and completes (failed)
  ASSERT_TRUE(done) << "write hung";
  net_->ClearFaultHooks();
  ASSERT_TRUE(service_->NotifyRestart(SiteOf(2)).ok());
  sim_->Run();
  ASSERT_EQ(cluster_->StateOf(SiteOf(2)), SiteState::kUp);
  ASSERT_GT(service_->Epoch(SiteOf(2)), old_epoch);

  // The stuck message finally arrives. Nobody restamps a dead
  // incarnation's messages, so the receiver must fence it off instead of
  // XORing a stale delta into recovered parity.
  const uint64_t before = sys_->stats().Get("node.stale_epoch_rejected");
  net_->Send(*delayed);
  sim_->Run();
  EXPECT_GE(sys_->stats().Get("node.stale_epoch_rejected"), before + 1);

  // Redundancy is intact: scrubs find nothing structural to repair and
  // every value reads back.
  for (int m = 0; m < 6; ++m) {
    ASSERT_TRUE(sys_->group(0)->ScrubData(m).ok());
    ASSERT_TRUE(sys_->group(0)->ScrubParity(m).ok());
  }
  EXPECT_TRUE(sys_->group(0)->VerifyInvariants().ok());
}

}  // namespace
}  // namespace radd
