// Tests for the SiteStatusService membership authority: epoch-stamped
// state transitions, the majority declaration rule, fencing/rejoin, the
// restart/mark-up guards, and the per-observer view precedence.

#include "cluster/status_service.h"

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

namespace radd {
namespace {

class StatusServiceTest : public ::testing::Test {
 protected:
  StatusServiceTest()
      : cluster_(6, SiteConfig{1, 8, 256}), service_(&cluster_) {}

  Cluster cluster_;
  SiteStatusService service_;
};

TEST_F(StatusServiceTest, EpochBumpsOnEveryTransition) {
  EXPECT_EQ(service_.Epoch(2), 0u);
  ASSERT_TRUE(service_.InjectCrash(2).ok());
  EXPECT_EQ(service_.Epoch(2), 1u);
  EXPECT_EQ(cluster_.StateOf(2), SiteState::kDown);
  EXPECT_FALSE(service_.ProcessAlive(2));

  ASSERT_TRUE(service_.NotifyRestart(2).ok());
  EXPECT_EQ(service_.Epoch(2), 2u);
  EXPECT_EQ(cluster_.StateOf(2), SiteState::kRecovering);
  EXPECT_TRUE(service_.ProcessAlive(2));

  ASSERT_TRUE(service_.MarkUp(2).ok());
  EXPECT_EQ(service_.Epoch(2), 3u);
  EXPECT_EQ(cluster_.StateOf(2), SiteState::kUp);

  // Other sites were untouched.
  EXPECT_EQ(service_.Epoch(0), 0u);
  EXPECT_EQ(service_.stats().Get("status.transitions"), 3u);
}

TEST_F(StatusServiceTest, CheckEpochRejectsEveryOtherEpoch) {
  ASSERT_TRUE(service_.CheckEpoch(1, 0).ok());
  ASSERT_TRUE(service_.InjectCrash(1).ok());
  EXPECT_TRUE(service_.CheckEpoch(1, 0).IsStaleEpoch());
  EXPECT_TRUE(service_.CheckEpoch(1, 2).IsStaleEpoch()) << "future epoch";
  EXPECT_TRUE(service_.CheckEpoch(1, 1).ok());
  EXPECT_TRUE(service_.CheckEpoch(9, 0).IsNotFound());
}

TEST_F(StatusServiceTest, TransitionGuards) {
  // Restart of an up site is rejected; MarkUp needs kRecovering.
  EXPECT_TRUE(service_.NotifyRestart(0).IsInvalidArgument());
  EXPECT_TRUE(service_.MarkUp(0).IsInvalidArgument());
  ASSERT_TRUE(service_.InjectCrash(0).ok());
  EXPECT_TRUE(service_.MarkUp(0).IsInvalidArgument()) << "down, not recovering";
  EXPECT_EQ(service_.Epoch(0), 1u) << "rejected calls must not bump";
  EXPECT_TRUE(service_.InjectCrash(9).IsNotFound());
}

TEST_F(StatusServiceTest, DiskFailureRecoversWithoutRestart) {
  ASSERT_TRUE(service_.InjectDiskFailure(3, 0).ok());
  EXPECT_EQ(cluster_.StateOf(3), SiteState::kRecovering);
  EXPECT_TRUE(service_.ProcessAlive(3)) << "media failure, process fine";
  EXPECT_EQ(service_.Epoch(3), 1u);
  ASSERT_TRUE(service_.MarkUp(3).ok());
  EXPECT_EQ(service_.Epoch(3), 2u);
}

TEST_F(StatusServiceTest, StrictMajorityDeclaresDown) {
  // 6 sites -> 5 peers; a strict majority needs 3 live suspectors.
  service_.ReportSuspicion(1, 0, true);
  service_.ReportSuspicion(2, 0, true);
  EXPECT_EQ(cluster_.StateOf(0), SiteState::kUp) << "2 of 5 is no majority";
  service_.ReportSuspicion(3, 0, true);
  EXPECT_EQ(cluster_.StateOf(0), SiteState::kDown);
  EXPECT_EQ(service_.stats().Get("status.declared_down"), 1u);
  // The process still runs: it was fenced, not killed.
  EXPECT_TRUE(service_.ProcessAlive(0));
}

TEST_F(StatusServiceTest, DownObserversDoNotCountTowardMajority) {
  ASSERT_TRUE(service_.InjectCrash(4).ok());
  ASSERT_TRUE(service_.InjectCrash(5).ok());
  service_.ReportSuspicion(1, 0, true);
  service_.ReportSuspicion(2, 0, true);
  // Stale reports from the dead observers must not tip the scale.
  service_.ReportSuspicion(4, 0, true);
  service_.ReportSuspicion(5, 0, true);
  EXPECT_EQ(cluster_.StateOf(0), SiteState::kUp)
      << "only 2 of 5 peers are live suspectors";
}

TEST_F(StatusServiceTest, FencedSiteRejoinsWhenSuspicionClears) {
  service_.ReportSuspicion(1, 0, true);
  service_.ReportSuspicion(2, 0, true);
  service_.ReportSuspicion(3, 0, true);
  ASSERT_EQ(cluster_.StateOf(0), SiteState::kDown);
  const uint64_t declared_epoch = service_.Epoch(0);

  // Peers hear it again: below the majority it rejoins as recovering (it
  // missed writes while fenced), with a fresh epoch.
  service_.ReportSuspicion(2, 0, false);
  EXPECT_EQ(cluster_.StateOf(0), SiteState::kRecovering);
  EXPECT_EQ(service_.Epoch(0), declared_epoch + 1);
  EXPECT_EQ(service_.stats().Get("status.rejoins"), 1u);
}

TEST_F(StatusServiceTest, CrashedSiteDoesNotRejoinOnSuspicionClear) {
  ASSERT_TRUE(service_.InjectCrash(0).ok());
  service_.ReportSuspicion(1, 0, true);
  service_.ReportSuspicion(1, 0, false);
  EXPECT_EQ(cluster_.StateOf(0), SiteState::kDown)
      << "a dead process rejoins via NotifyRestart, not via heartbeats";
}

TEST_F(StatusServiceTest, ViewsPreferPresumptionThenSuspicionThenCluster) {
  // Cluster state is the fallback.
  EXPECT_EQ(service_.Perceived(1, 0), SiteState::kUp);
  ASSERT_TRUE(cluster_.FailDisk(0, 0).ok());
  EXPECT_EQ(service_.Perceived(1, 0), SiteState::kRecovering);

  // One suspicion (no majority) reads as down for that observer only, and
  // only in Perceived: a site that is merely suspected is not declared.
  service_.ReportSuspicion(1, 0, true);
  EXPECT_TRUE(service_.Suspects(1, 0));
  EXPECT_EQ(service_.Perceived(1, 0), SiteState::kDown);
  EXPECT_EQ(service_.Declared(1, 0), SiteState::kRecovering);
  EXPECT_EQ(service_.Perceived(2, 0), SiteState::kRecovering);

  // A presumption outranks both, in both views, and moves no epoch.
  const uint64_t epoch = service_.Epoch(0);
  service_.Presume(1, 0, SiteState::kUp);
  EXPECT_EQ(service_.Perceived(1, 0), SiteState::kUp);
  EXPECT_EQ(service_.Declared(1, 0), SiteState::kUp);
  service_.Presume(2, 0, SiteState::kDown);
  EXPECT_EQ(service_.Declared(2, 0), SiteState::kDown);
  EXPECT_EQ(service_.Perceived(0, 2), SiteState::kUp) << "views are directed";
  EXPECT_EQ(service_.Epoch(0), epoch);

  // Clearing falls back through the order again.
  service_.Presume(1, 0, std::nullopt);
  EXPECT_EQ(service_.Perceived(1, 0), SiteState::kDown);
  service_.ReportSuspicion(1, 0, false);
  EXPECT_EQ(service_.Perceived(1, 0), SiteState::kRecovering);
}

TEST_F(StatusServiceTest, ProcessAliveFollowsCrashesMadeOnTheCluster) {
  // Aliveness is derived, not tracked: a crash the service did not inject
  // still kills the process, and a restore revives it.
  ASSERT_TRUE(cluster_.CrashSite(4).ok());
  EXPECT_FALSE(service_.ProcessAlive(4));
  ASSERT_TRUE(cluster_.RestoreSite(4).ok());
  EXPECT_TRUE(service_.ProcessAlive(4));
  EXPECT_EQ(service_.Epoch(4), 0u) << "the service moved nothing";
}

TEST_F(StatusServiceTest, ListenersSeeTransitionsInOrder) {
  std::vector<std::tuple<SiteId, SiteState, uint64_t>> seen;
  service_.AddListener([&](SiteId s, SiteState st, uint64_t e) {
    seen.emplace_back(s, st, e);
  });
  ASSERT_TRUE(service_.InjectCrash(2).ok());
  ASSERT_TRUE(service_.NotifyRestart(2).ok());
  ASSERT_TRUE(service_.MarkUp(2).ok());
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], std::make_tuple(SiteId(2), SiteState::kDown, 1ull));
  EXPECT_EQ(seen[1],
            std::make_tuple(SiteId(2), SiteState::kRecovering, 2ull));
  EXPECT_EQ(seen[2], std::make_tuple(SiteId(2), SiteState::kUp, 3ull));
}

TEST_F(StatusServiceTest, DisasterRestartComesBackBlank) {
  Block b(256);
  b.FillPattern(5);
  ASSERT_TRUE(cluster_.site(1)->disks()->Write(2, b, Uid::Make(1, 1)).ok());
  ASSERT_TRUE(service_.InjectDisaster(1).ok());
  // Even a write that sneaks onto the dead array during the outage is
  // gone after restart: the replacement hardware arrives blank.
  (void)cluster_.site(1)->disks()->Write(2, b, Uid::Make(1, 2));
  ASSERT_TRUE(service_.NotifyRestart(1).ok());
  EXPECT_TRUE(cluster_.site(1)->disks()->Read(2).status().IsDataLoss());
}

}  // namespace
}  // namespace radd
