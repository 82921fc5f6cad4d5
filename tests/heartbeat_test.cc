// Tests for the heartbeat failure detector and its integration with the
// protocol layer.

#include "cluster/heartbeat.h"

#include <gtest/gtest.h>

#include "core/node.h"

namespace radd {
namespace {

class HeartbeatTest : public ::testing::Test {
 protected:
  HeartbeatTest()
      : net_(&sim_, NetworkModel{}, 3),
        cluster_(4, SiteConfig{1, 8, 256}),
        service_(&cluster_),
        detector_(&sim_, &net_, &service_, {0, 1, 2, 3}) {}

  Simulator sim_;
  Network net_;
  Cluster cluster_;
  SiteStatusService service_;
  HeartbeatDetector detector_;
};

TEST_F(HeartbeatTest, AllUpNobodySuspected) {
  detector_.Start();
  sim_.RunUntil(Seconds(10));
  for (SiteId a = 0; a < 4; ++a) {
    for (SiteId b = 0; b < 4; ++b) {
      EXPECT_FALSE(service_.Suspects(a, b)) << a << " suspects " << b;
      EXPECT_EQ(service_.Perceived(a, b), SiteState::kUp);
    }
  }
}

TEST_F(HeartbeatTest, CrashedSiteGetsSuspected) {
  detector_.Start();
  sim_.RunUntil(Seconds(5));
  ASSERT_TRUE(cluster_.CrashSite(2).ok());
  sim_.RunUntil(Seconds(10));
  for (SiteId a : {0u, 1u, 3u}) {
    EXPECT_TRUE(service_.Suspects(a, 2)) << a;
    EXPECT_EQ(service_.Perceived(a, 2), SiteState::kDown);
  }
  EXPECT_FALSE(service_.Suspects(0, 1));
}

TEST_F(HeartbeatTest, CrashOutsideTheServiceStopsHeartbeats) {
  // A site crashed on the Cluster directly — not through InjectCrash — is
  // dead to the service too: it stops heartbeating and answering probes,
  // so its peers suspect it. The service changes no state of its own (the
  // site is already down), so no epoch moves.
  detector_.Start();
  sim_.RunUntil(Seconds(5));
  ASSERT_TRUE(cluster_.CrashSite(1).ok());
  EXPECT_FALSE(service_.ProcessAlive(1));
  sim_.RunUntil(Seconds(10));
  for (SiteId a : {0u, 2u, 3u}) {
    EXPECT_TRUE(service_.Suspects(a, 1)) << a;
  }
  EXPECT_EQ(detector_.false_suspicions(), 0u);
  EXPECT_EQ(service_.stats().Get("status.declared_down"), 0u);
  EXPECT_EQ(service_.Epoch(1), 0u);
}

TEST_F(HeartbeatTest, SuspicionClearsOnReturn) {
  detector_.Start();
  sim_.RunUntil(Seconds(5));
  ASSERT_TRUE(cluster_.CrashSite(2).ok());
  sim_.RunUntil(Seconds(10));
  ASSERT_TRUE(service_.Suspects(0, 2));
  ASSERT_TRUE(cluster_.RestoreSite(2).ok());
  ASSERT_TRUE(cluster_.MarkUp(2).ok());
  sim_.RunUntil(Seconds(15));
  EXPECT_FALSE(service_.Suspects(0, 2));
  EXPECT_GE(detector_.transitions(), 6u);  // 3 raised + 3 cleared
}

TEST_F(HeartbeatTest, LostHeartbeatsAreProbedNotDeclared) {
  // Flapping fix: k missed intervals alone must not raise a suspicion.
  // Site 2's heartbeats are all lost, but it answers confirmation probes —
  // so it stays in the membership, with zero false suspicions.
  detector_.Start();
  sim_.RunUntil(Seconds(2));
  net_.SetFaultHook("heartbeat", [](const Message& m) {
    return m.from == 2 ? FaultAction::kDrop : FaultAction::kDeliver;
  });
  sim_.RunUntil(Seconds(20));
  for (SiteId a : {0u, 1u, 3u}) {
    EXPECT_FALSE(service_.Suspects(a, 2)) << a << " flapped on site 2";
  }
  EXPECT_GT(detector_.stats().Get("detector.probes_sent"), 0u);
  EXPECT_GT(detector_.stats().Get("detector.probes_answered"), 0u);
  EXPECT_EQ(detector_.false_suspicions(), 0u);
  net_.ClearFaultHooks();
}

TEST_F(HeartbeatTest, UnansweredProbeRaisesFalseSuspicion) {
  // When the probe goes unanswered too, the detector declares — and since
  // the process is in fact alive, the false-positive counter records it.
  // Every peer suspects it, so the service fences it.
  detector_.Start();
  sim_.RunUntil(Seconds(2));
  auto drop_from_2 = [](const Message& m) {
    return m.from == 2 ? FaultAction::kDrop : FaultAction::kDeliver;
  };
  net_.SetFaultHook("heartbeat", drop_from_2);
  net_.SetFaultHook("hb_probe_ack", drop_from_2);
  sim_.RunUntil(Seconds(10));
  EXPECT_TRUE(service_.Suspects(0, 2));
  EXPECT_GE(detector_.false_suspicions(), 1u);
  EXPECT_EQ(cluster_.StateOf(2), SiteState::kDown);
  EXPECT_TRUE(service_.ProcessAlive(2)) << "fenced, not dead";
  net_.ClearFaultHooks();
}

TEST_F(HeartbeatTest, FencedSiteRejoinsThroughControlPlane) {
  // Detector + service end to end: the majority side of a partition fences
  // the isolated site; after the heal its heartbeats are heard again and
  // the service rejoins it as recovering.
  detector_.Start();
  sim_.RunUntil(Seconds(2));
  net_.SetPartitions({{0, 1, 3}, {2}});
  sim_.RunUntil(Seconds(10));
  EXPECT_EQ(cluster_.StateOf(2), SiteState::kDown);
  EXPECT_TRUE(service_.ProcessAlive(2)) << "fenced, not dead";
  EXPECT_EQ(service_.stats().Get("status.declared_down"), 1u);
  // The minority side (one observer of three peers) must never declare.
  EXPECT_EQ(cluster_.StateOf(0), SiteState::kUp);

  net_.Heal();
  sim_.RunUntil(Seconds(20));
  EXPECT_EQ(cluster_.StateOf(2), SiteState::kRecovering)
      << "rejoined, pending a recovery sweep";
  EXPECT_EQ(service_.stats().Get("status.rejoins"), 1u);
  EXPECT_GE(service_.Epoch(2), 2u);
}

TEST_F(HeartbeatTest, PartitionLooksLikeFailureFromBothSides) {
  // Site 0 is the singleton. Its checks run first in every tick, so it
  // raises its suspicions of the whole majority before the majority's
  // suspicions of it reach the service and fence it; a fenced site makes
  // no further observations.
  detector_.Start();
  sim_.RunUntil(Seconds(5));
  net_.SetPartitions({{1, 2, 3}, {0}});
  sim_.RunUntil(Seconds(10));
  // Majority suspects the singleton; the singleton suspects everyone.
  EXPECT_TRUE(service_.Suspects(1, 0));
  EXPECT_TRUE(service_.Suspects(0, 1));
  EXPECT_TRUE(service_.Suspects(0, 2));
  EXPECT_TRUE(service_.Suspects(0, 3));
  EXPECT_FALSE(service_.Suspects(1, 2));
  // Only the majority's view becomes a declaration (§5): the singleton is
  // fenced, and its suspicions of three peers never count as a majority.
  EXPECT_EQ(cluster_.StateOf(0), SiteState::kDown);
  EXPECT_EQ(cluster_.StateOf(1), SiteState::kUp);
  EXPECT_EQ(service_.stats().Get("status.declared_down"), 1u);
  net_.Heal();
  sim_.RunUntil(Seconds(15));
  EXPECT_FALSE(service_.Suspects(1, 0));
  EXPECT_FALSE(service_.Suspects(0, 1));
  EXPECT_EQ(cluster_.StateOf(0), SiteState::kRecovering);
}

TEST(HeartbeatIntegration, ChainsToProtocolHandlers) {
  // The detector must not eat the RADD protocol's messages.
  RaddConfig config;
  config.group_size = 4;
  config.rows = 12;
  config.block_size = 256;
  Simulator sim;
  Network net(&sim, NetworkModel{}, 5);
  Cluster cluster(6, SiteConfig{1, 12, 256});
  RaddNodeSystem sys(&sim, &net, &cluster, config);
  HeartbeatDetector detector(&sim, &net, sys.status(), {0, 1, 2, 3, 4, 5});
  detector.Start();

  Block b(256);
  b.FillPattern(1);
  auto w = sys.Write(1, 0, 1, 0, b);
  ASSERT_TRUE(w.status.ok());
  auto r = sys.Read(2, 0, 1, 0);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.data, b);

  // Detector-driven degraded operation: crash a site and let the
  // detector notice. Its suspicion reaches the protocol layer through the
  // system's status service with no hand-off.
  ASSERT_TRUE(cluster.CrashSite(1).ok());
  sim.RunUntil(sim.Now() + Seconds(5));
  ASSERT_TRUE(sys.status()->Suspects(2, 1));
  auto dr = sys.Read(2, 0, 1, 0);
  ASSERT_TRUE(dr.status.ok()) << dr.status.ToString();
  EXPECT_EQ(dr.data, b);
}

TEST(HeartbeatIntegration, DetectorBuiltBeforeProtocolKeepsItsTraffic) {
  // Construction order must not matter: the protocol layer chains behind a
  // detector that registered first instead of overwriting its handlers.
  RaddConfig config;
  config.group_size = 4;
  config.rows = 12;
  config.block_size = 256;
  Simulator sim;
  Network net(&sim, NetworkModel{}, 5);
  Cluster cluster(6, SiteConfig{1, 12, 256});
  // The system does not exist yet, so the detector reports to a service of
  // its own; only the handler chain is under test here.
  SiteStatusService service(&cluster);
  HeartbeatDetector detector(&sim, &net, &service, {0, 1, 2, 3, 4, 5});
  RaddNodeSystem sys(&sim, &net, &cluster, config);
  detector.Start();
  sim.RunUntil(Seconds(10));
  for (SiteId a = 0; a < 6; ++a) {
    for (SiteId c = 0; c < 6; ++c) {
      EXPECT_FALSE(service.Suspects(a, c)) << a << " suspects " << c;
    }
  }

  Block b(256);
  b.FillPattern(1);
  auto w = sys.Write(1, 0, 1, 0, b);
  ASSERT_TRUE(w.status.ok());
  auto r = sys.Read(2, 0, 1, 0);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.data, b);
}

}  // namespace
}  // namespace radd
