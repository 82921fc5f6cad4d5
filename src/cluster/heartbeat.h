// Heartbeat failure detector — a concrete stand-in for the site-status
// protocol the paper leaves to [ABBA85] ("The protocol by which each site
// obtains the state of all other sites is straightforward and is not
// discussed further in this paper").
//
// Every site broadcasts a heartbeat each `interval`. An observer that has
// not heard from a peer for `suspect_after` intervals does not declare it
// down immediately: a single delayed or reorder-jittered heartbeat must
// not flap the membership. Instead it sends a confirmation probe and only
// raises the suspicion when the probe also goes unanswered for a further
// interval (hysteresis). Hearing from the peer again — heartbeat or probe
// ack — clears the suspicion.
//
// The detector feeds every suspicion raise and clear into the
// SiteStatusService it is built on (RaddNodeSystem::status()) and keeps no
// copy of its own. The service holds them as per-observer views
// (SiteStatusService::Suspects), which the protocol reads on every
// decision — so a partition that "looks like a single failure" (§5) is
// handled by the majority side automatically — and aggregates them under
// the majority rule into actual kUp -> kDown declarations. A down site
// makes no observations, so its last belief stands. Who broadcasts and
// who answers probes is the service's process-aliveness.

#ifndef RADD_CLUSTER_HEARTBEAT_H_
#define RADD_CLUSTER_HEARTBEAT_H_

#include <map>
#include <vector>

#include "cluster/status_service.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "sim/stats.h"

namespace radd {

/// Tunables of the detector.
struct HeartbeatConfig {
  SimTime interval = Millis(500);
  /// Missed intervals before a peer is probed; the suspicion is raised
  /// when the probe, too, goes unanswered for one more interval.
  int suspect_after = 3;
};

/// The detector. One instance serves the whole simulation but keeps
/// independent per-observer state (each site only knows what it heard).
class HeartbeatDetector {
 public:
  /// `sites` lists the participating sites. The detector registers a
  /// composite network handler per site that only consumes messages of
  /// types "heartbeat" / "hb_probe" / "hb_probe_ack" and forwards
  /// everything else to the previously registered handler.
  /// RaddNodeSystem chains the same way, so the two may be constructed in
  /// either order.
  /// Every suspicion change goes to `service`.
  HeartbeatDetector(Simulator* sim, Network* net, SiteStatusService* service,
                    std::vector<SiteId> sites,
                    const HeartbeatConfig& config = {});

  /// Starts the periodic broadcast/check loops.
  void Start();

  /// Stops the loops: pending ticks become no-ops and nothing is
  /// rescheduled, so Simulator::Run() can drain the queue.
  void Stop();

  /// Number of state flips observed (suspicions raised + cleared).
  uint64_t transitions() const { return transitions_; }

  /// Suspicions raised against a site whose process was in fact alive
  /// (ground truth from the service) — the detector's false positive
  /// count.
  uint64_t false_suspicions() const {
    return stats_.Get("detector.false_suspicions");
  }

  /// "detector.suspicions", "detector.clears", "detector.false_suspicions",
  /// "detector.probes_sent", "detector.probes_answered".
  const Stats& stats() const { return stats_; }

 private:
  struct PeerView {
    SimTime last_heard = 0;
    /// A confirmation probe is outstanding.
    bool probing = false;
    SimTime probe_deadline = 0;
  };

  void Broadcast(SiteId from);
  void Check(SiteId observer);
  void OnMessage(SiteId self, Message& msg);
  /// Records life sign `observer` heard from `target`.
  void Hear(SiteId observer, SiteId target);
  void RaiseSuspicion(SiteId observer, SiteId target);
  /// True while `site` is cluster-down (fenced or crashed): it makes no
  /// observations.
  bool Down(SiteId site) const {
    return service_->StateOf(site) == SiteState::kDown;
  }

  Simulator* sim_;
  Network* net_;
  SiteStatusService* service_;
  std::vector<SiteId> sites_;
  HeartbeatConfig config_;
  std::map<SiteId, Network::Handler> chained_;
  /// views_[observer][target].
  std::map<SiteId, std::map<SiteId, PeerView>> views_;
  uint64_t transitions_ = 0;
  Stats stats_;
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace radd

#endif  // RADD_CLUSTER_HEARTBEAT_H_
