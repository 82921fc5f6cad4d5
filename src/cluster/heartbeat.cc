#include "cluster/heartbeat.h"

namespace radd {

namespace {
constexpr size_t kHeartbeatBytes = 16;
}  // namespace

HeartbeatDetector::HeartbeatDetector(Simulator* sim, Network* net,
                                     SiteStatusService* service,
                                     std::vector<SiteId> sites,
                                     const HeartbeatConfig& config)
    : sim_(sim),
      net_(net),
      service_(service),
      sites_(std::move(sites)),
      config_(config) {
  for (SiteId s : sites_) {
    chained_[s] = net_->GetHandler(s);
    net_->RegisterHandler(
        s, [this, s](Message& msg) { OnMessage(s, msg); });
    for (SiteId t : sites_) {
      if (t == s) continue;
      views_[s][t] = PeerView{};
    }
  }
}

void HeartbeatDetector::Start() {
  if (started_) return;
  started_ = true;
  stopped_ = false;
  for (SiteId s : sites_) {
    Broadcast(s);
    Check(s);
  }
}

void HeartbeatDetector::Stop() {
  stopped_ = true;
  started_ = false;
}

void HeartbeatDetector::Broadcast(SiteId from) {
  if (stopped_) return;
  // Gated on process-aliveness, not on the cluster's view: a fenced site
  // (declared down while its process still runs) keeps broadcasting —
  // that is exactly the signal that lets the control plane rejoin it.
  if (service_->ProcessAlive(from)) {
    for (SiteId to : sites_) {
      if (to == from) continue;
      Message m;
      m.from = from;
      m.to = to;
      m.type = MessageType::kHeartbeat;
      m.wire_bytes = kHeartbeatBytes;
      m.payload = Heartbeat{sim_->Now()};
      net_->Send(std::move(m));
    }
  }
  sim_->Schedule(config_.interval, [this, from]() { Broadcast(from); });
}

void HeartbeatDetector::RaiseSuspicion(SiteId observer, SiteId target) {
  views_[observer][target].probing = false;
  ++transitions_;
  stats_.Add("detector.suspicions");
  if (service_->ProcessAlive(target)) {
    stats_.Add("detector.false_suspicions");
  }
  service_->ReportSuspicion(observer, target, true);
}

void HeartbeatDetector::Check(SiteId observer) {
  if (stopped_) return;
  // A down observer makes no observations; its views freeze. (A *fenced*
  // observer is cluster-down too: its stale observations must not keep
  // feeding the control plane while it is out of the membership.)
  if (!Down(observer)) {
    const SimTime limit = config_.interval *
                          static_cast<SimTime>(config_.suspect_after);
    for (SiteId target : sites_) {
      if (target == observer) continue;
      PeerView& v = views_[observer][target];
      const bool quiet = sim_->Now() > v.last_heard + limit;
      if (!quiet) {
        v.probing = false;
        continue;
      }
      if (service_->Suspects(observer, target)) continue;
      if (!v.probing) {
        // Hysteresis: k missed intervals alone could be one reordered or
        // dropped heartbeat. Confirm with a direct probe before flapping
        // the membership.
        Message m;
        m.from = observer;
        m.to = target;
        m.type = MessageType::kHbProbe;
        m.wire_bytes = kHeartbeatBytes;
        m.payload = Heartbeat{sim_->Now()};
        net_->Send(std::move(m));
        v.probing = true;
        v.probe_deadline = sim_->Now() + config_.interval;
        stats_.Add("detector.probes_sent");
      } else if (sim_->Now() >= v.probe_deadline) {
        RaiseSuspicion(observer, target);
      }
    }
  }
  sim_->Schedule(config_.interval, [this, observer]() { Check(observer); });
}

void HeartbeatDetector::Hear(SiteId observer, SiteId target) {
  PeerView& v = views_[observer][target];
  v.last_heard = sim_->Now();
  v.probing = false;
  if (service_->Suspects(observer, target)) {
    ++transitions_;
    stats_.Add("detector.clears");
    service_->ReportSuspicion(observer, target, false);
  }
}

void HeartbeatDetector::OnMessage(SiteId self, Message& msg) {
  if (msg.type == MessageType::kHeartbeat) {
    if (Down(self)) return;
    Hear(self, msg.from);
    return;
  }
  if (msg.type == MessageType::kHbProbe) {
    // Answered iff the process runs — a fenced site replies, advertising
    // that it is worth rejoining.
    if (service_->ProcessAlive(self)) {
      Message m;
      m.from = self;
      m.to = msg.from;
      m.type = MessageType::kHbProbeAck;
      m.wire_bytes = kHeartbeatBytes;
      m.payload = Heartbeat{sim_->Now()};
      net_->Send(std::move(m));
    }
    return;
  }
  if (msg.type == MessageType::kHbProbeAck) {
    if (Down(self)) return;
    stats_.Add("detector.probes_answered");
    Hear(self, msg.from);
    return;
  }
  auto chained = chained_.find(self);
  if (chained != chained_.end() && chained->second) {
    chained->second(msg);
  }
}

}  // namespace radd
