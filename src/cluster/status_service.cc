#include "cluster/status_service.h"

namespace radd {

SiteStatusService::SiteStatusService(Cluster* cluster) : cluster_(cluster) {
  const size_t n = static_cast<size_t>(cluster_->num_sites());
  entries_.resize(n);
  views_.resize(n * n);
}

uint64_t SiteStatusService::Epoch(SiteId site) const {
  return site < entries_.size() ? entries_[site].epoch : 0;
}

Status SiteStatusService::CheckEpoch(SiteId site, uint64_t epoch) const {
  if (site >= entries_.size()) {
    return Status::NotFound("no site " + std::to_string(site));
  }
  if (entries_[site].epoch != epoch) {
    return Status::StaleEpoch(
        "site " + std::to_string(site) + " is at epoch " +
        std::to_string(entries_[site].epoch) + ", operation carried " +
        std::to_string(epoch));
  }
  return Status::OK();
}

bool SiteStatusService::ProcessAlive(SiteId site) const {
  return site < entries_.size() &&
         (cluster_->StateOf(site) != SiteState::kDown ||
          entries_[site].fenced);
}

bool SiteStatusService::Converged() const {
  for (int s = 0; s < cluster_->num_sites(); ++s) {
    if (cluster_->StateOf(static_cast<SiteId>(s)) != SiteState::kUp) {
      return false;
    }
  }
  return true;
}

void SiteStatusService::Transition(SiteId site, SiteState next,
                                   const char* counter) {
  Entry& e = entries_[site];
  ++e.epoch;
  stats_.Add("status.transitions");
  stats_.Add(counter);
  for (const Listener& l : listeners_) l(site, next, e.epoch);
}

Status SiteStatusService::InjectCrash(SiteId site) {
  if (site >= entries_.size()) {
    return Status::NotFound("no site " + std::to_string(site));
  }
  RADD_RETURN_NOT_OK(cluster_->CrashSite(site));
  entries_[site].fenced = false;
  Transition(site, SiteState::kDown, "status.crashes");
  return Status::OK();
}

Status SiteStatusService::InjectDisaster(SiteId site) {
  if (site >= entries_.size()) {
    return Status::NotFound("no site " + std::to_string(site));
  }
  RADD_RETURN_NOT_OK(cluster_->DisasterSite(site));
  entries_[site].fenced = false;
  Transition(site, SiteState::kDown, "status.disasters");
  return Status::OK();
}

Status SiteStatusService::InjectDiskFailure(SiteId site, int d) {
  if (site >= entries_.size()) {
    return Status::NotFound("no site " + std::to_string(site));
  }
  RADD_RETURN_NOT_OK(cluster_->FailDisk(site, d));
  Transition(site, SiteState::kRecovering, "status.disk_failures");
  return Status::OK();
}

Status SiteStatusService::NotifyRestart(SiteId site) {
  if (site >= entries_.size()) {
    return Status::NotFound("no site " + std::to_string(site));
  }
  // RestoreSite validates kDown and blanks the disks of a disaster-lost
  // site before the state flips.
  RADD_RETURN_NOT_OK(cluster_->RestoreSite(site));
  entries_[site].fenced = false;
  Transition(site, SiteState::kRecovering, "status.restarts");
  return Status::OK();
}

Status SiteStatusService::MarkUp(SiteId site) {
  if (site >= entries_.size()) {
    return Status::NotFound("no site " + std::to_string(site));
  }
  if (cluster_->StateOf(site) != SiteState::kRecovering) {
    return Status::InvalidArgument(
        "site " + std::to_string(site) + " is " +
        std::string(SiteStateName(cluster_->StateOf(site))) +
        ", not recovering");
  }
  RADD_RETURN_NOT_OK(cluster_->MarkUp(site));
  Transition(site, SiteState::kUp, "status.marked_up");
  return Status::OK();
}

int SiteStatusService::LiveSuspicion(SiteId target) const {
  int count = 0;
  for (size_t o = 0; o < entries_.size(); ++o) {
    const SiteId observer = static_cast<SiteId>(o);
    if (view(observer, target).suspected &&
        cluster_->StateOf(observer) != SiteState::kDown) {
      ++count;
    }
  }
  return count;
}

void SiteStatusService::Presume(SiteId observer, SiteId target,
                                std::optional<SiteState> state) {
  if (observer >= entries_.size() || target >= entries_.size()) return;
  view(observer, target).presumed = state;
}

void SiteStatusService::ReportSuspicion(SiteId observer, SiteId target,
                                        bool suspected) {
  if (observer >= entries_.size() || target >= entries_.size() ||
      observer == target) {
    return;
  }
  view(observer, target).suspected = suspected;
  Reevaluate(target);
}

void SiteStatusService::Reevaluate(SiteId target) {
  Entry& e = entries_[target];
  const int peers = cluster_->num_sites() - 1;
  const int live = LiveSuspicion(target);
  const bool majority = 2 * live > peers;
  const SiteState state = cluster_->StateOf(target);

  if (state != SiteState::kDown && majority) {
    // Declare. A strict majority of peers (counting only observers that
    // are themselves not down) cannot be mustered by the minority side of
    // a partition, so only the majority side ever fences (§5's rule). The
    // target's process may well be alive — a partitioned or falsely
    // suspected site — in which case it is *fenced*: cluster-down (its
    // traffic redirects to spares), but still heartbeating, which is the
    // signal that later rejoins it.
    (void)cluster_->CrashSite(target);
    e.fenced = true;
    Transition(target, SiteState::kDown, "status.declared_down");
    return;
  }

  if (state == SiteState::kDown && e.fenced && !majority) {
    // Peers hear the fenced site again: rejoin as recovering — it missed
    // writes while fenced (they went to spares), so it must sweep before
    // serving as up.
    if (cluster_->RestoreSite(target).ok()) {
      e.fenced = false;
      Transition(target, SiteState::kRecovering, "status.rejoins");
    }
  }
}

void SiteStatusService::AddListener(Listener listener) {
  listeners_.push_back(std::move(listener));
}

}  // namespace radd
