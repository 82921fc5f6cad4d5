#include "core/sweeper.h"

#include <utility>

namespace radd {

RecoverySweeper::RecoverySweeper(Simulator* sim, RaddGroup* group,
                                 SiteStatusService* service,
                                 const SweeperConfig& config)
    : RecoverySweeper(sim, std::vector<RaddGroup*>{group}, service, config) {}

RecoverySweeper::RecoverySweeper(Simulator* sim,
                                 std::vector<RaddGroup*> groups,
                                 SiteStatusService* service,
                                 const SweeperConfig& config)
    : sim_(sim),
      groups_(std::move(groups)),
      service_(service),
      config_(config) {}

void RecoverySweeper::Start() {
  if (started_) return;
  started_ = true;
  service_->AddListener([this](SiteId site, SiteState state, uint64_t) {
    if (state == SiteState::kDown && config_.disk_charge) {
      // A disk-paced chain dies with the site's queues (the in-flight
      // charge completion is fenced by the crash); clear `active` so the
      // next kRecovering transition pumps a fresh chain. Wall-clock
      // chains keep their timer and terminate on their own next tick.
      for (size_t g = 0; g < groups_.size(); ++g) {
        const int member = groups_[g]->MemberAtSite(site);
        if (member < 0) continue;
        auto it = sweeps_.find({static_cast<int>(g), member});
        if (it != sweeps_.end()) it->second.active = false;
      }
      return;
    }
    if (state != SiteState::kRecovering) return;
    // A §4 site hosts one drive per group it belongs to; every such group
    // needs its own sweep, and they run concurrently.
    bool hosted = false;
    for (size_t g = 0; g < groups_.size(); ++g) {
      const int member = groups_[g]->MemberAtSite(site);
      if (member >= 0) {
        hosted = true;
        Pump(static_cast<int>(g), member);
      }
    }
    if (!hosted) {
      // A site hosting no drive (the reserved expansion site before any
      // group adopts it) has no recovery debt; without this it would sit
      // in kRecovering forever, since no sweep ever marks it up. Scheduled
      // so the service isn't re-entered mid-notification.
      sim_->Schedule(0, [this, site]() {
        if (service_->StateOf(site) == SiteState::kRecovering) {
          (void)service_->MarkUp(site);
        }
      });
    }
  });
  // Pick up members already mid-recovery when the sweeper comes online.
  for (size_t g = 0; g < groups_.size(); ++g) {
    for (int m = 0; m < groups_[g]->num_members(); ++m) {
      if (service_->StateOf(groups_[g]->SiteOfMember(m)) ==
          SiteState::kRecovering) {
        Pump(static_cast<int>(g), m);
      }
    }
  }
}

BlockNum RecoverySweeper::cursor(int grp, int member) const {
  auto it = sweeps_.find({grp, member});
  return it == sweeps_.end() ? 0 : it->second.cursor;
}

bool RecoverySweeper::active(int grp, int member) const {
  auto it = sweeps_.find({grp, member});
  return it != sweeps_.end() && it->second.active;
}

void RecoverySweeper::Pump(int grp, int member) {
  Sweep& sw = sweeps_[{grp, member}];
  if (sw.active) return;  // a tick chain is already running
  sw.active = true;
  if (sw.cursor > 0) stats_.Add("sweeper.resumes");
  stats_.Add("sweeper.sweeps_started");
  sim_->Schedule(0, [this, grp, member]() { Tick(grp, member); });
}

bool RecoverySweeper::TryMarkUp(SiteId site) {
  // Cross-group gate: the site may be clean in the group whose sweep just
  // finished but still dirty in a sibling group. Verify every slice in
  // this same simulator event (metadata-only scans) so no spare commit can
  // interleave between "all clean" and "up".
  for (size_t g = 0; g < groups_.size(); ++g) {
    const int m = groups_[g]->MemberAtSite(site);
    if (m < 0) continue;
    auto dirty = groups_[g]->FirstUnrecoveredRow(m);
    if (!dirty.ok() || *dirty < groups_[g]->NumRows()) return false;
  }
  if (!service_->MarkUp(site).ok()) return false;
  // Reset every slice's cursor; still-active sibling chains terminate on
  // their next tick (the site is no longer recovering) with cursor 0.
  for (size_t g = 0; g < groups_.size(); ++g) {
    const int m = groups_[g]->MemberAtSite(site);
    if (m < 0) continue;
    sweeps_[{static_cast<int>(g), m}].cursor = 0;
  }
  return true;
}

void RecoverySweeper::Tick(int grp, int member) {
  Sweep& sw = sweeps_[{grp, member}];
  RaddGroup* group = groups_[static_cast<size_t>(grp)];
  const SiteId site = group->SiteOfMember(member);
  if (service_->StateOf(site) != SiteState::kRecovering) {
    // The site left the recovering state under us (crashed again, marked
    // up by a sibling group's sweep, or an oracle). End the chain but keep
    // the cursor: the next kRecovering transition resumes instead of
    // re-draining from row 0.
    sw.active = false;
    return;
  }
  stats_.Add("sweeper.ticks");

  int budget = config_.rows_per_tick;
  if (config_.load_probe &&
      config_.load_probe() >= config_.backpressure_threshold) {
    budget = 1;
    stats_.Add("sweeper.backpressure_ticks");
  }

  OpCounts ops;
  uint32_t swept_now = 0;
  const BlockNum rows = group->NumRows();
  while (budget > 0 && sw.cursor < rows) {
    Status st = group->RecoverRow(member, sw.cursor, &ops);
    if (!st.ok()) {
      // Typically Blocked (a source for reconstruction is unavailable).
      // Leave the cursor on this row and retry next tick — another site's
      // recovery may unblock it.
      stats_.Add("sweeper.row_errors");
      break;
    }
    ++sw.cursor;
    --budget;
    ++swept_now;
    stats_.Add("sweeper.rows_swept");
  }
  stats_.Observe("sweeper.tick_ops", ops.Total());

  if (sw.cursor >= rows) {
    auto dirty = group->FirstUnrecoveredRow(member);
    if (dirty.ok()) {
      if (*dirty >= rows) {
        // This group is clean; the site goes up only when its drives in
        // every sibling group are clean too. The last-finishing sweep's
        // verification and the MarkUp share one simulator event.
        if (TryMarkUp(site)) {
          stats_.Add("sweeper.completed");
          sw.active = false;
          sw.cursor = 0;
          return;
        }
        // A sibling slice is still dirty (or MarkUp was refused): keep
        // ticking so this group re-verifies — and re-sweeps rows that get
        // re-dirtied — until the whole site converges.
      } else {
        // Rows behind the cursor were re-dirtied (e.g. spares absorbed
        // writes during a second outage). Rewind and keep sweeping.
        sw.cursor = *dirty;
        stats_.Add("sweeper.rescans");
      }
    } else {
      stats_.Add("sweeper.verify_errors");
    }
  }
  if (config_.disk_charge) {
    // Disk-paced mode: the tick's repairs queue as recovery-class writes
    // at the recovering site; the next tick runs when they complete, so
    // sweep speed follows the disk's real backlog instead of a fixed gap.
    // An idle tick (blocked row, verification pass) still charges one
    // unit — that is the retry delay.
    stats_.Add("sweeper.disk_paced_ticks");
    config_.disk_charge(site, swept_now > 0 ? swept_now : 1,
                        [this, grp, member]() { Tick(grp, member); });
    return;
  }
  sim_->Schedule(config_.tick_interval,
                 [this, grp, member]() { Tick(grp, member); });
}

void RecoverySweeper::StartMigration(int grp, std::function<void()> on_done) {
  RaddGroup* group = groups_[static_cast<size_t>(grp)];
  if (!group->ExpansionPending()) {
    if (on_done) on_done();
    return;
  }
  migrations_[grp] = std::move(on_done);
  stats_.Add("sweeper.migrations_started");
  sim_->Schedule(0, [this, grp]() { MigrateTick(grp); });
}

void RecoverySweeper::MigrateTick(int grp) {
  RaddGroup* group = groups_[static_cast<size_t>(grp)];
  stats_.Add("sweeper.migration_ticks");

  int budget = config_.rows_per_tick;
  if (config_.load_probe &&
      config_.load_probe() >= config_.backpressure_threshold) {
    budget = 1;
    stats_.Add("sweeper.backpressure_ticks");
  }

  uint32_t moved = 0;
  if (group->ExpansionPending()) {
    auto applied = group->MigrateStep(budget);
    if (applied.ok()) {
      moved = static_cast<uint32_t>(*applied);
      stats_.Add("sweeper.rows_moved", moved);
    } else {
      stats_.Add("sweeper.migration_errors");
    }
  }
  if (!group->ExpansionPending()) {
    // The last move committed the new epoch (or the expansion was aborted
    // under us). Hand off in this same simulator event.
    stats_.Add("sweeper.migrations_completed");
    auto it = migrations_.find(grp);
    std::function<void()> done;
    if (it != migrations_.end()) {
      done = std::move(it->second);
      migrations_.erase(it);
    }
    if (done) done();
    return;
  }
  // Pace like a recovery sweep: the moves land as recovery-class writes
  // at the new member's site. A tick that applied nothing (every queued
  // move hit an un-acked parity delta) still charges one unit — the
  // retry delay.
  const SiteId dest = group->SiteOfMember(group->num_members() - 1);
  if (config_.disk_charge) {
    stats_.Add("sweeper.disk_paced_ticks");
    config_.disk_charge(dest, moved > 0 ? moved : 1,
                        [this, grp]() { MigrateTick(grp); });
    return;
  }
  sim_->Schedule(config_.tick_interval, [this, grp]() { MigrateTick(grp); });
}

}  // namespace radd
