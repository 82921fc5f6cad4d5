// SiteStatusService — the one membership authority. It replaces the
// paper's [ABBA85] oracle ("the protocol by which each site obtains the
// state of all other sites") with an actual control plane, and it is the
// only object the protocol layer asks "is site X up?". RaddNodeSystem
// owns one, built over its cluster; the heartbeat detector, the recovery
// sweeper, the chaos harness and the tests reach it through
// RaddNodeSystem::status().
//
// Site state changes made through the service:
//
//   * kUp -> kDown       — a physical fault (InjectCrash / InjectDisaster)
//                          or a *declaration*: enough live observers
//                          reported heartbeat suspicion (majority rule,
//                          paper §5's partition handling). A declared-down
//                          site whose process is actually alive is
//                          "fenced": the cluster treats it as down, its
//                          writes land on spares, and it rejoins
//                          automatically once peers hear from it again.
//   * kDown -> kRecovering — NotifyRestart (a rebooted process announces
//                          itself) or the automatic rejoin of a fenced
//                          site when suspicion drops below the majority.
//   * kRecovering -> kUp — MarkUp, called by the recovery sweeper once its
//                          cursor has verified every row clean.
//
// Every such transition bumps the site's *epoch*. Protocol messages carry
// the epoch of the site whose data they touch; a receiver whose service
// knows a newer epoch rejects the message with StaleEpoch instead of
// applying it — closing the window where a delayed pre-crash parity update
// or spare write, applied after a fast down->recovering->up cycle, would
// silently corrupt redundancy. State set on the Cluster directly (the
// oracle-mode tests and benches) moves no epoch, so such runs carry 0
// stamps throughout.
//
// Per-observer views. What one site believes about another is, in order:
//   1. a *presumption* set with Presume — oracle-mode partitions, where
//      the majority side treats the unreachable site as down (§5);
//   2. the observer's heartbeat *suspicion* (ReportSuspicion), which reads
//      as kDown;
//   3. the cluster state.
// Suspicion can only tell reachable from unreachable, so "reachable" is
// refined by the cluster state: a recovering site is handled by the
// recovering protocol (a real system learns that state in the reconnect
// handshake).

#ifndef RADD_CLUSTER_STATUS_SERVICE_H_
#define RADD_CLUSTER_STATUS_SERVICE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/status.h"
#include "sim/stats.h"

namespace radd {

/// The control plane. One instance per cluster; deterministic (no hidden
/// randomness), so chaos schedules that drive it replay bit-for-bit.
class SiteStatusService {
 public:
  explicit SiteStatusService(Cluster* cluster);

  // --- views ---------------------------------------------------------------

  /// Current membership epoch of `site`. Starts at 0 and bumps on every
  /// state transition; never reused.
  uint64_t Epoch(SiteId site) const;

  /// OK when `epoch` matches `site`'s current epoch; StaleEpoch otherwise.
  Status CheckEpoch(SiteId site, uint64_t epoch) const;

  /// The cluster state of `site`: the ground truth every view falls back
  /// to.
  SiteState StateOf(SiteId site) const { return cluster_->StateOf(site); }

  /// State `observer` believes `target` to be in: its presumption, else
  /// kDown while it suspects `target`, else the cluster state.
  SiteState Perceived(SiteId observer, SiteId target) const {
    const View& v = view(observer, target);
    if (v.presumed) return *v.presumed;
    if (v.suspected) return SiteState::kDown;
    return cluster_->StateOf(target);
  }

  /// State the membership holds for `target` in `observer`'s view: its
  /// presumption, else the cluster state. Unlike Perceived, suspicion
  /// alone does not count: a site that is only suspected down is never
  /// swept, so nothing would drain a spare written on its behalf. Spare
  /// writes and materializations go by this.
  SiteState Declared(SiteId observer, SiteId target) const {
    const View& v = view(observer, target);
    return v.presumed ? *v.presumed : cluster_->StateOf(target);
  }

  /// True while `observer`'s detector suspects `target`.
  bool Suspects(SiteId observer, SiteId target) const {
    return view(observer, target).suspected;
  }

  /// Whether the site's *process* is running: it is not cluster-down, or
  /// it is fenced (declared down while alive; it keeps heartbeating, which
  /// is what lets it rejoin). A site crashed by any means — through the
  /// service or on the Cluster directly — is not alive until it restarts.
  bool ProcessAlive(SiteId site) const;

  /// True when every site is kUp — the autopilot convergence target.
  bool Converged() const;

  // --- physical fault + repair events --------------------------------------

  /// The site's process halts; disks keep their contents.
  Status InjectCrash(SiteId site);

  /// The site halts and all its disks are lost.
  Status InjectDisaster(SiteId site);

  /// Media failure of disk `d` at an up site: the site stays alive and
  /// moves to kRecovering (its sweep reconstructs the lost blocks).
  Status InjectDiskFailure(SiteId site, int d);

  /// A rebooted (or replaced, after disaster) process announces itself:
  /// kDown -> kRecovering. The background sweeper takes it from there.
  Status NotifyRestart(SiteId site);

  /// kRecovering -> kUp. Called by the recovery sweeper after its
  /// verification pass; callable manually for oracle-style tests.
  Status MarkUp(SiteId site);

  // --- oracle-mode partitions ----------------------------------------------

  /// Pins `observer`'s view of `target` to `state` (§5: the majority side
  /// of a partition treats the unreachable site as down); nullopt clears
  /// it. A presumption outranks suspicion and the cluster state, and moves
  /// no epoch.
  void Presume(SiteId observer, SiteId target,
               std::optional<SiteState> state);

  // --- failure-detector input ----------------------------------------------

  /// `observer`'s heartbeat detector raised (suspected = true) or cleared
  /// (false) its suspicion of `target`. The service declares `target` down
  /// once a strict majority of its peers that are themselves not down
  /// suspect it, and rejoins a fenced site once suspicion falls back below
  /// the majority (peers hear its heartbeats again).
  void ReportSuspicion(SiteId observer, SiteId target, bool suspected);

  // --- listeners -----------------------------------------------------------

  /// Called after every state transition with (site, new state, new epoch).
  /// Registration order is invocation order (determinism).
  using Listener = std::function<void(SiteId, SiteState, uint64_t)>;
  void AddListener(Listener listener);

  /// Counters: "status.transitions", "status.declared_down",
  /// "status.rejoins", "status.restarts", "status.marked_up",
  /// "status.crashes", "status.disasters", "status.disk_failures".
  const Stats& stats() const { return stats_; }

 private:
  struct Entry {
    uint64_t epoch = 0;
    /// Declared down by suspicion while the process still runs.
    bool fenced = false;
  };
  /// One observer's view of one target.
  struct View {
    std::optional<SiteState> presumed;
    bool suspected = false;
  };

  /// `views_` is a dense observer x target table, so the lookup made on
  /// every protocol decision is one index.
  const View& view(SiteId observer, SiteId target) const {
    return views_[static_cast<size_t>(observer) * entries_.size() + target];
  }
  View& view(SiteId observer, SiteId target) {
    return views_[static_cast<size_t>(observer) * entries_.size() + target];
  }

  /// Applies the already-validated state change: bumps the epoch, records
  /// stats, and notifies listeners.
  void Transition(SiteId site, SiteState next, const char* counter);

  /// Re-checks the majority rule for `target` after a suspicion change.
  void Reevaluate(SiteId target);

  /// Suspicion reports for `target` from observers that are not down.
  int LiveSuspicion(SiteId target) const;

  Cluster* cluster_;
  std::vector<Entry> entries_;
  std::vector<View> views_;
  std::vector<Listener> listeners_;
  Stats stats_;
};

}  // namespace radd

#endif  // RADD_CLUSTER_STATUS_SERVICE_H_
