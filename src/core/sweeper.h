// RecoverySweeper — the paper's §3.2 "background demon" as an actual
// background task instead of a stop-the-world call.
//
// RaddGroup::RunRecovery repairs every row of a recovering member in one
// synchronous burst; under load that freezes foreground traffic for the
// whole sweep. The sweeper instead listens to SiteStatusService
// transitions and, whenever a member's site enters kRecovering, repairs a
// bounded number of rows per simulator tick (RaddGroup::RecoverRow),
// yielding between ticks so client reads and writes keep flowing. A load
// probe (e.g. the protocol layer's in-flight op count) shrinks the batch
// to a single row under foreground pressure.
//
// The progress cursor models a persisted recovery log: if the site dies
// mid-sweep and restarts, the sweep *resumes* at the cursor rather than
// restarting — safe because (a) draining a spare is idempotent
// (invalidated spares are skipped) and (b) before marking the site up the
// sweeper runs a verification scan (RaddGroup::FirstUnrecoveredRow) that
// catches rows re-dirtied behind the cursor during a second outage —
// spares written while the site was down again, or blocks lost to a
// disaster — and rewinds to the first dirty row. MarkUp happens in the
// same simulator event as a clean verification scan, so no spare commit
// can interleave between "verified clean" and "up".

#ifndef RADD_CORE_SWEEPER_H_
#define RADD_CORE_SWEEPER_H_

#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "cluster/status_service.h"
#include "core/radd.h"
#include "sim/simulator.h"
#include "sim/stats.h"

namespace radd {

/// Pacing knobs of the background sweep.
struct SweeperConfig {
  /// Gap between sweep batches. Foreground I/O runs in these gaps.
  SimTime tick_interval = Millis(40);
  /// Rows repaired per tick when the system is otherwise idle.
  int rows_per_tick = 4;
  /// Foreground in-flight operations above which a tick repairs a single
  /// row instead of a full batch (backpressure).
  uint64_t backpressure_threshold = 8;
  /// Reports current foreground load (e.g. RaddNodeSystem::InFlightOps).
  /// Unset = no backpressure.
  std::function<uint64_t()> load_probe;
  /// Disk pacing: when set, each tick charges its repaired rows as
  /// recovery-class writes to the recovering site's disk queues
  /// (RaddNodeSystem::ChargeBackgroundIo) and the next tick fires at the
  /// charge's completion instead of after tick_interval — sweep I/O then
  /// competes with foreground traffic in the queues, and the deadline
  /// policy's starvation bound replaces the hand-tuned gap. Unset = the
  /// wall-clock pacing above.
  std::function<void(SiteId site, uint32_t units,
                     std::function<void()> done)>
      disk_charge;
};

/// One sweeper instance serves every member of every group it is given.
/// A multi-group (§4) site failure starts one sweep per affected group;
/// the per-group cursors advance concurrently (interleaved ticks) under
/// the one shared load probe, and the site is marked up only when *every*
/// group hosting one of its drives verifies clean — the last-finishing
/// sweep performs the cross-group verification scan and the MarkUp in a
/// single simulator event.
class RecoverySweeper {
 public:
  RecoverySweeper(Simulator* sim, RaddGroup* group,
                  SiteStatusService* service,
                  const SweeperConfig& config = {});

  /// Multi-group form (e.g. every group of a RaddVolume).
  RecoverySweeper(Simulator* sim, std::vector<RaddGroup*> groups,
                  SiteStatusService* service,
                  const SweeperConfig& config = {});

  /// Registers the status listener and picks up members whose sites are
  /// already recovering. Idempotent.
  void Start();

  /// Drives a live expansion of group `grp` through the same pacing
  /// machinery as recovery sweeps: RaddGroup::BeginExpansion must already
  /// have been called; each tick applies up to rows_per_tick block moves
  /// (RaddGroup::MigrateStep) under the load probe's backpressure, with
  /// disk pacing charged at the new member's site. `on_done` runs in the
  /// simulator event where the last move commits the new epoch. No-op
  /// (on_done runs immediately) when no expansion is pending.
  void StartMigration(int grp, std::function<void()> on_done = nullptr);

  /// Progress cursor of group `grp`'s `member` sweep (rows [0, cursor)
  /// repaired this pass). Retained across crash-mid-sweep for resume.
  BlockNum cursor(int grp, int member) const;

  /// True while a sweep for group `grp`'s `member` has ticks scheduled.
  bool active(int grp, int member) const;

  /// Counters: "sweeper.ticks", "sweeper.rows_swept", "sweeper.resumes",
  /// "sweeper.completed", "sweeper.rescans", "sweeper.row_errors",
  /// "sweeper.backpressure_ticks", "sweeper.disk_paced_ticks";
  /// distribution "sweeper.tick_ops"
  /// (physical ops per tick — the per-tick I/O bound).
  const Stats& stats() const { return stats_; }

 private:
  struct Sweep {
    BlockNum cursor = 0;
    bool active = false;
  };

  /// Ensures a tick chain is running for group `grp`'s `member`.
  void Pump(int grp, int member);
  void Tick(int grp, int member);
  void MigrateTick(int grp);
  /// True when every group hosting a drive of `site` verifies clean; marks
  /// the site up in the same event. Called by a sweep whose own group just
  /// verified clean.
  bool TryMarkUp(SiteId site);

  Simulator* sim_;
  std::vector<RaddGroup*> groups_;
  SiteStatusService* service_;
  SweeperConfig config_;
  std::map<std::pair<int, int>, Sweep> sweeps_;  // (group, member)
  std::map<int, std::function<void()>> migrations_;  // group -> on_done
  Stats stats_;
  bool started_ = false;
};

}  // namespace radd

#endif  // RADD_CORE_SWEEPER_H_
