// ChaosHarness — randomized fault schedules against the full protocol
// stack, with invariant checking and an acknowledged-write ledger.
//
// One Run(seed) builds a fresh simulated cluster, derives a FaultPlan from
// the seed, and drives it episode by episode: client traffic flows while
// background network noise (drop / duplicate / reorder) is always on, the
// episode's fault strikes mid-window, then the harness quiesces (drains
// every in-flight operation), repairs (restore + recovery sweep + data and
// parity scrubs) and checks:
//
//   * RaddGroup::VerifyInvariants() — parity == XOR of each row, UID-array
//     agreement, spare validity;
//   * zero acknowledged-write loss — every block whose write was
//     acknowledged reads back as a value the ledger allows (the committed
//     value, or a value a *failed* write may or may not have applied);
//   * no hung operations — every issued op completed with some status
//     (the §5 retransmit-until-ack path must terminate).
//
// Everything is seeded, so a failing seed replays bit-for-bit; Run twice
// with the same seed produces byte-identical reports.

#ifndef RADD_FAULT_CHAOS_H_
#define RADD_FAULT_CHAOS_H_

#include <cstdint>
#include <map>
#include <string>

#include "cluster/heartbeat.h"
#include "core/node.h"
#include "core/sweeper.h"
#include "fault/fault.h"
#include "layout/placement.h"

namespace radd {

/// Shape of the cluster and traffic one chaos schedule runs against.
struct ChaosConfig {
  int group_size = 4;  ///< G; each group has G + 1 + parities members
  /// Parity legs per row: 1 = the paper's single parity, 2 = the P+Q
  /// Reed-Solomon scheme (two-erasure tolerant). Groups grow to G+3
  /// members; combine with FaultPlanConfig::double_faults for schedules
  /// that kill two sites at once.
  int parities = 1;
  /// RADD groups in the volume (§4 sharding). 1 = a single group; N > 1
  /// spreads N*(G+2) logical drives round-robin over G+1+N sites, so every
  /// fault lands on a site serving several groups at once.
  int groups = 1;
  /// Placement of every group's rows. kRotated (default) is the paper's
  /// Fig. 1 layout; kDeclustered spreads each group's stripes over `sites`
  /// members via the seeded permutation tables (layout/placement.h).
  PlacementKind layout = PlacementKind::kRotated;
  /// Declustered only: cluster width C (members per group). 0 = the
  /// minimum, G + 1 + parities.
  int sites = 12;
  /// Online-expansion mode (declustered, single parity): mid-schedule a
  /// fresh site joins the cluster and every group expands onto it — the
  /// planned block moves migrate while faults and client traffic keep
  /// running (autopilot: paced by the sweeper; manual: pumped during the
  /// episode window and drained after repair). The acked-write ledger,
  /// the invariants and the moved-fraction bound (moves <= the added
  /// capacity share of physical blocks) must all hold across the epoch
  /// flip.
  bool expand = false;
  BlockNum rows = 12;
  size_t block_size = 256;
  int ops_per_episode = 24;
  FaultPlanConfig plan;  ///< members/rows are overwritten to match
  NodeConfig node;       ///< retry knobs; defaults shortened for test speed
  bool verbose = false;  ///< trace every op and fault to stderr

  /// Routes every protocol message through the packed frame codec
  /// (DesTransport: encode to bytes, CRC, decode, deliver). The codec is
  /// lossless, so a schedule's Summary must be byte-identical with this on
  /// or off — that equality, checked under full chaos, is the proof that
  /// serialization preserves every message of the real protocol. Codec
  /// counters land in ChaosReport::frames_encoded / frames_rejected (never
  /// in the Summary, precisely so the differential stays byte-exact).
  bool frame_codec = false;

  /// Self-healing mode: the harness injects faults but never repairs.
  /// Detection (heartbeats -> SiteStatusService declarations), restart
  /// handling and the paced background sweep bring the cluster back on
  /// their own, and each episode must *converge* — every site kUp with all
  /// traffic drained — within `convergence_budget` of sim-time or the
  /// schedule fails.
  bool autopilot = false;
  HeartbeatConfig heartbeat;  ///< detector knobs (autopilot)
  SweeperConfig sweeper;      ///< sweep pacing knobs (autopilot)
  /// Delay between the end of a crash/disaster episode and the rebooted
  /// process announcing itself (NotifyRestart).
  SimTime restart_delay = Millis(400);
  /// Sim-time allowance per episode for the control plane to converge.
  SimTime convergence_budget = Seconds(60);

  ChaosConfig() {
    node.retry_timeout = Millis(80);
    node.max_retries = 10;
    // Detection (suspect_after * interval + one probe interval ~ 0.8 s)
    // must beat the write give-up time ((max_retries + 1) * 4 *
    // retry_timeout = 3.52 s) so in-flight writes re-route to spares
    // instead of exhausting their retries.
    heartbeat.interval = Millis(200);
    heartbeat.suspect_after = 3;
  }
};

/// Outcome of one seeded schedule.
struct ChaosReport {
  uint64_t seed = 0;
  int groups = 1;    ///< volume width; Summary mentions it only when > 1
  int parities = 1;  ///< Summary says "scheme=pq" only when 2
  bool ok = false;
  std::string failure;  ///< first violated invariant (empty when ok)
  std::string plan;     ///< FaultPlan::ToString of the schedule
  uint64_t ops_issued = 0;
  uint64_t ops_acked = 0;
  uint64_t ops_failed = 0;  ///< completed with a non-OK status (allowed)
  uint64_t reads_validated = 0;
  SimTime end_time = 0;

  /// Batched-parity-mode metrics (reported only when batching is on, so
  /// the Summary of a run with batching off omits them).
  bool batched = false;
  uint64_t batches_sent = 0;        ///< parity batch frames transmitted
  uint64_t batch_retransmits = 0;   ///< frames resent after ack timeout
  uint64_t batch_duplicates = 0;    ///< duplicate frames deduped by seq
  uint64_t parity_staged = 0;       ///< parity updates that rode a batch

  /// Frame-codec metrics (frame_codec mode; excluded from Summary so the
  /// codec-on/off differential compares byte-identical strings).
  bool frame_codec = false;
  uint64_t frames_encoded = 0;
  uint64_t frames_rejected = 0;  ///< must stay 0: the codec is lossless

  /// Per-kind fault accounting for the end-of-sweep table: how many
  /// faults of each kind were injected (second faults of double-failure
  /// episodes count separately) and how many the schedule survived (the
  /// episode's repair-and-check passed). Never part of Summary, so the
  /// replayability digest is unchanged.
  std::map<std::string, uint64_t> injected_by_kind;
  std::map<std::string, uint64_t> survived_by_kind;

  /// Placement metrics (defaults when the layout is rotated; Summary
  /// prints them only for declustered runs).
  bool declustered = false;
  int sites = 0;  ///< cluster width C of each declustered group
  /// Expansion-mode metrics (expand only).
  bool expanded = false;
  uint64_t expansion_moves = 0;    ///< blocks physically relocated
  uint64_t expansion_planned = 0;  ///< blocks the plans called for

  /// Autopilot-mode self-healing metrics (all zero otherwise).
  bool autopilot = false;
  SimTime convergence_max = 0;    ///< slowest episode's detect->up time
  SimTime convergence_total = 0;  ///< summed over episodes
  uint64_t sweep_rows = 0;        ///< rows repaired by the background sweep
  uint64_t false_suspicions = 0;  ///< detector false positives
  uint64_t stale_epoch_rejections = 0;  ///< messages fenced off by epochs

  /// Deterministic digest: two runs of the same seed must produce
  /// identical summaries (the replayability contract).
  std::string Summary() const;
};

/// Drives seeded fault schedules. Stateless between runs: each Run builds
/// its own simulator, cluster, network and protocol stack.
class ChaosHarness {
 public:
  explicit ChaosHarness(const ChaosConfig& config = {});

  /// Executes the schedule derived from `seed`.
  ChaosReport Run(uint64_t seed);

 private:
  struct RunState;
  ChaosConfig config_;
};

}  // namespace radd

#endif  // RADD_FAULT_CHAOS_H_
