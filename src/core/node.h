// RaddNodeSystem — the message-driven implementation of the RADD protocol
// over the simulated network (paper §3 algorithms as an actual
// distributed protocol, plus §5's lost-message handling).
//
// The synchronous RaddGroup (core/radd.h) is the reference model with
// exact Figure-3 accounting; this layer executes the same steps as real
// request/reply message flows with disk and network latency, and plans,
// validates and decodes its reconstructions through the same row codec
// (core/row_code.h), in which single parity is the one-leg case of P+Q. It
// additionally answers questions the cost model cannot: operation
// *latency* (concurrent sub-operations overlap), behaviour under message
// loss (parity updates are retransmitted until acknowledged, and a write
// only completes once its parity site acknowledged — §5's commit
// condition), behaviour under partitions, and lock-based concurrency
// control (§3.3: data and spare blocks are locked, parity blocks never).
//
// Idempotence under retransmission: a parity site remembers the batch
// sequence numbers it processed per sender and replays the recorded ack
// for a duplicate frame. The paper's own UID machinery backstops it: an
// entry whose UID equals the parity's UID-array entry for that member is
// acknowledged without re-applying the mask.

#ifndef RADD_CORE_NODE_H_
#define RADD_CORE_NODE_H_

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/status_service.h"
#include "common/block_arena.h"
#include "core/parity_coalescer.h"
#include "core/radd.h"
#include "disk/scheduler.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "txn/lock_manager.h"

namespace radd {

class Transport;

/// Tunables of the protocol layer.
struct NodeConfig {
  DiskModel disk;
  /// Shape of each site's disk subsystem (spindle count, scheduling
  /// policy, seek modeling, block cache). The default — one spindle,
  /// FIFO, no cache — is the paper's §7.3 serial disk per site.
  DiskSchedConfig disk_sched;
  /// Retransmission timeout for parity updates / degraded writes when the
  /// network can lose messages.
  SimTime retry_timeout = Millis(250);
  /// Retransmissions before an operation fails with NetworkError.
  int max_retries = 25;
  /// Reconstruction retries on UID validation failure (§3.3).
  int max_reconstruct_attempts = 5;
  /// Write-combining parity pipeline (DESIGN.md §10). Every parity update
  /// goes through it; with `enabled = false` (the default) each update
  /// flushes in a frame of its own.
  ParityBatchConfig parity_batch;
};

/// One RADD group hosted by the node system: the group's tuning knobs
/// plus an optional explicit member list (empty = the identity group:
/// member m is site m with offset 0).
struct GroupSpec {
  RaddConfig config;
  std::vector<LogicalDrive> members;
};

/// The distributed RADD: one protocol node per cluster site, hosting one
/// or more RADD groups (§4). All groups share the simulator, network and
/// cluster; per-group state (lock rows, dedupe tables, parity staging) is
/// keyed by group id, and batched parity frames never mix groups.
class RaddNodeSystem {
 public:
  using ReadCallback =
      std::function<void(Status, const Block&, SimTime latency)>;
  using WriteCallback = std::function<void(Status, SimTime latency)>;

  RaddNodeSystem(Simulator* sim, Network* net, Cluster* cluster,
                 const RaddConfig& radd_config,
                 const NodeConfig& node_config = {});

  /// Multi-group form: one protocol stack running every group in `specs`
  /// side by side. All specs must share one block size (they feed one
  /// buffer arena) and keep a spare in every row (`spare_fraction` 1); the
  /// constructor aborts otherwise. At most one member per (group, site).
  RaddNodeSystem(Simulator* sim, Network* net, Cluster* cluster,
                 std::vector<GroupSpec> specs,
                 const NodeConfig& node_config = {});
  ~RaddNodeSystem();

  /// Issues a read of member `home`'s data block `index` in group `grp`
  /// from `client`.
  void AsyncRead(SiteId client, int grp, int home, BlockNum index,
                 ReadCallback cb);

  /// Issues a write of member `home`'s data block `index` in group `grp`.
  void AsyncWrite(SiteId client, int grp, int home, BlockNum index,
                  Block data, WriteCallback cb);

  /// Blocking facades: run the simulator until the operation completes.
  struct TimedRead {
    Status status;
    Block data{0};
    SimTime latency = 0;
  };
  TimedRead Read(SiteId client, int grp, int home, BlockNum index);
  struct TimedWrite {
    Status status;
    SimTime latency = 0;
  };
  TimedWrite Write(SiteId client, int grp, int home, BlockNum index,
                   const Block& data);

  /// The membership authority every site-state and epoch decision reads
  /// (cluster/status_service.h). Writes, spare writes, parity updates and
  /// spare write-backs carry the epoch of the home site whose data they
  /// touch, and receivers reject messages stamped with an epoch older than
  /// the service's current one (StaleEpoch, retryable) — closing the
  /// window where a delayed pre-transition message, applied after a fast
  /// down -> recovering -> up cycle, would act on a stale view of the
  /// membership. Epochs stay 0 until the service itself moves a site, so
  /// runs that change state on the Cluster directly see no stamps. A
  /// HeartbeatDetector feeds its suspicions in here; oracle-mode
  /// partitions set presumptions with Presume.
  SiteStatusService* status() { return &status_; }

  /// Routes every protocol send through `transport` instead of straight
  /// to the Network (net/transport.h). The DES transport frames each
  /// message through the packed codec before re-entering the simulated
  /// network — semantics identical when the codec is lossless, which the
  /// differential chaos tests assert. nullptr (the default) restores the
  /// direct send path.
  /// Heartbeat traffic is the detector's own and stays on the Network.
  void SetTransport(Transport* transport) { transport_ = transport; }

  /// Client operations currently in flight (reads + writes). Used as the
  /// recovery sweeper's backpressure probe.
  uint64_t InFlightOps() const;

  /// True when no client operation, server-side write flow, parity
  /// retransmission or reconstruction is outstanding anywhere — the
  /// protocol layer has fully drained (heartbeat traffic excluded; that
  /// belongs to the detector).
  bool Quiescent() const;

  /// Discards the in-memory protocol state of `site`'s node — lock table,
  /// retransmission timers, dedupe tables, in-flight server flows — and
  /// fails (NetworkError) any client operation issued *from* that site.
  /// Call when the site crashes: a restarted process comes up cold, it
  /// does not resume half-held locks or remembered acks.
  void ResetNodeVolatileState(SiteId site);

  /// Gray-failure injection: multiplies `site`'s disk service time by
  /// `factor` (1 = healthy). The site stays up and correct, just slow.
  void SetDiskSlowFactor(SiteId site, uint32_t factor);

  /// Charges `units` background (recovery-class) disk writes to `site`'s
  /// disk subsystem and runs `done` at their completion — the recovery
  /// sweeper's disk-pacing hook, so sweep I/O competes with foreground
  /// traffic in the site's queues instead of pacing itself by wall-clock
  /// delays. `done` is dropped if the site crashes before the charge
  /// completes.
  void ChargeBackgroundIo(SiteId site, uint32_t units,
                          Simulator::Callback done);

  /// Cache observability: summed hit/miss/stale-rejection counters over
  /// every site's block cache (all zero when caches are off).
  struct CacheCounters {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t stale_rejected = 0;
  };
  CacheCounters CacheStats() const;

  /// The reference model of group `grp`, sharing the same cluster state;
  /// used for recovery sweeps and invariant checking.
  RaddGroup* group(int grp) { return groups_[static_cast<size_t>(grp)].get(); }
  const RaddGroup* group(int grp) const {
    return groups_[static_cast<size_t>(grp)].get();
  }
  int num_groups() const { return static_cast<int>(groups_.size()); }

  const PlacementMap& layout(int grp) const {
    return groups_[static_cast<size_t>(grp)]->layout();
  }

  /// Online expansion entry point: begins adding `drive` to group `grp`
  /// (RaddGroup::BeginExpansion) and wires a protocol Node for its site
  /// (AddNode) so the new member answers messages immediately. Drive the
  /// actual migration through RecoverySweeper::StartMigration (or
  /// MigrateStep directly).
  Status AddGroupMember(int grp, const LogicalDrive& drive);
  Stats* mutable_stats() { return &stats_; }
  const Stats& stats() const { return stats_; }

 private:
  struct Node;

  /// Creates `site`'s protocol Node (per-group locals, disk, cache) and
  /// registers its network handler. A handler already on the site (the
  /// heartbeat detector) keeps the heartbeat traffic; the Node takes the
  /// rest.
  void AddNode(SiteId site);

  /// Member currently *hosting* owner `home`'s data block `index` in
  /// group `grp` — identical to `home` except for blocks migrated by an
  /// online expansion. Resolution goes by data index, not row: an
  /// expansion owner holds several blocks of one row, which only the
  /// index disambiguates. Every message that names a member resolves
  /// through this at send time so retries chase a mid-migration move.
  int HostMember(int grp, int home, BlockNum index) const;

  /// OK when `epoch` is current for member `home`'s site (in group `grp`);
  /// StaleEpoch when the status service knows a newer one.
  Status CheckMemberEpoch(int grp, int home, uint64_t epoch) const;

  void Dispatch(SiteId site, Message& msg);
  Node* node(SiteId s) { return nodes_.at(s).get(); }

  Simulator* sim_;
  Network* net_;
  Transport* transport_ = nullptr;  ///< optional send-path override
  Cluster* cluster_;
  SiteStatusService status_;
  NodeConfig node_config_;
  std::vector<std::unique_ptr<RaddGroup>> groups_;
  /// Free-list for block-sized buffers: message handlers lease scratch
  /// blocks and return spent payload buffers here instead of reallocating.
  BlockArena arena_;
  Stats stats_;
  std::map<SiteId, std::unique_ptr<Node>> nodes_;
  /// Op-id source on an unsharded simulator: one global monotone counter,
  /// so lock ids (~op) preserve issue order everywhere. Sharded runs mint
  /// per-site ids instead (see NewOpId).
  uint64_t next_op_ = 1;

  // --- pending client operations -------------------------------------------
  struct PendingRead {
    SiteId client;
    int group = 0;
    int home;          // logical owner; hosts resolve via HostMember
    BlockNum index;    // owner's data index (host resolution key)
    BlockNum row;
    ReadCallback cb;
    SimTime start;
    int retries = 0;
    bool tried_home = false;
    uint64_t timer = 0;
  };
  struct PendingWrite {
    SiteId client;
    int group = 0;
    int home;          // logical owner; hosts resolve via HostMember
    BlockNum index;    // owner's data index (host resolution key)
    BlockNum row;
    Block data{0};
    WriteCallback cb;
    SimTime start;
    int retries = 0;
    uint64_t timer = 0;
  };
  // The pending-op tables live inside each client site's Node (per-site,
  // so concurrent shards never share them); every function below runs at
  // the client site and takes the client explicitly.

  /// Mints a fresh op id for an operation issued from `client`. Unsharded:
  /// the global counter (ids totally ordered by issue time — wait-die
  /// ordering follows issue order everywhere). Sharded: a per-site counter
  /// with the site in the high bits; ids from one site keep issue order,
  /// ids from different sites are arbitrary — fine for workloads whose
  /// lock conflicts are same-site only (parity blocks are never locked,
  /// and the parallel bench drives client == home traffic).
  uint64_t NewOpId(SiteId client);

  void StartRead(SiteId client, uint64_t op);
  void StartReadReconstruction(uint64_t op, PendingRead& pr);
  void StartWrite(SiteId client, uint64_t op);
  void FinishRead(SiteId client, uint64_t op, Status st, Block data);
  void FinishWrite(SiteId client, uint64_t op, Status st);
  /// W1': ships a client write whose home is down, or has lost the
  /// block, to the row's spare under a UID minted at the client.
  void SendSpareWrite(uint64_t op, const PendingWrite& pw);
  SimTime WriteDeadline(const PendingWrite& pw) const;
  /// One client retry step, on a fired timer or a StaleEpoch reply
  /// (`stale_epoch`): spends a retry; past max_retries the op fails with
  /// NetworkError, else it is reissued.
  void RetryRead(SiteId client, uint64_t op, bool stale_epoch);
  void RetryWrite(SiteId client, uint64_t op, bool stale_epoch);

  friend struct Node;
};

}  // namespace radd

#endif  // RADD_CORE_NODE_H_
