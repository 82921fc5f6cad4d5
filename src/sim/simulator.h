// Deterministic discrete-event simulation engine, shardable for parallel
// execution.
//
// The whole distributed system — sites, disks, network links — runs inside
// one Simulator. Time is virtual (microsecond ticks); an event is a
// callback scheduled at an absolute tick. Events at the same tick fire in
// scheduling order, so runs are bit-for-bit reproducible.
//
// Sharding (DESIGN.md §12): the event space can be partitioned into N
// shards, each with its own event queue and virtual clock. The intended
// partition is one shard per simulated site: everything a site's events
// touch (its disks, its protocol state, its UID source) is confined to its
// shard, and the only cross-shard interaction is message delivery, which
// always pays at least the network's one-way latency. That latency is the
// classic conservative-PDES *lookahead*: within a synchronization window
// [T, T + lookahead) no shard can receive a new event from another shard
// earlier than the window's end, so all shards may execute their local
// events for the window concurrently. Cross-shard schedules made during a
// window are buffered in per-shard outboxes and merged at the barrier in a
// deterministic order — (when, scheduling history, source shard, source
// sequence) — so the simulated outcome is identical at every thread count,
// including one.
//
// The unsharded simulator (the default) is byte-for-byte the engine this
// repo has always had: one queue, one clock, events totally ordered by
// (when, schedule order).
//
// Confinement contract for sharded execution: an event running on shard s
// may touch only state owned by shard s; it may schedule onto its own
// shard freely (At/Schedule) and onto other shards only via AtShard with a
// delay of at least the configured lookahead. Shared mutable state that
// cannot be partitioned (stats counters, buffer arenas) must be internally
// synchronized — see sim/stats.h and common/block_arena.h.

#ifndef RADD_SIM_SIMULATOR_H_
#define RADD_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_set>
#include <vector>

namespace radd {

/// Virtual time in microseconds since simulation start.
using SimTime = uint64_t;

/// Conversion helpers for the units the paper speaks in.
constexpr SimTime Micros(uint64_t us) { return us; }
constexpr SimTime Millis(uint64_t ms) { return ms * 1000; }
constexpr SimTime Seconds(uint64_t s) { return s * 1000 * 1000; }
constexpr double ToMillis(SimTime t) { return static_cast<double>(t) / 1e3; }
constexpr double ToSeconds(SimTime t) { return static_cast<double>(t) / 1e6; }

class ThreadPool;

/// The event loop. Single-threaded by default; with ConfigureShards the
/// queue splits per shard and RunParallel executes conservative windows on
/// a thread pool. Determinism holds in every mode: the sharded engine's
/// outcome does not depend on the thread count.
class Simulator {
 public:
  using Callback = std::function<void()>;

  Simulator();
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Splits the event space into `num_shards` independent queues with the
  /// given conservative lookahead (the minimum cross-shard scheduling
  /// delay; in this repo, the network's one-way latency). Call once, on a
  /// simulator with no pending events. One shard is the unsharded engine.
  void ConfigureShards(int num_shards, SimTime lookahead);

  int num_shards() const { return static_cast<int>(shards_.size()); }
  SimTime lookahead() const { return lookahead_; }

  /// Shard whose event is currently executing; 0 outside event execution
  /// (setup code schedules into shard 0 unless it uses AtShard).
  int current_shard() const;

  /// Current virtual time: the executing shard's clock during an event,
  /// the max over shards (simulation makespan so far) outside execution.
  SimTime Now() const;

  /// Schedules `fn` to run `delay` ticks from now on the current shard.
  /// Returns an id usable with Cancel().
  uint64_t Schedule(SimTime delay, Callback fn) {
    return At(Now() + delay, std::move(fn));
  }

  /// Schedules `fn` at absolute time `when` (>= Now()) on the current
  /// shard.
  uint64_t At(SimTime when, Callback fn);

  /// Schedules onto an explicit shard. From inside an event on another
  /// shard this is a cross-shard schedule: during parallel windows it is
  /// buffered and merged at the next barrier, and `when` must be at least
  /// lookahead past the sending shard's clock. Cross-shard events cannot
  /// be cancelled (the id belongs to the destination shard's namespace
  /// and is not returned); same-shard calls behave exactly like At().
  uint64_t AtShard(int shard, SimTime when, Callback fn);

  /// Cancels a pending event scheduled from this shard. O(1) — the event
  /// is tombstoned, not removed. Returns false for id 0, an id this shard
  /// never issued, or one already cancelled. A fired event's id is not
  /// tracked: Cancel returns true for it and keeps a tombstone that no
  /// later event ever matches, so a caller forgets an id once its event
  /// fires (zeroing a stored timer id in the timer's own callback).
  bool Cancel(uint64_t event_id);

  /// Runs events until every queue is empty. Returns the final time.
  /// Sharded simulators execute the same conservative windows as
  /// RunParallel, on the calling thread.
  SimTime Run();

  /// Sharded execution on `threads` worker threads (clamped to the shard
  /// count; 1 falls back to Run()). Returns the final time. The simulated
  /// outcome is identical for every `threads` value.
  SimTime RunParallel(int threads);

  /// Runs events with time <= `deadline`; leaves later events queued and
  /// advances Now() to `deadline` (even if idle earlier). Returns Now().
  /// Unsharded simulators only.
  SimTime RunUntil(SimTime deadline);

  /// Runs until `done` returns true (checked after each event) or the
  /// queue empties. Returns true iff `done` was satisfied. Unsharded
  /// simulators only.
  bool RunUntilPredicate(const std::function<bool()>& done);

  /// Number of events executed since construction (all shards).
  uint64_t events_executed() const;

  /// Number of events currently pending (including tombstoned ones).
  size_t pending() const;

 private:
  struct Event {
    SimTime when;
    /// Three levels of scheduling history, the tie-break at equal `when`:
    /// `sched` is the virtual time at which the event was scheduled,
    /// `sched2` the time at which the *scheduling event* was itself
    /// scheduled, `sched3` one hop further up (0 at setup code). In the
    /// monolithic queue, same-tick events fire in global schedule order,
    /// which is exactly (sched, then the schedulers' own order at that
    /// tick, recursively); carrying a bounded slice of that ancestry lets
    /// the sharded merge reproduce the monolithic order for cross-shard
    /// deliveries whose causal histories diverge within three hops —
    /// deeper ties fall back to source-shard order and may legally differ
    /// from the monolithic interleaving (DESIGN.md §12 records the one
    /// shipped workload where that happens). On a single shard execution
    /// order makes (sched, sched2, sched3) nondecreasing in push order,
    /// so (when, sched.., seq) ordering equals the classic (when, seq)
    /// byte for byte.
    SimTime sched;
    SimTime sched2;
    SimTime sched3;
    uint64_t seq;  // final tie-break: FIFO within a tick, per shard
    uint64_t id;   // shard-local id
    Callback fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      if (a.sched != b.sched) return a.sched > b.sched;
      if (a.sched2 != b.sched2) return a.sched2 > b.sched2;
      if (a.sched3 != b.sched3) return a.sched3 > b.sched3;
      return a.seq > b.seq;
    }
  };
  /// A cross-shard schedule buffered during a parallel window.
  struct OutboxEntry {
    SimTime when;
    SimTime sched;   // sending shard's clock at the schedule call
    SimTime sched2;  // the sending event's own sched
    SimTime sched3;  // the sending event's own sched2
    uint64_t seq;    // per-source monotone: merge tie-break
    int dst;
    Callback fn;
  };
  struct Shard {
    SimTime now = 0;
    /// `sched` of the event currently executing on this shard (0 outside
    /// execution): becomes `sched2` of anything that event schedules.
    SimTime cur_sched = 0;
    SimTime cur_sched2 = 0;
    uint64_t next_seq = 0;
    uint64_t next_id = 1;
    uint64_t events_executed = 0;
    std::priority_queue<Event, std::vector<Event>, Later> queue;
    std::unordered_set<uint64_t> cancelled;
    /// Cross-shard schedules made by this shard's events in the current
    /// window; drained at the barrier. Only the owning worker touches it.
    std::vector<OutboxEntry> outbox;
    uint64_t next_outbox_seq = 0;
  };

  static constexpr int kShardIdBits = 48;

  Shard& shard(int i) { return shards_[static_cast<size_t>(i)]; }
  const Shard& shard(int i) const { return shards_[static_cast<size_t>(i)]; }

  uint64_t PushEvent(int s, SimTime when, SimTime sched, SimTime sched2,
                     SimTime sched3, Callback fn);
  bool StepOne();  // unsharded: executes one event; false if queue empty
  /// Executes one shard's events with when < bound (its own new events
  /// included). Returns true if any event ran.
  bool RunShardWindow(int s, SimTime bound);
  /// Drains all outboxes into destination queues in deterministic order.
  void MergeOutboxes();
  SimTime RunWindowed(ThreadPool* pool);

  SimTime lookahead_ = 0;
  std::vector<Shard> shards_;
  /// True while RunWindowed is between barriers (cross-shard schedules
  /// must buffer instead of touching foreign queues).
  bool in_window_ = false;
};

}  // namespace radd

#endif  // RADD_SIM_SIMULATOR_H_
