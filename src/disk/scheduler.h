// DiskScheduler — modeled per-spindle I/O queues for one site.
//
// The paper's §7.3 model charges disk latency on one serial disk per site
// (one request at a time, FIFO by arrival). Taken literally, that makes
// the site's disk the scaling ceiling of the §4 sharded volume: a site
// hosting drives of k groups funnels k parity chains through one
// 30 ms-per-request queue.
//
// This scheduler generalizes that model; its defaults reproduce it:
//
//   * a site stripes its site-local LBA space over S spindles
//     (spindle = block mod S), each spindle serving one request at a time
//     from its own queue;
//   * requests carry an I/O *class* (foreground, parity-writeback,
//     recovery, scrub) and a *kind* (read/write), and each spindle picks
//     the next request by a pluggable policy:
//       - kFifo:     strict arrival order (the §7.3 discipline);
//       - kElevator: LOOK — serve the nearest address in the current sweep
//         direction, reversing at the ends; pays off only when a seek cost
//         (`seek_unit`) is modeled on top of the flat per-request latency;
//       - kDeadline: class separation — foreground preempts background
//         (writeback/recovery/scrub) in the queue, but every request gets
//         an absolute deadline at enqueue and an expired deadline trumps
//         class, so background starvation is bounded by
//         `background_deadline` plus one service time (the dispatch is
//         non-preemptive).
//
// With spindles = 1, policy = kFifo and no seek modeling the engine gives
// the same completion times as the closed-form serial clock
// start = max(now, free_at) (the scheduler unit tests assert it). Every
// protocol node runs one of these, built from NodeConfig::disk_sched.

#ifndef RADD_DISK_SCHEDULER_H_
#define RADD_DISK_SCHEDULER_H_

#include <cstdint>
#include <vector>

#include "disk/disk.h"
#include "sim/simulator.h"

namespace radd {

/// Who is asking for the I/O. Lower value = higher priority under the
/// deadline policy (foreground client traffic preempts maintenance).
enum class IoClass : uint8_t {
  kForeground = 0,  ///< client reads/writes and the flows serving them
  kWriteback = 1,   ///< parity updates / batched parity applies
  kRecovery = 2,    ///< recovery sweep, spare drains, materializations
  kScrub = 3,       ///< scrub repairs
};

enum class IoKind : uint8_t { kRead, kWrite };

enum class IoPolicy : uint8_t { kFifo, kElevator, kDeadline };

/// Disk subsystem shape of one site. The defaults describe the paper's
/// §7.3 model exactly: one spindle, FIFO, no seek cost, no cache.
struct DiskSchedConfig {
  /// Spindles the site stripes its LBA space over (block mod spindles).
  int spindles = 1;
  IoPolicy policy = IoPolicy::kFifo;
  /// Optional seek modeling: extra service time per block of distance
  /// between a spindle's last-served address and the next request's,
  /// capped at `seek_cap`. 0 keeps the paper's flat per-request cost.
  SimTime seek_unit = 0;
  SimTime seek_cap = Millis(10);
  /// Deadline policy: how long a request of each side may wait before its
  /// expired deadline trumps class priority (bounded starvation).
  SimTime foreground_deadline = Millis(60);
  SimTime background_deadline = Millis(320);
  /// Site block-cache capacity in blocks; 0 disables the cache.
  size_t cache_blocks = 0;

  /// True when any feature beyond the §7.3 serial FIFO disk is on. Tools
  /// use it to choose the recovery sweeper's pacing and what to report.
  bool modeled() const {
    return spindles > 1 || policy != IoPolicy::kFifo || seek_unit != 0 ||
           cache_blocks > 0;
  }
};

/// Event-driven multi-spindle request scheduler. All calls must come from
/// the owning site's simulator events, so no locking is needed even on
/// sharded runs.
class DiskScheduler {
 public:
  DiskScheduler(Simulator* sim, DiskModel model,
                const DiskSchedConfig& config);

  /// Enqueues an I/O of `units` sequential block operations starting at
  /// `addr` and runs `done` at its completion time. `slow` is the site's
  /// gray-failure service-time multiplier (1 = healthy).
  void Submit(IoClass cls, IoKind kind, BlockNum addr, uint32_t units,
              uint32_t slow, Simulator::Callback done);

  /// Crash discard: drops every queued request and frees every spindle.
  /// In-flight completion events are fenced by a generation check (they
  /// belonged to the dead incarnation).
  void Reset();

  int spindles() const { return static_cast<int>(spindles_.size()); }
  /// Requests waiting in queues (not the ones being serviced).
  size_t queued() const;
  uint64_t completed() const { return completed_; }
  /// Deadline-policy dispatches forced by an expired deadline — i.e. how
  /// often the starvation bound actually bit.
  uint64_t deadline_dispatches() const { return deadline_dispatches_; }

 private:
  struct Request {
    IoClass cls;
    IoKind kind;
    BlockNum addr = 0;
    uint32_t units = 1;
    uint32_t slow = 1;
    SimTime deadline = 0;
    uint64_t seq = 0;  ///< arrival order; final tie-break everywhere
    Simulator::Callback done;
  };
  struct Spindle {
    std::vector<Request> queue;
    bool busy = false;
    BlockNum head = 0;  ///< last dispatched address (seek / LOOK state)
    int dir = 1;        ///< LOOK sweep direction
  };

  size_t SpindleOf(BlockNum addr) const {
    return static_cast<size_t>(addr) % spindles_.size();
  }
  void Dispatch(size_t si);
  size_t PickNext(const Spindle& sp) const;
  size_t PickElevator(const Spindle& sp) const;
  SimTime ServiceTime(const Spindle& sp, const Request& r) const;

  Simulator* sim_;
  DiskModel model_;  ///< per-block latency, shared by every spindle
  DiskSchedConfig config_;
  std::vector<Spindle> spindles_;
  uint64_t next_seq_ = 0;
  uint64_t generation_ = 0;  ///< bumped by Reset; fences dead completions
  uint64_t completed_ = 0;
  uint64_t deadline_dispatches_ = 0;
};

}  // namespace radd

#endif  // RADD_DISK_SCHEDULER_H_
