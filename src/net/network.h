// Simulated site-to-site network.
//
// The paper's base model (§3.1) assumes a reliable network; §5 relaxes this
// to lost messages and partitions. This Network supports those regimes plus
// the fault classes real datagram networks add on top of them:
//   * reliable delivery with a configurable one-way latency,
//   * independent per-message loss with probability `drop_probability`,
//   * independent per-message duplication with probability
//     `duplicate_probability` (each copy delivered independently),
//   * reordering: a uniform latency jitter in [0, reorder_jitter] lets a
//     later send overtake an earlier one on the same link,
//   * partitions: messages across partition boundaries are dropped,
//   * per-message-type fault hooks for scripted, targeted faults (drop the
//     first parity update of a flow, duplicate a specific ack, ...).
//
// Latency default: the paper charges RR = RW = 75 ms for a remote
// operation versus R = W = 30 ms locally. A remote op is
// request + local op + reply, so the default one-way latency is
// (75 - 30) / 2 = 22.5 ms.
//
// Byte accounting (§7.4): every send records its wire size so benchmarks
// can compare network and disk bandwidth. The send path is allocation-free:
// the message type is an enum, the payload a variant, and every stat key a
// counter interned once at construction.

#ifndef RADD_NET_NETWORK_H_
#define RADD_NET_NETWORK_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/uid.h"
#include "net/wire.h"
#include "sim/simulator.h"
#include "sim/stats.h"

namespace radd {

/// Latency/loss parameters of the network.
struct NetworkModel {
  /// One-way message latency.
  SimTime one_way_latency = Micros(22500);
  /// Probability that any given message is silently lost (0 = reliable).
  double drop_probability = 0.0;
  /// Probability that a message is delivered twice (the duplicate gets its
  /// own independent latency jitter, so it may arrive out of order).
  double duplicate_probability = 0.0;
  /// Extra per-message latency drawn uniformly from [0, reorder_jitter].
  /// Nonzero jitter makes reordering possible; 0 keeps FIFO links.
  SimTime reorder_jitter = 0;
};

/// An in-flight message. `payload` holds one of the protocol structs
/// (net/wire.h); `wire_bytes` is what the message costs on the wire,
/// including the paper's change-mask encoding.
struct Message {
  SiteId from = 0;
  SiteId to = 0;
  uint64_t seq = 0;  ///< network-assigned, unique per send
  MessageType type = MessageType::kNone;
  size_t wire_bytes = 0;
  Payload payload;
};

/// What a fault hook tells the network to do with one message.
enum class FaultAction {
  kDeliver,    ///< normal delivery (subject to the random fault model)
  kDrop,       ///< silently lose this message
  kDuplicate,  ///< deliver this message twice
};

/// The simulated network fabric.
class Network {
 public:
  /// Handlers receive the message by mutable reference: the delivery is
  /// the message's final stop, so the handler may move large payloads
  /// (block data) out instead of copying them — the zero-copy data plane
  /// depends on this.
  using Handler = std::function<void(Message&)>;

  Network(Simulator* sim, NetworkModel model, uint64_t seed = 0x5eed);

  /// Installs the message handler for `site` (its "network manager").
  /// Setup-time only: the handler table is read without locks during the
  /// run.
  void RegisterHandler(SiteId site, Handler handler);

  /// Routes deliveries to `site` onto simulator shard `shard` (see
  /// sim/simulator.h). Setup-time only. Unmapped sites deliver on the
  /// sending shard, which is the correct (and only) behavior for an
  /// unsharded simulator. Under a sharded simulator the random fault
  /// model must stay off (zero drop/duplicate/jitter): those paths draw
  /// from one RNG and track per-link state that shards would race on.
  void MapSiteToShard(SiteId site, int shard);

  /// Returns the currently installed handler (empty function if none) so
  /// interceptors like the heartbeat detector can chain.
  Handler GetHandler(SiteId site) const;

  /// Sends a message. Delivery is scheduled after the one-way latency
  /// unless the message is lost (drop probability) or the sites are in
  /// different partitions; in those cases it vanishes (the sender learns
  /// nothing, as in a real datagram network). Self-sends are delivered
  /// with zero latency and no wire cost.
  void Send(Message msg);

  /// True if `a` and `b` can currently communicate.
  bool CanCommunicate(SiteId a, SiteId b) const;

  /// Splits the network; each inner vector is one partition. Sites not
  /// listed form one extra implicit partition together. Pass {} to heal.
  void SetPartitions(std::vector<std::vector<SiteId>> partitions);

  /// Clears partitions (equivalent to SetPartitions({})).
  void Heal() { SetPartitions({}); }

  /// One-way (asymmetric) partition of a single site: cuts only the given
  /// direction of its links. `block_inbound` drops everything addressed
  /// *to* the site (it keeps sending into the void of no replies);
  /// `block_outbound` drops everything it sends (heartbeats included, so
  /// peers come to suspect it) while it still hears the world. Loopback is
  /// never cut. Deliberately invisible to CanCommunicate: an asymmetric
  /// failure is a *fault*, and no oracle gets to see through it.
  void SetAsymBlock(SiteId site, bool block_inbound, bool block_outbound);

  /// Restores both directions for `site`.
  void ClearAsymBlock(SiteId site) { SetAsymBlock(site, false, false); }

  const NetworkModel& model() const { return model_; }
  void set_drop_probability(double p) { model_.drop_probability = p; }
  void set_duplicate_probability(double p) {
    model_.duplicate_probability = p;
  }
  void set_reorder_jitter(SimTime j) { model_.reorder_jitter = j; }

  /// Installs a scripted fault hook consulted for every non-loopback
  /// message of `type` (before the random fault model). Hook-forced drops
  /// and duplicates are counted like random ones. Pass an empty function
  /// to remove the hook for that type. The string overload resolves the
  /// wire name ("parity_batch") first.
  using FaultHook = std::function<FaultAction(const Message&)>;
  void SetFaultHook(MessageType type, FaultHook hook);
  void SetFaultHook(const std::string& type, FaultHook hook) {
    SetFaultHook(MessageTypeFromName(type), std::move(hook));
  }
  void ClearFaultHooks() { fault_hooks_.fill(FaultHook()); }

  /// Cumulative statistics: "net.messages", "net.bytes", "net.dropped",
  /// "net.duplicated", "net.reordered", "net.partition_blocked",
  /// "net.asym_blocked", plus
  /// per-type "net.bytes.<type>", "net.messages.<type>",
  /// "net.drop.<type>", "net.dup.<type>", "net.reorder.<type>".
  const Stats& stats() const { return stats_; }
  Stats* mutable_stats() { return &stats_; }

 private:
  int PartitionOf(SiteId site) const;
  /// Shard deliveries to `site` run on; -1 = the sending shard.
  int ShardOf(SiteId site) const;
  /// Schedules one delivery of `msg` after latency + jitter, counting a
  /// reorder when the delivery overtakes an earlier one on the same link.
  void Deliver(Message msg);
  void CountDrop(MessageType type);
  static size_t Index(MessageType type) {
    return static_cast<size_t>(type);
  }

  Simulator* sim_;
  NetworkModel model_;
  Rng rng_;
  /// Atomic so concurrent shards can send; the value is protocol-invisible
  /// (nothing dedups or orders on it), so cross-shard assignment order
  /// does not affect simulated results.
  std::atomic<uint64_t> next_seq_{1};
  std::map<SiteId, Handler> handlers_;
  std::map<SiteId, int> site_shard_;  // empty => deliver on sending shard
  std::array<FaultHook, kNumMessageTypes> fault_hooks_;
  std::map<SiteId, int> partition_of_;  // empty => fully connected
  bool partitioned_ = false;
  /// Sites with one direction cut (SetAsymBlock). Checked in Send only;
  /// CanCommunicate stays symmetric on purpose.
  std::map<SiteId, std::pair<bool, bool>> asym_block_;  // {inbound, outbound}
  /// Latest delivery time already scheduled per (from, to) link; a new
  /// delivery scheduled earlier than this is a reorder. Only touched when
  /// reorder_jitter > 0 (without jitter, per-link delivery times are
  /// monotone and nothing can overtake), which keeps the fault-free send
  /// path free of shared mutable state.
  std::map<std::pair<SiteId, SiteId>, SimTime> link_horizon_;
  Stats stats_;

  /// Counters interned at construction so the send path never rebuilds a
  /// key string. The per-type slots for kNone stay unused (untyped
  /// messages get only the totals, as before).
  struct TypeCounters {
    Stats::Counter bytes;
    Stats::Counter messages;
    Stats::Counter drop;
    Stats::Counter dup;
    Stats::Counter reorder;
  };
  std::array<TypeCounters, kNumMessageTypes> by_type_;
  Stats::Counter messages_;
  Stats::Counter bytes_;
  Stats::Counter dropped_;
  Stats::Counter duplicated_;
  Stats::Counter reordered_;
  Stats::Counter partition_blocked_;
  Stats::Counter asym_blocked_;
};

}  // namespace radd

#endif  // RADD_NET_NETWORK_H_
