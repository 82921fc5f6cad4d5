// ParityCoalescer — the write-combining staging buffer of the batched
// parity pipeline (DESIGN.md §10).
//
// The paper charges every data write one W3 parity message (formula 1).
// Under heavy traffic many of those messages target the same parity site,
// and often the same row: because formula (1) is an XOR, change masks for
// the same (row, position) compose associatively — applying their XOR-merge
// once is byte-identical to applying each in order. The coalescer exploits
// this: each site keeps one staging buffer per parity site; a staged update
// either opens a new entry or folds into the existing entry for its key
// (delta ^= mask, UID advances to the newest contributor — the merged
// result is exactly the state the paper's UID array would hold after the
// last member applied). A flush drains the eligible entries into one
// ParityBatchFrame.
//
// Eligibility: a key with an unacked in-flight batch is *blocked* — at most
// one update per (row, position) may be on the wire at a time, so a
// reordered pair of batches can never leave the parity UID array pointing
// at a stale merge. Blocked entries stay staged and flush when the batch
// holding their key resolves.

#ifndef RADD_CORE_PARITY_COALESCER_H_
#define RADD_CORE_PARITY_COALESCER_H_

#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/block.h"
#include "common/uid.h"
#include "sim/simulator.h"

namespace radd {

/// Tunables of the parity pipeline. Off by default: with `enabled = false`
/// the protocol layer ignores the thresholds below and flushes each update
/// on its own (max_ops = 1, max_delay = 0), so a blocked key is the only
/// way two updates share an entry.
struct ParityBatchConfig {
  bool enabled = false;
  /// Flush when the staged entries cover this many client ops.
  int max_ops = 8;
  /// Flush when the summed encoded-mask bytes reach this.
  size_t max_bytes = 16 * 1024;
  /// Flush no later than this after the buffer became nonempty, so a lone
  /// write is not held hostage waiting for company (group-commit timer).
  SimTime max_delay = Millis(2);
};

class ParityCoalescer {
 public:
  using Key = std::pair<BlockNum, int>;  // (row, position)

  struct Entry {
    BlockNum row = 0;
    int position = 0;
    Block delta{0};           ///< XOR-merge of every staged mask
    Uid uid;                  ///< newest contributing UID (latest wins)
    /// Home epoch captured when the (first) delta was computed — not
    /// restamped on retransmit. A delta diffed against a pre-transition
    /// disk state is invalid once the home's epoch moves (recovery may
    /// rebuild the row from parity in between); the receiver rejects it,
    /// and the sender restamps it only if its own copy still carries the
    /// change. A merge keeps the OLDEST stamp: one stale contributor
    /// poisons the whole merge.
    uint64_t home_epoch = 0;
    size_t encoded_bytes = 0; ///< wire cost of the merged mask
    std::vector<uint64_t> ops;  ///< parity waiters (one per write) to ack

    Key key() const { return {row, position}; }
  };

  /// Stages one parity update for parity waiter `waiter`. Takes the
  /// mask's delta block by value (movable); merges into the existing entry
  /// when the (row, position) key is already staged.
  void Add(BlockNum row, int position, ChangeMask mask, Uid uid,
           uint64_t home_epoch, uint64_t waiter);

  /// Re-stages a previously flushed entry (retry of a nacked batch
  /// entry), merging if its key was staged again in the meantime.
  void AddEntry(Entry entry);

  bool empty() const { return entries_.empty(); }
  size_t op_count() const { return ops_; }
  size_t staged_bytes() const { return bytes_; }
  size_t entry_count() const { return entries_.size(); }

  /// Removes and returns the staged entries whose key is NOT in `blocked`,
  /// preserving staging order. Blocked entries stay staged.
  std::vector<Entry> TakeEligible(const std::set<Key>& blocked);

 private:
  void Merge(Entry& into, Entry from);
  void Account(const Entry& e, int sign);

  std::vector<Entry> entries_;     // staging order
  std::map<Key, size_t> index_;    // key -> position in entries_
  size_t ops_ = 0;
  size_t bytes_ = 0;
};

}  // namespace radd

#endif  // RADD_CORE_PARITY_COALESCER_H_
