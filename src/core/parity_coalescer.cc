#include "core/parity_coalescer.h"

#include <cassert>

namespace radd {

void ParityCoalescer::Account(const Entry& e, int sign) {
  if (sign > 0) {
    ops_ += e.ops.size();
    bytes_ += e.encoded_bytes;
  } else {
    assert(ops_ >= e.ops.size() && bytes_ >= e.encoded_bytes);
    ops_ -= e.ops.size();
    bytes_ -= e.encoded_bytes;
  }
}

void ParityCoalescer::Merge(Entry& into, Entry from) {
  Account(into, -1);
  assert(into.delta.size() == from.delta.size());
  // The merged mask can shrink (runs cancel) or grow (runs union); the
  // wire cost is whatever the merge actually encodes to, learned in the
  // XOR pass itself.
  into.encoded_bytes =
      internal::XorBytesSized(into.delta.data(), into.delta.data(),
                              from.delta.data(), into.delta.size());
  // Latest UID wins: formula (1)'s merge leaves the parity UID array
  // exactly where applying the members in order would have left it.
  if (into.uid < from.uid || !into.uid.valid()) into.uid = from.uid;
  // Oldest epoch wins: if any contributor predates a home transition, the
  // merged delta is unusable and the receiver must say so.
  if (from.home_epoch < into.home_epoch) into.home_epoch = from.home_epoch;
  for (uint64_t op : from.ops) into.ops.push_back(op);
  Account(into, +1);
}

void ParityCoalescer::Add(BlockNum row, int position, ChangeMask mask,
                          Uid uid, uint64_t home_epoch, uint64_t waiter) {
  Entry e;
  e.row = row;
  e.position = position;
  e.uid = uid;
  e.home_epoch = home_epoch;
  e.encoded_bytes = mask.EncodedSize();
  e.delta = std::move(mask).TakeDelta();
  e.ops.push_back(waiter);
  AddEntry(std::move(e));
}

void ParityCoalescer::AddEntry(Entry entry) {
  auto it = index_.find(entry.key());
  if (it != index_.end()) {
    Merge(entries_[it->second], std::move(entry));
    return;
  }
  index_[entry.key()] = entries_.size();
  Account(entry, +1);
  entries_.push_back(std::move(entry));
}

std::vector<ParityCoalescer::Entry> ParityCoalescer::TakeEligible(
    const std::set<Key>& blocked) {
  std::vector<Entry> taken;
  std::vector<Entry> kept;
  for (Entry& e : entries_) {
    if (blocked.count(e.key())) {
      kept.push_back(std::move(e));
    } else {
      Account(e, -1);
      taken.push_back(std::move(e));
    }
  }
  entries_ = std::move(kept);
  index_.clear();
  for (size_t i = 0; i < entries_.size(); ++i) {
    index_[entries_[i].key()] = i;
  }
  return taken;
}

}  // namespace radd
