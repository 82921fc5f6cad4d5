#include "disk/block_cache.h"

namespace radd {

const BlockCache::Entry* BlockCache::Lookup(BlockNum addr) {
  if (capacity_ == 0) return nullptr;
  auto it = map_.find(addr);
  if (it == map_.end()) {
    ++misses_;
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  return &lru_.front().second;
}

void BlockCache::Insert(BlockNum addr, const Block& data, Uid uid) {
  if (capacity_ == 0) return;
  auto it = map_.find(addr);
  if (it == map_.end()) {
    if (map_.size() < capacity_) {
      lru_.emplace_front(addr, Entry(data, uid));
      map_.emplace(addr, lru_.begin());
      return;
    }
    // Full: the LRU entry's list node, map node and buffer are recycled
    // for `addr`, so a warm cache inserts without allocating.
    auto node = map_.extract(lru_.back().first);
    node.key() = addr;
    lru_.back().first = addr;
    it = map_.insert(std::move(node)).position;
  }
  Entry& e = it->second->second;
  e.data = data;  // same size: assigns into the existing buffer
  e.uid = uid;
  lru_.splice(lru_.begin(), lru_, it->second);
}

void BlockCache::Invalidate(BlockNum addr) {
  auto it = map_.find(addr);
  if (it == map_.end()) return;
  lru_.erase(it->second);
  map_.erase(it);
}

void BlockCache::Clear() {
  lru_.clear();
  map_.clear();
}

}  // namespace radd
