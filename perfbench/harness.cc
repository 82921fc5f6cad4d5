#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "common/rng.h"

namespace perfbench {

std::vector<Op> MakeSlotOps(uint64_t seed, const radd::WorkloadConfig& spec,
                            uint32_t lba_begin, uint32_t lba_end,
                            const std::vector<uint32_t>& rank_to_lba,
                            size_t num_ops, uint16_t pool_size) {
  radd::WorkloadConfig wc = spec;
  wc.num_members = 1;
  wc.blocks_per_member = lba_end - lba_begin;
  radd::WorkloadGenerator gen(wc, seed);
  radd::Rng payloads(seed ^ 0x7061796c6f6164ULL);
  std::vector<Op> ops(num_ops);
  for (Op& op : ops) {
    const radd::Operation o = gen.Next();
    const auto block = static_cast<uint32_t>(o.block);
    op.write = !o.IsRead();
    op.lba = spec.zipf_theta > 0 ? rank_to_lba[block] : lba_begin + block;
    op.payload = static_cast<uint16_t>(payloads.Uniform(pool_size));
    op.record_offset = static_cast<uint16_t>(o.record_offset);
  }
  return ops;
}

std::vector<radd::Block> MakePayloadPool(uint64_t seed, size_t count,
                                         size_t block_size) {
  std::vector<radd::Block> pool;
  pool.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    pool.emplace_back(block_size);
    pool.back().FillPattern(seed * 0x9e3779b97f4a7c15ULL + i);
  }
  return pool;
}

void StampPayload(radd::Block* block, uint32_t site, uint32_t seq) {
  std::memcpy(block->data(), &site, sizeof site);
  std::memcpy(block->data() + sizeof site, &seq, sizeof seq);
}

uint64_t Fnv(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

Percentile NearestRank(const std::vector<radd::SimTime>& sorted, double p) {
  Percentile out;
  const size_t n = sorted.size();
  if (n == 0) return out;
  // Rank ceil(p * n), 1-based; the epsilon keeps 0.99 * 1000 at 990.
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(n) -
                                              1e-9));
  rank = std::clamp<size_t>(rank, 1, n);
  out.beyond = n - rank;
  out.ok = out.beyond >= 10;
  const radd::SimTime v = sorted[rank - 1];
  out.ms = v == LatencyLog::kFailed ? INFINITY : radd::ToMillis(v);
  return out;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double LowQuarterMean(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = std::max<size_t>(1, v.size() / 4);
  return std::accumulate(v.begin(), v.begin() + static_cast<long>(n), 0.0) /
         static_cast<double>(n);
}

}  // namespace perfbench
