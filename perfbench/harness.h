// Workload inputs and latency bookkeeping of the RADD benchmark.
//
// Everything here is built before the clock starts: op streams, payload
// bytes and the storage latency samples are written into. The timed region
// only walks these arrays.

#ifndef RADD_PERFBENCH_HARNESS_H_
#define RADD_PERFBENCH_HARNESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/block.h"
#include "sim/simulator.h"
#include "workload/workload.h"

namespace perfbench {

/// One client operation. `lba` is in the target site's LBA space.
struct Op {
  uint32_t lba = 0;
  uint16_t payload = 0;        ///< index into the payload pool (writes)
  uint16_t record_offset = 0;  ///< byte offset of the record a write replaces
  bool write = false;
};

/// Builds the ops of one closed-loop client slot over [lba_begin, lba_end)
/// of the target site. Reads, writes, blocks and records come from
/// radd::WorkloadGenerator with `spec`'s read fraction, skew and record
/// size; each write also draws a payload from the pool. Zipf ranks map to
/// LBAs through `rank_to_lba` (a seeded permutation of the range, so hot
/// blocks spread over rows and spindles); uniform streams ignore it.
std::vector<Op> MakeSlotOps(uint64_t seed, const radd::WorkloadConfig& spec,
                            uint32_t lba_begin, uint32_t lba_end,
                            const std::vector<uint32_t>& rank_to_lba,
                            size_t num_ops, uint16_t pool_size);

/// Random payload blocks shared by every write of a run.
std::vector<radd::Block> MakePayloadPool(uint64_t seed, size_t count,
                                         size_t block_size);

/// Makes a pooled payload unique to one write: (client site, per-client
/// write sequence) go into the first eight bytes.
void StampPayload(radd::Block* block, uint32_t site, uint32_t seq);

/// FNV-1a over raw bytes, for digests of streams and results.
uint64_t Fnv(uint64_t h, const void* data, size_t n);

/// Latency samples in storage sized before the run. A failed op is stored
/// as kFailed, which sorts above every real latency, so it misses every
/// latency limit.
class LatencyLog {
 public:
  static constexpr radd::SimTime kFailed = ~radd::SimTime{0};

  void Reserve(size_t n) { samples_.assign(n, 0); }
  void Record(radd::SimTime latency) { samples_[size_++] = latency; }
  size_t size() const { return size_; }
  const radd::SimTime* data() const { return samples_.data(); }

 private:
  std::vector<radd::SimTime> samples_;
  size_t size_ = 0;
};

/// Nearest-rank percentile of sorted samples, with the rule the report
/// follows: a percentile is printed only if at least ten samples lie
/// beyond it. `ok` is false when `sorted` is too small for `p`.
struct Percentile {
  double ms = 0;
  size_t beyond = 0;
  bool ok = false;
};
Percentile NearestRank(const std::vector<radd::SimTime>& sorted, double p);

double Median(std::vector<double> v);

/// Mean of the lowest quarter of `v` (at least one value).
double LowQuarterMean(std::vector<double> v);

}  // namespace perfbench

#endif  // RADD_PERFBENCH_HARNESS_H_
