// Microbenchmarks (google-benchmark): the hot primitives under the
// simulation — XOR parity math, change-mask diff/encode, layout address
// arithmetic, lock manager, simulator event dispatch, and end-to-end
// RaddGroup operations.

#include <benchmark/benchmark.h>

#include "common/block.h"
#include "core/radd.h"
#include "layout/placement.h"
#include "sim/simulator.h"
#include "txn/lock_manager.h"

namespace radd {
namespace {

void BM_BlockXor4K(benchmark::State& state) {
  Block a(4096), b(4096);
  a.FillPattern(1);
  b.FillPattern(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.XorWith(b));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_BlockXor4K);

void BM_ChangeMaskDiff4K(benchmark::State& state) {
  Block a(4096), b(4096);
  a.FillPattern(1);
  b = a;
  for (size_t i = 1000; i < 1100; ++i) b[i] ^= 0xFF;
  for (auto _ : state) {
    auto mask = ChangeMask::Diff(a, b);
    benchmark::DoNotOptimize(mask);
  }
}
BENCHMARK(BM_ChangeMaskDiff4K);

void BM_ChangeMaskEncodedSize(benchmark::State& state) {
  Block a(4096), b(4096);
  a.FillPattern(1);
  b = a;
  for (size_t i = 0; i < 4096; i += 256) b[i] ^= 1;
  auto mask = ChangeMask::Diff(a, b);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mask->EncodedSize());
  }
}
BENCHMARK(BM_ChangeMaskEncodedSize);

// --- kernel-level cases across block sizes (512 B / 4 KB / 64 KB) ----------

void BM_BlockXor(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Block a(n), b(n);
  a.FillPattern(1);
  b.FillPattern(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.XorWith(b));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_BlockXor)->Arg(512)->Arg(4096)->Arg(65536);

void BM_XorInto(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Block a(n), b(n), dst(n);
  a.FillPattern(1);
  b.FillPattern(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(XorInto(&dst, a, b));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_XorInto)->Arg(512)->Arg(4096)->Arg(65536);

void BM_BlockIsZero(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Block z(n);  // all-zero: full scan, the worst case
  for (auto _ : state) {
    benchmark::DoNotOptimize(z.IsZero());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_BlockIsZero)->Arg(512)->Arg(4096)->Arg(65536);

void BM_BlockChecksum(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Block a(n);
  a.FillPattern(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Checksum());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_BlockChecksum)->Arg(512)->Arg(4096)->Arg(65536);

/// Sparse: one 100-byte record update (§7.4's motivating case).
void BM_ChangeMaskDiffSparse(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Block a(n), b(n);
  a.FillPattern(1);
  b = a;
  size_t at = n / 4;
  for (size_t i = at; i < at + 100 && i < n; ++i) b[i] ^= 0xFF;
  for (auto _ : state) {
    auto mask = ChangeMask::Diff(a, b);
    benchmark::DoNotOptimize(mask);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_ChangeMaskDiffSparse)->Arg(512)->Arg(4096)->Arg(65536);

/// Dense: every byte differs (full-block rewrite).
void BM_ChangeMaskDiffDense(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Block a(n), b(n);
  a.FillPattern(1);
  b.FillPattern(2);
  for (auto _ : state) {
    auto mask = ChangeMask::Diff(a, b);
    benchmark::DoNotOptimize(mask);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_ChangeMaskDiffDense)->Arg(512)->Arg(4096)->Arg(65536);

/// Identical blocks: the short-circuit path (no run scan at all).
void BM_ChangeMaskDiffNoop(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Block a(n);
  a.FillPattern(1);
  Block b = a;
  for (auto _ : state) {
    auto mask = ChangeMask::Diff(a, b);
    benchmark::DoNotOptimize(mask->EncodedSize());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_ChangeMaskDiffNoop)->Arg(4096);

void BM_ChangeMaskEncodeSparse(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Block a(n), b(n);
  a.FillPattern(1);
  b = a;
  for (size_t i = 0; i < n; i += 256) b[i] ^= 1;  // scattered single bytes
  auto mask = ChangeMask::Diff(a, b);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mask->EncodedSize());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_ChangeMaskEncodeSparse)->Arg(512)->Arg(4096)->Arg(65536);

void BM_ChangeMaskEncodeDense(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Block a(n), b(n);
  a.FillPattern(1);
  b.FillPattern(2);
  auto mask = ChangeMask::Diff(a, b);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mask->EncodedSize());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_ChangeMaskEncodeDense)->Arg(512)->Arg(4096)->Arg(65536);

void BM_ChangeMaskApply(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Block a(n), b(n), parity(n);
  a.FillPattern(1);
  b.FillPattern(2);
  auto mask = ChangeMask::Diff(a, b);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mask->ApplyTo(&parity));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_ChangeMaskApply)->Arg(512)->Arg(4096)->Arg(65536);

void BM_LayoutDataToRow(benchmark::State& state) {
  RotatedLayout layout(8);
  BlockNum i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(layout.DataToRow(3, i++ % 4096));
  }
}
BENCHMARK(BM_LayoutDataToRow);

void BM_LayoutRoleOf(benchmark::State& state) {
  RotatedLayout layout(8);
  BlockNum r = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(layout.RoleOf(static_cast<SiteId>(r % 10),
                                           r % 4096));
    ++r;
  }
}
BENCHMARK(BM_LayoutRoleOf);

void BM_LockAcquireRelease(benchmark::State& state) {
  LockManager lm;
  TxnId txn = 1;
  for (auto _ : state) {
    LockKey k{0, txn % 64};
    lm.Acquire(txn, k, LockMode::kExclusive);
    lm.Release(txn, k);
    ++txn;
  }
}
BENCHMARK(BM_LockAcquireRelease);

void BM_SimulatorEventDispatch(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    Simulator sim;
    for (int i = 0; i < 1000; ++i) {
      sim.Schedule(static_cast<SimTime>(i), [] {});
    }
    state.ResumeTiming();
    sim.Run();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_SimulatorEventDispatch);

void BM_RaddNormalWrite(benchmark::State& state) {
  RaddConfig config;
  config.group_size = 8;
  config.rows = 20;
  config.block_size = 4096;
  SiteConfig sc{1, config.rows, config.block_size};
  Cluster cluster(10, sc);
  RaddGroup group(&cluster, config);
  Block b(4096);
  uint64_t seed = 0;
  for (auto _ : state) {
    b.FillPattern(seed++);
    benchmark::DoNotOptimize(group.Write(2, 2, 0, b));
  }
}
BENCHMARK(BM_RaddNormalWrite);

void BM_RaddDegradedRead(benchmark::State& state) {
  RaddConfig config;
  config.group_size = 8;
  config.rows = 20;
  config.block_size = 4096;
  config.materialize_on_degraded_read = false;  // measure reconstruction
  SiteConfig sc{1, config.rows, config.block_size};
  Cluster cluster(10, sc);
  RaddGroup group(&cluster, config);
  Block b(4096);
  b.FillPattern(7);
  group.Write(2, 2, 0, b);
  cluster.CrashSite(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(group.Read(0, 2, 0));
  }
}
BENCHMARK(BM_RaddDegradedRead);

void BM_RecoverySweep(benchmark::State& state) {
  RaddConfig config;
  config.group_size = 8;
  config.rows = static_cast<BlockNum>(state.range(0));
  config.block_size = 1024;
  SiteConfig sc{1, config.rows, config.block_size};
  for (auto _ : state) {
    state.PauseTiming();
    Cluster cluster(10, sc);
    RaddGroup group(&cluster, config);
    Block b(1024);
    b.FillPattern(1);
    for (BlockNum i = 0; i < group.DataBlocksPerMember(); ++i) {
      group.Write(2, 2, i, b);
    }
    cluster.DisasterSite(2);
    cluster.RestoreSite(2);
    state.ResumeTiming();
    benchmark::DoNotOptimize(group.RunRecovery(2));
  }
}
BENCHMARK(BM_RecoverySweep)->Arg(20)->Arg(100);

}  // namespace
}  // namespace radd

BENCHMARK_MAIN();
