// Unit checks of the benchmark's percentile rule; selftest.py runs them
// together with its end-to-end checks.

#include <cmath>
#include <cstdio>
#include <numeric>
#include <vector>

#include "harness.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

std::vector<radd::SimTime> Ramp(size_t n) {
  std::vector<radd::SimTime> v(n);
  std::iota(v.begin(), v.end(), radd::SimTime{1000});  // 1 ms, 1.001 ms, ...
  return v;
}

}  // namespace

int main() {
  using perfbench::NearestRank;
  const perfbench::Percentile p99 = NearestRank(Ramp(1000), 0.99);
  Check(p99.ok && p99.beyond == 10, "p99 of 1000 samples has 10 beyond it");
  Check(p99.ms == radd::ToMillis(1000 + 989), "p99 is the 990th sample");
  Check(!NearestRank(Ramp(999), 0.99).ok,
        "p99 of 999 samples is refused (9 beyond)");
  const perfbench::Percentile p50 = NearestRank(Ramp(100), 0.50);
  Check(p50.ok && p50.ms == radd::ToMillis(1000 + 49),
        "p50 of 100 samples is the 50th");
  Check(!NearestRank({}, 0.5).ok, "no samples, no percentile");

  // Failed ops sort above every latency, so they miss every limit.
  std::vector<radd::SimTime> with_failures = Ramp(989);
  with_failures.resize(1000, perfbench::LatencyLog::kFailed);
  Check(std::isinf(NearestRank(with_failures, 0.99).ms),
        "11 failures in 1000 ops put p99 at infinity");
  return failures == 0 ? 0 : 1;
}
