// Transport driver: differential testing, socket chaos and benchmarking
// for the two transport backends (DES frames vs real TCP sockets).
//
//   transport_main --diff  [--seeds N]    # per seed: run the same op
//                                         # schedule through the DES
//                                         # backend and the socket backend
//                                         # over a clean network; the final
//                                         # store hashes must be equal
//   transport_main --chaos [--seeds N]    # per seed: socket backend
//                                         # through the lossy proxy
//                                         # (drop/truncate/bitflip/dup/
//                                         # delay); the acked-write ledger
//                                         # must stay clean
//   transport_main --bench [--out FILE]   # p50/p99 write->ack latency and
//                                         # throughput for both backends,
//                                         # as JSON (stdout or FILE)
//
// Exit code 0 only if every invariant held. Defaults: --diff 10 seeds,
// --chaos 40 seeds (the robustness floor the CI smoke relies on).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "fault/netshim.h"
#include "net/transport_harness.h"

namespace {

uint64_t ParseU64(const char* s) {
  return static_cast<uint64_t>(std::strtoull(s, nullptr, 10));
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t idx = static_cast<size_t>(
      p / 100.0 * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

radd::HarnessConfig BaseConfig(uint64_t seed, int ops) {
  radd::HarnessConfig cfg;
  cfg.seed = seed;
  cfg.num_ops = ops;
  cfg.socket.seed = seed ^ 0x50cce7;
  return cfg;
}

int RunDiff(uint64_t seeds, int ops) {
  int failures = 0;
  for (uint64_t s = 1; s <= seeds; ++s) {
    radd::HarnessConfig cfg = BaseConfig(s, ops);
    radd::HarnessResult des = radd::RunDesHarness(cfg);
    radd::HarnessResult sock = radd::RunSocketHarness(cfg);
    const bool hash_eq = des.store_hash == sock.store_hash;
    const bool all_acked = des.ops_acked == des.ops_issued &&
                           sock.ops_acked == sock.ops_issued;
    const bool ok = hash_eq && all_acked && des.ledger_ok && sock.ledger_ok &&
                    des.frames_rejected == 0 && sock.frames_rejected == 0;
    if (!ok) {
      ++failures;
      std::printf(
          "DIFF FAIL seed=%llu des_hash=%016llx sock_hash=%016llx "
          "des_acked=%d/%d sock_acked=%d/%d des_ledger=%s sock_ledger=%s "
          "rejected=%llu/%llu\n",
          static_cast<unsigned long long>(s),
          static_cast<unsigned long long>(des.store_hash),
          static_cast<unsigned long long>(sock.store_hash), des.ops_acked,
          des.ops_issued, sock.ops_acked, sock.ops_issued,
          des.ledger_ok ? "ok" : des.ledger_error.c_str(),
          sock.ledger_ok ? "ok" : sock.ledger_error.c_str(),
          static_cast<unsigned long long>(des.frames_rejected),
          static_cast<unsigned long long>(sock.frames_rejected));
    } else {
      std::printf("diff seed=%llu hash=%016llx acked=%d/%d identical\n",
                  static_cast<unsigned long long>(s),
                  static_cast<unsigned long long>(des.store_hash),
                  sock.ops_acked, sock.ops_issued);
    }
  }
  std::printf("%llu/%llu DES-vs-socket differentials converged\n",
              static_cast<unsigned long long>(seeds - failures),
              static_cast<unsigned long long>(seeds));
  return failures == 0 ? 0 : 1;
}

int RunChaos(uint64_t seeds, int ops) {
  int failures = 0;
  uint64_t drops = 0, truncs = 0, flips = 0, dups = 0, delays = 0;
  uint64_t rejected = 0, stale = 0, retx = 0, acked = 0, issued = 0;
  for (uint64_t s = 1; s <= seeds; ++s) {
    radd::HarnessConfig cfg = BaseConfig(s, ops);
    radd::LossyNetProxy proxy(radd::DefaultLossyMix(s));
    radd::HarnessResult r = radd::RunSocketHarness(cfg, &proxy);
    drops += proxy.planned_drops();
    truncs += proxy.planned_truncations();
    flips += proxy.planned_bitflips();
    dups += proxy.planned_dups();
    delays += proxy.planned_delays();
    rejected += r.frames_rejected;
    stale += r.stale_stream;
    issued += static_cast<uint64_t>(r.ops_issued);
    acked += static_cast<uint64_t>(r.ops_acked);
    // Under loss, unacked ops are allowed; a dirty ledger is not.
    if (!r.ledger_ok) {
      ++failures;
      std::printf("CHAOS FAIL seed=%llu: %s\n",
                  static_cast<unsigned long long>(s),
                  r.ledger_error.c_str());
    } else {
      std::printf("chaos seed=%llu acked=%d/%d rejected=%llu stale=%llu "
                  "ledger clean\n",
                  static_cast<unsigned long long>(s), r.ops_acked,
                  r.ops_issued, static_cast<unsigned long long>(r.frames_rejected),
                  static_cast<unsigned long long>(r.stale_stream));
    }
    (void)retx;
  }
  std::printf(
      "%llu/%llu lossy-proxy schedules kept the ledger clean "
      "(acked %llu/%llu ops; injected: %llu drops, %llu truncations, "
      "%llu bitflips, %llu dups, %llu delays; %llu frames rejected, "
      "%llu stale-stream fenced)\n",
      static_cast<unsigned long long>(seeds - failures),
      static_cast<unsigned long long>(seeds),
      static_cast<unsigned long long>(acked),
      static_cast<unsigned long long>(issued),
      static_cast<unsigned long long>(drops),
      static_cast<unsigned long long>(truncs),
      static_cast<unsigned long long>(flips),
      static_cast<unsigned long long>(dups),
      static_cast<unsigned long long>(delays),
      static_cast<unsigned long long>(rejected),
      static_cast<unsigned long long>(stale));
  return failures == 0 ? 0 : 1;
}

void AppendBackendJson(std::string* out, const char* name,
                       const char* latency_domain,
                       const radd::HarnessResult& r) {
  const double p50 = Percentile(r.op_latency_us, 50);
  const double p99 = Percentile(r.op_latency_us, 99);
  const double tput =
      r.elapsed_sec > 0 ? static_cast<double>(r.ops_acked) / r.elapsed_sec : 0;
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "    {\n"
      "      \"backend\": \"%s\",\n"
      "      \"latency_domain\": \"%s\",\n"
      "      \"ops_acked\": %d,\n"
      "      \"p50_latency_us\": %.1f,\n"
      "      \"p99_latency_us\": %.1f,\n"
      "      \"wall_sec\": %.3f,\n"
      "      \"ops_per_wall_sec\": %.0f,\n"
      "      \"frames_encoded\": %llu,\n"
      "      \"frames_rejected\": %llu\n"
      "    }",
      name, latency_domain, r.ops_acked, p50, p99, r.elapsed_sec, tput,
      static_cast<unsigned long long>(r.frames_encoded),
      static_cast<unsigned long long>(r.frames_rejected));
  *out += buf;
}

int RunBench(const std::string& out_path, int ops) {
  radd::HarnessConfig cfg = BaseConfig(7, ops);
  radd::HarnessResult des = radd::RunDesHarness(cfg);
  radd::HarnessResult sock = radd::RunSocketHarness(cfg);
  radd::LossyNetProxy proxy(radd::DefaultLossyMix(7));
  radd::HarnessResult lossy = radd::RunSocketHarness(cfg, &proxy);
  if (!des.ledger_ok || !sock.ledger_ok || !lossy.ledger_ok ||
      des.store_hash != sock.store_hash) {
    std::fprintf(stderr, "bench run violated an invariant (des=%s sock=%s "
                 "lossy=%s hashes %s)\n",
                 des.ledger_ok ? "ok" : des.ledger_error.c_str(),
                 sock.ledger_ok ? "ok" : sock.ledger_error.c_str(),
                 lossy.ledger_ok ? "ok" : lossy.ledger_error.c_str(),
                 des.store_hash == sock.store_hash ? "equal" : "DIFFER");
    return 1;
  }

  const unsigned host_cores = std::thread::hardware_concurrency();
  // The socket backend runs num_sites writer threads plus per-site
  // acceptor/reader threads; on a host with fewer cores than sites the
  // threads time-slice and the latency numbers measure scheduling, not
  // the transport.
  const bool degraded =
      host_cores < static_cast<unsigned>(cfg.num_sites);
  std::string json;
  json += "{\n";
  json +=
      "  \"description\": \"Transport backends on the differential "
      "harness (DESIGN.md section 13): the same deterministic op schedule "
      "(miniature max-uid-wins replicated store speaking real RADD wire "
      "structs) through the DES frame codec and through real TCP loopback "
      "sockets. DES latencies are simulated microseconds (22.5 ms one-way "
      "model); socket latencies are wall-clock microseconds. lossy_socket "
      "runs the same schedule through the fault-injecting proxy "
      "(DefaultLossyMix) and is throughput-bound by retransmit timeouts; "
      "its ledger stayed clean.\",\n";
  json += "  \"regenerate\": \"build/tools/transport_main --bench\",\n";
  json += "  \"host_cores\": " + std::to_string(host_cores) + ",\n";
  json += std::string("  \"degraded_host\": ") +
          (degraded ? "true" : "false") + ",\n";
  json += "  \"sites\": " + std::to_string(cfg.num_sites) + ",\n";
  json += "  \"ops\": " + std::to_string(cfg.num_ops) + ",\n";
  json += "  \"block_bytes\": " + std::to_string(cfg.block_bytes) + ",\n";
  json += "  \"results\": [\n";
  AppendBackendJson(&json, "des", "simulated_us", des);
  json += ",\n";
  AppendBackendJson(&json, "socket", "wall_us", sock);
  json += ",\n";
  AppendBackendJson(&json, "lossy_socket", "wall_us", lossy);
  json += "\n  ]\n}\n";

  if (out_path.empty() || out_path == "-") {
    std::fputs(json.c_str(), stdout);
  } else {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("wrote %s (des_hash == sock_hash, all ledgers clean)\n",
                out_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  enum class Mode { kNone, kDiff, kChaos, kBench } mode = Mode::kNone;
  uint64_t seeds = 0;
  int ops = 0;
  std::string out;

  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--diff") == 0) {
      mode = Mode::kDiff;
    } else if (std::strcmp(argv[i], "--chaos") == 0) {
      mode = Mode::kChaos;
    } else if (std::strcmp(argv[i], "--bench") == 0) {
      mode = Mode::kBench;
    } else if (std::strcmp(argv[i], "--seeds") == 0 && i + 1 < argc) {
      seeds = ParseU64(argv[++i]);
    } else if (std::strcmp(argv[i], "--ops") == 0 && i + 1 < argc) {
      ops = static_cast<int>(ParseU64(argv[++i]));
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s --diff|--chaos|--bench [--seeds N] [--ops O] "
                   "[--out FILE]\n",
                   argv[0]);
      return 2;
    }
  }

  switch (mode) {
    case Mode::kDiff:
      return RunDiff(seeds == 0 ? 10 : seeds, ops == 0 ? 400 : ops);
    case Mode::kChaos:
      return RunChaos(seeds == 0 ? 40 : seeds, ops == 0 ? 200 : ops);
    case Mode::kBench:
      return RunBench(out, ops == 0 ? 2000 : ops);
    case Mode::kNone:
      break;
  }
  std::fprintf(stderr, "pick a mode: --diff, --chaos or --bench\n");
  return 2;
}
