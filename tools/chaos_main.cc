// Chaos driver: runs seeded random fault schedules against the full RADD
// protocol stack and checks invariants after every episode.
//
//   chaos_main --seeds 200          # seeds 1..200, exit 1 on any failure
//   chaos_main --seed 1337          # replay one schedule, print its report
//   chaos_main --seeds 50 --start 1000
//   chaos_main --seeds 200 --autopilot   # self-healing mode: no manual
//                                        # repair; each episode must
//                                        # converge to all-up on its own
//   chaos_main --seeds 200 --batch       # batched parity pipeline on, with
//                                        # extra scripted drop/dup of the
//                                        # batch frames and their acks
//   chaos_main --seeds 200 --codec       # route every protocol message
//                                        # through the packed frame codec
//                                        # (encode + CRC + decode); the
//                                        # Summary must match a codec-off
//                                        # run byte for byte
//   chaos_main --seeds 200 --threads 8   # run farm: seeds execute on 8
//                                        # worker threads; output and exit
//                                        # code are identical to --threads 1
//   chaos_main --seeds 200 --spindles 4 --disk-policy deadline
//              --cache-blocks 64         # modeled disk subsystem: per-site
//                                        # spindle queues, class-aware
//                                        # scheduling and the UID-validated
//                                        # block cache all under fault load
//   chaos_main --seeds 200 --scheme pq   # P+Q dual parity: groups grow to
//                                        # G+3 members and site-killing
//                                        # episodes gain a second
//                                        # overlapping fault — two dead
//                                        # sites at once, or a second
//                                        # strike during the first one's
//                                        # recovery
//
// Every sweep ends with a per-fault-kind table of how many faults were
// injected and how many the schedules survived (second faults of
// double-failure episodes count separately).
//
// Every schedule is deterministic in its seed: a failing seed printed by a
// bulk run reproduces bit-for-bit with --seed, at any thread count — each
// seed gets its own simulator/cluster/network stack, and reports are
// buffered and printed in seed order.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "fault/chaos.h"
#include "sim/parallel_runner.h"

namespace {

uint64_t ParseU64(const char* s) {
  return static_cast<uint64_t>(std::strtoull(s, nullptr, 10));
}

/// Runs one schedule. A schedule that throws is a failing seed whose
/// summary carries the exception text, not the end of the whole run.
radd::ChaosReport RunSeed(const radd::ChaosConfig& config, uint64_t seed) {
  try {
    radd::ChaosHarness harness(config);
    return harness.Run(seed);
  } catch (const std::exception& e) {
    radd::ChaosReport r;
    r.seed = seed;
    r.groups = config.groups;
    r.parities = config.parities;
    r.failure = std::string("uncaught exception: ") + e.what();
    return r;
  }
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t seeds = 0;
  uint64_t start = 1;
  uint64_t single = 0;
  bool have_single = false;
  int threads = 1;
  radd::ChaosConfig config;

  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--seeds") == 0 && i + 1 < argc) {
      seeds = ParseU64(argv[++i]);
    } else if (std::strcmp(argv[i], "--start") == 0 && i + 1 < argc) {
      start = ParseU64(argv[++i]);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      single = ParseU64(argv[++i]);
      have_single = true;
    } else if (std::strcmp(argv[i], "--episodes") == 0 && i + 1 < argc) {
      config.plan.episodes = static_cast<int>(ParseU64(argv[++i]));
    } else if (std::strcmp(argv[i], "--ops") == 0 && i + 1 < argc) {
      config.ops_per_episode = static_cast<int>(ParseU64(argv[++i]));
    } else if (std::strcmp(argv[i], "--verbose") == 0) {
      config.verbose = true;
    } else if (std::strcmp(argv[i], "--autopilot") == 0) {
      config.autopilot = true;
    } else if (std::strcmp(argv[i], "--batch") == 0) {
      config.node.parity_batch.enabled = true;
    } else if (std::strcmp(argv[i], "--codec") == 0) {
      config.frame_codec = true;
    } else if (std::strcmp(argv[i], "--groups") == 0 && i + 1 < argc) {
      config.groups = static_cast<int>(ParseU64(argv[++i]));
      if (config.groups < 1) {
        std::fprintf(stderr, "--groups must be >= 1\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = static_cast<int>(ParseU64(argv[++i]));
      if (threads < 1) {
        std::fprintf(stderr, "--threads must be >= 1\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--scheme") == 0 && i + 1 < argc) {
      const char* scheme = argv[++i];
      if (std::strcmp(scheme, "pq") == 0) {
        config.parities = 2;
        config.plan.double_faults = true;
      } else if (std::strcmp(scheme, "single") != 0) {
        std::fprintf(stderr, "--scheme must be 'single' or 'pq'\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--disk-read-ms") == 0 && i + 1 < argc) {
      config.node.disk.read_latency = radd::Millis(ParseU64(argv[++i]));
    } else if (std::strcmp(argv[i], "--disk-write-ms") == 0 && i + 1 < argc) {
      config.node.disk.write_latency = radd::Millis(ParseU64(argv[++i]));
    } else if (std::strcmp(argv[i], "--spindles") == 0 && i + 1 < argc) {
      config.node.disk_sched.spindles = static_cast<int>(ParseU64(argv[++i]));
      if (config.node.disk_sched.spindles < 1) {
        std::fprintf(stderr, "--spindles must be >= 1\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--disk-policy") == 0 && i + 1 < argc) {
      const char* policy = argv[++i];
      if (std::strcmp(policy, "fifo") == 0) {
        config.node.disk_sched.policy = radd::IoPolicy::kFifo;
      } else if (std::strcmp(policy, "elevator") == 0) {
        config.node.disk_sched.policy = radd::IoPolicy::kElevator;
      } else if (std::strcmp(policy, "deadline") == 0) {
        config.node.disk_sched.policy = radd::IoPolicy::kDeadline;
      } else {
        std::fprintf(stderr,
                     "--disk-policy must be fifo, elevator or deadline\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--cache-blocks") == 0 && i + 1 < argc) {
      config.node.disk_sched.cache_blocks =
          static_cast<size_t>(ParseU64(argv[++i]));
    } else if (std::strcmp(argv[i], "--layout") == 0 && i + 1 < argc) {
      const char* layout = argv[++i];
      if (std::strcmp(layout, "declustered") == 0) {
        config.layout = radd::PlacementKind::kDeclustered;
      } else if (std::strcmp(layout, "rotated") != 0) {
        std::fprintf(stderr, "--layout must be 'rotated' or 'declustered'\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--sites") == 0 && i + 1 < argc) {
      config.sites = static_cast<int>(ParseU64(argv[++i]));
    } else if (std::strcmp(argv[i], "--expand") == 0) {
      config.expand = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--seeds N] [--start S] [--seed X] "
                   "[--scheme single|pq] [--groups G] [--episodes E] "
                   "[--ops O] [--autopilot] [--batch] [--codec] "
                   "[--threads T] [--disk-read-ms MS] [--disk-write-ms MS] "
                   "[--spindles S] [--disk-policy fifo|elevator|deadline] "
                   "[--cache-blocks N] "
                   "[--layout rotated|declustered] [--sites C] [--expand] "
                   "[--verbose]\n",
                   argv[0]);
      return 2;
    }
  }
  if (config.layout != radd::PlacementKind::kDeclustered) {
    if (config.expand) {
      std::fprintf(stderr, "--expand requires --layout declustered\n");
      return 2;
    }
  } else if (config.sites <
             config.group_size + 1 + config.parities) {
    std::fprintf(stderr,
                 "--sites must be >= G+1+parities = %d for declustered "
                 "placement\n",
                 config.group_size + 1 + config.parities);
    return 2;
  }
  if (config.expand && config.parities != 1) {
    std::fprintf(stderr, "--expand supports only --scheme single\n");
    return 2;
  }
  if (!have_single && seeds == 0) seeds = 200;

  if (have_single) {
    radd::ChaosReport r = RunSeed(config, single);
    std::printf("%s\n", r.Summary().c_str());
    if (r.frame_codec && r.frames_rejected > 0) {
      std::printf("CODEC FAIL: %llu frames rejected (codec must be "
                  "lossless)\n",
                  static_cast<unsigned long long>(r.frames_rejected));
      return 1;
    }
    return r.ok ? 0 : 1;
  }

  // A failing seed's replay needs every mode flag of this run; only the
  // seed range and the thread count are left out.
  std::string mode_flags;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--seeds") == 0 ||
        std::strcmp(argv[i], "--start") == 0 ||
        std::strcmp(argv[i], "--threads") == 0) {
      ++i;  // and its value
      continue;
    }
    mode_flags += ' ';
    mode_flags += argv[i];
  }

  // Run farm: every seed is an independent job with its own harness (and
  // thus its own simulator, cluster, network and protocol stack — no
  // shared mutable state between jobs). Reports are buffered and printed
  // in seed order below, so stdout is byte-identical at any thread count.
  std::vector<radd::ChaosReport> reports(seeds);
  radd::ParallelRunner::Map(threads, static_cast<int>(seeds),
                            [&](int i) {
                              reports[static_cast<size_t>(i)] = RunSeed(
                                  config, start + static_cast<uint64_t>(i));
                            });

  uint64_t failures = 0;
  radd::SimTime conv_max = 0;
  uint64_t conv_total = 0, conv_n = 0, sweep_rows = 0, false_susp = 0,
           stale = 0;
  uint64_t batches = 0, batch_retx = 0, batch_dup = 0, staged = 0,
           batch_n = 0;
  uint64_t frames_encoded = 0, frames_rejected = 0, codec_n = 0;
  std::map<std::string, uint64_t> injected, survived;
  for (uint64_t s = start; s < start + seeds; ++s) {
    radd::ChaosReport& r = reports[static_cast<size_t>(s - start)];
    for (const auto& [kind, n] : r.injected_by_kind) injected[kind] += n;
    for (const auto& [kind, n] : r.survived_by_kind) survived[kind] += n;
    if (r.frame_codec) {
      frames_encoded += r.frames_encoded;
      frames_rejected += r.frames_rejected;
      ++codec_n;
    }
    if (r.batched) {
      batches += r.batches_sent;
      batch_retx += r.batch_retransmits;
      batch_dup += r.batch_duplicates;
      staged += r.parity_staged;
      ++batch_n;
    }
    if (r.autopilot) {
      if (r.convergence_max > conv_max) conv_max = r.convergence_max;
      conv_total += r.convergence_total;
      ++conv_n;
      sweep_rows += r.sweep_rows;
      false_susp += r.false_suspicions;
      stale += r.stale_epoch_rejections;
    }
    if (!r.ok) {
      ++failures;
      std::printf("FAIL %s\n", r.Summary().c_str());
      std::printf("     reproduce with: %s --seed %llu%s\n", argv[0],
                  static_cast<unsigned long long>(s), mode_flags.c_str());
    } else if (s % 50 == 0) {
      std::printf("...%llu schedules clean so far\n",
                  static_cast<unsigned long long>(s - start + 1));
    }
  }
  if (frames_rejected > 0) {
    std::printf("CODEC FAIL: %llu frames rejected (the codec must be "
                "lossless)\n",
                static_cast<unsigned long long>(frames_rejected));
    ++failures;
  }
  std::printf("%llu/%llu schedules held all invariants\n",
              static_cast<unsigned long long>(seeds - failures),
              static_cast<unsigned long long>(seeds));
  std::printf("%-16s %9s %9s\n", "fault kind", "injected", "survived");
  for (const auto& [kind, n] : injected) {
    std::printf("%-16s %9llu %9llu\n", kind.c_str(),
                static_cast<unsigned long long>(n),
                static_cast<unsigned long long>(survived[kind]));
  }
  if (batch_n > 0) {
    std::printf("batched parity: %llu updates staged into %llu frames "
                "(%.2f updates/frame); %llu retransmits, "
                "%llu duplicate frames deduped\n",
                static_cast<unsigned long long>(staged),
                static_cast<unsigned long long>(batches),
                batches > 0 ? static_cast<double>(staged) /
                                  static_cast<double>(batches)
                            : 0.0,
                static_cast<unsigned long long>(batch_retx),
                static_cast<unsigned long long>(batch_dup));
  }
  if (codec_n > 0) {
    std::printf("frame codec: %llu frames encoded, %llu rejected\n",
                static_cast<unsigned long long>(frames_encoded),
                static_cast<unsigned long long>(frames_rejected));
  }
  if (config.autopilot && conv_n > 0) {
    std::printf("autopilot: worst convergence %.1f ms, total %.1f s; "
                "%llu rows swept, %llu false suspicions, "
                "%llu stale-epoch rejections\n",
                radd::ToMillis(conv_max),
                radd::ToSeconds(conv_total),
                static_cast<unsigned long long>(sweep_rows),
                static_cast<unsigned long long>(false_susp),
                static_cast<unsigned long long>(stale));
  }
  return failures == 0 ? 0 : 1;
}
