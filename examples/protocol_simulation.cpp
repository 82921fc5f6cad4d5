// End-to-end protocol simulation: the RADD running as an actual
// message-passing distributed system over the simulated network — disk
// and link latencies, a heartbeat failure detector instead of the paper's
// assumed status oracle, a lossy network with retransmit-until-ack (§5),
// and a workload driving it all.
//
//   ./build/examples/protocol_simulation

#include <cstdio>

#include "cluster/heartbeat.h"
#include "common/format.h"
#include "core/node.h"
#include "workload/workload.h"

using namespace radd;

int main() {
  RaddConfig config;
  config.group_size = 8;
  config.rows = 30;
  config.block_size = 4096;

  Simulator sim;
  NetworkModel nm;
  nm.drop_probability = 0.05;  // a slightly lossy LAN
  Network net(&sim, nm, 0xcafe);
  Cluster cluster(10, SiteConfig{1, config.rows, config.block_size});
  RaddNodeSystem radd(&sim, &net, &cluster, config);

  std::vector<SiteId> all_sites;
  for (int m = 0; m < 10; ++m) {
    all_sites.push_back(radd.group(0)->SiteOfMember(m));
  }
  // The detector feeds its suspicions into the system's membership
  // service, which every protocol decision consults.
  SiteStatusService* status = radd.status();
  HeartbeatDetector detector(&sim, &net, status, all_sites);
  detector.Start();

  WorkloadConfig wc;
  wc.num_members = 10;
  wc.blocks_per_member = radd.group(0)->DataBlocksPerMember();
  wc.block_size = config.block_size;
  wc.read_fraction = 2.0 / 3.0;
  wc.zipf_theta = 0.6;
  WorkloadGenerator gen(wc, 0x900d);

  Stats latencies;
  auto run_ops = [&](int n, const char* label) {
    int ok = 0, failed = 0;
    for (int i = 0; i < n; ++i) {
      Operation op = gen.Next();
      // Plans run at the home site unless its peers believe it is down,
      // in which case the work migrates (§6).
      SiteId home_site = radd.group(0)->SiteOfMember(op.member);
      SiteId client = home_site;
      for (SiteId s : all_sites) {
        if (s != home_site &&
            status->Perceived(s, home_site) == SiteState::kDown) {
          client = s;
          break;
        }
      }
      if (op.IsRead()) {
        auto r = radd.Read(client, 0, op.member, op.block);
        r.status.ok() ? ++ok : ++failed;
        if (r.status.ok()) {
          latencies.Observe(std::string(label) + ".read",
                            ToMillis(r.latency));
        }
      } else {
        Block data(config.block_size);
        data.FillPattern(static_cast<uint64_t>(i));
        auto w = radd.Write(client, 0, op.member, op.block, data);
        w.status.ok() ? ++ok : ++failed;
        if (w.status.ok()) {
          latencies.Observe(std::string(label) + ".write",
                            ToMillis(w.latency));
        }
      }
    }
    std::printf("%-18s %4d ok, %d failed; read mean %.0f ms p95 %.0f ms; "
                "write mean %.0f ms p95 %.0f ms\n",
                label, ok, failed,
                latencies.Mean(std::string(label) + ".read"),
                latencies.Percentile(std::string(label) + ".read", 95),
                latencies.Mean(std::string(label) + ".write"),
                latencies.Percentile(std::string(label) + ".write", 95));
  };

  std::printf("phase 1: normal operation (5%% message loss, zipf 0.6, "
              "2:1 reads)\n");
  run_ops(300, "normal");

  std::printf("\nphase 2: site of member 3 crashes; the detector notices "
              "within a few heartbeats\n");
  cluster.CrashSite(radd.group(0)->SiteOfMember(3));
  sim.RunUntil(sim.Now() + Seconds(3));
  std::printf("detector verdict at site 0: member 3's site is %s\n",
              std::string(SiteStateName(status->Perceived(
                  all_sites[0], radd.group(0)->SiteOfMember(3)))).c_str());
  run_ops(300, "degraded");

  std::printf("\nphase 3: repair, recovery sweep, back to normal\n");
  cluster.RestoreSite(radd.group(0)->SiteOfMember(3));
  sim.RunUntil(sim.Now() + Seconds(5));  // drain in-flight traffic
  Result<OpCounts> sweep = radd.group(0)->RunRecovery(3);
  std::printf("recovery sweep: %s\n", sweep.status().ToString().c_str());
  run_ops(300, "after");

  sim.RunUntil(sim.Now() + Seconds(5));
  Status inv = radd.group(0)->VerifyInvariants();
  std::printf("\nfinal invariants: %s\n", inv.ToString().c_str());
  std::printf("network: %llu messages, %llu bytes, %llu dropped; "
              "%llu parity retransmits, %llu duplicates absorbed\n",
              static_cast<unsigned long long>(net.stats().Get("net.messages")),
              static_cast<unsigned long long>(net.stats().Get("net.bytes")),
              static_cast<unsigned long long>(net.stats().Get("net.dropped")),
              static_cast<unsigned long long>(
                  radd.stats().Get("node.batch_retransmit")),
              static_cast<unsigned long long>(
                  radd.stats().Get("node.batch_duplicate") +
                  radd.stats().Get("node.parity_duplicate")));
  return inv.ok() ? 0 : 1;
}
