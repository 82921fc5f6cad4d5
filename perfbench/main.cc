// The RADD benchmark: seeded closed-loop workloads driven through
// RaddVolume's public API, with client-visible metrics, a correctness gate
// and a traced run that splits wall time by module.
//
//   radd_perfbench --workload steady_g8|degraded|hot_batched --seed N
//                  --seconds S --trace 0|1 [--threads T]
//                  [--source-id ID] [--spans PATH]
//
// A run repeats rounds until S seconds are used. Each round generates its
// inputs from the seed, builds a fresh volume, preloads every block, runs
// the op streams to completion on the clock, drains, checks invariants and
// reads back every block it wrote. The rounds of one run are identical in
// simulated time (checked by digest), so simulated figures come from round
// 0 and wall figures from the later rounds (round 0 warms the process up).
// Every output starts with a "meta" line: seed, nproc, source revision,
// compiler and build flags.
//
// Output: "#"-prefixed report lines, then one JSON line with the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "common/block.h"
#include "common/crc32c.h"
#include "common/rng.h"
#include "core/volume.h"
#include "harness.h"
#include "net/frame.h"
#include "net/transport.h"
#include "probes.h"

namespace perfbench {
namespace {

using radd::Block;
using radd::BlockNum;
using radd::SimTime;
using radd::SiteId;
using radd::Status;
using Clock = std::chrono::steady_clock;

#if defined(__OPTIMIZE__) && defined(NDEBUG)
constexpr bool kReleaseBuild = true;
#else
constexpr bool kReleaseBuild = false;
#endif

constexpr size_t kBlockSize = 4096;
constexpr int kGroupSize = 8;  // the paper's G; single parity, one spare
constexpr int kGroupWidth = kGroupSize + 2;
constexpr uint16_t kPoolSize = 256;
constexpr size_t kSpanBudget = 1 << 17;  // spans of the first traced round
// The sharded engine's measured rounds run their PDES windows on one
// thread: at 4 threads (the host's core count) every window waits for the
// slowest worker, and on a shared host that made ops_per_wall_s spread
// 1.3-2x between seeds. Traced runs also time kWideThreads threads for
// sim.parallel_speedup.
constexpr int kWideThreads = 4;
// Closed-loop clients per drive of a client site. Each is a DBMS worker
// with no think time: it issues its next op as soon as the last completes.
constexpr int kSlotsPerDrive = 4;
constexpr size_t kMinSetups = 16;  // set-up timings behind setup_s

/// One workload: the volume's shape, engine and op mix.
struct Workload {
  const char* name;
  int groups;
  BlockNum rows;  ///< physical blocks per drive
  bool sharded;   ///< PDES engine, one shard per site
  bool codec;     ///< every send through DesTransport
  int victim;     ///< site crashed for the timed region, or -1
  /// Read fraction, skew and record size of the op stream; the address
  /// range is set per client slot. A record size below the block size
  /// makes writes §7.4 record updates.
  radd::WorkloadConfig stream;
  size_t ops_per_round;
  /// Parity batching's group-commit window (max_delay); 0 = unbatched.
  radd::SimTime batch_window;
};

const Workload kWorkloads[] = {
    // §4 volume: 8 groups over 17 sites, normal mode, uniform 2/3 reads.
    {"steady_g8", 8, 120, true, false, -1,
     {.read_fraction = 2.0 / 3.0, .record_size = kBlockSize}, 96000, 0},
    // One group, site 2 down: spare reads/writes and reconstructions.
    {"degraded", 1, 8000, false, false, 2,
     {.read_fraction = 2.0 / 3.0, .record_size = kBlockSize}, 32000, 0},
    // One group, 90% Zipfian 128-byte record updates, parity batching with
    // a 100 ms group-commit window, and the frame codec.
    {"hot_batched", 1, 600, false, true, -1,
     {.read_fraction = 0.1, .zipf_theta = 0.99, .record_size = 128}, 80000,
     radd::Millis(100)},
};

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

int NumSites(const Workload& w) {
  return w.groups == 1 ? kGroupWidth : kGroupWidth - 1 + w.groups;
}

/// Drives per site: the group members dealt round-robin over the sites.
std::vector<int> DrivesPerSite(const Workload& w) {
  std::vector<int> drives(static_cast<size_t>(NumSites(w)), 0);
  for (int d = 0; d < w.groups * kGroupWidth; ++d) {
    ++drives[static_cast<size_t>(d % NumSites(w))];
  }
  return drives;
}

/// Rows of data per drive the rotated layout exposes.
BlockNum DataPerDrive(const Workload& w) {
  return w.rows / kGroupWidth * kGroupSize;
}

struct Options {
  const Workload* workload = nullptr;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  int threads = 0;  ///< 0 = the workload's own
  std::string source_id = "unknown";
  std::string spans_path;
};

// --- one client site's closed loop -----------------------------------------

/// Everything one client site touches during the run. Each lives on its
/// site's shard, so the sharded engine never shares one between threads.
struct alignas(64) Client {
  SiteId site = 0;
  SiteId target = 0;  ///< whose LBAs the client addresses
  std::vector<std::vector<Op>> slots;
  std::vector<size_t> cursor;
  LatencyLog reads;
  LatencyLog writes;
  uint64_t ok = 0;
  uint64_t failed = 0;
  uint64_t span_op = 0;  ///< op index that tags this client's spans
  uint32_t write_seq = 0;  ///< issue order of this client's writes
  std::vector<SimTime> slot_done;  ///< sim time of each slot's last op
  /// Per target LBA: sequence of the newest issued and newest acked write
  /// (0 = none), the acked write's payload, and whether any write to it
  /// failed (contents then unknown). Writes of one client to one block
  /// apply in issue order, so the block must end as the newest write iff
  /// that write was acked.
  std::vector<uint32_t> issued_seq;
  std::vector<uint32_t> acked_seq;
  std::vector<uint16_t> acked_payload;
  std::vector<uint8_t> write_failed;
  /// Record-update workloads: each target block as of the newest write.
  std::vector<Block> shadow;
  uint64_t mismatches = 0;  ///< read-back blocks that differ
};

/// What one round measured.
struct RoundResult {
  int threads = 1;
  bool traced = false;
  double setup_s = 0;
  double run_s = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t reads = 0;
  uint64_t writes = 0;
  SimTime makespan = 0;
  double client_ops_per_sim_s = 0;  ///< summed per-slot throughput
  uint64_t events = 0;
  std::vector<SimTime> read_lat;  // sorted; failures as LatencyLog::kFailed
  std::vector<SimTime> write_lat;
  std::map<std::string, uint64_t> counters;  // node + net stats
  radd::RaddNodeSystem::CacheCounters cache;
  uint64_t frames_rejected = 0;
  uint64_t sim_digest = 0;
  uint64_t stream_digest = 0;
  std::string error;  // empty = every check passed
  ProbeTotals probes;
};

class Round {
 public:
  Round(const Workload& w, uint64_t seed, int threads, bool traced,
        size_t span_capacity)
      : w_(w),
        seed_(seed),
        threads_(threads),
        traced_(traced),
        span_capacity_(span_capacity) {}

  /// Generates the inputs, builds the volume and preloads it.
  Status Setup();
  /// Sets up, then runs the timed region and the correctness gate.
  RoundResult Run(std::vector<Span>* spans);

 private:
  void Generate();
  Status Build();
  Status Preload();
  void Kickoff(std::function<void(Client&)> start);
  void RunSim();
  void Issue(Client& c, size_t slot);
  void ReadBack();
  template <typename Fn>
  void Bench(SpanKind kind, Client& c, Fn&& fn) {
    if (tracer_) {
      tracer_->Time(kind, static_cast<int>(c.site), ++c.span_op, fn);
    } else {
      fn();
    }
  }

  const Workload& w_;
  uint64_t seed_;
  int threads_;
  bool traced_;
  size_t span_capacity_;

  std::vector<Block> pool_;
  std::vector<Client> clients_;
  uint64_t stream_digest_ = 0;

  std::unique_ptr<radd::Simulator> sim_;
  std::unique_ptr<radd::Network> net_;
  std::unique_ptr<radd::Cluster> cluster_;
  std::unique_ptr<radd::RaddVolume> vol_;
  std::unique_ptr<radd::DesTransport> des_;
  std::unique_ptr<Tracer> tracer_;
  std::unique_ptr<ForwardingTransport> fwd_;
};

void Round::Generate() {
  pool_ = MakePayloadPool(seed_, kPoolSize, kBlockSize);
  const std::vector<int> drives = DrivesPerSite(w_);
  const int sites = NumSites(w_);
  const auto per_drive = static_cast<uint32_t>(DataPerDrive(w_));
  radd::Rng rng(seed_ ^ 0x7261646462656e63ULL);

  // Client sites and their slot counts. With a victim, every surviving
  // site drives the victim's LBAs; otherwise each site drives its own.
  std::vector<int> client_sites;
  for (int s = 0; s < sites; ++s) {
    if (s != w_.victim) client_sites.push_back(s);
  }
  size_t total_slots = 0;
  for (int s : client_sites) {
    total_slots += static_cast<size_t>(kSlotsPerDrive * drives[s]);
  }
  const size_t ops_per_slot = w_.ops_per_round / total_slots;

  // Slots sharing a victim get disjoint LBA ranges: ops of different
  // clients then never race on one block, so "the newest acked write" of
  // a block is well defined for the read-back check.
  const uint32_t victim_lbas =
      w_.victim >= 0 ? per_drive * static_cast<uint32_t>(drives[w_.victim])
                     : 0;
  size_t victim_slot = 0;

  clients_.resize(client_sites.size());
  for (size_t ci = 0; ci < client_sites.size(); ++ci) {
    Client& c = clients_[ci];
    c.site = client_sites[ci];
    c.target = w_.victim >= 0 ? w_.victim : c.site;
    const uint32_t lbas =
        per_drive * static_cast<uint32_t>(drives[c.target]);
    std::vector<uint32_t> rank_to_lba(lbas);
    std::iota(rank_to_lba.begin(), rank_to_lba.end(), 0u);
    for (uint32_t i = lbas; i > 1; --i) {
      std::swap(rank_to_lba[i - 1], rank_to_lba[rng.Uniform(i)]);
    }
    const size_t nslots =
        static_cast<size_t>(kSlotsPerDrive * drives[c.site]);
    size_t nreads = 0, nwrites = 0;
    for (size_t k = 0; k < nslots; ++k) {
      uint32_t begin = 0, end = lbas;
      if (w_.victim >= 0) {
        begin = static_cast<uint32_t>(victim_slot * victim_lbas / total_slots);
        end = static_cast<uint32_t>((victim_slot + 1) * victim_lbas /
                                    total_slots);
        ++victim_slot;
      }
      c.slots.push_back(MakeSlotOps(rng.Next(), w_.stream, begin, end,
                                    rank_to_lba, ops_per_slot, kPoolSize));
      for (const Op& op : c.slots.back()) {
        (op.write ? nwrites : nreads) += 1;
        stream_digest_ = Fnv(stream_digest_, &op.lba, sizeof op.lba);
        stream_digest_ = Fnv(stream_digest_, &op.write, sizeof op.write);
        stream_digest_ = Fnv(stream_digest_, &op.payload, sizeof op.payload);
        stream_digest_ = Fnv(stream_digest_, &op.record_offset,
                             sizeof op.record_offset);
      }
    }
    c.cursor.assign(nslots, 0);
    c.slot_done.assign(nslots, 0);
    c.reads.Reserve(nreads);
    c.writes.Reserve(nwrites);
    c.issued_seq.assign(lbas, 0);
    c.acked_seq.assign(lbas, 0);
    c.acked_payload.assign(lbas, 0);
    c.write_failed.assign(lbas, 0);
  }
}

Status Round::Build() {
  const int sites = NumSites(w_);
  const std::vector<int> drives = DrivesPerSite(w_);
  const radd::NetworkModel model;
  sim_ = std::make_unique<radd::Simulator>();
  if (w_.sharded) sim_->ConfigureShards(sites, model.one_way_latency);
  net_ = std::make_unique<radd::Network>(sim_.get(), model, seed_);
  if (w_.sharded) {
    for (int s = 0; s < sites; ++s) net_->MapSiteToShard(s, s);
  }
  std::vector<radd::SiteConfig> site_configs;
  for (int s = 0; s < sites; ++s) {
    radd::SiteConfig sc;
    sc.num_disks = 1;
    sc.blocks_per_disk = static_cast<BlockNum>(drives[s]) * w_.rows;
    sc.block_size = kBlockSize;
    site_configs.push_back(sc);
  }
  cluster_ = std::make_unique<radd::Cluster>(site_configs);

  radd::VolumeConfig vc;
  vc.group.group_size = kGroupSize;
  vc.group.parities = 1;
  vc.group.rows = w_.rows;
  vc.group.block_size = kBlockSize;
  vc.drives_per_site = drives;
  // The paper's §7 costs (R = W = 30 ms; the network's 22.5 ms one-way
  // latency makes RR = RW = 75 ms) on a modeled disk per site.
  vc.node.disk_sched.spindles = 4;
  vc.node.disk_sched.policy = radd::IoPolicy::kDeadline;
  vc.node.disk_sched.cache_blocks = 64;
  if (w_.batch_window > 0) {
    vc.node.parity_batch.enabled = true;
    vc.node.parity_batch.max_delay = w_.batch_window;
  }
  auto made = radd::RaddVolume::Create(sim_.get(), net_.get(), cluster_.get(),
                                       vc);
  if (!made.ok()) return made.status();
  vol_ = std::move(*made);

  if (w_.codec) des_ = std::make_unique<radd::DesTransport>(net_.get());
  if (traced_) {
    tracer_ = std::make_unique<Tracer>(sim_.get(), Clock::now(),
                                       span_capacity_);
    tracer_->WrapHandlers(net_.get(), sites);
    fwd_ = std::make_unique<ForwardingTransport>(net_.get(), des_.get(),
                                                 tracer_.get());
    vol_->system()->SetTransport(fwd_.get());
  } else if (des_) {
    vol_->system()->SetTransport(des_.get());
  }
  return Status::OK();
}

/// Writes every data block of the volume through the reference model that
/// shares the cluster's disks, so the run starts from a full volume with
/// consistent parity and UIDs.
Status Round::Preload() {
  radd::Rng rng(seed_ ^ 0x706c6f6164ULL);
  std::vector<std::vector<uint16_t>> preload(  // pool index per site, LBA
      static_cast<size_t>(NumSites(w_)));
  for (int s = 0; s < NumSites(w_); ++s) {
    const BlockNum lbas = vol_->DataBlocksAtSite(s);
    for (BlockNum lba = 0; lba < lbas; ++lba) {
      auto t = vol_->Resolve(s, lba);
      if (!t.ok()) return t.status();
      const auto p = static_cast<uint16_t>(rng.Uniform(kPoolSize));
      preload[static_cast<size_t>(s)].push_back(p);
      radd::OpResult r =
          vol_->group(t->group)->Write(s, t->member, t->index, pool_[p]);
      if (!r.ok()) return r.status;
    }
  }
  if (w_.stream.record_size < kBlockSize) {
    for (Client& c : clients_) {
      for (uint16_t p : preload[static_cast<size_t>(c.target)]) {
        c.shadow.push_back(pool_[p]);
      }
    }
  }
  if (w_.victim >= 0) return cluster_->CrashSite(w_.victim);
  return Status::OK();
}

void Round::Kickoff(std::function<void(Client&)> start) {
  for (Client& c : clients_) {
    if (w_.sharded) {
      // Start each loop from an event on its own shard so every issue
      // stays shard-confined.
      sim_->AtShard(static_cast<int>(c.site), sim_->Now(),
                    [&c, start]() { start(c); });
    } else {
      start(c);
    }
  }
}

void Round::RunSim() {
  if (w_.sharded) {
    sim_->RunParallel(threads_);
  } else {
    sim_->Run();
  }
}

/// Issues the slot's next op; its completion issues the one after.
void Round::Issue(Client& c, size_t slot) {
  const std::vector<Op>& ops = c.slots[slot];
  if (c.cursor[slot] == ops.size()) {
    c.slot_done[slot] = sim_->Now();
    return;
  }
  const Op op = ops[c.cursor[slot]++];
  if (op.write) {
    const uint32_t seq = ++c.write_seq;
    c.issued_seq[op.lba] = seq;
    Block data(0);
    if (c.shadow.empty()) {
      data = pool_[op.payload];
      StampPayload(&data, static_cast<uint32_t>(c.site), seq);
    } else {
      Block& b = c.shadow[op.lba];
      std::memcpy(b.data() + op.record_offset,
                  pool_[op.payload].data() + op.record_offset,
                  w_.stream.record_size);
      StampPayload(&b, static_cast<uint32_t>(c.site), seq);
      data = b;
    }
    Bench(SpanKind::kIssue, c, [&]() {
      vol_->AsyncWrite(
          c.site, c.target, op.lba, std::move(data),
          [this, &c, slot, seq, op](Status st, SimTime latency) {
            Bench(SpanKind::kCallback, c, [&]() {
              if (st.ok()) {
                ++c.ok;
                c.writes.Record(latency);
                if (seq > c.acked_seq[op.lba]) {
                  c.acked_seq[op.lba] = seq;
                  c.acked_payload[op.lba] = op.payload;
                }
              } else {
                ++c.failed;
                c.writes.Record(LatencyLog::kFailed);
                c.write_failed[op.lba] = 1;
              }
              Issue(c, slot);
            });
          });
    });
  } else {
    Bench(SpanKind::kIssue, c, [&]() {
      vol_->AsyncRead(
          c.site, c.target, op.lba,
          [this, &c, slot](Status st, const Block&, SimTime latency) {
            Bench(SpanKind::kCallback, c, [&]() {
              if (st.ok()) {
                ++c.ok;
                c.reads.Record(latency);
              } else {
                ++c.failed;
                c.reads.Record(LatencyLog::kFailed);
              }
              Issue(c, slot);
            });
          });
    });
  }
}

/// Reads every block written on the clock back through the protocol and
/// compares it with the newest acked payload.
void Round::ReadBack() {
  Kickoff([this](Client& c) {
    for (uint32_t lba = 0; lba < c.acked_seq.size(); ++lba) {
      if (c.issued_seq[lba] == 0) continue;
      if (c.write_failed[lba] || c.acked_seq[lba] != c.issued_seq[lba]) {
        continue;  // contents legitimately unknown
      }
      uint64_t sum = 0;
      if (c.shadow.empty()) {
        Block expect = pool_[c.acked_payload[lba]];
        StampPayload(&expect, static_cast<uint32_t>(c.site),
                     c.acked_seq[lba]);
        sum = expect.Checksum();
      } else {
        sum = c.shadow[lba].Checksum();
      }
      vol_->AsyncRead(c.site, c.target, lba,
                      [&c, sum](
                          Status st, const Block& data, SimTime) {
                        if (!st.ok() || data.Checksum() != sum) {
                          ++c.mismatches;
                        }
                      });
    }
  });
  RunSim();
}

Status Round::Setup() {
  Generate();
  Status st = Build();
  if (st.ok()) st = Preload();
  return st;
}

RoundResult Round::Run(std::vector<Span>* spans) {
  RoundResult r;
  r.threads = threads_;
  r.traced = traced_;
  const Clock::time_point setup_start = Clock::now();
  const Status st = Setup();
  r.setup_s =
      std::chrono::duration<double>(Clock::now() - setup_start).count();
  r.stream_digest = stream_digest_;
  if (!st.ok()) {
    r.error = "setup: " + st.ToString();
    return r;
  }

  const Clock::time_point run_start = Clock::now();
  Kickoff([this](Client& c) {
    for (size_t k = 0; k < c.slots.size(); ++k) Issue(c, k);
  });
  RunSim();
  r.run_s = std::chrono::duration<double>(Clock::now() - run_start).count();
  r.makespan = sim_->Now();
  r.events = sim_->events_executed();

  radd::RaddNodeSystem* sys = vol_->system();
  r.counters = sys->stats().counters();
  for (const auto& [name, value] : net_->stats().counters()) {
    r.counters[name] = value;
  }
  r.cache = sys->CacheStats();
  if (des_) r.frames_rejected = des_->frame_counters().Rejected();
  if (tracer_) {
    r.probes = tracer_->Totals();
    if (spans != nullptr) *spans = tracer_->TakeSpans();
  }

  for (const Client& c : clients_) {
    for (size_t k = 0; k < c.slots.size(); ++k) {
      r.client_ops_per_sim_s += static_cast<double>(c.slots[k].size()) /
                                radd::ToSeconds(c.slot_done[k]);
    }
    r.failed += c.failed;
    r.reads += c.reads.size();
    r.writes += c.writes.size();
    r.read_lat.insert(r.read_lat.end(), c.reads.data(),
                      c.reads.data() + c.reads.size());
    r.write_lat.insert(r.write_lat.end(), c.writes.data(),
                       c.writes.data() + c.writes.size());
    size_t planned = 0;
    for (const std::vector<Op>& ops : c.slots) planned += ops.size();
    if (c.ok + c.failed != planned) {
      r.error = "site " + std::to_string(c.site) + " completed " +
                std::to_string(c.ok + c.failed) + " of " +
                std::to_string(planned) + " ops";
    }
  }
  r.attempted = r.reads + r.writes;
  std::sort(r.read_lat.begin(), r.read_lat.end());
  std::sort(r.write_lat.begin(), r.write_lat.end());

  uint64_t h = 0xcbf29ce484222325ULL;
  h = Fnv(h, r.read_lat.data(), r.read_lat.size() * sizeof(SimTime));
  h = Fnv(h, r.write_lat.data(), r.write_lat.size() * sizeof(SimTime));
  h = Fnv(h, &r.makespan, sizeof r.makespan);
  h = Fnv(h, &r.client_ops_per_sim_s, sizeof r.client_ops_per_sim_s);
  h = Fnv(h, &r.events, sizeof r.events);
  for (const auto& [name, value] : r.counters) {
    h = Fnv(h, name.data(), name.size());
    h = Fnv(h, &value, sizeof value);
  }
  r.sim_digest = h;

  // Correctness gate: drained, invariants hold, every acked write reads
  // back. Checked after the clock stops.
  if (r.error.empty() && !sys->Quiescent()) {
    r.error = "protocol not quiescent after the run";
  }
  if (r.error.empty()) {
    Status inv = vol_->VerifyInvariants();
    if (!inv.ok()) r.error = "invariants: " + inv.ToString();
  }
  if (r.error.empty()) {
    ReadBack();
    uint64_t mismatches = 0;
    for (const Client& c : clients_) mismatches += c.mismatches;
    if (mismatches > 0) {
      r.error = std::to_string(mismatches) +
                " written blocks did not read back as their last acked "
                "payload";
    }
  }
  return r;
}

// --- kernels of the common module --------------------------------------------

/// Nanoseconds per call of `fn`, the median of several timed batches.
template <typename Fn>
double NsPerCall(size_t calls, Fn&& fn) {
  std::vector<double> batches;
  for (int b = 0; b < 7; ++b) {
    const Clock::time_point t0 = Clock::now();
    for (size_t i = 0; i < calls; ++i) fn(i);
    batches.push_back(
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
        static_cast<double>(calls));
  }
  return Median(batches);
}

std::map<std::string, double> KernelNs(uint64_t seed) {
  const std::vector<Block> pool = MakePayloadPool(seed, 64, kBlockSize);
  const size_t n = pool.size();
  std::vector<radd::ChangeMask> masks;
  for (size_t i = 0; i < n; ++i) {
    masks.push_back(
        radd::ChangeMask::Diff(pool[i], pool[(i + 1) % n]).value());
  }
  radd::Message msg;
  msg.from = 0;
  msg.to = 1;
  msg.type = radd::MessageType::kWriteReq;
  msg.payload = radd::WriteReq{1, 0, 0, 0, 0, 0, pool[0]};
  const std::vector<uint8_t> frame = radd::EncodeFrame(msg);

  volatile uint64_t sink = 0;
  Block acc = pool[0];
  std::map<std::string, double> ns;
  ns["common.checksum_ns"] = NsPerCall(
      4096, [&](size_t i) { sink = sink + pool[i % n].Checksum(); });
  ns["common.xor_ns"] = NsPerCall(4096, [&](size_t i) {
    (void)acc.XorWith(pool[i % n]);
    sink = sink + acc[i % kBlockSize];
  });
  ns["common.diff_ns"] = NsPerCall(2048, [&](size_t i) {
    auto m = radd::ChangeMask::Diff(pool[i % n], pool[(i + 1) % n]);
    sink = sink + m->delta()[i % kBlockSize];
  });
  ns["common.encoded_size_ns"] = NsPerCall(
      2048, [&](size_t i) { sink = sink + masks[i % n].EncodedSize(); });
  ns["common.crc32c_ns"] = NsPerCall(4096, [&](size_t i) {
    sink = sink + radd::Crc32c(frame.data(), frame.size()) + i;
  });
  return ns;
}

// --- report ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

template <typename Get>
double MedianOf(const std::vector<const RoundResult*>& rounds, Get&& get) {
  std::vector<double> v;
  for (const RoundResult* r : rounds) v.push_back(get(*r));
  return Median(v);
}

/// A wall time of `rounds`, averaged over their quickest quarter. Host
/// contention only ever slows a round, so the quick rounds show the
/// program's own speed, and far more steadily from run to run than the
/// median does on a shared host.
template <typename Get>
double Quickest(const std::vector<const RoundResult*>& rounds, Get&& get) {
  std::vector<double> v;
  for (const RoundResult* r : rounds) v.push_back(get(*r));
  return LowQuarterMean(v);
}

double RunS(const RoundResult& r) { return r.run_s; }

uint64_t Counter(const RoundResult& r, const std::string& name) {
  auto it = r.counters.find(name);
  return it == r.counters.end() ? 0 : it->second;
}

/// Message types the workloads exchange (heartbeats and recovery-only
/// messages never occur here).
const radd::MessageType kReportedTypes[] = {
    radd::MessageType::kReadReq,        radd::MessageType::kReadReply,
    radd::MessageType::kWriteReq,       radd::MessageType::kWriteReply,
    radd::MessageType::kParityUpdate,   radd::MessageType::kParityAck,
    radd::MessageType::kParityBatch,    radd::MessageType::kParityBatchAck,
    radd::MessageType::kSpareReadReq,   radd::MessageType::kSpareReadReply,
    radd::MessageType::kSpareWriteReq,  radd::MessageType::kSpareWriteReply,
    radd::MessageType::kSpareWriteBack, radd::MessageType::kReconReq,
    radd::MessageType::kReconReply,
};

/// `first` supplies the simulated figures (every round has the same ones),
/// `rounds` and `setup_s` the wall-clock figures.
std::vector<Metric> EndToEnd(const RoundResult& first,
                             const std::vector<const RoundResult*>& rounds,
                             const std::vector<double>& setup_s,
                             std::string* error) {
  const double ops = static_cast<double>(first.attempted);
  std::vector<Metric> m;
  m.push_back({"ops_per_wall_s", Ratio(ops, Quickest(rounds, RunS)), "1/s"});
  m.push_back({"setup_s", LowQuarterMean(setup_s), "s"});
  m.push_back({"ops_per_sim_s", first.client_ops_per_sim_s, "1/s"});
  // The median is printed but not gated: cache-hit reads cost no simulated
  // time (hot_batched's read median is 0), and with fixed §7 costs every
  // latency lies on a 2.5 ms lattice, where the median reads the same for
  // most seeds (steady_g8's read median is 60 ms for each seed tried). The
  // mean and the p99 are the gated latency figures.
  const struct {
    const char* kind;
    const std::vector<SimTime>* lat;
  } kinds[] = {{"read", &first.read_lat}, {"write", &first.write_lat}};
  for (const auto& k : kinds) {
    double sum = 0;
    size_t ok = 0;
    for (SimTime t : *k.lat) {
      if (t == LatencyLog::kFailed) continue;
      sum += radd::ToMillis(t);
      ++ok;
    }
    const double mean = Ratio(sum, static_cast<double>(ok));
    std::printf("# %s_mean_sim_ms %.6g ms (n=%zu)\n", k.kind, mean, ok);
    m.push_back({std::string(k.kind) + "_mean_sim_ms", mean, "ms"});
    for (double p : {0.50, 0.99}) {
      const std::string name = std::string(k.kind) + "_p" +
                               std::to_string(static_cast<int>(p * 100)) +
                               "_sim_ms";
      const Percentile q = NearestRank(*k.lat, p);
      if (!q.ok) {
        *error = name + " has only " + std::to_string(q.beyond) +
                 " samples beyond it";
      } else if (std::isinf(q.ms)) {
        *error = name + " falls on failed ops";
      }
      std::printf("# %s %.6g ms (n=%zu, %zu beyond)\n", name.c_str(), q.ms,
                  k.lat->size(), q.beyond);
      if (p > 0.5) m.push_back({name, q.ms, "ms"});
    }
  }
  m.push_back({"wire_bytes_per_op",
               static_cast<double>(Counter(first, "net.bytes")) / ops, "B"});
  std::printf("# failed_op_share %.6g (%llu of %llu ops)\n",
              Ratio(static_cast<double>(first.failed), ops),
              static_cast<unsigned long long>(first.failed),
              static_cast<unsigned long long>(first.attempted));
  m.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
  return m;
}

std::vector<Metric> PerLayer(const RoundResult& first, int threads,
                             uint64_t seed,
                             const std::vector<const RoundResult*>& rounds) {
  std::vector<const RoundResult*> plain, traced, breakdown, wide;
  for (const RoundResult* rp : rounds) {
    const RoundResult& r = *rp;
    if (!r.traced) {
      plain.push_back(&r);
      continue;
    }
    if (r.threads == threads) traced.push_back(&r);
    if (r.threads == 1) breakdown.push_back(&r);
    if (r.threads == kWideThreads) wide.push_back(&r);
  }
  const double ops = static_cast<double>(first.attempted);
  const double reads = static_cast<double>(first.reads);
  const double writes = static_cast<double>(first.writes);
  auto per_op = [&](const std::string& c) {
    return static_cast<double>(Counter(first, c)) / ops;
  };

  std::vector<Metric> m;
  m.push_back({"sim.events_per_op", static_cast<double>(first.events) / ops,
               "count"});
  m.push_back({"sim.run_wall_s", MedianOf(breakdown, RunS), "s"});
  // The monolithic engine runs on one thread: no speed-up by definition.
  m.push_back({"sim.parallel_speedup",
               wide.empty()
                   ? 1.0
                   : Ratio(Quickest(breakdown, RunS), Quickest(wide, RunS)),
               "x"});

  auto probe = [&](auto&& get) {
    return MedianOf(breakdown, [&](const RoundResult& r) {
      return get(r.probes, r);
    });
  };
  m.push_back({"core.handler_wall_s", probe([](const ProbeTotals& p,
                                               const RoundResult&) {
                 return static_cast<double>(p.HandlerNs()) / 1e9;
               }),
               "s"});
  for (radd::MessageType t : kReportedTypes) {
    const size_t i = static_cast<size_t>(t);
    m.push_back({"core.handler_us." + radd::MessageTypeName(t),
                 probe([i](const ProbeTotals& p, const RoundResult&) {
                   return Ratio(static_cast<double>(p.handler_ns[i]) / 1e3,
                                static_cast<double>(p.handler_calls[i]));
                 }),
                 "us"});
  }
  m.push_back({"core.issue_us",
               probe([](const ProbeTotals& p, const RoundResult&) {
                 return Ratio(static_cast<double>(p.issue_ns) / 1e3,
                              static_cast<double>(p.issues));
               }),
               "us"});
  m.push_back({"core.other_event_wall_s",
               probe([](const ProbeTotals& p, const RoundResult& r) {
                 return r.run_s - static_cast<double>(p.covered_ns) / 1e9;
               }),
               "s"});
  // Reads served by formula (2): first touches of a dead member's block;
  // later touches hit the materialized spare.
  m.push_back({"core.reconstructions_per_read",
               static_cast<double>(Counter(first, "node.degraded_reads.p") +
                                   Counter(first, "node.degraded_reads.q") +
                                   Counter(first, "node.degraded_reads.pq")) /
                   reads,
               "ratio"});
  m.push_back(
      {"core.spare_hits_per_read",
       static_cast<double>(Counter(first, "node.degraded_reads.spare")) /
           reads,
       "ratio"});
  m.push_back({"core.lock_waits_per_op", per_op("node.lock_waits"), "count"});
  m.push_back({"core.parity_msgs_per_write",
               static_cast<double>(Counter(first, "net.messages.parity_update") +
                                   Counter(first, "net.messages.parity_batch")) /
                   writes,
               "count"});
  m.push_back({"core.coalesce_ratio",
               Ratio(static_cast<double>(Counter(first, "node.parity_staged")),
                     static_cast<double>(Counter(first, "node.batches_sent"))),
               "ratio"});
  m.push_back({"core.retransmits",
               static_cast<double>(Counter(first, "node.parity_retransmit") +
                                   Counter(first, "node.batch_retransmit") +
                                   Counter(first, "node.read_retry") +
                                   Counter(first, "node.write_retry")),
               "count"});
  m.push_back({"core.uid_retries",
               static_cast<double>(Counter(first, "node.uid_retry")),
               "count"});

  m.push_back({"net.messages_per_op", per_op("net.messages"), "count"});
  for (radd::MessageType t : kReportedTypes) {
    const std::string name = radd::MessageTypeName(t);
    m.push_back({"net.bytes_per_op." + name, per_op("net.bytes." + name),
                 "B"});
  }
  m.push_back({"net.send_us",
               probe([](const ProbeTotals& p, const RoundResult&) {
                 return Ratio(static_cast<double>(p.send_ns) / 1e3,
                              static_cast<double>(p.sends));
               }),
               "us"});
  m.push_back({"net.frames_rejected",
               static_cast<double>(first.frames_rejected), "count"});

  m.push_back({"disk.cache_hit_ratio",
               Ratio(static_cast<double>(first.cache.hits),
                     static_cast<double>(first.cache.hits +
                                         first.cache.misses)),
               "ratio"});
  m.push_back({"disk.cache_stale_rejected",
               static_cast<double>(first.cache.stale_rejected), "count"});

  for (const auto& [name, ns] : KernelNs(seed)) {
    m.push_back({name, ns, "ns"});
  }

  const double overhead =
      Ratio(Quickest(traced, RunS), Quickest(plain, RunS)) - 1;
  m.push_back({"trace.overhead_share", overhead, "ratio"});
  return m;
}

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload steady_g8|degraded|hot_batched "
               "--seed N --seconds S --trace 0|1 [--threads T] "
               "[--source-id ID] [--spans PATH]\n",
               argv0);
  return 2;
}

int Main(int argc, char** argv) {
  if (!kReleaseBuild) {
    std::fprintf(stderr,
                 "refusing to measure: build without optimisation or with "
                 "asserts enabled (configure with -DCMAKE_BUILD_TYPE=Release)\n");
    return 3;
  }
  Options opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = FindWorkload(value);
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      opt.seconds = std::atof(value);
      have_seconds = true;
    } else if (flag == "--trace") {
      opt.trace = std::atoi(value) != 0;
      have_trace = true;
    } else if (flag == "--threads") {
      opt.threads = std::atoi(value);
    } else if (flag == "--source-id") {
      opt.source_id = value;
    } else if (flag == "--spans") {
      opt.spans_path = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (argc % 2 == 0 || opt.workload == nullptr || !have_seed ||
      !have_seconds || !have_trace || opt.threads < 0) {
    return Usage(argv[0]);
  }
  const Workload& w = *opt.workload;
  const int threads = w.sharded && opt.threads > 0 ? opt.threads : 1;

  char meta[1024];
  std::snprintf(meta, sizeof meta,
                "# meta {\"workload\": \"%s\", \"seed\": %llu, "
                "\"trace\": %d, \"nproc\": %ld, \"threads\": %d, "
                "\"source\": \"%s\", \"compiler\": \"%s\", "
                "\"flags\": \"%s\"}\n",
                w.name, static_cast<unsigned long long>(opt.seed),
                opt.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN), threads,
                opt.source_id.c_str(), RADD_BENCH_COMPILER, RADD_BENCH_FLAGS);
  std::fputs(meta, stdout);

  // Round schedule. The traced run interleaves untraced rounds (the
  // overhead baseline) with traced rounds at the same thread count and, on
  // the sharded engine, traced rounds at one thread (the per-module
  // breakdown and the parallel speedup's numerator) and at kWideThreads
  // (its denominator).
  struct Kind {
    int threads;
    bool traced;
  };
  std::vector<Kind> cycle = {{threads, false}};
  if (opt.trace) {
    cycle.push_back({threads, true});
    if (w.sharded) {
      for (int t : {1, kWideThreads}) {
        if (t != threads) cycle.push_back({t, true});
      }
    }
  }
  // Round 0 warms the process up (allocator, page cache, CPU clocks); its
  // simulated results are checked like the others but its wall times are
  // not reported.
  const size_t min_rounds = 1 + 3 * cycle.size();
  std::vector<RoundResult> rounds;
  std::vector<Span> spans;
  const Clock::time_point start = Clock::now();
  double longest = 0;
  for (;;) {
    const double used =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (rounds.size() >= min_rounds && used + longest > opt.seconds) break;
    const Kind k = rounds.empty()
                       ? Kind{threads, false}
                       : cycle[(rounds.size() - 1) % cycle.size()];
    const bool want_spans = k.traced && spans.empty() &&
                            !opt.spans_path.empty();
    const Clock::time_point t0 = Clock::now();
    Round round(w, opt.seed, k.threads, k.traced,
                want_spans ? kSpanBudget / (w.sharded ? NumSites(w) : 1) : 0);
    rounds.push_back(round.Run(want_spans ? &spans : nullptr));
    if (rounds.size() > 1) {
      // Later rounds repeat round 0's simulation (checked by digest), so
      // their samples are not kept.
      rounds.back().read_lat = {};
      rounds.back().write_lat = {};
    }
    longest = std::max(
        longest, std::chrono::duration<double>(Clock::now() - t0).count());
    const RoundResult& r = rounds.back();
    std::printf("# round %zu threads=%d traced=%d setup_s=%.4f run_s=%.4f "
                "ops=%llu sim_digest=%016llx%s%s\n",
                rounds.size(), r.threads, r.traced ? 1 : 0, r.setup_s, r.run_s,
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.sim_digest),
                r.error.empty() ? "" : " error=", r.error.c_str());
    if (!r.error.empty()) break;
  }

  std::string error;
  for (const RoundResult& r : rounds) {
    if (!r.error.empty()) {
      error = r.error;
    } else if (r.sim_digest != rounds.front().sim_digest) {
      error = "simulated results differ between rounds";
    }
  }
  const RoundResult& first = rounds.front();
  std::printf("# stream_digest %016llx\n",
              static_cast<unsigned long long>(first.stream_digest));
  std::printf("# sim_digest %016llx\n",
              static_cast<unsigned long long>(first.sim_digest));
  std::printf("# reads %llu writes %llu\n",
              static_cast<unsigned long long>(first.reads),
              static_cast<unsigned long long>(first.writes));

  std::vector<const RoundResult*> measured;
  std::vector<double> setup_s;
  for (size_t i = 1; i < rounds.size(); ++i) {
    measured.push_back(&rounds[i]);
    setup_s.push_back(rounds[i].setup_s);
  }
  // On workloads with long rounds few set-ups fit in a run, so set-up is
  // repeated on its own until its figure rests on kMinSetups samples.
  while (error.empty() && !opt.trace && setup_s.size() < kMinSetups) {
    const Clock::time_point t0 = Clock::now();
    Round round(w, opt.seed, threads, false, 0);
    const Status st = round.Setup();
    setup_s.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());
    if (!st.ok()) error = "setup: " + st.ToString();
  }
  std::vector<Metric> metrics;
  if (error.empty()) {
    metrics = opt.trace ? PerLayer(first, threads, opt.seed, measured)
                        : EndToEnd(first, measured, setup_s, &error);
  }
  if (!opt.spans_path.empty() && !spans.empty()) {
    if (std::FILE* f = std::fopen(opt.spans_path.c_str(), "w")) {
      std::fputs(meta, f);
      WriteSpans(f, spans);
      std::fclose(f);
      std::printf("# spans %zu written to %s\n", spans.size(),
                  opt.spans_path.c_str());
    }
  }
  for (const Metric& m : metrics) {
    std::printf("# %s = %.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  if (!error.empty()) {
    std::printf("# FAILED: %s\n", error.c_str());
    metrics.clear();
  }
  PrintJson(error.empty(), first.attempted, first.failed, metrics);
  return error.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
