#include "fault/chaos.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/volume.h"
#include "net/transport.h"

namespace radd {

std::string ChaosReport::Summary() const {
  std::string out = "seed=" + std::to_string(seed) +
                    " ok=" + (ok ? std::string("1") : std::string("0")) +
                    " issued=" + std::to_string(ops_issued) +
                    " acked=" + std::to_string(ops_acked) +
                    " failed=" + std::to_string(ops_failed) +
                    " reads=" + std::to_string(reads_validated) +
                    " rot_detected=" + std::to_string(corruptions_detected) +
                    " t=" + std::to_string(end_time) + " " + plan;
  if (groups > 1) out += " groups=" + std::to_string(groups);
  if (parities > 1) out += " scheme=pq";
  if (declustered) out += " layout=declustered sites=" + std::to_string(sites);
  if (expanded) {
    out += " moved=" + std::to_string(expansion_moves) +
           " planned=" + std::to_string(expansion_planned);
  }
  if (batched) {
    out += " batches=" + std::to_string(batches_sent) +
           " batch_retx=" + std::to_string(batch_retransmits) +
           " batch_dup=" + std::to_string(batch_duplicates) +
           " staged=" + std::to_string(parity_staged);
  }
  if (autopilot) {
    out += " conv_max=" + std::to_string(convergence_max) +
           " conv_total=" + std::to_string(convergence_total) +
           " sweep_rows=" + std::to_string(sweep_rows) +
           " false_susp=" + std::to_string(false_suspicions) +
           " stale_epoch=" + std::to_string(stale_epoch_rejections);
  }
  if (!failure.empty()) out += " FAILURE: " + failure;
  return out;
}

ChaosHarness::ChaosHarness(const ChaosConfig& config) : config_(config) {}

ChaosReport ChaosHarness::Run(uint64_t seed) {
  ChaosConfig cfg = config_;
  PlacementSpec pspec;
  pspec.kind = cfg.layout;
  pspec.sites = cfg.sites;
  const bool declustered = cfg.layout == PlacementKind::kDeclustered;
  // Members per group: the rotated G + 1 + parities, or the declustered
  // cluster width C.
  const int members =
      PlacementGroupWidth(pspec, cfg.group_size, cfg.parities);
  // §4 volume shape: `groups` * width logical drives spread round-robin
  // over width-1+groups sites. groups == 1 degenerates to the classic one
  // drive per site on `width` sites, which the assigner maps to the
  // identity group — every address, RNG draw and site id matches the
  // pre-volume harness exactly.
  const int num_sites =
      cfg.groups == 1 ? members : members - 1 + cfg.groups;
  // Expansion mode reserves one extra cluster site, initially empty; the
  // mid-schedule expansion carves one drive per group out of it.
  const bool expand = cfg.expand && declustered && cfg.parities == 1;
  const int total_sites = num_sites + (expand ? 1 : 0);
  const SiteId expand_site = static_cast<SiteId>(num_sites);
  std::vector<int> drives_per_site(static_cast<size_t>(num_sites), 0);
  for (int d = 0; d < cfg.groups * members; ++d) {
    ++drives_per_site[static_cast<size_t>(d % num_sites)];
  }
  cfg.plan.members = num_sites;  // faults target sites, not group members
  cfg.plan.rows = cfg.rows;
  FaultPlan plan = FaultPlan::Random(seed, cfg.plan);

  ChaosReport report;
  report.seed = seed;
  report.groups = cfg.groups;
  report.parities = cfg.parities;
  report.declustered = declustered;
  if (declustered) report.sites = members;
  report.plan = plan.ToString();

  Simulator sim;
  NetworkModel nm;
  nm.drop_probability = plan.drop_probability;
  nm.duplicate_probability = plan.duplicate_probability;
  nm.reorder_jitter = plan.reorder_jitter;
  // Declared before `net` so the fault hooks below (which capture it)
  // outlive every send.
  Rng batch_faults(seed ^ 0x62617463ull);
  Network net(&sim, nm, seed ^ 0x6e657477ull);
  if (cfg.node.parity_batch.enabled) {
    // Batched frames and their acks get extra targeted abuse on top of the
    // plan's background noise: the batch seq-dedupe and per-entry retry
    // paths must hold under drop, duplication and the reordering the
    // random jitter already provides.
    net.SetFaultHook(MessageType::kParityBatch,
                     [&batch_faults](const Message&) {
                       const double d = batch_faults.NextDouble();
                       if (d < 0.02) return FaultAction::kDrop;
                       if (d < 0.05) return FaultAction::kDuplicate;
                       return FaultAction::kDeliver;
                     });
    net.SetFaultHook(MessageType::kParityBatchAck,
                     [&batch_faults](const Message&) {
                       const double d = batch_faults.NextDouble();
                       if (d < 0.02) return FaultAction::kDrop;
                       if (d < 0.05) return FaultAction::kDuplicate;
                       return FaultAction::kDeliver;
                     });
  }
  std::vector<SiteConfig> site_configs;
  site_configs.reserve(static_cast<size_t>(total_sites));
  for (int s = 0; s < total_sites; ++s) {
    SiteConfig sc;
    sc.num_disks = 1;
    // The expansion site starts empty of volume drives but must hold one
    // drive per group once the expansion lands.
    sc.blocks_per_disk =
        s < num_sites
            ? static_cast<BlockNum>(
                  drives_per_site[static_cast<size_t>(s)]) *
                  cfg.rows
            : static_cast<BlockNum>(cfg.groups) * cfg.rows;
    sc.block_size = cfg.block_size;
    site_configs.push_back(sc);
  }
  Cluster cluster(site_configs);
  VolumeConfig vc;
  vc.group.group_size = cfg.group_size;
  vc.group.parities = cfg.parities;
  vc.group.placement = pspec;
  vc.group.rows = cfg.rows;
  vc.group.block_size = cfg.block_size;
  vc.drives_per_site = drives_per_site;
  vc.node = cfg.node;
  Result<std::unique_ptr<RaddVolume>> made =
      RaddVolume::Create(&sim, &net, &cluster, vc);
  if (!made.ok()) {
    report.failure = "volume: " + made.status().ToString();
    return report;
  }
  RaddVolume& vol = **made;
  RaddNodeSystem& sys = *vol.system();

  // Frame-codec mode: every protocol send serializes to a packed frame and
  // decodes back before entering the Network. Lossless, so the Summary
  // must not change; the counters prove every message survived the trip.
  std::optional<DesTransport> transport;
  if (cfg.frame_codec) {
    report.frame_codec = true;
    transport.emplace(&net);
    sys.SetTransport(&*transport);
  }

  // --- autopilot control plane ---------------------------------------------
  // Detector constructed after `sys` so it chains in front of the protocol
  // handlers; suspicions feed the status service, which owns all state
  // transitions; a kDown declaration resets the node like a real crash
  // would; the sweeper follows kRecovering transitions and repairs in the
  // background, throttled by the foreground in-flight op count.
  SiteStatusService* service = sys.status();
  std::optional<HeartbeatDetector> detector;
  std::optional<RecoverySweeper> sweeper;
  if (cfg.autopilot) {
    report.autopilot = true;
    std::vector<SiteId> sites;
    for (int s = 0; s < total_sites; ++s) {
      sites.push_back(static_cast<SiteId>(s));
    }
    detector.emplace(&sim, &net, service, sites, cfg.heartbeat);
    service->AddListener([&](SiteId site, SiteState state, uint64_t) {
      if (state == SiteState::kDown) sys.ResetNodeVolatileState(site);
    });
    SweeperConfig sw = cfg.sweeper;
    sw.load_probe = [&]() { return sys.InFlightOps(); };
    if (cfg.node.disk_sched.modeled() && !sw.disk_charge) {
      // Modeled disk subsystem: pace the sweep by the recovering site's
      // own queues (recovery class) instead of the wall-clock tick gap.
      sw.disk_charge = [&sys](SiteId site, uint32_t units,
                              std::function<void()> done) {
        sys.ChargeBackgroundIo(site, units, std::move(done));
      };
    }
    std::vector<RaddGroup*> sweep_groups;
    for (int g = 0; g < vol.num_groups(); ++g) {
      sweep_groups.push_back(vol.group(g));
    }
    sweeper.emplace(&sim, std::move(sweep_groups), service, sw);
    sweeper->Start();
    detector->Start();
  }

  Rng traffic(seed ^ 0x74726166ull);
  const uint64_t zero_ck = Block(cfg.block_size).Checksum();

  // --- acknowledged-write ledger -------------------------------------------
  // Per logical block: the set of content checksums the block may legally
  // hold. An acknowledged write collapses the set to its value; a *failed*
  // write (the client saw an error, but the data may still have landed)
  // adds its value instead. At most one write per block is in flight, so
  // the set is exact.
  struct BlockState {
    std::set<uint64_t> allowed;
    std::optional<uint64_t> outstanding;
    bool written = false;  // ever acknowledged
  };
  // Keyed by volume address: (site, site-local lba).
  std::map<std::pair<int, BlockNum>, BlockState> ledger;
  auto state_of = [&](int home, BlockNum idx) -> BlockState& {
    auto [it, fresh] = ledger.try_emplace({home, idx});
    if (fresh) it->second.allowed.insert(zero_ck);
    return it->second;
  };

  uint64_t outstanding = 0;
  auto trace = [&](const std::string& what) {
    if (!cfg.verbose) return;
    std::fprintf(stderr, "[%12" PRIu64 "] %s\n",
                 static_cast<uint64_t>(sim.Now()), what.c_str());
  };
  std::string failure;
  auto fail = [&](const std::string& what) {
    if (failure.empty()) failure = what;
  };
  auto block_name = [](int home, BlockNum idx) {
    return "m" + std::to_string(home) + "/b" + std::to_string(idx);
  };

  int minority_member = -1;  // site isolated by a partition, else -1

  // --- online expansion (expand mode) --------------------------------------
  // Mid-schedule, the reserved extra site joins every group. Autopilot:
  // the sweeper paces the block moves alongside its recovery duty and the
  // convergence gate waits for the commit. Manual: a pump applies moves
  // during the episode window (contending with the fault and traffic) and
  // the remainder drains after repair.
  bool expansion_started = false;
  bool expansion_checked = false;
  int expansions_pending = 0;  // groups still migrating (autopilot)
  std::vector<int> pre_widths;  // members per group before the expansion
  auto start_expansion = [&]() {
    expansion_started = true;
    trace("expansion: site " + std::to_string(expand_site) + " joins");
    for (int g = 0; g < vol.num_groups(); ++g) {
      pre_widths.push_back(vol.group(g)->num_members());
      Status st = vol.AddDrive(g, expand_site,
                               static_cast<BlockNum>(g) * cfg.rows, cfg.rows);
      if (!st.ok()) {
        fail("expansion of group " + std::to_string(g) + ": " +
             st.ToString());
        return;
      }
      if (sweeper) {
        ++expansions_pending;
        sweeper->StartMigration(g, [&]() { --expansions_pending; });
      }
    }
  };
  std::function<void(SimTime)> pump_migration = [&](SimTime until) {
    if (sim.Now() >= until) return;  // the post-repair drain finishes it
    bool any = false;
    for (int g = 0; g < vol.num_groups(); ++g) {
      if (!vol.group(g)->ExpansionPending()) continue;
      any = true;
      (void)vol.group(g)->MigrateStep(2);
    }
    if (!any) return;
    sim.At(sim.Now() + Millis(5), [&, until]() { pump_migration(until); });
  };
  auto drain_migration = [&]() {
    for (int g = 0; g < vol.num_groups(); ++g) {
      int idle = 0;
      bool scrubbed = false;
      while (vol.group(g)->ExpansionPending() && failure.empty()) {
        Result<int> r = vol.group(g)->MigrateStep(64);
        if (!r.ok()) {
          fail("expansion drain of group " + std::to_string(g) + ": " +
               r.status().ToString());
          return;
        }
        if (*r > 0) {
          idle = 0;
          continue;
        }
        // With every site restored a pass that applies nothing means the
        // remaining moves are blocked on damaged blocks (the fault's
        // leftovers). One scrub pass restores readability; a stall after
        // that is permanent.
        if (++idle > 3) {
          if (!scrubbed) {
            scrubbed = true;
            idle = 0;
            for (int m = 0; m < vol.group(g)->num_members(); ++m) {
              (void)vol.group(g)->ScrubData(m);
              (void)vol.group(g)->ScrubParity(m);
            }
            continue;
          }
          fail("expansion drain stalled in group " + std::to_string(g));
          return;
        }
      }
    }
  };
  auto verify_expansion = [&]() {
    if (!expansion_started || expansion_checked || !failure.empty()) return;
    for (int g = 0; g < vol.num_groups(); ++g) {
      if (vol.group(g)->ExpansionPending()) return;  // still migrating
    }
    expansion_checked = true;
    for (int g = 0; g < vol.num_groups(); ++g) {
      RaddGroup* grp = vol.group(g);
      const uint64_t n =
          static_cast<uint64_t>(grp->layout().stripe_width());
      const uint64_t rounds = static_cast<uint64_t>(cfg.rows) / n;
      const uint64_t planned = grp->ExpansionMovesPlanned();
      const uint64_t moved = grp->ExpansionMovesDone();
      if (planned != rounds * (n - 1)) {
        fail("expansion plan of group " + std::to_string(g) + " has " +
             std::to_string(planned) + " moves, expected rounds*(n-1) = " +
             std::to_string(rounds * (n - 1)));
        return;
      }
      if (moved != planned) {
        fail("expansion of group " + std::to_string(g) + " moved " +
             std::to_string(moved) + " of " + std::to_string(planned) +
             " planned blocks");
        return;
      }
      // Bounded movement: at most the added capacity share 1/(C+1) of the
      // C*rounds*n physical blocks in use may relocate.
      const uint64_t c0 = static_cast<uint64_t>(pre_widths[g]);
      const uint64_t used = c0 * rounds * n;
      if (moved * (c0 + 1) > used) {
        fail("expansion of group " + std::to_string(g) + " moved " +
             std::to_string(moved) + " blocks, above the capacity share " +
             std::to_string(used) + "/" + std::to_string(c0 + 1));
        return;
      }
      report.expansion_moves += moved;
      report.expansion_planned += planned;
    }
    report.expanded = true;
  };

  auto pick_client = [&]() -> std::optional<SiteId> {
    // §5: during a partition only the majority side may accept work.
    std::vector<SiteId> usable;
    for (int m = 0; m < num_sites; ++m) {
      if (m == minority_member) continue;
      SiteId s = static_cast<SiteId>(m);
      if (cluster.StateOf(s) == SiteState::kDown) continue;
      usable.push_back(s);
    }
    if (usable.empty()) return std::nullopt;
    return usable[traffic.Uniform(usable.size())];
  };

  auto issue_write = [&](int home, BlockNum idx) {
    std::optional<SiteId> client = pick_client();
    if (!client) return;
    BlockState& bs = state_of(home, idx);
    if (bs.outstanding) return;  // one writer per block keeps the set exact
    Block data(cfg.block_size);
    for (size_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<uint8_t>(traffic.Next());
    }
    const uint64_t ck = data.Checksum();
    bs.outstanding = ck;
    ++report.ops_issued;
    ++outstanding;
    trace("write " + block_name(home, idx) + " ck=" + std::to_string(ck) +
          " from s" + std::to_string(*client));
    vol.AsyncWrite(*client, static_cast<SiteId>(home), idx, std::move(data),
                   [&, home, idx, ck](Status st, SimTime) {
                     --outstanding;
                     trace("write " + block_name(home, idx) +
                           " ck=" + std::to_string(ck) + " -> " +
                           st.ToString());
                     BlockState& b = state_of(home, idx);
                     b.outstanding.reset();
                     if (st.ok()) {
                       b.allowed.clear();
                       b.allowed.insert(ck);
                       b.written = true;
                       ++report.ops_acked;
                     } else {
                       b.allowed.insert(ck);  // may or may not have landed
                       ++report.ops_failed;
                     }
                   });
  };

  auto issue_read = [&](int home, BlockNum idx) {
    std::optional<SiteId> client = pick_client();
    if (!client) return;
    BlockState& bs = state_of(home, idx);
    std::set<uint64_t> snapshot = bs.allowed;  // legal values at issue time
    if (bs.outstanding) snapshot.insert(*bs.outstanding);
    ++report.ops_issued;
    ++outstanding;
    trace("read " + block_name(home, idx) + " from s" +
          std::to_string(*client));
    vol.AsyncRead(
        *client, static_cast<SiteId>(home), idx,
        [&, home, idx, snapshot = std::move(snapshot)](
            Status st, const Block& data, SimTime) {
          --outstanding;
          trace("read " + block_name(home, idx) + " -> " +
                (st.ok() ? "ck=" + std::to_string(data.Checksum())
                         : st.ToString()));
          if (!st.ok()) {
            ++report.ops_failed;  // reads may legitimately time out
            return;
          }
          ++report.ops_acked;
          const uint64_t ck = data.Checksum();
          BlockState& b = state_of(home, idx);
          const bool legal = snapshot.count(ck) > 0 ||
                             b.allowed.count(ck) > 0 ||
                             (b.outstanding && *b.outstanding == ck);
          if (legal) {
            ++report.reads_validated;
          } else {
            fail("read of " + block_name(home, idx) +
                 " returned a value no write produced (torn or stale)");
          }
        });
  };

  auto repair_and_check = [&]() {
    // Scrub data first (restores readability of latent/corrupt blocks),
    // then parity (recomputes rows whose updates were dropped) — every
    // group of the volume, in group order.
    for (int g = 0; g < vol.num_groups() && failure.empty(); ++g) {
      const int width_now = vol.group(g)->num_members();
      for (int m = 0; m < width_now && failure.empty(); ++m) {
        Result<int> r = vol.group(g)->ScrubData(m);
        if (!r.ok()) fail("ScrubData(g" + std::to_string(g) + "/m" +
                          std::to_string(m) + "): " + r.status().ToString());
      }
    }
    for (int g = 0; g < vol.num_groups() && failure.empty(); ++g) {
      const int width_now = vol.group(g)->num_members();
      for (int m = 0; m < width_now && failure.empty(); ++m) {
        Result<int> r = vol.group(g)->ScrubParity(m);
        if (!r.ok()) fail("ScrubParity(g" + std::to_string(g) + "/m" +
                          std::to_string(m) + "): " + r.status().ToString());
      }
    }
    if (!failure.empty()) return;
    Status inv = vol.VerifyInvariants();
    if (!inv.ok()) {
      fail("invariants: " + inv.ToString());
      return;
    }
    // Zero acknowledged-write loss: every block reads back as a value the
    // ledger allows. Readback uses the synchronous reference model of the
    // owning group, addressed through the volume map.
    for (auto& [key, bs] : ledger) {
      const SiteId site = static_cast<SiteId>(key.first);
      Result<RaddVolume::Target> t = vol.Resolve(site, key.second);
      if (!t.ok()) {
        fail("resolve of " + block_name(key.first, key.second) + " failed");
        return;
      }
      OpResult r = vol.group(t->group)->Read(site, t->member, t->index);
      if (!r.ok()) {
        fail("readback of " + block_name(key.first, key.second) +
             " failed: " + r.status.ToString());
        return;
      }
      if (bs.allowed.count(r.data.Checksum()) == 0) {
        if (cfg.verbose) {
          std::string allowed;
          for (uint64_t a : bs.allowed) allowed += " " + std::to_string(a);
          trace("readback " + block_name(key.first, key.second) + " (g" +
                std::to_string(t->group) + "/m" + std::to_string(t->member) +
                "/i" + std::to_string(t->index) + ") ck=" +
                std::to_string(r.data.Checksum()) + " allowed:" + allowed);
        }
        fail((bs.written ? "acknowledged write lost at "
                         : "phantom value at ") +
             block_name(key.first, key.second));
        return;
      }
    }
  };

  const int expand_at = static_cast<int>(plan.episodes.size()) / 2;
  int ep_index = -1;
  for (const Episode& ep : plan.episodes) {
    ++ep_index;
    if (!failure.empty()) break;
    const SimTime t0 = sim.Now();
    const SiteId target = static_cast<SiteId>(ep.member);
    if (expand && ep_index == expand_at) {
      // The expansion launches at the window's start, so its block moves
      // run under this episode's fault and live traffic.
      sim.At(t0, [&, window_end = t0 + ep.duration]() {
        start_expansion();
        if (!sweeper && failure.empty()) pump_migration(window_end);
      });
    }
    trace("=== episode " + std::string(FaultKindName(ep.kind)) + "@m" +
          std::to_string(ep.member) + " duration=" +
          std::to_string(ep.duration) + " offset=" +
          std::to_string(ep.fault_offset));
    ++report.injected_by_kind[std::string(FaultKindName(ep.kind))];
    if (ep.second_member >= 0) {
      ++report.injected_by_kind[std::string(FaultKindName(ep.second_kind))];
    }

    // The fault strikes mid-window, landing on in-flight operations
    // (including writes between W1 and the parity ack).
    sim.At(t0 + ep.fault_offset, [&, ep, target]() {
      trace("fault strikes: " + std::string(FaultKindName(ep.kind)) + "@m" +
            std::to_string(ep.member));
      switch (ep.kind) {
        case FaultKind::kCrashRestart:
          if (cfg.autopilot) {
            // The kDown listener resets the node's volatile state.
            (void)service->InjectCrash(target);
          } else {
            (void)cluster.CrashSite(target);
            sys.ResetNodeVolatileState(target);
          }
          break;
        case FaultKind::kDisaster:
          if (cfg.autopilot) {
            (void)service->InjectDisaster(target);
          } else {
            (void)cluster.DisasterSite(target);
            sys.ResetNodeVolatileState(target);
          }
          break;
        case FaultKind::kDiskFailure:
          if (cfg.autopilot) {
            // kRecovering transition; the sweeper starts reconstructing.
            (void)service->InjectDiskFailure(target, 0);
          } else {
            (void)cluster.FailDisk(target, 0);
          }
          break;
        case FaultKind::kPartition: {
          // The majority side is every site but the target — including the
          // reserved expansion site (a site in neither partition group
          // would be cut off from everyone).
          std::vector<SiteId> rest;
          for (int m = 0; m < total_sites; ++m) {
            if (m != ep.member) rest.push_back(static_cast<SiteId>(m));
          }
          net.SetPartitions({{target}, rest});
          minority_member = ep.member;
          if (!cfg.autopilot) {
            for (SiteId o : rest) {
              service->Presume(o, target, SiteState::kDown);
              service->Presume(target, o, SiteState::kDown);
            }
          }
          // Autopilot: no oracle. The majority side's detectors notice the
          // silence, the service fences the isolated site (majority rule),
          // and the minority side — one suspicion among many peers — can
          // never muster a declaration (§5).
          break;
        }
        case FaultKind::kLatentErrors: {
          const BlockNum span = cluster.site(target)->store()->total_blocks();
          for (int i = 0; i < ep.blocks; ++i) {
            (void)cluster.site(target)->disks()->InjectLatentError(
                traffic.Uniform(span));
          }
          break;
        }
        case FaultKind::kCorruption: {
          const BlockNum span = cluster.site(target)->store()->total_blocks();
          for (int i = 0; i < ep.blocks; ++i) {
            (void)cluster.site(target)->disks()->CorruptBlock(
                traffic.Uniform(span), traffic.Next(),
                1 + static_cast<int>(traffic.Uniform(3)));
          }
          break;
        }
        case FaultKind::kGraySlow:
          sys.SetDiskSlowFactor(target, ep.slow_factor);
          break;
        case FaultKind::kDropWindow:
          net.set_drop_probability(ep.drop_p);
          break;
        case FaultKind::kAsymPartition:
          // One direction of the target's links goes dark. Inbound-cut: it
          // keeps heartbeating, so nobody suspects it — its own operations
          // just never hear replies and must fail cleanly. Outbound-cut:
          // its heartbeats vanish, the majority suspects, declares it down
          // and fences it (§5) while it still hears everything.
          net.SetAsymBlock(target, ep.asym_inbound, !ep.asym_inbound);
          minority_member = ep.member;
          if (!cfg.autopilot) {
            // Majority-side oracle only. Unlike a symmetric partition, the
            // target must NOT presume the majority down: §5 says a minority
            // site considers itself cut off, not the world. If it presumed
            // its peers down it would take degraded shortcuts (ack a write
            // data-only because "the parity site is down") — and with one
            // working direction such unsound acks can escape to clients
            // whose readers then reconstruct through stale parity. Left
            // believing its peers are up, its operations instead fail
            // honestly via retransmit exhaustion.
            for (int m = 0; m < total_sites; ++m) {
              if (m == ep.member) continue;
              service->Presume(static_cast<SiteId>(m), target,
                               SiteState::kDown);
            }
          }
          break;
      }
    });

    // Double-failure schedules (dual-parity mode): the second strike lands
    // on a different site, either inside the window (two overlapping
    // outages under live traffic) or after it (crash-during-recovery: the
    // first fault's drain / sweep is running when the second site dies).
    if (ep.second_member >= 0) {
      const SiteId target2 = static_cast<SiteId>(ep.second_member);
      sim.At(t0 + ep.second_offset, [&, ep, target2]() {
        trace("second fault strikes: " +
              std::string(FaultKindName(ep.second_kind)) + "@m" +
              std::to_string(ep.second_member));
        switch (ep.second_kind) {
          case FaultKind::kCrashRestart:
            if (cfg.autopilot) {
              (void)service->InjectCrash(target2);
            } else {
              (void)cluster.CrashSite(target2);
              sys.ResetNodeVolatileState(target2);
            }
            break;
          case FaultKind::kDisaster:
            if (cfg.autopilot) {
              (void)service->InjectDisaster(target2);
            } else {
              (void)cluster.DisasterSite(target2);
              sys.ResetNodeVolatileState(target2);
            }
            break;
          case FaultKind::kDiskFailure:
            if (cfg.autopilot) {
              (void)service->InjectDiskFailure(target2, 0);
            } else {
              (void)cluster.FailDisk(target2, 0);
            }
            break;
          default:
            break;
        }
        if (cfg.autopilot && (ep.second_kind == FaultKind::kCrashRestart ||
                              ep.second_kind == FaultKind::kDisaster)) {
          // The second site reboots on its own schedule, independent of
          // the primary's window-end restart. (NotifyRestart no-ops if the
          // service already rejoined it.)
          sim.At(sim.Now() + cfg.restart_delay, [&, target2]() {
            trace("restart s" + std::to_string(target2));
            (void)service->NotifyRestart(target2);
          });
        }
      });
    }

    // Client traffic throughout the window.
    for (int i = 0; i < cfg.ops_per_episode; ++i) {
      const SimTime when = t0 + traffic.Uniform(ep.duration);
      const bool is_write = traffic.Bernoulli(0.6);
      const int home = static_cast<int>(
          traffic.Uniform(static_cast<uint64_t>(num_sites)));
      const BlockNum idx = traffic.Uniform(
          vol.DataBlocksAtSite(static_cast<SiteId>(home)));
      sim.At(when, [&, is_write, home, idx]() {
        if (is_write) {
          issue_write(home, idx);
        } else {
          issue_read(home, idx);
        }
      });
    }
    sim.RunUntil(t0 + ep.duration);

    // Lift the fault. A healed partition is a rejoin: the isolated site
    // missed updates and must run recovery like a restarted site (§5).
    switch (ep.kind) {
      case FaultKind::kAsymPartition:
      case FaultKind::kPartition:
        if (ep.kind == FaultKind::kAsymPartition) {
          net.ClearAsymBlock(target);
        } else {
          net.Heal();
        }
        minority_member = -1;
        if (cfg.autopilot) {
          // The fenced site's heartbeats get through again; peers clear
          // their suspicion, the service rejoins it as recovering, and the
          // sweeper drains whatever it missed. Nothing to do here.
          break;
        }
        // Clear over every site the strike's loops could have touched —
        // total_sites, matching the partition's majority set, or a pair
        // involving the expansion site would stay presumed-down forever.
        for (int m = 0; m < total_sites; ++m) {
          SiteId o = static_cast<SiteId>(m);
          service->Presume(o, target, std::nullopt);
          service->Presume(target, o, std::nullopt);
        }
        (void)cluster.CrashSite(target);
        sys.ResetNodeVolatileState(target);
        break;
      case FaultKind::kGraySlow:
        sys.SetDiskSlowFactor(target, 1);
        break;
      case FaultKind::kDropWindow:
        net.set_drop_probability(plan.drop_probability);
        break;
      default:
        break;
    }

    if (cfg.autopilot) {
      // A crashed or disaster-struck process reboots a moment later and
      // announces itself; everything after that — recovering state, paced
      // sweep, mark-up — is the control plane's job. (NotifyRestart no-ops
      // if the service already rejoined the site, e.g. a healed fence.)
      if (ep.kind == FaultKind::kCrashRestart ||
          ep.kind == FaultKind::kDisaster) {
        sim.At(sim.Now() + cfg.restart_delay, [&, target]() {
          trace("restart s" + std::to_string(target));
          (void)service->NotifyRestart(target);
        });
      }
      // A crash-during-recovery second fault lands after the window; make
      // sure it has actually fired before judging convergence, or a fast
      // settle would leak the strike into the next episode.
      if (ep.second_member >= 0 && ep.second_offset > ep.duration) {
        sim.RunUntil(std::max(sim.Now(), t0 + ep.second_offset));
      }
      // Convergence: run until every site is kUp and all traffic has
      // drained, within the sim-time budget. sim.Run() would never return
      // here (heartbeats reschedule forever), so run in slices and check.
      // A momentary all-up view can still flap (a declaration in flight),
      // so convergence only counts if it survives a settle window.
      const SimTime drain_start = sim.Now();
      const SimTime budget_end = drain_start + cfg.convergence_budget;
      auto settled = [&]() {
        return service->Converged() && outstanding == 0 && sys.Quiescent() &&
               expansions_pending == 0;
      };
      bool converged = false;
      while (sim.Now() < budget_end) {
        sim.RunUntil(std::min<SimTime>(budget_end, sim.Now() + Millis(100)));
        if (!settled()) continue;
        sim.RunUntil(std::min<SimTime>(budget_end, sim.Now() + Millis(300)));
        if (settled()) {
          converged = true;
          break;
        }
      }
      if (!converged) {
        fail("episode " + std::string(FaultKindName(ep.kind)) + "@m" +
             std::to_string(ep.member) + " did not converge within " +
             std::to_string(cfg.convergence_budget) + "us (all_up=" +
             (service->Converged() ? "y" : "n") + " outstanding=" +
             std::to_string(outstanding) + " quiescent=" +
             (sys.Quiescent() ? "y" : "n") + ")");
        break;
      }
      const SimTime took = sim.Now() - drain_start;
      report.convergence_total += took;
      if (took > report.convergence_max) report.convergence_max = took;
    } else {
      // Quiesce: exhaust the event queue — client ops, in-flight messages,
      // queued disk I/O and retransmission timers. Client-level draining
      // alone is not enough: a parity apply can still sit in a disk queue
      // after its write's client gave up, and scrubbing before it lands
      // would let it corrupt the freshly recomputed parity. This
      // terminates even under residual noise because every retransmission
      // path gives up after max_retries instead of spinning forever.
      sim.Run();
    }
    if (outstanding != 0) {
      fail(std::to_string(outstanding) + " operations hung after drain");
      break;
    }

    // Repair. In autopilot the control plane has already restored and
    // swept the target; only the manual mode does it here.
    if (!cfg.autopilot) {
      // Every group hosting a drive of the failed site runs its own sweep;
      // the site is marked up by the last one (§4, RaddGroup::RunRecovery's
      // mark_up contract).
      auto recover_site = [&](SiteId s) {
        std::vector<std::pair<int, int>> slices;  // (group, member)
        for (int g = 0; g < vol.num_groups(); ++g) {
          const int m = vol.group(g)->MemberAtSite(s);
          if (m >= 0) slices.push_back({g, m});
        }
        for (size_t i = 0; i < slices.size(); ++i) {
          const bool last = i + 1 == slices.size();
          Result<OpCounts> r =
              vol.group(slices[i].first)->RunRecovery(slices[i].second, last);
          if (!r.ok()) {
            fail("recovery: " + r.status().ToString());
            return;
          }
        }
      };
      switch (ep.kind) {
        case FaultKind::kCrashRestart:
        case FaultKind::kDisaster:
        case FaultKind::kPartition:
        case FaultKind::kAsymPartition:
          (void)cluster.RestoreSite(target);
          recover_site(target);
          break;
        case FaultKind::kDiskFailure:
          recover_site(target);
          break;
        default:
          break;
      }
      // The double-failure episode's second site is repaired *after* the
      // primary, so the primary's sweep itself runs with two erasures
      // outstanding when the windows overlap — exactly the case the P+Q
      // decode must carry.
      if (ep.second_member >= 0 && failure.empty()) {
        const SiteId target2 = static_cast<SiteId>(ep.second_member);
        switch (ep.second_kind) {
          case FaultKind::kCrashRestart:
          case FaultKind::kDisaster:
            (void)cluster.RestoreSite(target2);
            recover_site(target2);
            break;
          case FaultKind::kDiskFailure:
            recover_site(target2);
            break;
          default:
            break;
        }
      }
    }
    if (!cfg.autopilot && expansion_started && failure.empty()) {
      // Whatever the window's pump could not land (moves blocked by the
      // fault) completes now that every site is restored.
      drain_migration();
    }
    if (!failure.empty()) break;
    trace("repair + invariant check");
    repair_and_check();
    verify_expansion();
    if (failure.empty()) {
      ++report.survived_by_kind[std::string(FaultKindName(ep.kind))];
      if (ep.second_member >= 0) {
        ++report.survived_by_kind[std::string(FaultKindName(ep.second_kind))];
      }
    }
  }

  if (expansion_started && !expansion_checked && failure.empty()) {
    fail("expansion never completed: " +
         std::to_string(expansions_pending) + " groups still migrating");
  }

  if (detector) detector->Stop();
  if (transport) {
    report.frames_encoded = transport->frame_counters().encoded.load();
    report.frames_rejected = transport->frame_counters().Rejected();
  }
  if (cfg.node.parity_batch.enabled) {
    report.batched = true;
    report.batches_sent = sys.stats().Get("node.batches_sent");
    report.batch_retransmits = sys.stats().Get("node.batch_retransmit");
    report.batch_duplicates = sys.stats().Get("node.batch_duplicate");
    report.parity_staged = sys.stats().Get("node.parity_staged");
  }
  if (cfg.autopilot) {
    report.false_suspicions = detector->false_suspicions();
    report.stale_epoch_rejections =
        sys.stats().Get("node.stale_epoch_rejected");
    report.sweep_rows = sweeper->stats().Get("sweeper.rows_swept");
  }
  for (int s = 0; s < total_sites; ++s) {
    report.corruptions_detected +=
        cluster.site(static_cast<SiteId>(s))->disks()->corruptions_detected();
  }
  report.end_time = sim.Now();
  report.failure = failure;
  report.ok = failure.empty();
  return report;
}

}  // namespace radd
