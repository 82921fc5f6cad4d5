// Tests for the message-driven protocol layer (RaddNodeSystem): latency,
// degraded paths, concurrency via locks, lost messages (§5), partitions,
// and cross-checking against the synchronous reference model.

#include "core/node.h"

#include "cluster/status_service.h"

#include <gtest/gtest.h>

namespace radd {
namespace {

class NodeTest : public ::testing::Test {
 protected:
  NodeTest() { Build(0.0); }

  /// `sites` may exceed the group's 6 members; the extra sites host no
  /// member.
  void Build(double drop_probability, const NodeConfig& nc = {},
             int sites = 6) {
    config_.group_size = 4;
    config_.rows = 12;
    config_.block_size = 512;
    SiteConfig sc{1, config_.rows, config_.block_size};
    sim_ = std::make_unique<Simulator>();
    NetworkModel nm;
    nm.drop_probability = drop_probability;
    net_ = std::make_unique<Network>(sim_.get(), nm, 0xabc);
    cluster_ = std::make_unique<Cluster>(sites, sc);
    sys_ = std::make_unique<RaddNodeSystem>(sim_.get(), net_.get(),
                                            cluster_.get(), config_, nc);
  }

  Block Pat(uint64_t seed) {
    Block b(config_.block_size);
    b.FillPattern(seed);
    return b;
  }
  SiteId SiteOf(int m) { return sys_->group(0)->SiteOfMember(m); }

  RaddConfig config_;
  std::unique_ptr<Simulator> sim_;
  std::unique_ptr<Network> net_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<RaddNodeSystem> sys_;
};

TEST_F(NodeTest, LocalReadLatencyIsR) {
  ASSERT_TRUE(sys_->Write(SiteOf(2), 0, 2, 0, Pat(1)).status.ok());
  auto r = sys_->Read(SiteOf(2), 0, 2, 0);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.data, Pat(1));
  // Table 1: a local read costs R = 30 ms.
  EXPECT_EQ(r.latency, Millis(30));
}

TEST_F(NodeTest, RemoteReadLatencyIsRR) {
  ASSERT_TRUE(sys_->Write(SiteOf(2), 0, 2, 0, Pat(1)).status.ok());
  auto r = sys_->Read(SiteOf(3), 0, 2, 0);
  ASSERT_TRUE(r.status.ok());
  // RR = 2.5 R = 75 ms: request (22.5) + disk (30) + reply (22.5).
  EXPECT_EQ(r.latency, Micros(75000));
}

TEST_F(NodeTest, LocalWriteLatencyIsWPlusRW) {
  auto w = sys_->Write(SiteOf(2), 0, 2, 0, Pat(1));
  ASSERT_TRUE(w.status.ok());
  // Local write (30) then parity round trip (22.5 + 30 + 22.5) = 105 ms —
  // the same value as Figure 4's W + RW cost, because the two are
  // serialized by the protocol.
  EXPECT_EQ(w.latency, Micros(105000));
}

TEST_F(NodeTest, WriteMaintainsReferenceInvariants) {
  for (int m = 0; m < 6; ++m) {
    for (BlockNum i = 0; i < sys_->group(0)->DataBlocksPerMember(); ++i) {
      ASSERT_TRUE(sys_->Write(SiteOf(m), 0, m, i, Pat(uint64_t(m) * 10 + i))
                      .status.ok());
    }
  }
  sim_->Run();  // drain side effects
  EXPECT_TRUE(sys_->group(0)->VerifyInvariants().ok());
}

TEST_F(NodeTest, DegradedReadReconstructsAndMaterializes) {
  ASSERT_TRUE(sys_->Write(SiteOf(2), 0, 2, 0, Pat(7)).status.ok());
  ASSERT_TRUE(cluster_->CrashSite(SiteOf(2)).ok());
  auto r = sys_->Read(SiteOf(0), 0, 2, 0);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.data, Pat(7));
  sim_->Run();  // let the materialization land
  EXPECT_GT(sys_->stats().Get("node.materialized"), 0u);

  // Second read resolves via the spare: strictly cheaper.
  auto r2 = sys_->Read(SiteOf(0), 0, 2, 0);
  ASSERT_TRUE(r2.status.ok());
  EXPECT_EQ(r2.data, Pat(7));
  EXPECT_LE(r2.latency, Micros(75000));
}

TEST_F(NodeTest, ReadWithHomeAndSpareDownDecodesAtOnce) {
  // The spare holds nothing the parity does not cover, so with the home
  // and the row's spare both down a read decodes at once instead of
  // spending its retry budget on the dead spare.
  ASSERT_TRUE(sys_->Write(SiteOf(2), 0, 2, 0, Pat(3)).status.ok());
  const BlockNum row = sys_->layout(0).DataToRow(2, 0);
  const int sm = static_cast<int>(sys_->layout(0).SpareSite(row));
  ASSERT_TRUE(cluster_->CrashSite(SiteOf(2)).ok());
  ASSERT_TRUE(cluster_->CrashSite(SiteOf(sm)).ok());
  int client = 0;
  while (client == 2 || client == sm) ++client;
  auto r = sys_->Read(SiteOf(client), 0, 2, 0);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.data, Pat(3));
  EXPECT_GT(sys_->stats().Get("node.read_spare_down"), 0u);
  EXPECT_LT(r.latency, 4 * NodeConfig{}.retry_timeout);
}

TEST_F(NodeTest, RecoveringParityServesNoDecode) {
  // The one leg-usability rule (DESIGN.md §14): a parity serves a decode
  // only while its site is up. P misses a write while down; restored but
  // not yet swept, it still encodes the old value, and with the home now
  // down a decode through it would return that stale value as if current.
  ASSERT_TRUE(sys_->Write(SiteOf(2), 0, 2, 0, Pat(1)).status.ok());
  const BlockNum row = sys_->layout(0).DataToRow(2, 0);
  const int pm = static_cast<int>(sys_->layout(0).ParitySite(row));
  const int sm = static_cast<int>(sys_->layout(0).SpareSite(row));
  ASSERT_TRUE(cluster_->CrashSite(SiteOf(pm)).ok());
  ASSERT_TRUE(sys_->Write(SiteOf(2), 0, 2, 0, Pat(2)).status.ok());
  ASSERT_TRUE(cluster_->RestoreSite(SiteOf(pm)).ok());
  ASSERT_EQ(cluster_->site(SiteOf(pm))->state(), SiteState::kRecovering);
  ASSERT_TRUE(cluster_->CrashSite(SiteOf(2)).ok());
  int client = 0;
  while (client == 2 || client == pm || client == sm) ++client;
  auto r = sys_->Read(SiteOf(client), 0, 2, 0);
  EXPECT_TRUE(r.status.IsBlocked()) << r.status.ToString();
  EXPECT_NE(r.data, Pat(1));
}

TEST_F(NodeTest, ReconReplyFromOutsideTheGroupIsDropped) {
  // Site 6 hosts no member of the group. A reconstruction reply from it
  // names no source of the round and must not count towards completing
  // it.
  Build(0.0, {}, /*sites=*/7);
  ASSERT_TRUE(sys_->Write(SiteOf(2), 0, 2, 0, Pat(4)).status.ok());
  ASSERT_TRUE(cluster_->CrashSite(SiteOf(2)).ok());
  const SiteId client = SiteOf(0);
  Network::Handler prev = net_->GetHandler(client);
  bool forged = false;
  net_->RegisterHandler(client, [&](Message& msg) {
    if (msg.type == MessageType::kReconReply && !forged) {
      forged = true;
      Message copy = msg;
      copy.from = 6;
      prev(copy);
    }
    prev(msg);
  });
  auto r = sys_->Read(client, 0, 2, 0);
  ASSERT_TRUE(forged);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.data, Pat(4));
  EXPECT_EQ(sys_->stats().Get("node.recon_foreign_reply"), 1u);
  EXPECT_EQ(sys_->stats().Get("node.uid_retry"), 0u);
}

TEST_F(NodeTest, DegradedWriteLandsOnSpare) {
  ASSERT_TRUE(sys_->Write(SiteOf(2), 0, 2, 0, Pat(1)).status.ok());
  ASSERT_TRUE(cluster_->CrashSite(SiteOf(2)).ok());
  auto w = sys_->Write(SiteOf(0), 0, 2, 0, Pat(2));
  ASSERT_TRUE(w.status.ok()) << w.status.ToString();
  auto r = sys_->Read(SiteOf(0), 0, 2, 0);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.data, Pat(2));
  sim_->Run();
  EXPECT_TRUE(sys_->group(0)->VerifyInvariants().ok());
}

TEST_F(NodeTest, SpareWriteRefusedWhenHomeMovesBeforeCommit) {
  // The spare write decodes the home's old value first. The home restarts
  // (down -> recovering) while that decode is in flight, so the epoch the
  // client stamped no longer holds at commit time: the client's retry may
  // already be writing at the home, and both flows would bring the op's
  // delta to the parity. The spare refuses with StaleEpoch; the retry
  // lands at the home.
  SiteStatusService& service = *sys_->status();
  ASSERT_TRUE(sys_->Write(SiteOf(1), 0, 1, 2, Pat(1)).status.ok());
  ASSERT_TRUE(service.InjectCrash(SiteOf(1)).ok());
  const BlockNum row = sys_->layout(0).DataToRow(1, 2);
  const SiteId spare =
      SiteOf(static_cast<int>(sys_->layout(0).SpareSite(row)));
  SiteId client = 0;
  while (client == SiteOf(1) || client == spare) ++client;
  Network::Handler to_spare = net_->GetHandler(spare);
  bool restored = false;
  net_->RegisterHandler(spare, [&](Message& msg) {
    if (msg.type == MessageType::kReconReply && !restored) {
      restored = true;
      ASSERT_TRUE(service.NotifyRestart(SiteOf(1)).ok());
    }
    to_spare(msg);
  });
  Network::Handler to_client = net_->GetHandler(client);
  std::vector<Status> spare_replies;
  net_->RegisterHandler(client, [&](Message& msg) {
    if (msg.type == MessageType::kSpareWriteReply) {
      spare_replies.push_back(std::get<WriteReply>(msg.payload).status);
    }
    to_client(msg);
  });
  auto w = sys_->Write(client, 0, 1, 2, Pat(2));
  ASSERT_TRUE(restored);
  ASSERT_FALSE(spare_replies.empty());
  EXPECT_TRUE(spare_replies.front().IsStaleEpoch())
      << spare_replies.front().ToString();
  ASSERT_TRUE(w.status.ok()) << w.status.ToString();
  sim_->Run();
  ASSERT_TRUE(sys_->group(0)->RunRecovery(1).ok());
  EXPECT_TRUE(sys_->group(0)->VerifyInvariants().ok());
  auto r = sys_->Read(client, 0, 1, 2);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.data, Pat(2));
}

TEST_F(NodeTest, SpareTakeOfTheSameOpWaitsForTheSpareWrite) {
  // A spare write holds the spare's lock while it decodes the home's old
  // value. A take of the same spare for the same op (a recovering home
  // running the client's retry) arrives in that window. Each flow holds
  // its own lock, so the take queues behind the spare write and reads
  // what it committed; sharing the op's hold, it would read the spare as
  // still empty and both flows would commit the op.
  SiteStatusService& service = *sys_->status();
  ASSERT_TRUE(sys_->Write(SiteOf(1), 0, 1, 2, Pat(1)).status.ok());
  ASSERT_TRUE(service.InjectCrash(SiteOf(1)).ok());
  const BlockNum row = sys_->layout(0).DataToRow(1, 2);
  const SiteId spare =
      SiteOf(static_cast<int>(sys_->layout(0).SpareSite(row)));
  SiteId client = 0;
  while (client == SiteOf(1) || client == spare) ++client;
  Network::Handler to_spare = net_->GetHandler(spare);
  std::optional<uint64_t> op;
  bool took = false;
  net_->RegisterHandler(spare, [&](Message& msg) {
    if (msg.type == MessageType::kSpareWriteReq) {
      op = std::get<SpareWriteReq>(msg.payload).op;
    }
    if (msg.type == MessageType::kReconReply && op && !took) {
      took = true;
      Message take;
      take.from = client;
      take.to = spare;
      take.type = MessageType::kSpareTakeReq;
      take.payload = SpareTakeReq{*op, 0, 1, row};
      to_spare(take);
    }
    to_spare(msg);
  });
  Network::Handler to_client = net_->GetHandler(client);
  std::vector<SpareReadReply> takes;
  net_->RegisterHandler(client, [&](Message& msg) {
    if (msg.type == MessageType::kSpareTakeReply) {
      takes.push_back(std::get<SpareReadReply>(msg.payload));
    }
    to_client(msg);
  });
  auto w = sys_->Write(client, 0, 1, 2, Pat(2));
  ASSERT_TRUE(w.status.ok()) << w.status.ToString();
  sim_->Run();
  ASSERT_TRUE(took);
  ASSERT_EQ(takes.size(), 1u);
  ASSERT_TRUE(takes[0].status.ok()) << takes[0].status.ToString();
  EXPECT_EQ(takes[0].data, Pat(2));
  EXPECT_GT(sys_->stats().Get("node.lock_waits"), 0u);
}

TEST_F(NodeTest, TwoWaitingFlowsOfOneOpBothResume) {
  // A read request and its retransmission both queue behind a write's
  // lock. Each is its own flow, so each resumes and replies; keyed by the
  // op, the second would overwrite the first's resume.
  const SiteId home = SiteOf(2);
  const SiteId client = SiteOf(3);
  const BlockNum row = sys_->layout(0).DataToRow(2, 0);
  constexpr uint64_t kReadOp = 1000;
  Network::Handler to_client = net_->GetHandler(client);
  int replies = 0;
  net_->RegisterHandler(client, [&](Message& msg) {
    if (msg.type == MessageType::kReadReply &&
        std::get<ReadReply>(msg.payload).op == kReadOp) {
      ++replies;
      return;
    }
    to_client(msg);
  });
  sys_->AsyncWrite(home, 0, 2, 0, Pat(1), [](Status, SimTime) {});
  Network::Handler to_home = net_->GetHandler(home);
  sim_->Schedule(Millis(1), [&]() {  // the write's disk I/O holds the lock
    for (int copy = 0; copy < 2; ++copy) {
      Message read;
      read.from = client;
      read.to = home;
      read.type = MessageType::kReadReq;
      read.payload = ReadReq{kReadOp, 0, row};
      to_home(read);
    }
  });
  sim_->Run();
  EXPECT_EQ(sys_->stats().Get("node.lock_waits"), 2u);
  EXPECT_EQ(replies, 2);
}

TEST_F(NodeTest, CrashWriteRecoverRoundTrip) {
  ASSERT_TRUE(sys_->Write(SiteOf(1), 0, 1, 2, Pat(1)).status.ok());
  ASSERT_TRUE(cluster_->CrashSite(SiteOf(1)).ok());
  ASSERT_TRUE(sys_->Write(SiteOf(4), 0, 1, 2, Pat(2)).status.ok());
  ASSERT_TRUE(cluster_->RestoreSite(SiteOf(1)).ok());
  sim_->Run();
  ASSERT_TRUE(sys_->group(0)->RunRecovery(1).ok());
  EXPECT_TRUE(sys_->group(0)->VerifyInvariants().ok());
  auto r = sys_->Read(SiteOf(1), 0, 1, 2);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.data, Pat(2));
  EXPECT_EQ(r.latency, Millis(30));  // served locally again
}

TEST_F(NodeTest, RecoveringReadPrefersSpare) {
  ASSERT_TRUE(sys_->Write(SiteOf(1), 0, 1, 2, Pat(1)).status.ok());
  ASSERT_TRUE(cluster_->CrashSite(SiteOf(1)).ok());
  ASSERT_TRUE(sys_->Write(SiteOf(4), 0, 1, 2, Pat(2)).status.ok());
  ASSERT_TRUE(cluster_->RestoreSite(SiteOf(1)).ok());
  // No sweep yet: a read must see the spare's newer value, not the stale
  // local copy.
  auto r = sys_->Read(SiteOf(1), 0, 1, 2);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.data, Pat(2));
}

TEST_F(NodeTest, RecoveringWriteFetchesSpareAndInvalidates) {
  ASSERT_TRUE(sys_->Write(SiteOf(1), 0, 1, 2, Pat(1)).status.ok());
  ASSERT_TRUE(cluster_->CrashSite(SiteOf(1)).ok());
  ASSERT_TRUE(sys_->Write(SiteOf(4), 0, 1, 2, Pat(2)).status.ok());
  ASSERT_TRUE(cluster_->RestoreSite(SiteOf(1)).ok());
  ASSERT_TRUE(sys_->Write(SiteOf(1), 0, 1, 2, Pat(3)).status.ok());
  sim_->Run();
  EXPECT_GT(sys_->stats().Get("node.spare_invalidated"), 0u);
  EXPECT_TRUE(sys_->group(0)->VerifyInvariants().ok());
  auto r = sys_->Read(SiteOf(1), 0, 1, 2);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.data, Pat(3));
}

TEST_F(NodeTest, ConcurrentWritesToOneBlockSerialize) {
  int done = 0;
  for (int i = 0; i < 4; ++i) {
    sys_->AsyncWrite(SiteOf(2), 0, 2, 0, Pat(uint64_t(i)),
                     [&done](Status st, SimTime) {
                       ASSERT_TRUE(st.ok());
                       ++done;
                     });
  }
  sim_->Run();
  EXPECT_EQ(done, 4);
  EXPECT_GT(sys_->stats().Get("node.lock_waits"), 0u);
  EXPECT_TRUE(sys_->group(0)->VerifyInvariants().ok());
  auto r = sys_->Read(SiteOf(2), 0, 2, 0);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.data, Pat(3));  // last writer wins, in issue order
}

TEST_F(NodeTest, ConcurrentWritesAcrossMembersKeepParityConsistent) {
  int done = 0;
  for (int m = 0; m < 6; ++m) {
    for (int i = 0; i < 3; ++i) {
      sys_->AsyncWrite(SiteOf(m), 0, m, static_cast<BlockNum>(i),
                       Pat(uint64_t(m) * 100 + i),
                       [&done](Status st, SimTime) {
                         ASSERT_TRUE(st.ok());
                         ++done;
                       });
    }
  }
  sim_->Run();
  EXPECT_EQ(done, 18);
  EXPECT_TRUE(sys_->group(0)->VerifyInvariants().ok());
}

TEST_F(NodeTest, ParitySiteDownDropsUpdatesAndRecoveryRecomputes) {
  // Find a row whose parity lives at member p, write its data while p is
  // down (update dropped), then verify p's recovery recomputes it.
  ASSERT_TRUE(sys_->Write(SiteOf(2), 0, 2, 0, Pat(1)).status.ok());
  BlockNum row = sys_->layout(0).DataToRow(2, 0);
  int pm = static_cast<int>(sys_->layout(0).ParitySite(row));
  ASSERT_TRUE(cluster_->CrashSite(SiteOf(pm)).ok());

  auto w = sys_->Write(SiteOf(2), 0, 2, 0, Pat(2));
  ASSERT_TRUE(w.status.ok());
  // No parity round trip: the write completes after the local disk alone.
  EXPECT_EQ(w.latency, Millis(30));
  EXPECT_GT(sys_->stats().Get("node.parity_dropped"), 0u);

  ASSERT_TRUE(cluster_->RestoreSite(SiteOf(pm)).ok());
  sim_->Run();
  ASSERT_TRUE(sys_->group(0)->RunRecovery(pm).ok());
  EXPECT_TRUE(sys_->group(0)->VerifyInvariants().ok());

  // Reconstruction through the rebuilt parity yields the new value.
  ASSERT_TRUE(cluster_->CrashSite(SiteOf(2)).ok());
  auto r = sys_->Read(SiteOf(0), 0, 2, 0);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.data, Pat(2));
}

TEST_F(NodeTest, WritesToDownSiteFailCleanlyWhenSpareAlsoDown) {
  ASSERT_TRUE(sys_->Write(SiteOf(2), 0, 2, 0, Pat(1)).status.ok());
  BlockNum row = sys_->layout(0).DataToRow(2, 0);
  int sm = static_cast<int>(sys_->layout(0).SpareSite(row));
  ASSERT_TRUE(cluster_->CrashSite(SiteOf(2)).ok());
  ASSERT_TRUE(cluster_->CrashSite(SiteOf(sm)).ok());
  // Double failure: the degraded write cannot land anywhere; the client
  // times out rather than hanging or corrupting.
  auto w = sys_->Write(SiteOf(0), 0, 2, 0, Pat(2));
  EXPECT_FALSE(w.status.ok());
}

TEST_F(NodeTest, MixedReadWriteStormAgainstReferenceModel) {
  // Interleave async ops across all members and blocks, then compare the
  // final state block-for-block with a shadow map.
  std::map<std::pair<int, BlockNum>, uint64_t> last_seed;
  int pending = 0;
  uint64_t seq = 0;
  for (int round = 0; round < 5; ++round) {
    for (int m = 0; m < 6; ++m) {
      for (BlockNum i = 0; i < 4; ++i) {
        uint64_t seed = ++seq;
        last_seed[{m, i}] = seed;
        ++pending;
        sys_->AsyncWrite(SiteOf(m), 0, m, i, Pat(seed),
                         [&pending](Status st, SimTime) {
                           ASSERT_TRUE(st.ok());
                           --pending;
                         });
      }
    }
  }
  sim_->Run();
  EXPECT_EQ(pending, 0);
  EXPECT_TRUE(sys_->group(0)->VerifyInvariants().ok());
  for (const auto& [key, seed] : last_seed) {
    auto r = sys_->Read(SiteOf(key.first), 0, key.first, key.second);
    ASSERT_TRUE(r.status.ok());
    EXPECT_EQ(r.data, Pat(seed));
  }
}

TEST_F(NodeTest, ReconstructionRacingWriteRetriesViaUidValidation) {
  // The §3.3 mechanism under a *genuine* race: member 2's block is being
  // reconstructed (its site is down) while a write to ANOTHER member's
  // block in the same row is in flight. The reconstruction's lock-free
  // source reads can observe the new data before the parity update lands,
  // the UID comparison catches it, and the retry returns a consistent
  // value.
  BlockNum row = sys_->layout(0).DataToRow(2, 0);
  // Find another data member of the same row.
  int other = -1;
  for (SiteId s : sys_->layout(0).DataSites(row)) {
    if (static_cast<int>(s) != 2) {
      other = static_cast<int>(s);
      break;
    }
  }
  ASSERT_GE(other, 0);
  Result<BlockNum> other_idx =
      sys_->layout(0).RowToData(static_cast<SiteId>(other), row);
  ASSERT_TRUE(other_idx.ok());

  ASSERT_TRUE(sys_->Write(SiteOf(2), 0, 2, 0, Pat(1)).status.ok());
  ASSERT_TRUE(
      sys_->Write(SiteOf(other), 0, other, *other_idx, Pat(2)).status.ok());
  ASSERT_TRUE(cluster_->CrashSite(SiteOf(2)).ok());

  // Timing: the degraded read's reconstruction source-reads execute at
  // t = 127.5 ms (spare probe 75 ms + request 22.5 + disk 30). Schedule
  // the racing write so its local disk write lands inside the window
  // between those source reads and its own parity update: issued at
  // t = 80 ms, the data lands at 110 ms and the parity at 162.5 ms — the
  // reconstruction at 127.5 ms sees new data with a stale UID array and
  // must retry.
  bool write_done = false, read_done = false;
  Block read_value(config_.block_size);
  sim_->Schedule(Micros(80000), [&]() {
    sys_->AsyncWrite(SiteOf(other), 0, other, *other_idx, Pat(3),
                     [&](Status st, SimTime) {
                       ASSERT_TRUE(st.ok());
                       write_done = true;
                     });
  });
  sys_->AsyncRead(SiteOf(0), 0, 2, 0,
                  [&](Status st, const Block& data, SimTime) {
                    ASSERT_TRUE(st.ok()) << st.ToString();
                    read_value = data;
                    read_done = true;
                  });
  sim_->Run();
  ASSERT_TRUE(write_done);
  ASSERT_TRUE(read_done);
  // Whatever interleaving happened, the reconstructed value must be
  // member 2's actual data — never a torn mix.
  EXPECT_EQ(read_value, Pat(1));
  EXPECT_TRUE(sys_->group(0)->VerifyInvariants().ok());
  // The race window (source read between the data write and its parity
  // update) is real at these latencies: the validation must have retried.
  EXPECT_GT(sys_->stats().Get("node.uid_retry"), 0u)
      << "expected the §3.3 retry to fire under this interleaving";
}

// ---------------------------------------------------------------------------
// §5: lost messages.
// ---------------------------------------------------------------------------

class LossyNodeTest : public NodeTest {
 protected:
  LossyNodeTest() { Build(0.15); }
};

TEST_F(LossyNodeTest, WritesCompleteDespiteLoss) {
  for (int i = 0; i < 10; ++i) {
    auto w = sys_->Write(SiteOf(2), 0, 2, 0, Pat(uint64_t(i)));
    ASSERT_TRUE(w.status.ok()) << "write " << i;
  }
  sim_->Run();
  EXPECT_TRUE(sys_->group(0)->VerifyInvariants().ok())
      << "parity must be exact despite retransmissions";
  auto r = sys_->Read(SiteOf(2), 0, 2, 0);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.data, Pat(9));
}

TEST_F(LossyNodeTest, DuplicateParityUpdatesAreIdempotent) {
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(sys_->Write(SiteOf(3), 0, 3, 1, Pat(uint64_t(i))).status.ok());
  }
  sim_->Run();
  // Some retransmissions should have happened and been deduplicated (or
  // at least retransmitted) at this loss rate.
  EXPECT_GT(sys_->stats().Get("node.batch_retransmit"), 0u);
  EXPECT_TRUE(sys_->group(0)->VerifyInvariants().ok());
}

TEST_F(LossyNodeTest, ReadsRetryThroughLoss) {
  ASSERT_TRUE(sys_->Write(SiteOf(2), 0, 2, 0, Pat(5)).status.ok());
  for (int i = 0; i < 10; ++i) {
    auto r = sys_->Read(SiteOf(0), 0, 2, 0);
    ASSERT_TRUE(r.status.ok()) << "read " << i;
    EXPECT_EQ(r.data, Pat(5));
  }
}

TEST_F(NodeTest, RetryExhaustionSurfacesNetworkError) {
  NodeConfig nc;
  nc.retry_timeout = Millis(50);
  nc.max_retries = 3;
  Build(0.0, nc);
  // Every write_req to the home site vanishes. §5 says retransmit until
  // acked, but a client cannot spin forever: after max_retries the write
  // must fail back to the caller instead of hanging with state leaked.
  net_->SetFaultHook("write_req",
                     [](const Message&) { return FaultAction::kDrop; });
  auto w = sys_->Write(SiteOf(0), 0, 2, 0, Pat(1));
  EXPECT_TRUE(w.status.IsNetworkError()) << w.status.ToString();
  EXPECT_EQ(sys_->stats().Get("node.write_retry_exhausted"), 1u);
  EXPECT_GT(sys_->stats().Get("node.write_retry"), 0u);
  EXPECT_GT(net_->stats().Get("net.drop.write_req"), 0u);

  // The failure is transient, not sticky: once the fault clears, the same
  // client can write the same block.
  net_->ClearFaultHooks();
  sim_->Run();
  auto w2 = sys_->Write(SiteOf(0), 0, 2, 0, Pat(2));
  ASSERT_TRUE(w2.status.ok()) << w2.status.ToString();
}

TEST_F(NodeTest, ParityGiveUpFailsWriteAndReleasesLock) {
  NodeConfig nc;
  nc.retry_timeout = Millis(50);
  nc.max_retries = 3;
  Build(0.0, nc);
  // The home applies W1 but its parity updates all vanish: the write must
  // surface NetworkError rather than hold the row lock hostage.
  net_->SetFaultHook("parity_batch",
                     [](const Message&) { return FaultAction::kDrop; });
  auto w = sys_->Write(SiteOf(2), 0, 2, 0, Pat(1));
  EXPECT_TRUE(w.status.IsNetworkError()) << w.status.ToString();
  EXPECT_GT(sys_->stats().Get("node.batch_gave_up"), 0u);

  // The lock was released: a later write to the same row succeeds.
  net_->ClearFaultHooks();
  sim_->Run();
  auto w2 = sys_->Write(SiteOf(2), 0, 2, 0, Pat(2));
  ASSERT_TRUE(w2.status.ok()) << w2.status.ToString();
  sim_->Run();

  // The give-up left parity stale (W1 landed, W3 never did); a parity
  // scrub reconciles the row, after which the invariants must hold and
  // the last acknowledged value must survive.
  for (int m = 0; m < 6; ++m) {
    ASSERT_TRUE(sys_->group(0)->ScrubParity(m).ok());
  }
  EXPECT_TRUE(sys_->group(0)->VerifyInvariants().ok());
  auto r = sys_->Read(SiteOf(0), 0, 2, 0);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.data, Pat(2));
}

TEST_F(NodeTest, DuplicatedAndReorderedParityTrafficStaysConsistent) {
  // Duplication alone is covered above; here duplicated *and* reordered
  // parity updates and acks race each other. A stale copy arriving after
  // a newer update must be recognized (batch-seq dedupe + §3.3 UID array)
  // and re-acked, never re-applied on top of the newer mask.
  net_->set_duplicate_probability(0.4);
  net_->set_reorder_jitter(Millis(60));
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(
        sys_->Write(SiteOf(3), 0, 3, 1, Pat(100 + uint64_t(i))).status.ok());
  }
  sim_->Run();  // let delayed duplicates land
  EXPECT_GT(net_->stats().Get("net.dup.parity_batch") +
                net_->stats().Get("net.dup.parity_batch_ack"),
            0u);
  EXPECT_GT(net_->stats().Get("net.reordered"), 0u);
  EXPECT_TRUE(sys_->group(0)->VerifyInvariants().ok())
      << "a duplicated or reordered parity update was double-applied";
  auto r = sys_->Read(SiteOf(0), 0, 3, 1);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.data, Pat(124));
}

TEST_F(NodeTest, ParityRebuiltBehindInFlightEntryAbsorbsItsRetransmit) {
  // The home releases the row lock once a write's parity entry is staged,
  // so a second write to the block lands locally while the first entry is
  // still unacked. A parity row rebuilt from data in that window records
  // the second write's UID; the first entry's retransmit must then be
  // absorbed, not XORed in a second time.
  const BlockNum row = sys_->layout(0).DataToRow(2, 0);
  const int pm = static_cast<int>(sys_->layout(0).ParitySite(row));
  bool dropped = false;
  net_->SetFaultHook("parity_batch", [&dropped](const Message&) {
    if (dropped) return FaultAction::kDeliver;
    dropped = true;
    return FaultAction::kDrop;
  });
  int done = 0;
  for (uint64_t i = 1; i <= 2; ++i) {
    sys_->AsyncWrite(SiteOf(2), 0, 2, 0, Pat(i),
                     [&done](Status st, SimTime) {
                       EXPECT_TRUE(st.ok()) << st.ToString();
                       ++done;
                     });
  }
  sim_->Schedule(Millis(100), [&]() {
    ASSERT_TRUE(sys_->group(0)->ScrubParity(pm).ok());
  });
  sim_->Run();
  ASSERT_TRUE(dropped);
  EXPECT_EQ(done, 2);
  EXPECT_GT(sys_->stats().Get("node.batch_retransmit"), 0u);
  EXPECT_TRUE(sys_->group(0)->VerifyInvariants().ok())
      << "the first write's delta was applied twice";

  // Reconstruction through that parity yields the last write.
  ASSERT_TRUE(cluster_->CrashSite(SiteOf(2)).ok());
  auto r = sys_->Read(SiteOf(0), 0, 2, 0);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.data, Pat(2));
}

TEST_F(NodeTest, StaleRefusedEntryIsRestampedWhileTheCopyHoldsIt) {
  // The home is fenced and rejoins while its write's parity entry is in
  // flight, with no recovery sweep in between: its epoch moves, so the
  // parity refuses the entry's stamp, yet the home's copy still holds the
  // change. Failing the write would leave the parity behind the data for
  // good (the retry diffs against the updated copy), so the home must
  // restamp the entry and resend it.
  SiteStatusService& service = *sys_->status();
  const SiteId home = SiteOf(2);
  bool dropped = false;
  net_->SetFaultHook("parity_batch", [&dropped](const Message&) {
    if (dropped) return FaultAction::kDeliver;
    dropped = true;
    return FaultAction::kDrop;
  });
  Status result = Status::Internal("write never completed");
  sys_->AsyncWrite(home, 0, 2, 0, Pat(1),
                   [&result](Status st, SimTime) { result = st; });
  sim_->Schedule(Millis(100), [&]() {
    for (SiteId s = 0; s < 6; ++s) {
      if (s != home) service.ReportSuspicion(s, home, true);
    }
    for (SiteId s = 0; s < 6; ++s) {
      if (s != home) service.ReportSuspicion(s, home, false);
    }
    ASSERT_TRUE(service.MarkUp(home).ok());
  });
  sim_->Run();
  ASSERT_TRUE(dropped);
  EXPECT_TRUE(result.ok()) << result.ToString();
  EXPECT_GT(sys_->stats().Get("node.stale_epoch_rejected"), 0u);
  EXPECT_GT(sys_->stats().Get("node.parity_restamped"), 0u);
  EXPECT_TRUE(sys_->group(0)->VerifyInvariants().ok())
      << "the parity missed the refused entry's change";
}

// ---------------------------------------------------------------------------
// §5: partitions.
// ---------------------------------------------------------------------------

TEST_F(NodeTest, MajorityPartitionOperatesOnSingletonsData) {
  ASSERT_TRUE(sys_->Write(SiteOf(2), 0, 2, 0, Pat(1)).status.ok());
  // Partition: site of member 2 alone vs everyone else.
  SiteId lone = SiteOf(2);
  std::vector<SiteId> majority;
  for (int m = 0; m < 6; ++m) {
    if (SiteOf(m) != lone) majority.push_back(SiteOf(m));
  }
  net_->SetPartitions({majority, {lone}});
  // The majority side treats the unreachable site as down (§5: "As long
  // as the singleton site ceases processing, consistency is guaranteed").
  for (SiteId s : majority) {
    sys_->status()->Presume(s, lone, SiteState::kDown);
  }
  auto r = sys_->Read(SiteOf(0), 0, 2, 0);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.data, Pat(1));
  auto w = sys_->Write(SiteOf(0), 0, 2, 0, Pat(2));
  ASSERT_TRUE(w.status.ok());

  // Heal; the singleton re-enters through the recovering protocol.
  net_->Heal();
  for (SiteId s : majority) sys_->status()->Presume(s, lone, std::nullopt);
  ASSERT_TRUE(cluster_->CrashSite(lone).ok());  // formalize its outage
  ASSERT_TRUE(cluster_->RestoreSite(lone).ok());
  sim_->Run();
  ASSERT_TRUE(sys_->group(0)->RunRecovery(2).ok());
  auto back = sys_->Read(lone, 0, 2, 0);
  ASSERT_TRUE(back.status.ok());
  EXPECT_EQ(back.data, Pat(2));
}

TEST_F(NodeTest, MultiWayPartitionBlocks) {
  ASSERT_TRUE(sys_->Write(SiteOf(2), 0, 2, 0, Pat(1)).status.ok());
  // Split 3/3: neither side can reconstruct (needs G+1 = 5 peers).
  std::vector<SiteId> a = {SiteOf(0), SiteOf(1), SiteOf(2)};
  std::vector<SiteId> b = {SiteOf(3), SiteOf(4), SiteOf(5)};
  net_->SetPartitions({a, b});
  for (SiteId x : b) sys_->status()->Presume(x, SiteOf(2), SiteState::kDown);
  // From partition B, member 2's data needs reconstruction, whose sources
  // span the cut: the operation must fail rather than return stale data.
  NodeConfig nc;
  auto r = sys_->Read(SiteOf(3), 0, 2, 0);
  EXPECT_FALSE(r.status.ok());
}

}  // namespace
}  // namespace radd
