// Tests for the dual-parity (P+Q) message-driven protocol layer: writes
// fan out to both parity sites, Q sites fold in their GF(256) coefficient
// on apply, and client reconstruction survives two simultaneous failures
// by picking a decodable plan (P-only, Q-only, or the two-erasure solve).

#include "core/node.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

namespace radd {
namespace {

class PqNodeTest : public ::testing::Test {
 protected:
  PqNodeTest() { Build(); }

  void Build(const NodeConfig& nc = {}, int group_size = 4,
             BlockNum rows = 14, size_t block_size = 512) {
    config_.group_size = group_size;
    config_.parities = 2;
    config_.rows = rows;
    config_.block_size = block_size;
    SiteConfig sc{1, config_.rows, config_.block_size};
    sim_ = std::make_unique<Simulator>();
    net_ = std::make_unique<Network>(sim_.get(), NetworkModel{}, 0xabc);
    cluster_ = std::make_unique<Cluster>(group_size + 3, sc);
    sys_ = std::make_unique<RaddNodeSystem>(sim_.get(), net_.get(),
                                            cluster_.get(), config_, nc);
  }

  Block Pat(uint64_t seed) {
    Block b(config_.block_size);
    b.FillPattern(seed);
    return b;
  }
  SiteId SiteOf(int m) { return sys_->group(0)->SiteOfMember(m); }
  const PlacementMap& Lay() { return sys_->group(0)->layout(); }
  BlockNum RowOf(int m, BlockNum i) {
    return Lay().DataToRow(static_cast<SiteId>(m), i);
  }
  SiteId PSiteOf(BlockNum row) {
    return SiteOf(static_cast<int>(Lay().ParitySite(row)));
  }
  SiteId QSiteOf(BlockNum row) {
    return SiteOf(static_cast<int>(Lay().QParitySite(row)));
  }
  SiteId SpareSiteOf(BlockNum row) {
    return SiteOf(static_cast<int>(Lay().SpareSite(row)));
  }
  /// A client site that is none of the given sites (always exists: at
  /// most three sites are excluded and the cluster has seven).
  SiteId OtherSite(std::initializer_list<SiteId> avoid) {
    for (int m = 0; m < sys_->group(0)->num_members(); ++m) {
      SiteId s = SiteOf(m);
      bool excluded = false;
      for (SiteId a : avoid) excluded |= (a == s);
      if (!excluded) return s;
    }
    return SiteOf(0);
  }
  /// First index of member `home` whose row also has `other` in a data
  /// role (so crashing both erases two data blocks of one row).
  BlockNum SharedDataIndex(int home, int other) {
    for (BlockNum i = 0; i < sys_->group(0)->DataBlocksPerMember(); ++i) {
      if (Lay().RoleOf(static_cast<SiteId>(other), RowOf(home, i)) ==
          BlockRole::kData) {
        return i;
      }
    }
    ADD_FAILURE() << "no shared data row for members " << home << "/"
                  << other;
    return 0;
  }

  void WriteAll(uint64_t salt = 0) {
    for (int m = 0; m < sys_->group(0)->num_members(); ++m) {
      for (BlockNum i = 0; i < sys_->group(0)->DataBlocksPerMember(); ++i) {
        ASSERT_TRUE(sys_->Write(SiteOf(m), 0, m, i,
                                Pat(salt + uint64_t(m) * 100 + i))
                        .status.ok());
      }
    }
  }

  RaddConfig config_;
  std::unique_ptr<Simulator> sim_;
  std::unique_ptr<Network> net_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<RaddNodeSystem> sys_;
};

TEST_F(PqNodeTest, WritesMaintainBothParityInvariants) {
  WriteAll();
  sim_->Run();  // drain side effects
  EXPECT_TRUE(sys_->group(0)->VerifyInvariants().ok());
}

TEST_F(PqNodeTest, WriteLatencyUnchangedBySecondParityLeg) {
  // The P and Q legs run in parallel, so the §5 commit condition costs
  // one parity round trip even with two parities: W + RW = 105 ms.
  auto w = sys_->Write(SiteOf(2), 0, 2, 0, Pat(1));
  ASSERT_TRUE(w.status.ok());
  EXPECT_EQ(w.latency, Micros(105000));
}

TEST_F(PqNodeTest, BatchedWritesMaintainBothParityInvariants) {
  NodeConfig nc;
  nc.parity_batch.enabled = true;
  Build(nc);
  WriteAll();
  sim_->Run();
  EXPECT_TRUE(sys_->group(0)->VerifyInvariants().ok());
}

TEST_F(PqNodeTest, ReadSurvivesHomePlusSpareCrash) {
  const BlockNum row = RowOf(2, 0);
  ASSERT_TRUE(sys_->Write(SiteOf(2), 0, 2, 0, Pat(7)).status.ok());
  ASSERT_TRUE(cluster_->CrashSite(SiteOf(2)).ok());
  ASSERT_TRUE(cluster_->CrashSite(SpareSiteOf(row)).ok());
  SiteId client = OtherSite({SiteOf(2), SpareSiteOf(row)});
  auto r = sys_->Read(client, 0, 2, 0);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.data, Pat(7));
  // The dead spare was skipped, not waited out.
  EXPECT_GT(sys_->stats().Get("node.read_spare_down"), 0u);
  EXPECT_GT(sys_->stats().Get("node.degraded_reads"), 0u);
}

TEST_F(PqNodeTest, DegradedReadsUnderLoadReturnTheLatestWrite) {
  // A closed loop against a dead member: 1,000 ops from one surviving
  // client, 4 in flight, one read to two writes, in a group of 8 with 60
  // rows of 4 KiB. Every read is a decode or a spare hit and every write
  // lands on the row's spare; each must succeed, and each read returns the
  // block's last acknowledged value.
  Build({}, /*group_size=*/8, /*rows=*/60, /*block_size=*/4096);
  constexpr int kHome = 2;
  constexpr int kOps = 1000;
  const BlockNum blocks = sys_->group(0)->DataBlocksPerMember();
  ASSERT_GT(blocks, 4u);  // no two ops in flight share a block
  std::vector<Block> acked;
  for (BlockNum i = 0; i < blocks; ++i) {
    acked.push_back(Pat(i));
    ASSERT_TRUE(sys_->Write(SiteOf(kHome), 0, kHome, i, acked.back())
                    .status.ok());
  }
  sim_->Run();
  ASSERT_TRUE(cluster_->CrashSite(SiteOf(kHome)).ok());

  const SiteId client = SiteOf(0);
  int issued = 0, reads = 0, writes = 0;
  std::function<void()> issue = [&]() {
    if (issued >= kOps) return;
    const int i = issued++;
    const BlockNum index = static_cast<BlockNum>(i) % blocks;
    if (i % 3 == 0) {
      sys_->AsyncRead(client, 0, kHome, index,
                      [&, index](Status st, const Block& data, SimTime) {
                        EXPECT_TRUE(st.ok()) << st.ToString();
                        EXPECT_EQ(data, acked[index]) << "block " << index;
                        ++reads;
                        issue();
                      });
    } else {
      Block b = Pat(100000 + static_cast<uint64_t>(i));
      sys_->AsyncWrite(client, 0, kHome, index, b,
                       [&, index, b](Status st, SimTime) {
                         EXPECT_TRUE(st.ok()) << st.ToString();
                         if (st.ok()) acked[index] = b;
                         ++writes;
                         issue();
                       });
    }
  };
  for (int k = 0; k < 4; ++k) issue();
  sim_->Run();
  EXPECT_EQ(reads + writes, kOps);
  EXPECT_GT(sys_->stats().Get("node.degraded_reads"), 0u);
  EXPECT_TRUE(sys_->group(0)->VerifyInvariants().ok());
}

TEST_F(PqNodeTest, ReadSurvivesTwoDataMemberCrashes) {
  const BlockNum i = SharedDataIndex(2, 3);
  WriteAll(5);
  sim_->Run();
  ASSERT_TRUE(cluster_->CrashSite(SiteOf(2)).ok());
  ASSERT_TRUE(cluster_->CrashSite(SiteOf(3)).ok());
  SiteId client = OtherSite({SiteOf(2), SiteOf(3)});
  auto r = sys_->Read(client, 0, 2, i);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.data, Pat(5 + 200 + i));
  EXPECT_GT(sys_->stats().Get("node.recon_two_erasure"), 0u);
}

TEST_F(PqNodeTest, ReadDecodesViaQWhenPSiteDown) {
  const BlockNum row = RowOf(2, 0);
  ASSERT_TRUE(sys_->Write(SiteOf(2), 0, 2, 0, Pat(9)).status.ok());
  ASSERT_TRUE(cluster_->CrashSite(SiteOf(2)).ok());
  ASSERT_TRUE(cluster_->CrashSite(PSiteOf(row)).ok());
  SiteId client = OtherSite({SiteOf(2), PSiteOf(row)});
  auto r = sys_->Read(client, 0, 2, 0);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.data, Pat(9));
  EXPECT_GT(sys_->stats().Get("node.degraded_reads.q"), 0u);
}

TEST_F(PqNodeTest, CrashWriteRecoverRoundTripRebuildsQ) {
  WriteAll(11);
  sim_->Run();
  ASSERT_TRUE(cluster_->CrashSite(SiteOf(1)).ok());
  // Writes while down route through the spare; rows where site 1 is a
  // parity role get their legs dropped and must be rebuilt by recovery.
  ASSERT_TRUE(sys_->Write(SiteOf(4), 0, 1, 2, Pat(42)).status.ok());
  ASSERT_TRUE(sys_->Write(SiteOf(0), 0, 0, 1, Pat(43)).status.ok());
  ASSERT_TRUE(cluster_->RestoreSite(SiteOf(1)).ok());
  sim_->Run();
  ASSERT_TRUE(sys_->group(0)->RunRecovery(1).ok());
  EXPECT_TRUE(sys_->group(0)->VerifyInvariants().ok());
  auto r = sys_->Read(SiteOf(1), 0, 1, 2);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.data, Pat(42));
}

TEST_F(PqNodeTest, DegradedWriteUpdatesBothParities) {
  WriteAll(17);
  sim_->Run();
  ASSERT_TRUE(cluster_->CrashSite(SiteOf(2)).ok());
  auto w = sys_->Write(SiteOf(0), 0, 2, 0, Pat(55));
  ASSERT_TRUE(w.status.ok()) << w.status.ToString();
  sim_->Run();
  // The spare now carries the value and both parities its delta; a
  // two-erasure decode (pretend the spare died too) must see the new
  // value.
  const BlockNum row = RowOf(2, 0);
  ASSERT_TRUE(cluster_->CrashSite(SpareSiteOf(row)).ok());
  SiteId client = OtherSite({SiteOf(2), SpareSiteOf(row)});
  auto r = sys_->Read(client, 0, 2, 0);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.data, Pat(55));
}

TEST_F(PqNodeTest, StragglerReplyOfFinishedFlowIsDiscarded) {
  // One client op runs several reconstruction flows: the spare write's
  // decode through P alone fails on an unreadable source, and its
  // fallback decode starts at once for the same op. A reply of the first
  // flow that arrives late must not enter the fallback's round.
  const BlockNum row = RowOf(2, 0);
  std::vector<int> others;
  for (SiteId dm : Lay().DataSites(row)) {
    if (static_cast<int>(dm) != 2) others.push_back(static_cast<int>(dm));
  }
  std::sort(others.begin(), others.end());
  ASSERT_GE(others.size(), 2u);
  // The lowest data source answers first and fails the P-only decode; the
  // next one's reply is held back as the straggler.
  ASSERT_TRUE(
      cluster_->site(SiteOf(others[0]))->disks()->InjectLatentError(row).ok());
  ASSERT_TRUE(cluster_->CrashSite(SiteOf(2)).ok());
  const SiteId spare = SpareSiteOf(row);
  Network::Handler prev = net_->GetHandler(spare);
  bool held = false;
  bool released = false;
  uint64_t stale_before = 0;
  uint64_t stale_after = 0;
  net_->RegisterHandler(spare, [&](Message& msg) {
    if (msg.type != MessageType::kReconReply || held ||
        msg.from != SiteOf(others[1])) {
      prev(msg);
      return;
    }
    held = true;
    sim_->Schedule(Millis(5), [&, straggler = msg]() mutable {
      stale_before = sys_->stats().Get("node.recon_stale_reply");
      prev(straggler);
      stale_after = sys_->stats().Get("node.recon_stale_reply");
      released = true;
    });
  });
  SiteId client = OtherSite({SiteOf(2), spare});
  auto w = sys_->Write(client, 0, 2, 0, Pat(21));
  ASSERT_TRUE(w.status.ok()) << w.status.ToString();
  ASSERT_TRUE(released);
  EXPECT_EQ(stale_after, stale_before + 1);
}

TEST_F(PqNodeTest, SpareWriteWithNoUsableLegIsRefused) {
  // Home and P down, Q recovering with its sweep already past the row: Q
  // is current but not usable, so no leg can give the home's old value. A
  // zero delta would stamp the write's UID into Q while Q still sums the
  // previous value; the write must be refused instead.
  const BlockNum row = RowOf(2, 0);
  const int qm = static_cast<int>(Lay().QParitySite(row));
  ASSERT_TRUE(sys_->Write(SiteOf(2), 0, 2, 0, Pat(1)).status.ok());
  ASSERT_TRUE(cluster_->CrashSite(QSiteOf(row)).ok());
  ASSERT_TRUE(sys_->Write(SiteOf(2), 0, 2, 0, Pat(2)).status.ok());
  ASSERT_TRUE(cluster_->RestoreSite(QSiteOf(row)).ok());
  OpCounts ops;
  ASSERT_TRUE(sys_->group(0)->RecoverRow(qm, row, &ops).ok());
  ASSERT_TRUE(cluster_->CrashSite(PSiteOf(row)).ok());
  ASSERT_TRUE(cluster_->CrashSite(SiteOf(2)).ok());
  const SiteId client =
      OtherSite({SiteOf(2), PSiteOf(row), QSiteOf(row), SpareSiteOf(row)});
  auto w = sys_->Write(client, 0, 2, 0, Pat(3));
  EXPECT_TRUE(w.status.IsBlocked()) << w.status.ToString();
  EXPECT_GT(sys_->stats().Get("node.spare_write_no_usable_leg"), 0u);
  // Once Q is up, a decode through it returns the last acknowledged value.
  ASSERT_TRUE(cluster_->MarkUp(QSiteOf(row)).ok());
  auto r = sys_->Read(client, 0, 2, 0);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.data, Pat(2));
}

}  // namespace
}  // namespace radd
