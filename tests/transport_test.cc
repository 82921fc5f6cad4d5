// Transport-layer tests: the DES-vs-socket differential in miniature, the
// lossy-proxy ledger invariant, raw hostile bytes at a live socket
// receiver, the chaos codec on/off differential, and the asymmetric
// partition fault (kAsymPartition's Network primitive).
//
// The heavyweight sweeps live in tools/transport_main (CI runs them with
// many seeds); these are the fast tier-1 versions of the same invariants.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "fault/chaos.h"
#include "fault/netshim.h"
#include "net/frame.h"
#include "net/network.h"
#include "net/transport_harness.h"

namespace radd {
namespace {

// ---------------------------------------------------------------------------
// Differential: DES and socket backends converge to identical stores.
// ---------------------------------------------------------------------------

HarnessConfig SmallConfig(uint64_t seed) {
  HarnessConfig cfg;
  cfg.num_sites = 4;
  cfg.num_ops = 120;
  cfg.block_bytes = 64;
  cfg.seed = seed;
  cfg.socket.seed = seed ^ 0x50cce7;
  return cfg;
}

TEST(TransportDifferential, DesAndSocketConvergeToSameStore) {
  for (uint64_t seed : {3u, 11u}) {
    const HarnessConfig cfg = SmallConfig(seed);
    const HarnessResult des = RunDesHarness(cfg);
    const HarnessResult sock = RunSocketHarness(cfg);
    ASSERT_TRUE(des.ledger_ok) << des.ledger_error;
    ASSERT_TRUE(sock.ledger_ok) << sock.ledger_error;
    EXPECT_EQ(des.ops_acked, cfg.num_ops);
    EXPECT_EQ(sock.ops_acked, cfg.num_ops);
    EXPECT_EQ(des.store_hash, sock.store_hash) << "seed " << seed;
    // Clean network: the codec must reject nothing on either backend.
    EXPECT_EQ(des.frames_rejected, 0u);
    EXPECT_EQ(sock.frames_rejected, 0u);
    EXPECT_GT(des.frames_encoded, 0u);
    EXPECT_GT(sock.frames_encoded, 0u);
  }
}

TEST(TransportDifferential, LossyProxyKeepsLedgerClean) {
  for (uint64_t seed : {5u, 23u}) {
    const HarnessConfig cfg = SmallConfig(seed);
    LossyNetProxy proxy(DefaultLossyMix(seed));
    const HarnessResult r = RunSocketHarness(cfg, &proxy);
    // Loss is allowed (unacked ops, differing hashes); lying is not:
    // every acked write must be durably reflected in the store.
    EXPECT_TRUE(r.ledger_ok) << "seed " << seed << ": " << r.ledger_error;
    EXPECT_GT(proxy.frames_seen(), 0u);
  }
}

// ---------------------------------------------------------------------------
// Raw hostile bytes at a live receiver.
// ---------------------------------------------------------------------------

int ConnectTo(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  return fd;
}

void AwaitCondition(const std::function<bool()>& done) {
  for (int i = 0; i < 500 && !done(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(done());
}

TEST(SocketTransportHostileBytes, GarbageStreamIsCountedAndDropped) {
  SocketTransport transport(2);
  std::atomic<int> delivered{0};
  transport.RegisterHandler(0, [&](Message&) { ++delivered; });
  transport.RegisterHandler(1, [&](Message&) { ++delivered; });
  ASSERT_TRUE(transport.Start().ok());

  const int fd = ConnectTo(transport.port(1));
  std::vector<uint8_t> garbage(256);
  for (size_t i = 0; i < garbage.size(); ++i) {
    garbage[i] = static_cast<uint8_t>(0xC3 + i * 31);
  }
  ASSERT_EQ(::send(fd, garbage.data(), garbage.size(), 0),
            static_cast<ssize_t>(garbage.size()));
  AwaitCondition([&] {
    return transport.frame_counters().Get(FrameError::kBadMagic) > 0;
  });
  ::close(fd);
  EXPECT_EQ(delivered.load(), 0);
  transport.Stop();
}

TEST(SocketTransportHostileBytes, CorruptFrameSkippedNextFrameDelivered) {
  SocketTransport transport(2);
  std::atomic<int> delivered{0};
  std::atomic<uint64_t> got_op{0};
  transport.RegisterHandler(1, [&](Message& m) {
    if (const auto* rep = std::get_if<WriteReply>(&m.payload)) {
      got_op = rep->op;
    }
    ++delivered;
  });
  transport.RegisterHandler(0, [](Message&) {});
  ASSERT_TRUE(transport.Start().ok());

  Message bad;
  bad.from = 0;
  bad.to = 1;
  bad.seq = 1;
  bad.type = MessageType::kWriteReply;
  bad.payload = WriteReply{66, Status::OK()};
  std::vector<uint8_t> first = EncodeFrame(bad);
  first[kFrameHeaderBytes] ^= 0x40;  // payload damage: kBadCrc, framing ok

  Message good = bad;
  good.seq = 2;
  good.payload = WriteReply{77, Status::OK()};
  const std::vector<uint8_t> second = EncodeFrame(good);

  std::vector<uint8_t> stream = first;
  stream.insert(stream.end(), second.begin(), second.end());

  const int fd = ConnectTo(transport.port(1));
  ASSERT_EQ(::send(fd, stream.data(), stream.size(), 0),
            static_cast<ssize_t>(stream.size()));
  AwaitCondition([&] { return delivered.load() >= 1; });
  ::close(fd);

  // The damaged frame was rejected by CRC; the frame after it on the same
  // stream was still delivered intact.
  EXPECT_EQ(delivered.load(), 1);
  EXPECT_EQ(got_op.load(), 77u);
  EXPECT_EQ(transport.frame_counters().Get(FrameError::kBadCrc), 1u);
  transport.Stop();
}

// ---------------------------------------------------------------------------
// Chaos codec differential: framing every protocol message changes nothing.
// ---------------------------------------------------------------------------

TEST(ChaosCodecDifferential, SummaryIdenticalWithCodecOnAndOff) {
  ChaosConfig plain;
  ChaosConfig framed;
  framed.frame_codec = true;
  for (uint64_t seed : {2u, 9u}) {
    ChaosReport off = ChaosHarness(plain).Run(seed);
    ChaosReport on = ChaosHarness(framed).Run(seed);
    EXPECT_TRUE(off.ok) << off.Summary();
    EXPECT_TRUE(on.ok) << on.Summary();
    // The codec is lossless and its counters stay out of the Summary, so
    // the two runs must be byte-identical.
    EXPECT_EQ(off.Summary(), on.Summary()) << "seed " << seed;
    EXPECT_GT(on.frames_encoded, 0u);
    EXPECT_EQ(on.frames_rejected, 0u);
  }
}

// ---------------------------------------------------------------------------
// Asymmetric partition: the Network primitive under kAsymPartition.
// ---------------------------------------------------------------------------

class AsymNetworkTest : public ::testing::Test {
 protected:
  AsymNetworkTest() : net_(&sim_, NetworkModel{}, 7) {}

  void SendOne(SiteId from, SiteId to) {
    Message m;
    m.from = from;
    m.to = to;
    m.wire_bytes = 10;
    net_.Send(std::move(m));
    sim_.Run();
  }

  Simulator sim_;
  Network net_;
  int received_[4] = {0, 0, 0, 0};

  void RegisterAll() {
    for (SiteId s = 0; s < 4; ++s) {
      net_.RegisterHandler(s, [this, s](const Message&) { ++received_[s]; });
    }
  }
};

TEST_F(AsymNetworkTest, InboundBlockCutsOnlyInbound) {
  RegisterAll();
  net_.SetAsymBlock(1, /*block_inbound=*/true, /*block_outbound=*/false);
  SendOne(0, 1);  // dropped: inbound to 1 is cut
  SendOne(1, 2);  // delivered: 1 can still send
  EXPECT_EQ(received_[1], 0);
  EXPECT_EQ(received_[2], 1);
  EXPECT_EQ(net_.stats().Get("net.asym_blocked"), 1u);
}

TEST_F(AsymNetworkTest, OutboundBlockCutsOnlyOutbound) {
  RegisterAll();
  net_.SetAsymBlock(1, /*block_inbound=*/false, /*block_outbound=*/true);
  SendOne(1, 2);  // dropped: 1's outbound is cut
  SendOne(0, 1);  // delivered: 1 still hears the world
  EXPECT_EQ(received_[2], 0);
  EXPECT_EQ(received_[1], 1);
  EXPECT_EQ(net_.stats().Get("net.asym_blocked"), 1u);
}

TEST_F(AsymNetworkTest, LoopbackIsNeverCut) {
  RegisterAll();
  net_.SetAsymBlock(1, /*block_inbound=*/true, /*block_outbound=*/true);
  SendOne(1, 1);
  EXPECT_EQ(received_[1], 1);
}

TEST_F(AsymNetworkTest, InvisibleToTheCommunicationOracle) {
  RegisterAll();
  net_.SetAsymBlock(1, true, true);
  // An asymmetric failure is a fault; no failure detector gets to see
  // through it by asking the network directly.
  EXPECT_TRUE(net_.CanCommunicate(0, 1));
  EXPECT_TRUE(net_.CanCommunicate(1, 0));
}

TEST_F(AsymNetworkTest, ClearRestoresBothDirections) {
  RegisterAll();
  net_.SetAsymBlock(2, true, true);
  SendOne(0, 2);
  SendOne(2, 3);
  EXPECT_EQ(received_[2], 0);
  EXPECT_EQ(received_[3], 0);
  net_.ClearAsymBlock(2);
  SendOne(0, 2);
  SendOne(2, 3);
  EXPECT_EQ(received_[2], 1);
  EXPECT_EQ(received_[3], 1);
}

TEST(AsymFaultPlan, KindIsNamedAndPlanned) {
  // The planner draws asym direction for every plan; at least one seed in
  // a small range must schedule an asymmetric partition episode.
  FaultPlanConfig cfg;
  bool saw_asym = false;
  for (uint64_t seed = 1; seed <= 40 && !saw_asym; ++seed) {
    FaultPlan plan = FaultPlan::Random(seed, cfg);
    saw_asym = plan.ToString().find("asym_partition") != std::string::npos;
  }
  EXPECT_TRUE(saw_asym);
}

}  // namespace
}  // namespace radd
