// Frame codec tests: encode->decode identity for every live MessageType, a
// malformed-frame corpus that must be rejected cleanly (distinct
// FrameError, no crash, no out-of-bounds access — the suite runs under
// ASan/UBSan in CI), and random fuzz over DecodeFrame.

#include "net/frame.h"

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <vector>

#include "common/crc32c.h"
#include "common/rng.h"

namespace radd {
namespace {

// One representative message per type, every field away from its default
// so a missed field in the codec shows up as a re-encode mismatch.
Message MakeMessage(MessageType type) {
  Message m;
  m.from = 3;
  m.to = 5;
  m.seq = 0x1122334455667788ull;
  m.type = type;
  switch (type) {
    case MessageType::kNone:
      m.payload = std::monostate{};
      break;
    case MessageType::kReadReq:
      m.payload = ReadReq{41, 2, 7};
      break;
    case MessageType::kReadReply: {
      ReadReply v{42, Status::NotFound("gone"), Block({1, 2, 3}),
                  Uid::Make(1, 9)};
      m.payload = std::move(v);
      break;
    }
    case MessageType::kWriteReq: {
      WriteReq v;
      v.op = 43;
      v.group = 1;
      v.row = 6;
      v.home = 2;
      v.deadline = 987654;
      v.home_epoch = 11;
      v.data = Block({9, 8, 7, 6});
      m.payload = std::move(v);
      break;
    }
    case MessageType::kWriteReply:
    case MessageType::kSpareWriteReply:
      m.payload = WriteReply{44, Status::StaleEpoch("old view")};
      break;
    case MessageType::kSpareReadReq:
      m.payload = SpareReadReq{45, 3, 1, 8};
      break;
    case MessageType::kSpareReadReply:
    case MessageType::kSpareTakeReply: {
      SpareReadReply v{46, Status::OK(), Block({5, 5, 5}), Uid::Make(2, 17)};
      m.payload = std::move(v);
      break;
    }
    case MessageType::kSpareTakeReq:
    case MessageType::kSpareInvalidate:
      m.payload = SpareTakeReq{47, 1, 4, 9};
      break;
    case MessageType::kSpareWriteReq: {
      SpareWriteReq v;
      v.op = 48;
      v.group = 2;
      v.home = 3;
      v.row = 10;
      v.deadline = 123456;
      v.home_epoch = 7;
      v.data = Block({1, 3, 3, 7});
      v.uid = Uid::Make(4, 99);
      m.payload = std::move(v);
      break;
    }
    case MessageType::kSpareWriteBack: {
      SpareWriteBack v;
      v.group = 1;
      v.home = 0;
      v.row = 11;
      v.home_epoch = 3;
      v.data = Block({2, 4, 6});
      v.logical_uid = Uid::Make(5, 12);
      m.payload = std::move(v);
      break;
    }
    case MessageType::kParityUpdate:
    case MessageType::kParityAck:
    case MessageType::kParityNack:
      break;  // reserved numbers: no payload exists
    case MessageType::kParityBatch: {
      ParityBatchFrame v;
      v.batch_seq = 77;
      v.group = 2;
      ParityBatchEntry e1;
      e1.row = 4;
      e1.position = 1;
      e1.home_epoch = 5;
      e1.delta = Block({1, 1});
      e1.uid = Uid::Make(2, 8);
      e1.wire_bytes = 66;
      ParityBatchEntry e2;
      e2.row = 9;
      e2.position = 0;
      e2.home_epoch = 6;
      e2.delta = Block({2, 2, 2});
      e2.uid = Uid::Make(3, 4);
      e2.wire_bytes = 67;
      v.entries.push_back(std::move(e1));
      v.entries.push_back(std::move(e2));
      m.payload = std::move(v);
      break;
    }
    case MessageType::kParityBatchAck: {
      ParityBatchAck v;
      v.batch_seq = 78;
      v.entry_status = {Status::OK(), Status::StaleEpoch("e"), Status::OK()};
      m.payload = std::move(v);
      break;
    }
    case MessageType::kReconReq:
      m.payload = ReconReq{52, 1, 13, 3};
      break;
    case MessageType::kReconReply: {
      ReconReply v;
      v.op = 53;
      v.row = 14;
      v.status = Status::OK();
      v.data = Block({7, 7, 7, 7});
      v.uid = Uid::Make(0, 21);
      v.uid_array = {Uid::Make(0, 1), Uid(), Uid::Make(2, 3)};
      v.attempt = 2;
      m.payload = std::move(v);
      break;
    }
    case MessageType::kHeartbeat:
    case MessageType::kHbProbe:
    case MessageType::kHbProbeAck:
      m.payload = Heartbeat{424242};
      break;
  }
  return m;
}

// ---------------------------------------------------------------------------
// Identity: every type encodes, decodes, and re-encodes to the same bytes.
// ---------------------------------------------------------------------------

TEST(FrameCodec, EncodeDecodeIdentityEveryType) {
  for (size_t t = 0; t < kNumMessageTypes; ++t) {
    const MessageType type = static_cast<MessageType>(t);
    if (IsReservedMessageType(type)) continue;  // ReservedTypeDecodesAsBadType
    const Message msg = MakeMessage(type);
    const std::vector<uint8_t> frame = EncodeFrame(msg, /*stream_epoch=*/7);
    ASSERT_FALSE(frame.empty()) << MessageTypeName(type);
    ASSERT_GE(frame.size(), kFrameHeaderBytes);
    EXPECT_EQ(frame[0], 'R');
    EXPECT_EQ(frame[1], 'A');
    EXPECT_EQ(frame[2], 'D');
    EXPECT_EQ(frame[3], 'D');

    const DecodedFrame d = DecodeFrame(frame.data(), frame.size());
    ASSERT_EQ(d.error, FrameError::kOk) << MessageTypeName(type);
    EXPECT_EQ(d.frame_size, frame.size());
    EXPECT_EQ(d.stream_epoch, 7);
    EXPECT_EQ(d.msg.type, type);
    EXPECT_EQ(d.msg.from, msg.from);
    EXPECT_EQ(d.msg.to, msg.to);
    EXPECT_EQ(d.msg.seq, msg.seq);
    // Deep equality without per-struct operators: a deterministic codec
    // must reproduce the exact bytes from the decoded message.
    const std::vector<uint8_t> again = EncodeFrame(d.msg, 7);
    EXPECT_EQ(again, frame) << MessageTypeName(type);
  }
}

TEST(FrameCodec, DeepFieldRoundTrip) {
  const Message msg = MakeMessage(MessageType::kSpareWriteReq);
  const std::vector<uint8_t> frame = EncodeFrame(msg);
  const DecodedFrame d = DecodeFrame(frame.data(), frame.size());
  ASSERT_EQ(d.error, FrameError::kOk);
  const auto& req = std::get<SpareWriteReq>(d.msg.payload);
  EXPECT_EQ(req.op, 48u);
  EXPECT_EQ(req.group, 2);
  EXPECT_EQ(req.home, 3);
  EXPECT_EQ(req.row, 10u);
  EXPECT_EQ(req.deadline, 123456);
  EXPECT_EQ(req.home_epoch, 7u);
  EXPECT_EQ(req.data.bytes(), (std::vector<uint8_t>{1, 3, 3, 7}));
  EXPECT_EQ(req.uid, Uid::Make(4, 99));
}

TEST(FrameCodec, StatusMessageSurvives) {
  const Message msg = MakeMessage(MessageType::kWriteReply);
  const std::vector<uint8_t> frame = EncodeFrame(msg);
  const DecodedFrame d = DecodeFrame(frame.data(), frame.size());
  ASSERT_EQ(d.error, FrameError::kOk);
  const auto& rep = std::get<WriteReply>(d.msg.payload);
  EXPECT_TRUE(rep.status.IsStaleEpoch());
  EXPECT_EQ(rep.status.message(), "old view");
}

TEST(FrameCodec, MismatchedPayloadVariantRefusesToEncode) {
  Message m;
  m.type = MessageType::kParityBatchAck;
  m.payload = ReadReq{1, 0, 0};  // wrong alternative for the type
  EXPECT_TRUE(EncodeFrame(m).empty());
}

TEST(FrameCodec, DefaultEpochIsZero) {
  const Message msg = MakeMessage(MessageType::kParityBatchAck);
  const std::vector<uint8_t> frame = EncodeFrame(msg);
  const DecodedFrame d = DecodeFrame(frame.data(), frame.size());
  ASSERT_EQ(d.error, FrameError::kOk);
  EXPECT_EQ(d.stream_epoch, 0);
}

// ---------------------------------------------------------------------------
// Malformed corpus: every damage shape maps to its FrameError, cleanly.
// ---------------------------------------------------------------------------

TEST(FrameCodec, TruncationAtEveryPrefixLength) {
  const Message msg = MakeMessage(MessageType::kParityBatch);
  const std::vector<uint8_t> frame = EncodeFrame(msg);
  for (size_t n = 0; n < frame.size(); ++n) {
    const DecodedFrame d = DecodeFrame(frame.data(), n);
    if (n < kFrameHeaderBytes) {
      EXPECT_EQ(d.error, FrameError::kTruncatedHeader) << n;
    } else {
      EXPECT_EQ(d.error, FrameError::kTruncatedPayload) << n;
    }
  }
}

TEST(FrameCodec, BadMagic) {
  std::vector<uint8_t> frame = EncodeFrame(MakeMessage(MessageType::kReadReq));
  frame[0] ^= 0xFF;
  EXPECT_EQ(DecodeFrame(frame.data(), frame.size()).error,
            FrameError::kBadMagic);
  size_t sz = 0;
  EXPECT_EQ(PeekFrameSize(frame.data(), frame.size(), &sz),
            FrameError::kBadMagic);
}

TEST(FrameCodec, BadVersion) {
  std::vector<uint8_t> frame = EncodeFrame(MakeMessage(MessageType::kReadReq));
  frame[4] = kFrameVersion + 1;
  EXPECT_EQ(DecodeFrame(frame.data(), frame.size()).error,
            FrameError::kBadVersion);
}

TEST(FrameCodec, HostileLength) {
  std::vector<uint8_t> frame = EncodeFrame(MakeMessage(MessageType::kReadReq));
  const uint32_t huge = kMaxFramePayload + 1;
  for (int i = 0; i < 4; ++i) {
    frame[24 + static_cast<size_t>(i)] = static_cast<uint8_t>(huge >> (8 * i));
  }
  EXPECT_EQ(DecodeFrame(frame.data(), frame.size()).error,
            FrameError::kBadLength);
}

TEST(FrameCodec, PayloadBitFlipIsBadCrc) {
  std::vector<uint8_t> frame =
      EncodeFrame(MakeMessage(MessageType::kSpareWriteReq));
  frame[kFrameHeaderBytes + 3] ^= 0x10;
  EXPECT_EQ(DecodeFrame(frame.data(), frame.size()).error,
            FrameError::kBadCrc);
}

// The CRC covers the header too: damage to routing/fencing fields (from,
// to, seq, flags) must not produce a deliverable frame — a flipped `to`
// once routed a write to the wrong site and corrupted its store.
TEST(FrameCodec, HeaderBitFlipIsBadCrc) {
  const Message msg = MakeMessage(MessageType::kSpareWriteReq);
  for (const size_t offset : {6u, 7u, 8u, 12u, 16u, 23u}) {
    std::vector<uint8_t> frame = EncodeFrame(msg, 3);
    frame[offset] ^= 0x01;
    EXPECT_EQ(DecodeFrame(frame.data(), frame.size()).error,
              FrameError::kBadCrc)
        << "flip at header offset " << offset;
  }
}

TEST(FrameCodec, CrcFieldBitFlipIsBadCrc) {
  std::vector<uint8_t> frame = EncodeFrame(MakeMessage(MessageType::kReadReq));
  frame[29] ^= 0x80;
  EXPECT_EQ(DecodeFrame(frame.data(), frame.size()).error,
            FrameError::kBadCrc);
}

TEST(FrameCodec, UnknownTypeSkipsFrameButKeepsFraming) {
  std::vector<uint8_t> frame = EncodeFrame(MakeMessage(MessageType::kReadReq));
  frame[5] = 200;  // outside the MessageType enum
  const DecodedFrame d = DecodeFrame(frame.data(), frame.size());
  EXPECT_EQ(d.error, FrameError::kBadType);
  // Framing stays valid so a stream reader can skip exactly this frame.
  EXPECT_EQ(d.frame_size, frame.size());
  size_t sz = 0;
  EXPECT_EQ(PeekFrameSize(frame.data(), frame.size(), &sz),
            FrameError::kBadType);
  EXPECT_EQ(sz, frame.size());
}

TEST(FrameCodec, ReservedTypeDecodesAsBadType) {
  // A reserved type number has no payload to encode, and a well-formed
  // frame (valid CRC) carrying one is refused like an unknown type, with
  // framing kept intact.
  const std::vector<uint8_t> valid =
      EncodeFrame(MakeMessage(MessageType::kParityBatch));
  for (const MessageType type :
       {MessageType::kParityUpdate, MessageType::kParityAck,
        MessageType::kParityNack}) {
    ASSERT_TRUE(IsReservedMessageType(type));
    Message reserved;
    reserved.type = type;
    EXPECT_TRUE(EncodeFrame(reserved).empty()) << MessageTypeName(type);
    std::vector<uint8_t> frame = valid;
    frame[5] = static_cast<uint8_t>(type);
    const uint32_t len =
        static_cast<uint32_t>(frame.size() - kFrameHeaderBytes);
    const uint32_t crc = Crc32cExtend(Crc32c(frame.data(), 28),
                                      frame.data() + kFrameHeaderBytes, len);
    for (int i = 0; i < 4; ++i) {
      frame[28 + static_cast<size_t>(i)] =
          static_cast<uint8_t>(crc >> (8 * i));
    }
    const DecodedFrame d = DecodeFrame(frame.data(), frame.size());
    EXPECT_EQ(d.error, FrameError::kBadType) << MessageTypeName(type);
    EXPECT_EQ(d.frame_size, frame.size());
  }
}

TEST(FrameCodec, StructurallyShortPayloadIsBadPayload) {
  // A frame whose CRC is valid but whose payload is too short for its
  // type: 4 bytes where WriteReply needs at least 9.
  Message m;
  m.type = MessageType::kWriteReply;
  m.payload = WriteReply{1, Status::OK()};
  std::vector<uint8_t> frame = EncodeFrame(m);
  // Keep header + 4 payload bytes, restamp length and CRC like an
  // attacker who can compute checksums.
  frame.resize(kFrameHeaderBytes + 4);
  const uint32_t len = 4;
  for (int i = 0; i < 4; ++i) {
    frame[24 + static_cast<size_t>(i)] = static_cast<uint8_t>(len >> (8 * i));
  }
  uint32_t crc = Crc32cExtend(Crc32c(frame.data(), 28),
                              frame.data() + kFrameHeaderBytes, len);
  for (int i = 0; i < 4; ++i) {
    frame[28 + static_cast<size_t>(i)] = static_cast<uint8_t>(crc >> (8 * i));
  }
  EXPECT_EQ(DecodeFrame(frame.data(), frame.size()).error,
            FrameError::kBadPayload);
}

TEST(FrameCodec, TrailingGarbageAfterPayloadIsBadPayload) {
  Message m;
  m.type = MessageType::kWriteReply;
  m.payload = WriteReply{9, Status::OK()};
  std::vector<uint8_t> frame = EncodeFrame(m);
  frame.push_back(0xEE);  // one byte the decoder must refuse to ignore
  const uint32_t len =
      static_cast<uint32_t>(frame.size() - kFrameHeaderBytes);
  for (int i = 0; i < 4; ++i) {
    frame[24 + static_cast<size_t>(i)] = static_cast<uint8_t>(len >> (8 * i));
  }
  uint32_t crc = Crc32cExtend(Crc32c(frame.data(), 28),
                              frame.data() + kFrameHeaderBytes, len);
  for (int i = 0; i < 4; ++i) {
    frame[28 + static_cast<size_t>(i)] = static_cast<uint8_t>(crc >> (8 * i));
  }
  EXPECT_EQ(DecodeFrame(frame.data(), frame.size()).error,
            FrameError::kBadPayload);
}

TEST(FrameCodec, HostileElementCountIsBadPayload) {
  // A batch frame claiming 2^32-1 entries in a tiny payload must fail
  // structurally before reserving anything.
  Message m;
  m.type = MessageType::kParityBatch;
  m.payload = ParityBatchFrame{};
  std::vector<uint8_t> frame = EncodeFrame(m);
  // Entry count lives after batch_seq (8) + group (4).
  const size_t count_off = kFrameHeaderBytes + 12;
  for (int i = 0; i < 4; ++i) frame[count_off + static_cast<size_t>(i)] = 0xFF;
  const uint32_t len =
      static_cast<uint32_t>(frame.size() - kFrameHeaderBytes);
  uint32_t crc = Crc32cExtend(Crc32c(frame.data(), 28),
                              frame.data() + kFrameHeaderBytes, len);
  for (int i = 0; i < 4; ++i) {
    frame[28 + static_cast<size_t>(i)] = static_cast<uint8_t>(crc >> (8 * i));
  }
  EXPECT_EQ(DecodeFrame(frame.data(), frame.size()).error,
            FrameError::kBadPayload);
}

// ---------------------------------------------------------------------------
// Fuzz: DecodeFrame never crashes or reads out of bounds, whatever the
// input (the suite runs under ASan/UBSan in CI).
// ---------------------------------------------------------------------------

TEST(FrameCodec, FuzzRandomBuffers) {
  Rng rng(0xF0221);
  for (int iter = 0; iter < 5000; ++iter) {
    const size_t n = rng.Uniform(300);
    std::vector<uint8_t> buf(n);
    for (auto& b : buf) b = static_cast<uint8_t>(rng.Next());
    const DecodedFrame d = DecodeFrame(buf.data(), buf.size());
    EXPECT_NE(d.error, FrameError::kOk);  // 2^-32-grade luck excluded
  }
}

TEST(FrameCodec, FuzzMutatedValidFrames) {
  Rng rng(0xF0222);
  FrameCounters counters;
  for (int iter = 0; iter < 5000; ++iter) {
    MessageType type;
    do {
      type = static_cast<MessageType>(rng.Uniform(kNumMessageTypes));
    } while (IsReservedMessageType(type));
    std::vector<uint8_t> frame = EncodeFrame(MakeMessage(type), 1);
    const size_t flips = 1 + rng.Uniform(4);
    std::set<size_t> bits;
    while (bits.size() < flips) bits.insert(rng.Uniform(frame.size() * 8));
    // Distinct bits only: two flips of the same bit would cancel and
    // legitimately decode as kOk.
    for (const size_t bit : bits) {
      frame[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    }
    const DecodedFrame d = DecodeFrame(frame.data(), frame.size());
    counters.Count(d.error);
  }
  // Every rejection was counted; a flipped frame decoding as kOk would
  // require a CRC collision.
  EXPECT_EQ(counters.Get(FrameError::kOk), 0u);
  EXPECT_EQ(counters.Rejected(), 5000u);
}

// ---------------------------------------------------------------------------
// FrameCounters bookkeeping.
// ---------------------------------------------------------------------------

TEST(FrameCounters, CountsAndFormats) {
  FrameCounters c;
  c.Count(FrameError::kOk);
  c.Count(FrameError::kOk);
  c.Count(FrameError::kBadCrc);
  c.Count(FrameError::kBadMagic);
  c.Count(FrameError::kBadMagic);
  c.stale_stream.fetch_add(3);
  EXPECT_EQ(c.Get(FrameError::kOk), 2u);
  EXPECT_EQ(c.Rejected(), 3u);
  const std::string s = c.ToString();
  EXPECT_NE(s.find("decoded=2"), std::string::npos);
  EXPECT_NE(s.find("rejected=3"), std::string::npos);
  EXPECT_NE(s.find("bad_magic=2"), std::string::npos);
  EXPECT_NE(s.find("bad_crc=1"), std::string::npos);
  EXPECT_NE(s.find("stale_stream=3"), std::string::npos);
  EXPECT_EQ(s.find("bad_type"), std::string::npos);
}

}  // namespace
}  // namespace radd
