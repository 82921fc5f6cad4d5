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

// The wire format itself, pinned: the frame length and CRC32C of every
// representative message. Any change to a payload's field order or field
// encoding moves one of these; a format change must bump kFrameVersion.
TEST(FrameCodec, EncodingIsPinnedEveryType) {
  struct Pin {
    MessageType type;
    size_t size;
    uint32_t crc;
  };
  const Pin kPins[] = {
      {MessageType::kNone, 32, 0x48674bc7u},
      {MessageType::kReadReq, 52, 0x48bb4450u},
      {MessageType::kReadReply, 64, 0xbd5a6773u},
      {MessageType::kWriteReq, 80, 0x94d22d43u},
      {MessageType::kWriteReply, 53, 0xdb97cd06u},
      {MessageType::kSpareReadReq, 56, 0xfcbfafcbu},
      {MessageType::kSpareReadReply, 56, 0xb6ce73eau},
      {MessageType::kSpareTakeReq, 56, 0x55b7675bu},
      {MessageType::kSpareTakeReply, 56, 0x61b0a655u},
      {MessageType::kSpareInvalidate, 56, 0x82c9b2e4u},
      {MessageType::kSpareWriteReq, 88, 0x278ca6cbu},
      {MessageType::kSpareWriteReply, 53, 0x679e7f26u},
      {MessageType::kSpareWriteBack, 71, 0xf1f3f1dbu},
      {MessageType::kParityBatch, 133, 0x3e044301u},
      {MessageType::kParityBatchAck, 52, 0x0649e4adu},
      {MessageType::kReconReq, 56, 0xe335d911u},
      {MessageType::kReconReply, 97, 0x788de16cu},
      {MessageType::kHeartbeat, 40, 0x1db4af63u},
      {MessageType::kHbProbe, 40, 0xae2912d1u},
      {MessageType::kHbProbeAck, 40, 0x7f63a2f6u},
  };
  size_t pinned = 0;
  for (const Pin& pin : kPins) {
    const std::vector<uint8_t> frame = EncodeFrame(MakeMessage(pin.type));
    EXPECT_EQ(frame.size(), pin.size) << MessageTypeName(pin.type);
    EXPECT_EQ(Crc32c(frame.data(), frame.size()), pin.crc)
        << MessageTypeName(pin.type);
    ++pinned;
  }
  size_t live = 0;
  for (size_t t = 0; t < kNumMessageTypes; ++t) {
    if (!IsReservedMessageType(static_cast<MessageType>(t))) ++live;
  }
  EXPECT_EQ(pinned, live);
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
// CRC32C kernels: the hardware kernel and the table fallback agree with the
// standard and with each other on every shape the codec feeds them.
// ---------------------------------------------------------------------------

/// Restamps a damaged frame's CRC the way the codec computes it, like an
/// attacker who can compute checksums.
void Restamp(std::vector<uint8_t>* frame) {
  const uint32_t len =
      static_cast<uint32_t>(frame->size() - kFrameHeaderBytes);
  const uint32_t crc = Crc32cExtend(Crc32c(frame->data(), 28),
                                    frame->data() + kFrameHeaderBytes, len);
  for (int i = 0; i < 4; ++i) {
    (*frame)[28 + static_cast<size_t>(i)] =
        static_cast<uint8_t>(crc >> (8 * i));
  }
}

/// The damage shapes of the malformed-frame tests above, plus mutated
/// frames of every type.
std::vector<std::vector<uint8_t>> MalformedCorpus() {
  std::vector<std::vector<uint8_t>> corpus;
  const std::vector<uint8_t> batch =
      EncodeFrame(MakeMessage(MessageType::kParityBatch));
  for (size_t n = 0; n < batch.size(); ++n) {
    corpus.emplace_back(batch.begin(), batch.begin() + static_cast<long>(n));
  }
  const std::vector<uint8_t> read =
      EncodeFrame(MakeMessage(MessageType::kReadReq));
  for (const size_t offset : {0u, 4u, 5u, 24u, 29u}) {
    corpus.push_back(read);
    corpus.back()[offset] ^= 0xFF;
  }
  const std::vector<uint8_t> spare =
      EncodeFrame(MakeMessage(MessageType::kSpareWriteReq), 3);
  for (const size_t offset : {size_t{6}, size_t{7}, size_t{8}, size_t{12},
                              size_t{16}, size_t{23},
                              kFrameHeaderBytes + 3}) {
    corpus.push_back(spare);
    corpus.back()[offset] ^= 0x10;
  }
  Message reply;
  reply.type = MessageType::kWriteReply;
  reply.payload = WriteReply{1, Status::OK()};
  std::vector<uint8_t> short_payload = EncodeFrame(reply);
  short_payload.resize(kFrameHeaderBytes + 4);
  Restamp(&short_payload);
  corpus.push_back(short_payload);
  std::vector<uint8_t> trailing = EncodeFrame(reply);
  trailing.push_back(0xEE);
  Restamp(&trailing);
  corpus.push_back(trailing);
  Rng rng(0xF0223);
  for (size_t t = 0; t < kNumMessageTypes; ++t) {
    const MessageType type = static_cast<MessageType>(t);
    if (IsReservedMessageType(type)) continue;
    for (int k = 0; k < 8; ++k) {
      std::vector<uint8_t> frame = EncodeFrame(MakeMessage(type), 1);
      const uint64_t bit = rng.Uniform(frame.size() * 8);
      frame[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      corpus.push_back(std::move(frame));
    }
  }
  return corpus;
}

TEST(Crc32cKernels, Rfc3720CheckValues) {
  const uint8_t digits[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(Crc32c(digits, sizeof(digits)), 0xE3069283u);
  EXPECT_EQ(internal::Crc32cExtendTable(0, digits, sizeof(digits)),
            0xE3069283u);
  // RFC 3720 B.4: 32 zero bytes, 32 0xFF bytes, bytes 0..31.
  std::vector<uint8_t> zeros(32, 0), ones(32, 0xFF), ramp(32);
  for (size_t i = 0; i < ramp.size(); ++i) ramp[i] = static_cast<uint8_t>(i);
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
  EXPECT_EQ(Crc32c(ones.data(), ones.size()), 0x62A8AB43u);
  EXPECT_EQ(Crc32c(ramp.data(), ramp.size()), 0x46DD794Eu);
  EXPECT_EQ(Crc32c(nullptr, 0), 0u);
}

TEST(Crc32cKernels, HardwareMatchesTableAtEveryLengthAndAlignment) {
  if (!internal::HardwareCrc32c()) GTEST_SKIP() << "no SSE4.2 + PCLMUL";
  Rng rng(0xC5C);
  std::vector<uint8_t> buf(8192 + 8);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.Next());
  for (size_t align = 0; align < 8; ++align) {
    const uint8_t* p = buf.data() + align;
    // The table CRC of each prefix, one byte further each step.
    uint32_t table = internal::Crc32cExtendTable(0, p, 0);
    for (size_t n = 0; n <= 8192; ++n) {
      if (n > 0) table = internal::Crc32cExtendTable(table, p + n - 1, 1);
      ASSERT_EQ(internal::Crc32cExtendHardware(0, p, n), table)
          << "n=" << n << " align=" << align;
    }
    EXPECT_EQ(internal::Crc32cExtendTable(0, p, 8192), table);
  }
}

TEST(Crc32cKernels, EverySplitPointOfA4KiBFrame) {
  Message m = MakeMessage(MessageType::kWriteReq);
  WriteReq& req = std::get<WriteReq>(m.payload);
  req.data = Block(4096);
  req.data.FillPattern(17);
  const std::vector<uint8_t> frame = EncodeFrame(m);
  ASSERT_GT(frame.size(), 4096u);
  const uint8_t* p = frame.data();
  const size_t n = frame.size();
  const uint32_t whole = internal::Crc32cExtendTable(0, p, n);
  EXPECT_EQ(Crc32c(p, n), whole);
  const bool hw = internal::HardwareCrc32c();
  for (size_t split = 0; split <= n; ++split) {
    const uint32_t head = internal::Crc32cExtendTable(0, p, split);
    ASSERT_EQ(internal::Crc32cExtendTable(head, p + split, n - split), whole)
        << split;
    ASSERT_EQ(Crc32cExtend(Crc32c(p, split), p + split, n - split), whole)
        << split;
    if (hw) {
      ASSERT_EQ(internal::Crc32cExtendHardware(
                    internal::Crc32cExtendHardware(0, p, split), p + split,
                    n - split),
                whole)
          << split;
    }
  }
}

TEST(Crc32cKernels, MalformedCorpusHashesAlikeAndIsRejected) {
  const bool hw = internal::HardwareCrc32c();
  for (const std::vector<uint8_t>& frame : MalformedCorpus()) {
    EXPECT_NE(DecodeFrame(frame.data(), frame.size()).error, FrameError::kOk);
    const uint32_t table =
        internal::Crc32cExtendTable(0, frame.data(), frame.size());
    EXPECT_EQ(Crc32c(frame.data(), frame.size()), table);
    if (frame.size() < kFrameHeaderBytes) continue;
    // The codec's own split: header up to the CRC field, then payload.
    const size_t payload = frame.size() - kFrameHeaderBytes;
    const uint32_t head = internal::Crc32cExtendTable(0, frame.data(), 28);
    const uint32_t want = internal::Crc32cExtendTable(
        head, frame.data() + kFrameHeaderBytes, payload);
    EXPECT_EQ(Crc32cExtend(Crc32c(frame.data(), 28),
                           frame.data() + kFrameHeaderBytes, payload),
              want);
    if (hw) {
      EXPECT_EQ(internal::Crc32cExtendHardware(0, frame.data(), frame.size()),
                table);
      EXPECT_EQ(internal::Crc32cExtendHardware(
                    internal::Crc32cExtendHardware(0, frame.data(), 28),
                    frame.data() + kFrameHeaderBytes, payload),
                want);
    }
  }
}

TEST(Crc32cKernels, FusedXorApplyMatchesSeparatePasses) {
  Rng rng(0xC5D);
  std::vector<uint8_t> data(8192 + 8), delta(8192 + 8);
  for (auto& b : data) b = static_cast<uint8_t>(rng.Next());
  for (auto& b : delta) b = static_cast<uint8_t>(rng.Next());
  const bool hw = internal::HardwareCrc32c();
  for (size_t n = 0; n <= 8192; n += (n < 200 ? 1 : 61)) {
    const size_t align = n % 8;
    std::vector<uint8_t> want = data;
    for (size_t i = 0; i < n; ++i) want[align + i] ^= delta[align + i];
    const uint32_t want_before = Crc32c(data.data() + align, n);
    const uint32_t want_after = Crc32c(want.data() + align, n);

    std::vector<uint8_t> got = data;
    uint32_t before = 0;
    EXPECT_EQ(internal::Crc32cXorApplyTable(got.data() + align,
                                            delta.data() + align, n, &before),
              want_after)
        << n;
    EXPECT_EQ(before, want_before) << n;
    EXPECT_EQ(got, want) << n;
    if (hw) {
      got = data;
      before = 0;
      EXPECT_EQ(internal::Crc32cXorApplyHardware(
                    got.data() + align, delta.data() + align, n, &before),
                want_after)
          << n;
      EXPECT_EQ(before, want_before) << n;
      EXPECT_EQ(got, want) << n;
    }
  }
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
