#include "net/frame.h"

#include "common/crc32c.h"

namespace radd {

std::string_view FrameErrorName(FrameError e) {
  switch (e) {
    case FrameError::kOk: return "ok";
    case FrameError::kTruncatedHeader: return "truncated_header";
    case FrameError::kBadMagic: return "bad_magic";
    case FrameError::kBadVersion: return "bad_version";
    case FrameError::kBadLength: return "bad_length";
    case FrameError::kTruncatedPayload: return "truncated_payload";
    case FrameError::kBadCrc: return "bad_crc";
    case FrameError::kBadType: return "bad_type";
    case FrameError::kBadPayload: return "bad_payload";
  }
  return "?";
}

std::string FrameCounters::ToString() const {
  std::string out = "decoded=" + std::to_string(Get(FrameError::kOk)) +
                    " rejected=" + std::to_string(Rejected());
  for (size_t i = 1; i < kNumFrameErrors; ++i) {
    const uint64_t n = by_error[i].load(std::memory_order_relaxed);
    if (n == 0) continue;
    out += " " + std::string(FrameErrorName(static_cast<FrameError>(i))) +
           "=" + std::to_string(n);
  }
  const uint64_t stale = stale_stream.load(std::memory_order_relaxed);
  if (stale != 0) out += " stale_stream=" + std::to_string(stale);
  return out;
}

namespace {

// --- little-endian primitives ----------------------------------------------

void Put16(std::vector<uint8_t>* b, uint16_t v) {
  b->push_back(static_cast<uint8_t>(v));
  b->push_back(static_cast<uint8_t>(v >> 8));
}
void Put32(std::vector<uint8_t>* b, uint32_t v) {
  for (int i = 0; i < 4; ++i) b->push_back(static_cast<uint8_t>(v >> (8 * i)));
}
void Put64(std::vector<uint8_t>* b, uint64_t v) {
  for (int i = 0; i < 8; ++i) b->push_back(static_cast<uint8_t>(v >> (8 * i)));
}
uint16_t Load16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0] | (p[1] << 8));
}
uint32_t Load32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}
uint64_t Load64(const uint8_t* p) {
  return static_cast<uint64_t>(Load32(p)) |
         (static_cast<uint64_t>(Load32(p + 4)) << 32);
}

// --- payload writer ---------------------------------------------------------

class Writer {
 public:
  explicit Writer(std::vector<uint8_t>* buf) : buf_(buf) {}
  void U8(uint8_t v) { buf_->push_back(v); }
  void U32(uint32_t v) { Put32(buf_, v); }
  void U64(uint64_t v) { Put64(buf_, v); }
  void I32(int32_t v) { Put32(buf_, static_cast<uint32_t>(v)); }
  void UidV(Uid u) { Put64(buf_, u.raw()); }
  void Str(const std::string& s) {
    Put32(buf_, static_cast<uint32_t>(s.size()));
    buf_->insert(buf_->end(), s.begin(), s.end());
  }
  void Stat(const Status& st) {
    U8(static_cast<uint8_t>(st.code()));
    if (!st.ok()) Str(st.message());
  }
  void Blk(const Block& b) {
    Put32(buf_, static_cast<uint32_t>(b.size()));
    buf_->insert(buf_->end(), b.data(), b.data() + b.size());
  }

 private:
  std::vector<uint8_t>* buf_;
};

// --- bounds-checked payload reader ------------------------------------------

class Reader {
 public:
  Reader(const uint8_t* data, size_t size) : p_(data), n_(size) {}

  bool ok() const { return ok_; }
  /// A well-formed payload is consumed exactly; trailing bytes mean the
  /// frame was built by something else (or corrupted undetectably by CRC,
  /// which for random corruption is a 2^-32 event).
  bool Done() const { return ok_ && off_ == n_; }
  size_t Remaining() const { return ok_ ? n_ - off_ : 0; }

  uint8_t U8() {
    if (!Need(1)) return 0;
    return p_[off_++];
  }
  uint32_t U32() {
    if (!Need(4)) return 0;
    uint32_t v = Load32(p_ + off_);
    off_ += 4;
    return v;
  }
  uint64_t U64() {
    if (!Need(8)) return 0;
    uint64_t v = Load64(p_ + off_);
    off_ += 8;
    return v;
  }
  int32_t I32() { return static_cast<int32_t>(U32()); }
  /// Marks the payload structurally invalid (hostile element counts).
  void Fail() { ok_ = false; }
  Uid UidV() { return Uid(U64()); }
  std::string Str() {
    const uint32_t len = U32();
    if (!Need(len)) return {};
    std::string s(reinterpret_cast<const char*>(p_ + off_), len);
    off_ += len;
    return s;
  }
  Status Stat() {
    const uint8_t code = U8();
    if (code > static_cast<uint8_t>(StatusCode::kStaleEpoch)) {
      ok_ = false;
      return Status::OK();
    }
    if (code == 0) return Status::OK();
    std::string msg = Str();
    if (!ok_) return Status::OK();
    return Status(static_cast<StatusCode>(code), std::move(msg));
  }
  Block Blk() {
    const uint32_t len = U32();
    if (!Need(len)) return Block{0};
    std::vector<uint8_t> bytes(p_ + off_, p_ + off_ + len);
    off_ += len;
    return Block(std::move(bytes));
  }

 private:
  bool Need(size_t k) {
    if (!ok_ || n_ - off_ < k) {
      ok_ = false;
      return false;
    }
    return true;
  }
  const uint8_t* p_;
  size_t n_;
  size_t off_ = 0;
  bool ok_ = true;
};

// --- per-struct serializers -------------------------------------------------
// One Enc/Dec pair per payload struct. Field order is the struct's
// declaration order; every integer is fixed-width LE (see frame.h).

void Enc(Writer& w, const ReadReq& v) {
  w.U64(v.op);
  w.I32(v.group);
  w.U64(v.row);
}
ReadReq DecReadReq(Reader& r) {
  ReadReq v;
  v.op = r.U64();
  v.group = r.I32();
  v.row = r.U64();
  return v;
}

void Enc(Writer& w, const ReadReply& v) {
  w.U64(v.op);
  w.Stat(v.status);
  w.Blk(v.data);
  w.UidV(v.uid);
}
ReadReply DecReadReply(Reader& r) {
  ReadReply v;
  v.op = r.U64();
  v.status = r.Stat();
  v.data = r.Blk();
  v.uid = r.UidV();
  return v;
}

void Enc(Writer& w, const WriteReq& v) {
  w.U64(v.op);
  w.I32(v.group);
  w.U64(v.row);
  w.I32(v.home);
  w.U64(v.deadline);
  w.U64(v.home_epoch);
  w.Blk(v.data);
}
WriteReq DecWriteReq(Reader& r) {
  WriteReq v;
  v.op = r.U64();
  v.group = r.I32();
  v.row = r.U64();
  v.home = r.I32();
  v.deadline = r.U64();
  v.home_epoch = r.U64();
  v.data = r.Blk();
  return v;
}

void Enc(Writer& w, const WriteReply& v) {
  w.U64(v.op);
  w.Stat(v.status);
}
WriteReply DecWriteReply(Reader& r) {
  WriteReply v;
  v.op = r.U64();
  v.status = r.Stat();
  return v;
}

void Enc(Writer& w, const SpareReadReq& v) {
  w.U64(v.op);
  w.I32(v.group);
  w.I32(v.home);
  w.U64(v.row);
}
SpareReadReq DecSpareReadReq(Reader& r) {
  SpareReadReq v;
  v.op = r.U64();
  v.group = r.I32();
  v.home = r.I32();
  v.row = r.U64();
  return v;
}

void Enc(Writer& w, const SpareReadReply& v) {
  w.U64(v.op);
  w.Stat(v.status);
  w.Blk(v.data);
  w.UidV(v.logical_uid);
}
SpareReadReply DecSpareReadReply(Reader& r) {
  SpareReadReply v;
  v.op = r.U64();
  v.status = r.Stat();
  v.data = r.Blk();
  v.logical_uid = r.UidV();
  return v;
}

void Enc(Writer& w, const SpareTakeReq& v) {
  w.U64(v.op);
  w.I32(v.group);
  w.I32(v.home);
  w.U64(v.row);
}
SpareTakeReq DecSpareTakeReq(Reader& r) {
  SpareTakeReq v;
  v.op = r.U64();
  v.group = r.I32();
  v.home = r.I32();
  v.row = r.U64();
  return v;
}

void Enc(Writer& w, const SpareWriteReq& v) {
  w.U64(v.op);
  w.I32(v.group);
  w.I32(v.home);
  w.U64(v.row);
  w.U64(v.deadline);
  w.U64(v.home_epoch);
  w.Blk(v.data);
  w.UidV(v.uid);
}
SpareWriteReq DecSpareWriteReq(Reader& r) {
  SpareWriteReq v;
  v.op = r.U64();
  v.group = r.I32();
  v.home = r.I32();
  v.row = r.U64();
  v.deadline = r.U64();
  v.home_epoch = r.U64();
  v.data = r.Blk();
  v.uid = r.UidV();
  return v;
}

void Enc(Writer& w, const SpareWriteBack& v) {
  w.I32(v.group);
  w.I32(v.home);
  w.U64(v.row);
  w.U64(v.home_epoch);
  w.Blk(v.data);
  w.UidV(v.logical_uid);
}
SpareWriteBack DecSpareWriteBack(Reader& r) {
  SpareWriteBack v;
  v.group = r.I32();
  v.home = r.I32();
  v.row = r.U64();
  v.home_epoch = r.U64();
  v.data = r.Blk();
  v.logical_uid = r.UidV();
  return v;
}

void Enc(Writer& w, const ParityBatchFrame& v) {
  w.U64(v.batch_seq);
  w.I32(v.group);
  w.U32(static_cast<uint32_t>(v.entries.size()));
  for (const ParityBatchEntry& e : v.entries) {
    w.U64(e.row);
    w.I32(e.position);
    w.U64(e.home_epoch);
    w.Blk(e.delta);
    w.UidV(e.uid);
    w.U64(e.wire_bytes);
  }
}
ParityBatchFrame DecParityBatchFrame(Reader& r) {
  ParityBatchFrame v;
  v.batch_seq = r.U64();
  v.group = r.I32();
  const uint32_t count = r.U32();
  // Each entry occupies at least 36 bytes; a count claiming more entries
  // than the remaining bytes could hold is hostile — bail before
  // reserving anything.
  if (static_cast<uint64_t>(count) * 36 > r.Remaining()) {
    r.Fail();
    return v;
  }
  v.entries.reserve(count);
  for (uint32_t i = 0; i < count && r.ok(); ++i) {
    ParityBatchEntry e;
    e.row = r.U64();
    e.position = r.I32();
    e.home_epoch = r.U64();
    e.delta = r.Blk();
    e.uid = r.UidV();
    e.wire_bytes = r.U64();
    v.entries.push_back(std::move(e));
  }
  return v;
}

void Enc(Writer& w, const ParityBatchAck& v) {
  w.U64(v.batch_seq);
  w.U32(static_cast<uint32_t>(v.entry_status.size()));
  for (const Status& st : v.entry_status) w.Stat(st);
}
ParityBatchAck DecParityBatchAck(Reader& r) {
  ParityBatchAck v;
  v.batch_seq = r.U64();
  const uint32_t count = r.U32();
  if (static_cast<uint64_t>(count) > r.Remaining()) {  // >= 1 byte each
    r.Fail();
    return v;
  }
  v.entry_status.reserve(count);
  for (uint32_t i = 0; i < count && r.ok(); ++i) {
    v.entry_status.push_back(r.Stat());
  }
  return v;
}

void Enc(Writer& w, const ReconReq& v) {
  w.U64(v.op);
  w.I32(v.group);
  w.U64(v.row);
  w.I32(v.attempt);
}
ReconReq DecReconReq(Reader& r) {
  ReconReq v;
  v.op = r.U64();
  v.group = r.I32();
  v.row = r.U64();
  v.attempt = r.I32();
  return v;
}

void Enc(Writer& w, const ReconReply& v) {
  w.U64(v.op);
  w.U64(v.row);
  w.Stat(v.status);
  w.Blk(v.data);
  w.UidV(v.uid);
  w.U32(static_cast<uint32_t>(v.uid_array.size()));
  for (Uid u : v.uid_array) w.UidV(u);
  w.I32(v.attempt);
}
ReconReply DecReconReply(Reader& r) {
  ReconReply v;
  v.op = r.U64();
  v.row = r.U64();
  v.status = r.Stat();
  v.data = r.Blk();
  v.uid = r.UidV();
  const uint32_t count = r.U32();
  if (static_cast<uint64_t>(count) * 8 > r.Remaining()) {
    r.Fail();
    return v;
  }
  v.uid_array.reserve(count);
  for (uint32_t i = 0; i < count && r.ok(); ++i) {
    v.uid_array.push_back(r.UidV());
  }
  v.attempt = r.I32();
  return v;
}

void Enc(Writer& w, const Heartbeat& v) { w.U64(v.sent_at); }
Heartbeat DecHeartbeat(Reader& r) { return Heartbeat{r.U64()}; }

// --- type dispatch ----------------------------------------------------------
// Several MessageTypes share one payload struct (e.g. kSpareTakeReply
// travels as a SpareReadReply); this is the senders' mapping in
// core/node.cc and cluster/heartbeat.cc.

/// Serializes the payload for `type`; false if the variant holds a
/// different alternative than the type calls for (caller bug).
bool EncodePayload(Writer& w, MessageType type, const Payload& p) {
  switch (type) {
    case MessageType::kNone:
      return std::holds_alternative<std::monostate>(p);
    case MessageType::kReadReq:
      if (!std::holds_alternative<ReadReq>(p)) return false;
      Enc(w, std::get<ReadReq>(p));
      return true;
    case MessageType::kReadReply:
      if (!std::holds_alternative<ReadReply>(p)) return false;
      Enc(w, std::get<ReadReply>(p));
      return true;
    case MessageType::kWriteReq:
      if (!std::holds_alternative<WriteReq>(p)) return false;
      Enc(w, std::get<WriteReq>(p));
      return true;
    case MessageType::kWriteReply:
    case MessageType::kSpareWriteReply:
      if (!std::holds_alternative<WriteReply>(p)) return false;
      Enc(w, std::get<WriteReply>(p));
      return true;
    case MessageType::kSpareReadReq:
      if (!std::holds_alternative<SpareReadReq>(p)) return false;
      Enc(w, std::get<SpareReadReq>(p));
      return true;
    case MessageType::kSpareReadReply:
    case MessageType::kSpareTakeReply:
      if (!std::holds_alternative<SpareReadReply>(p)) return false;
      Enc(w, std::get<SpareReadReply>(p));
      return true;
    case MessageType::kSpareTakeReq:
    case MessageType::kSpareInvalidate:
      if (!std::holds_alternative<SpareTakeReq>(p)) return false;
      Enc(w, std::get<SpareTakeReq>(p));
      return true;
    case MessageType::kSpareWriteReq:
      if (!std::holds_alternative<SpareWriteReq>(p)) return false;
      Enc(w, std::get<SpareWriteReq>(p));
      return true;
    case MessageType::kSpareWriteBack:
      if (!std::holds_alternative<SpareWriteBack>(p)) return false;
      Enc(w, std::get<SpareWriteBack>(p));
      return true;
    case MessageType::kParityUpdate:
    case MessageType::kParityAck:
    case MessageType::kParityNack:
      return false;  // reserved: no payload exists
    case MessageType::kParityBatch:
      if (!std::holds_alternative<ParityBatchFrame>(p)) return false;
      Enc(w, std::get<ParityBatchFrame>(p));
      return true;
    case MessageType::kParityBatchAck:
      if (!std::holds_alternative<ParityBatchAck>(p)) return false;
      Enc(w, std::get<ParityBatchAck>(p));
      return true;
    case MessageType::kReconReq:
      if (!std::holds_alternative<ReconReq>(p)) return false;
      Enc(w, std::get<ReconReq>(p));
      return true;
    case MessageType::kReconReply:
      if (!std::holds_alternative<ReconReply>(p)) return false;
      Enc(w, std::get<ReconReply>(p));
      return true;
    case MessageType::kHeartbeat:
    case MessageType::kHbProbe:
    case MessageType::kHbProbeAck:
      if (!std::holds_alternative<Heartbeat>(p)) return false;
      Enc(w, std::get<Heartbeat>(p));
      return true;
  }
  return false;
}

/// Parses the payload for `type` into `*out`; false on structural failure.
bool DecodePayload(Reader& r, MessageType type, Payload* out) {
  switch (type) {
    case MessageType::kNone:
      *out = std::monostate{};
      break;
    case MessageType::kReadReq:
      *out = DecReadReq(r);
      break;
    case MessageType::kReadReply:
      *out = DecReadReply(r);
      break;
    case MessageType::kWriteReq:
      *out = DecWriteReq(r);
      break;
    case MessageType::kWriteReply:
    case MessageType::kSpareWriteReply:
      *out = DecWriteReply(r);
      break;
    case MessageType::kSpareReadReq:
      *out = DecSpareReadReq(r);
      break;
    case MessageType::kSpareReadReply:
    case MessageType::kSpareTakeReply:
      *out = DecSpareReadReply(r);
      break;
    case MessageType::kSpareTakeReq:
    case MessageType::kSpareInvalidate:
      *out = DecSpareTakeReq(r);
      break;
    case MessageType::kSpareWriteReq:
      *out = DecSpareWriteReq(r);
      break;
    case MessageType::kSpareWriteBack:
      *out = DecSpareWriteBack(r);
      break;
    case MessageType::kParityUpdate:
    case MessageType::kParityAck:
    case MessageType::kParityNack:
      return false;  // reserved; PeekFrameSize already refused it
    case MessageType::kParityBatch:
      *out = DecParityBatchFrame(r);
      break;
    case MessageType::kParityBatchAck:
      *out = DecParityBatchAck(r);
      break;
    case MessageType::kReconReq:
      *out = DecReconReq(r);
      break;
    case MessageType::kReconReply:
      *out = DecReconReply(r);
      break;
    case MessageType::kHeartbeat:
    case MessageType::kHbProbe:
    case MessageType::kHbProbeAck:
      *out = DecHeartbeat(r);
      break;
  }
  return r.Done();
}

}  // namespace

std::vector<uint8_t> EncodeFrame(const Message& msg, uint16_t stream_epoch) {
  std::vector<uint8_t> buf;
  buf.reserve(kFrameHeaderBytes + 64);
  Put32(&buf, kFrameMagic);
  buf.push_back(kFrameVersion);
  buf.push_back(static_cast<uint8_t>(msg.type));
  Put16(&buf, stream_epoch);
  Put32(&buf, msg.from);
  Put32(&buf, msg.to);
  Put64(&buf, msg.seq);
  Put32(&buf, 0);  // payload_len, patched below
  Put32(&buf, 0);  // frame_crc, patched below

  Writer w(&buf);
  if (!EncodePayload(w, msg.type, msg.payload)) return {};

  const size_t payload_len = buf.size() - kFrameHeaderBytes;
  // Patch the length slot first: it is inside the checksummed span.
  for (int i = 0; i < 4; ++i) {
    buf[24 + static_cast<size_t>(i)] =
        static_cast<uint8_t>(payload_len >> (8 * i));
  }
  // The CRC covers the whole frame except its own field: header bytes
  // [0, 28) plus the payload. Payload-only coverage once let a bit flip in
  // the `to` field deliver a frame to the wrong site undetected — routing
  // and fencing fields need integrity exactly as much as the data does.
  const uint32_t crc = Crc32cExtend(Crc32c(buf.data(), 28),
                                    buf.data() + kFrameHeaderBytes,
                                    payload_len);
  for (int i = 0; i < 4; ++i) {
    buf[28 + static_cast<size_t>(i)] = static_cast<uint8_t>(crc >> (8 * i));
  }
  return buf;
}

FrameError PeekFrameSize(const uint8_t* data, size_t size,
                         size_t* frame_size) {
  if (size < kFrameHeaderBytes) return FrameError::kTruncatedHeader;
  if (Load32(data) != kFrameMagic) return FrameError::kBadMagic;
  if (data[4] != kFrameVersion) return FrameError::kBadVersion;
  const uint32_t payload_len = Load32(data + 24);
  if (payload_len > kMaxFramePayload) return FrameError::kBadLength;
  // Past this point the framing itself is trustworthy, so frame_size is
  // reported even for a bad type byte: a stream reader can skip exactly
  // this frame and stay synchronized.
  *frame_size = kFrameHeaderBytes + payload_len;
  if (data[5] >= kNumMessageTypes ||
      IsReservedMessageType(static_cast<MessageType>(data[5]))) {
    return FrameError::kBadType;
  }
  return FrameError::kOk;
}

DecodedFrame DecodeFrame(const uint8_t* data, size_t size) {
  DecodedFrame out;
  size_t frame_size = 0;
  out.error = PeekFrameSize(data, size, &frame_size);
  out.frame_size = frame_size;
  if (out.error != FrameError::kOk) return out;
  const uint32_t payload_len = Load32(data + 24);
  if (size < frame_size) {
    out.error = FrameError::kTruncatedPayload;
    return out;
  }
  const uint32_t want_crc = Load32(data + 28);
  if (Crc32cExtend(Crc32c(data, 28), data + kFrameHeaderBytes,
                   payload_len) != want_crc) {
    out.error = FrameError::kBadCrc;
    return out;
  }
  out.stream_epoch = Load16(data + 6);
  out.msg.type = static_cast<MessageType>(data[5]);
  out.msg.from = Load32(data + 8);
  out.msg.to = Load32(data + 12);
  out.msg.seq = Load64(data + 16);
  Reader r(data + kFrameHeaderBytes, payload_len);
  if (!DecodePayload(r, out.msg.type, &out.msg.payload)) {
    out.error = FrameError::kBadPayload;
    out.msg = Message{};
  }
  return out;
}

}  // namespace radd
