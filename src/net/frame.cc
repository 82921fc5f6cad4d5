#include "net/frame.h"

#include <concepts>
#include <tuple>
#include <type_traits>
#include <utility>

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

template <class T>
void StoreLE(uint8_t* p, T v) {
  for (size_t i = 0; i < sizeof(T); ++i) {
    p[i] = static_cast<uint8_t>(v >> (8 * i));
  }
}
template <class T>
void PutLE(std::vector<uint8_t>* b, T v) {
  for (size_t i = 0; i < sizeof(T); ++i) {
    b->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}
template <class T>
T LoadLE(const uint8_t* p) {
  T v = 0;
  for (size_t i = 0; i < sizeof(T); ++i) {
    v = static_cast<T>(v | static_cast<T>(p[i]) << (8 * i));
  }
  return v;
}

// --- payload codec ----------------------------------------------------------
// A payload is its Fields() (net/wire.h) in order, each written by type:
// an integer as fixed-width little-endian (int as i32; uint64_t and size_t
// as u64); Uid as its raw u64; Status as a u8 code, then its message as a
// u32-length run unless OK; Block as a u32-length run; a vector as a u32
// count and the elements.

template <class T>
concept HasFields = requires(T& v) { Fields(v); };

template <class T>
constexpr bool kIsVector = false;
template <class T>
constexpr bool kIsVector<std::vector<T>> = true;

/// Fewest bytes any value of field type T encodes to; the decoder checks
/// a vector's element count against its element's before reserving.
template <class T>
constexpr size_t MinBytes() {
  if constexpr (HasFields<T>) {
    using Tie = decltype(Fields(std::declval<T&>()));
    return []<size_t... I>(std::index_sequence<I...>) {
      return (MinBytes<std::remove_cvref_t<std::tuple_element_t<I, Tie>>>() +
              ... + 0);
    }(std::make_index_sequence<std::tuple_size_v<Tie>>());
  } else if constexpr (std::is_integral_v<T>) {
    return sizeof(T);
  } else if constexpr (std::is_same_v<T, Uid>) {
    return sizeof(uint64_t);
  } else if constexpr (std::is_same_v<T, Status>) {
    return sizeof(uint8_t);  // an OK status is its code alone
  } else {
    static_assert(std::is_same_v<T, Block> || kIsVector<T>);
    return sizeof(uint32_t);  // an empty run
  }
}

class Writer {
 public:
  explicit Writer(std::vector<uint8_t>* buf) : buf_(buf) {}

  template <std::integral T>
  void Put(T v) {
    PutLE(buf_, static_cast<std::make_unsigned_t<T>>(v));
  }
  void Put(Uid u) { Put(u.raw()); }
  void Put(const Status& st) {
    Put(static_cast<uint8_t>(st.code()));
    if (!st.ok()) Run(st.message().data(), st.message().size());
  }
  void Put(const Block& b) { Run(b.data(), b.size()); }
  template <class T>
  void Put(const std::vector<T>& v) {
    Put(static_cast<uint32_t>(v.size()));
    for (const T& e : v) Put(e);
  }
  template <HasFields T>
  void Put(const T& v) {
    std::apply([this](const auto&... f) { (Put(f), ...); }, Fields(v));
  }
  void Put(std::monostate) {}

 private:
  void Run(const void* data, size_t n) {
    Put(static_cast<uint32_t>(n));
    const auto* p = static_cast<const uint8_t*>(data);
    buf_->insert(buf_->end(), p, p + n);
  }

  std::vector<uint8_t>* buf_;
};

/// Bounds-checked: a read past the end marks the payload invalid and
/// leaves the field at its default, so decoding never reads out of bounds.
class Reader {
 public:
  Reader(const uint8_t* data, size_t size) : p_(data), n_(size) {}

  /// A well-formed payload is consumed exactly; trailing bytes mean the
  /// frame was built by something else (or corrupted undetectably by CRC,
  /// which for random corruption is a 2^-32 event).
  bool Done() const { return ok_ && off_ == n_; }

  template <std::integral T>
  void Get(T& v) {
    if (!Need(sizeof(T))) return;
    v = static_cast<T>(LoadLE<std::make_unsigned_t<T>>(p_ + off_));
    off_ += sizeof(T);
  }
  void Get(Uid& u) {
    uint64_t raw = 0;
    Get(raw);
    u = Uid(raw);
  }
  void Get(Status& st) {
    uint8_t code = 0;
    Get(code);
    if (code > static_cast<uint8_t>(StatusCode::kStaleEpoch)) ok_ = false;
    if (code == 0 || !ok_) return;
    const auto [p, n] = Run();
    st = Status(static_cast<StatusCode>(code),
                std::string(reinterpret_cast<const char*>(p), n));
  }
  void Get(Block& b) {
    const auto [p, n] = Run();
    if (ok_) b = Block(std::vector<uint8_t>(p, p + n));
  }
  template <class T>
  void Get(std::vector<T>& v) {
    uint32_t count = 0;
    Get(count);
    // A count claiming more elements than the remaining bytes could hold
    // is hostile: refuse it before reserving anything.
    if (!ok_ || static_cast<uint64_t>(count) * MinBytes<T>() > n_ - off_) {
      ok_ = false;
      return;
    }
    v.reserve(count);
    for (uint32_t i = 0; i < count && ok_; ++i) Get(v.emplace_back());
  }
  template <HasFields T>
  void Get(T& v) {
    std::apply([this](auto&... f) { (Get(f), ...); }, Fields(v));
  }
  void Get(std::monostate&) {}

 private:
  bool Need(size_t k) {
    if (ok_ && n_ - off_ >= k) return true;
    ok_ = false;
    return false;
  }
  /// A u32-length run of bytes; empty if it overruns the payload.
  std::pair<const uint8_t*, size_t> Run() {
    uint32_t n = 0;
    Get(n);
    if (!Need(n)) return {p_, 0};
    off_ += n;
    return {p_ + off_ - n, n};
  }

  const uint8_t* p_;
  size_t n_;
  size_t off_ = 0;
  bool ok_ = true;
};

/// Serializes the payload for `type`; false if the variant holds a
/// different alternative than kMessageTypes assigns the type (caller bug).
bool EncodePayload(Writer& w, MessageType type, const Payload& p) {
  const size_t t = static_cast<size_t>(type);
  if (t >= kNumMessageTypes || IsReservedMessageType(type) ||
      p.index() != kMessageTypes[t].payload) {
    return false;
  }
  std::visit([&w](const auto& v) { w.Put(v); }, p);
  return true;
}

/// Parses the payload for `type` into `*out`; false on structural failure.
/// PeekFrameSize has already refused unknown and reserved types.
bool DecodePayload(Reader& r, MessageType type, Payload* out) {
  const size_t alt = kMessageTypes[static_cast<size_t>(type)].payload;
  const bool parsed = [&]<size_t... I>(std::index_sequence<I...>) {
    return ((alt == I && (r.Get(out->emplace<I>()), true)) || ...);
  }(std::make_index_sequence<std::variant_size_v<Payload>>());
  return parsed && r.Done();
}

}  // namespace

std::vector<uint8_t> EncodeFrame(const Message& msg, uint16_t stream_epoch) {
  std::vector<uint8_t> buf;
  buf.reserve(kFrameHeaderBytes + 64);
  PutLE<uint32_t>(&buf, kFrameMagic);
  buf.push_back(kFrameVersion);
  buf.push_back(static_cast<uint8_t>(msg.type));
  PutLE<uint16_t>(&buf, stream_epoch);
  PutLE<uint32_t>(&buf, msg.from);
  PutLE<uint32_t>(&buf, msg.to);
  PutLE<uint64_t>(&buf, msg.seq);
  PutLE<uint32_t>(&buf, 0);  // payload_len, patched below
  PutLE<uint32_t>(&buf, 0);  // frame_crc, patched below

  Writer w(&buf);
  if (!EncodePayload(w, msg.type, msg.payload)) return {};

  const auto payload_len =
      static_cast<uint32_t>(buf.size() - kFrameHeaderBytes);
  // Patch the length slot first: it is inside the checksummed span.
  StoreLE(buf.data() + 24, payload_len);
  // The CRC covers the whole frame except its own field: header bytes
  // [0, 28) plus the payload. Payload-only coverage once let a bit flip in
  // the `to` field deliver a frame to the wrong site undetected — routing
  // and fencing fields need integrity exactly as much as the data does.
  StoreLE(buf.data() + 28,
          Crc32cExtend(Crc32c(buf.data(), 28), buf.data() + kFrameHeaderBytes,
                       payload_len));
  return buf;
}

FrameError PeekFrameSize(const uint8_t* data, size_t size,
                         size_t* frame_size) {
  if (size < kFrameHeaderBytes) return FrameError::kTruncatedHeader;
  if (LoadLE<uint32_t>(data) != kFrameMagic) return FrameError::kBadMagic;
  if (data[4] != kFrameVersion) return FrameError::kBadVersion;
  const uint32_t payload_len = LoadLE<uint32_t>(data + 24);
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
  const uint32_t payload_len = LoadLE<uint32_t>(data + 24);
  if (size < frame_size) {
    out.error = FrameError::kTruncatedPayload;
    return out;
  }
  const uint32_t want_crc = LoadLE<uint32_t>(data + 28);
  if (Crc32cExtend(Crc32c(data, 28), data + kFrameHeaderBytes,
                   payload_len) != want_crc) {
    out.error = FrameError::kBadCrc;
    return out;
  }
  out.stream_epoch = LoadLE<uint16_t>(data + 6);
  out.msg.type = static_cast<MessageType>(data[5]);
  out.msg.from = LoadLE<uint32_t>(data + 8);
  out.msg.to = LoadLE<uint32_t>(data + 12);
  out.msg.seq = LoadLE<uint64_t>(data + 16);
  Reader r(data + kFrameHeaderBytes, payload_len);
  if (!DecodePayload(r, out.msg.type, &out.msg.payload)) {
    out.error = FrameError::kBadPayload;
    out.msg = Message{};
  }
  return out;
}

}  // namespace radd
