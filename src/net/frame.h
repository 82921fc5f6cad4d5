// Packed, versioned wire frames for the RADD protocol.
//
// wire.h defines the protocol's *typed* messages; this header defines how
// one such message travels a real byte stream: a fixed 32-byte
// little-endian header followed by a type-specific serialized payload,
// checksummed with CRC32C so truncation and bit flips are detected at the
// receiver instead of corrupting protocol state.
//
//   offset  size  field
//        0     4  magic        0x44444152; stored LE the stream starts
//                              with the bytes 'R' 'A' 'D' 'D'
//        4     1  version      kFrameVersion; unknown versions rejected
//        5     1  type         MessageType as uint8_t
//        6     2  flags        stream epoch (socket reconnect fencing; 0
//                              on the DES path)
//        8     4  from         sending site id
//       12     4  to           destination site id
//       16     8  seq          sender-assigned frame sequence number
//       24     4  payload_len  serialized payload bytes that follow
//       28     4  frame_crc    CRC32C over header bytes [0, 28) plus the
//                              payload — the whole frame except this
//                              field. Routing and fencing fields (from,
//                              to, flags) need integrity as much as the
//                              data: a bit flip in `to` must not deliver
//                              a frame to the wrong site.
//
// Every multi-byte field is little-endian on the wire regardless of host
// endianness (explicit byte loads/stores, no struct punning). The packed
// struct below is the layout contract, enforced by static_asserts per the
// zenoh/raddi exemplars; encode/decode go through bounds-checked helpers.
//
// Decoding never crashes on hostile input: every malformed shape
// (truncated header, bad magic, unknown version, oversized or truncated
// payload, CRC mismatch, unknown type, structurally bad payload) maps to a
// distinct FrameError that the caller counts and drops. Tier-1 tests feed
// a malformed-frame corpus plus random fuzz through DecodeFrame under
// ASan/UBSan.
//
// Note `Message::wire_bytes` — the §7.4 *simulated* byte accounting — is
// deliberately not part of the frame: it is bookkeeping of the cost
// model, not data. The DES transport preserves it across its
// encode/decode round-trip; the socket transport derives real byte counts
// from real frames.

#ifndef RADD_NET_FRAME_H_
#define RADD_NET_FRAME_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "net/network.h"
#include "net/wire.h"

namespace radd {

/// The first four bytes on the wire are 'R','A','D','D' (this value read
/// back as a little-endian u32).
constexpr uint32_t kFrameMagic = 0x44444152u;
constexpr uint8_t kFrameVersion = 1;

#pragma pack(push, 1)
/// Layout contract of the fixed header (documentation + size assertions;
/// the codec reads/writes fields through explicit LE helpers).
struct FrameHeader {
  uint32_t magic;
  uint8_t version;
  uint8_t type;
  uint16_t flags;
  uint32_t from;
  uint32_t to;
  uint64_t seq;
  uint32_t payload_len;
  uint32_t frame_crc;
};
#pragma pack(pop)
static_assert(sizeof(FrameHeader) == 32, "frame header must pack to 32B");
static_assert(offsetof(FrameHeader, frame_crc) == 28,
              "frame_crc must sit at offset 28");

constexpr size_t kFrameHeaderBytes = sizeof(FrameHeader);

/// Upper bound on a frame's serialized payload. Anything larger in the
/// length field is a malformed (or hostile) frame: the largest legitimate
/// payload is a parity batch of full-block deltas, far below this.
constexpr uint32_t kMaxFramePayload = 1u << 24;  // 16 MiB

/// Everything that can be wrong with a received frame.
enum class FrameError : uint8_t {
  kOk = 0,
  kTruncatedHeader,   ///< fewer than kFrameHeaderBytes available
  kBadMagic,          ///< not a frame boundary (stream desync / garbage)
  kBadVersion,        ///< version this build does not speak
  kBadLength,         ///< payload_len exceeds kMaxFramePayload
  kTruncatedPayload,  ///< buffer ends before payload_len bytes
  kBadCrc,            ///< frame bytes do not match frame_crc
  kBadType,           ///< type byte outside the MessageType enum, or reserved
  kBadPayload,        ///< CRC passed but payload does not parse
};
constexpr size_t kNumFrameErrors =
    static_cast<size_t>(FrameError::kBadPayload) + 1;

std::string_view FrameErrorName(FrameError e);

/// Thread-safe rejection counters, one slot per FrameError (the kOk slot
/// counts successful decodes). Shared by the DES and socket transports so
/// chaos reports can assert "malformed input was counted and dropped".
struct FrameCounters {
  std::array<std::atomic<uint64_t>, kNumFrameErrors> by_error{};
  std::atomic<uint64_t> encoded{0};
  std::atomic<uint64_t> stale_stream{0};  ///< fenced by stream epoch

  void Count(FrameError e) {
    by_error[static_cast<size_t>(e)].fetch_add(1, std::memory_order_relaxed);
  }
  uint64_t Get(FrameError e) const {
    return by_error[static_cast<size_t>(e)].load(std::memory_order_relaxed);
  }
  /// Total frames rejected for any reason (excludes kOk).
  uint64_t Rejected() const {
    uint64_t n = 0;
    for (size_t i = 1; i < kNumFrameErrors; ++i) {
      n += by_error[i].load(std::memory_order_relaxed);
    }
    return n;
  }
  /// "decoded=N rejected=M [bad_crc=..]" — only nonzero reject reasons.
  std::string ToString() const;
};

/// Serializes `msg` into one self-contained frame (header + payload).
/// `stream_epoch` is stamped into the flags field: the socket transport
/// bumps it per reconnect so receivers can fence frames from dead stream
/// incarnations (PR-3 fencing rules applied at the transport layer); the
/// DES path leaves it 0. Returns an empty vector only if the payload
/// variant does not match the message type (a caller bug, counted by the
/// transport).
std::vector<uint8_t> EncodeFrame(const Message& msg, uint16_t stream_epoch = 0);

/// Result of decoding one frame from a buffer prefix.
struct DecodedFrame {
  FrameError error = FrameError::kOk;
  /// Bytes the frame occupies (header + payload). Valid whenever the
  /// framing fields parsed (error is kOk, kBadType, or a payload-level
  /// error), so a stream reader can skip a frame whose contents were
  /// rejected; 0 for framing-level errors.
  size_t frame_size = 0;
  uint16_t stream_epoch = 0;
  Message msg;  ///< valid only when error == kOk (wire_bytes left 0)
};

/// Decodes one frame from the first `size` bytes of `data`. Never throws
/// and never reads out of bounds, whatever the bytes contain.
DecodedFrame DecodeFrame(const uint8_t* data, size_t size);

/// Validates only the fixed header of a buffered stream prefix and
/// reports the full frame size, so a socket reader knows how many bytes
/// to accumulate before calling DecodeFrame. Returns kTruncatedHeader
/// while fewer than kFrameHeaderBytes are buffered; kBadMagic /
/// kBadVersion / kBadLength for a header that can never become valid
/// (the stream is desynced — drop the connection); kBadType with
/// `*frame_size` still set (framing intact, skip the frame); else kOk
/// with `*frame_size` set.
FrameError PeekFrameSize(const uint8_t* data, size_t size,
                         size_t* frame_size);

}  // namespace radd

#endif  // RADD_NET_FRAME_H_
