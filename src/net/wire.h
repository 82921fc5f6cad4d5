// Wire protocol of the simulated network: the closed set of message
// types, one payload struct per type, and the variant that carries them.
//
// MessageType is a dense enum that indexes per-type statistics and fault
// hooks directly, with no string built or compared per send. Payload is a
// std::variant over the protocol structs, stored inline in the Message,
// so a delivery needs no heap allocation and no RTTI cast. Large payloads
// (Blocks) travel by move, so the messaging hot path performs no
// per-message allocation of its own.
//
// Each payload struct declares its wire layout once, in the Fields()
// overload beside it: its fields, in the order the frame codec
// (net/frame.cc) writes them. kMessageTypes maps every MessageType to its
// name and payload alternative; the codec and the name lookups read it.
//
// Sizes quoted in `wire_bytes` fields are the §7.4-style wire costs; every
// message additionally pays the fixed kWireHeader.

#ifndef RADD_NET_WIRE_H_
#define RADD_NET_WIRE_H_

#include <concepts>
#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <variant>
#include <vector>

#include "common/block.h"
#include "common/status.h"
#include "common/uid.h"
#include "sim/simulator.h"

namespace radd {

/// Fixed per-message overhead (addressing, type, sequence) in wire bytes.
constexpr size_t kWireHeader = 32;

/// Every message type the stack sends. kNone marks an untyped message
/// (tests, raw sends): it gets no per-type statistics, matching the old
/// empty-string behaviour.
enum class MessageType : uint8_t {
  kNone = 0,
  kReadReq,
  kReadReply,
  kWriteReq,
  kWriteReply,
  kSpareReadReq,
  kSpareReadReply,
  kSpareTakeReq,
  kSpareTakeReply,
  kSpareInvalidate,
  kSpareWriteReq,
  kSpareWriteReply,
  kSpareWriteBack,
  // Reserved: the retired unbatched parity messages. Their numbers stay so
  // kParityBatch and every later type keep their wire values; no payload
  // exists for them and DecodeFrame rejects them as kBadType.
  kParityUpdate,
  kParityAck,
  kParityNack,
  kParityBatch,
  kParityBatchAck,
  kReconReq,
  kReconReply,
  kHeartbeat,
  kHbProbe,
  kHbProbeAck,
};
constexpr size_t kNumMessageTypes =
    static_cast<size_t>(MessageType::kHbProbeAck) + 1;

/// Stable on-the-wire name, e.g. "parity_batch". Used for stat keys and
/// traces; a name never changes, so recorded stats stay comparable across
/// revisions.
const std::string& MessageTypeName(MessageType type);

/// Inverse of MessageTypeName; kNone for an unknown name.
MessageType MessageTypeFromName(const std::string& name);

// --- protocol payloads ------------------------------------------------------

/// `V` is payload struct `T`, const or not: one Fields() overload serves
/// the encoder, which reads the fields, and the decoder, which fills them.
template <class V, class T>
concept MaybeConst = std::same_as<std::remove_const_t<V>, T>;

struct ReadReq {
  uint64_t op;
  int group = 0;  // RADD group within the volume (§4 sharding)
  BlockNum row;
};
auto Fields(MaybeConst<ReadReq> auto& v) {
  return std::tie(v.op, v.group, v.row);
}
struct ReadReply {
  uint64_t op;
  Status status;
  Block data{0};
  Uid uid;
};
auto Fields(MaybeConst<ReadReply> auto& v) {
  return std::tie(v.op, v.status, v.data, v.uid);
}
struct WriteReq {
  uint64_t op;
  int group = 0;
  BlockNum row;
  int home;
  SimTime deadline = 0;  // client give-up time; later copies are zombies
  uint64_t home_epoch = 0;  // membership epoch of the home site at issue
  Block data{0};
};
auto Fields(MaybeConst<WriteReq> auto& v) {
  return std::tie(v.op, v.group, v.row, v.home, v.deadline, v.home_epoch,
                  v.data);
}
struct WriteReply {
  uint64_t op;
  Status status;
};
auto Fields(MaybeConst<WriteReply> auto& v) { return std::tie(v.op, v.status); }
struct SpareReadReq {
  uint64_t op;
  int group = 0;
  int home;
  BlockNum row;
};
auto Fields(MaybeConst<SpareReadReq> auto& v) {
  return std::tie(v.op, v.group, v.home, v.row);
}
struct SpareReadReply {
  uint64_t op;
  Status status;  // OK: data valid; NotFound: spare invalid
  Block data{0};
  Uid logical_uid;
};
auto Fields(MaybeConst<SpareReadReply> auto& v) {
  return std::tie(v.op, v.status, v.data, v.logical_uid);
}
struct SpareTakeReq {  // recovering-write old-value fetch + invalidate
  uint64_t op;
  int group = 0;
  int home;
  BlockNum row;
};
auto Fields(MaybeConst<SpareTakeReq> auto& v) {
  return std::tie(v.op, v.group, v.home, v.row);
}
struct SpareWriteReq {  // W1' — degraded write shipped to the spare site
  uint64_t op;
  int group = 0;
  int home;
  BlockNum row;
  SimTime deadline = 0;  // client give-up time; later copies are zombies
  uint64_t home_epoch = 0;  // membership epoch of the home site at issue
  Block data{0};
  Uid uid;  // minted by the writer
};
auto Fields(MaybeConst<SpareWriteReq> auto& v) {
  return std::tie(v.op, v.group, v.home, v.row, v.deadline, v.home_epoch,
                  v.data, v.uid);
}
struct SpareWriteBack {  // degraded-read materialization (fire and forget)
  int group = 0;
  int home;
  BlockNum row;
  uint64_t home_epoch = 0;  // membership epoch of the home site at issue
  Block data{0};
  Uid logical_uid;
};
auto Fields(MaybeConst<SpareWriteBack> auto& v) {
  return std::tie(v.group, v.home, v.row, v.home_epoch, v.data, v.logical_uid);
}
/// One coalesced row update inside a batched parity frame: the XOR-merge
/// of every staged change mask for (row, position), stamped with the
/// latest contributing UID (formula 1 is associative, so the merged mask
/// applied once equals the members applied in order).
struct ParityBatchEntry {
  BlockNum row;
  int position;
  uint64_t home_epoch = 0;  // home's epoch when the delta was computed
                            // (staging time; restamped only after a stale
                            // refusal, while the sender's copy holds it)
  Block delta{0};           // merged change mask
  Uid uid;                  // newest UID folded into the merge
  size_t wire_bytes = 0;    // encoded-mask cost of `delta`
};
auto Fields(MaybeConst<ParityBatchEntry> auto& v) {
  return std::tie(v.row, v.position, v.home_epoch, v.delta, v.uid,
                  v.wire_bytes);
}

/// W3 group-commit frame: many row updates in one message. Idempotence is
/// per-sender `batch_seq` (the receiver remembers processed sequence
/// numbers and replays the recorded ack for a duplicate), backstopped by
/// the paper's §3.3 UID-array check per entry across receiver restarts.
struct ParityBatchFrame {
  uint64_t batch_seq = 0;  // per-sender, monotonically increasing
  int group = 0;           // frames never mix groups: one coalescer each
  std::vector<ParityBatchEntry> entries;
};
auto Fields(MaybeConst<ParityBatchFrame> auto& v) {
  return std::tie(v.batch_seq, v.group, v.entries);
}

/// Batch-level ack, fanned back out to the per-op completion waiters.
/// `entry_status` is index-aligned with the frame's entries: OK means
/// applied (or already applied), a non-OK entry is retried individually.
struct ParityBatchAck {
  uint64_t batch_seq = 0;
  std::vector<Status> entry_status;
};
auto Fields(MaybeConst<ParityBatchAck> auto& v) {
  return std::tie(v.batch_seq, v.entry_status);
}

struct ReconReq {
  uint64_t op;
  int group = 0;
  BlockNum row;
  int attempt;  // §3.3 retry round; stale-round replies are discarded
};
auto Fields(MaybeConst<ReconReq> auto& v) {
  return std::tie(v.op, v.group, v.row, v.attempt);
}
struct ReconReply {
  uint64_t op;
  BlockNum row;
  Status status;
  Block data{0};
  Uid uid;
  std::vector<Uid> uid_array;  // non-empty iff this is the parity site
  int attempt = 0;             // echoed from the request
};
auto Fields(MaybeConst<ReconReply> auto& v) {
  return std::tie(v.op, v.row, v.status, v.data, v.uid, v.uid_array, v.attempt);
}

struct Heartbeat {
  SimTime sent_at = 0;
};
auto Fields(MaybeConst<Heartbeat> auto& v) { return std::tie(v.sent_at); }

/// The closed payload set. std::monostate is the untyped/empty payload.
using Payload =
    std::variant<std::monostate, ReadReq, ReadReply, WriteReq, WriteReply,
                 SpareReadReq, SpareReadReply, SpareTakeReq, SpareWriteReq,
                 SpareWriteBack, ParityBatchFrame, ParityBatchAck, ReconReq,
                 ReconReply, Heartbeat>;

/// Index of alternative `T` in Payload; kNoPayload if it is not one.
constexpr size_t kNoPayload = std::variant_npos;
template <class T>
constexpr size_t kPayloadOf = []<class... Ts>(std::variant<Ts...>*) {
  size_t i = 0;
  return ((std::is_same_v<T, Ts> || (++i, false)) || ...) ? i : kNoPayload;
}(static_cast<Payload*>(nullptr));

/// One row of the type table: a type's stable on-the-wire name and the
/// Payload alternative its frames carry.
struct MessageTypeInfo {
  std::string_view name;
  size_t payload;
};

/// The type table, indexed by MessageType. Several types share one payload
/// struct (a kSpareTakeReply travels as a SpareReadReply); the senders in
/// core/node.cc and cluster/heartbeat.cc follow this mapping.
constexpr MessageTypeInfo kMessageTypes[] = {
    {"", kPayloadOf<std::monostate>},  // kNone
    {"read_req", kPayloadOf<ReadReq>},
    {"read_reply", kPayloadOf<ReadReply>},
    {"write_req", kPayloadOf<WriteReq>},
    {"write_reply", kPayloadOf<WriteReply>},
    {"spare_read_req", kPayloadOf<SpareReadReq>},
    {"spare_read_reply", kPayloadOf<SpareReadReply>},
    {"spare_take_req", kPayloadOf<SpareTakeReq>},
    {"spare_take_reply", kPayloadOf<SpareReadReply>},
    {"spare_invalidate", kPayloadOf<SpareTakeReq>},
    {"spare_write_req", kPayloadOf<SpareWriteReq>},
    {"spare_write_reply", kPayloadOf<WriteReply>},
    {"spare_write_back", kPayloadOf<SpareWriteBack>},
    {"parity_update", kNoPayload},
    {"parity_ack", kNoPayload},
    {"parity_nack", kNoPayload},
    {"parity_batch", kPayloadOf<ParityBatchFrame>},
    {"parity_batch_ack", kPayloadOf<ParityBatchAck>},
    {"recon_req", kPayloadOf<ReconReq>},
    {"recon_reply", kPayloadOf<ReconReply>},
    {"heartbeat", kPayloadOf<Heartbeat>},
    {"hb_probe", kPayloadOf<Heartbeat>},
    {"hb_probe_ack", kPayloadOf<Heartbeat>},
};
static_assert(std::size(kMessageTypes) == kNumMessageTypes,
              "one kMessageTypes row per MessageType");

/// True for a type number kept only as a reserved slot (see MessageType).
constexpr bool IsReservedMessageType(MessageType type) {
  return kMessageTypes[static_cast<size_t>(type)].payload == kNoPayload;
}

}  // namespace radd

#endif  // RADD_NET_WIRE_H_
