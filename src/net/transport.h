// Transport — the seam between the protocol layer and whatever actually
// carries its messages.
//
// With a Transport installed, the protocol stack (core/node.cc) hands it
// every message instead of the DES Network, so one stack runs over the
// simulated network and over real sockets alike. A Transport accepts a
// typed Message and gets it to the destination site's handler by whatever
// means it implements. Two backends exist:
//
//   * DesTransport (here): the discrete-event Network, with every message
//     riding the packed frame codec (net/frame.h): encode to bytes, decode
//     back, deliver the decoded message. A lossless codec makes this
//     invisible, which the codec differential chaos test checks; any codec
//     defect surfaces as a counted reject instead of silent corruption.
//
//   * SocketTransport (net/socket_transport.h): real TCP over loopback,
//     sites as threads. See that header for the robustness rules.
//
// RaddNodeSystem::SetTransport installs one; without it the node sends
// straight to the Network.

#ifndef RADD_NET_TRANSPORT_H_
#define RADD_NET_TRANSPORT_H_

#include "net/frame.h"
#include "net/network.h"

namespace radd {

/// Carrier of protocol messages. Implementations must tolerate hostile
/// bytes on their receive path: malformed frames are counted and dropped,
/// never delivered and never fatal.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Ships `msg` toward its destination. Fire-and-forget: delivery
  /// failures look like message loss, which every layer above already
  /// handles (§5 retransmit-until-ack).
  virtual void Send(Message msg) = 0;

  /// Codec/validation counters of this transport's data path.
  virtual const FrameCounters& frame_counters() const = 0;
};

/// The DES backend: frames through the codec, then the simulated Network
/// (latency, loss, partitions, fault hooks all still apply).
class DesTransport : public Transport {
 public:
  explicit DesTransport(Network* net) : net_(net) {}

  void Send(Message msg) override;

  const FrameCounters& frame_counters() const override { return counters_; }

 private:
  Network* net_;
  FrameCounters counters_;
};

}  // namespace radd

#endif  // RADD_NET_TRANSPORT_H_
