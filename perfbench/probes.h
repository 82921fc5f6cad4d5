// Per-layer tracing from outside the program: every probe wraps a public
// entry point of one module, so the library itself runs unchanged.
//
//   core  — each site's Network handler (GetHandler/RegisterHandler), and
//           the client calls AsyncRead/AsyncWrite;
//   net   — a forwarding Transport installed with SetTransport, in front
//           of the DES codec transport or of the plain Network;
//   bench — the benchmark's own completion callbacks.
//
// Accumulators are per simulator shard, so probes on the sharded engine
// touch only their own shard's slot. Spans (name, wall start/end, sim time,
// op id) stay in memory, the first `span_capacity` per shard, and are
// written at exit.

#ifndef RADD_PERFBENCH_PROBES_H_
#define RADD_PERFBENCH_PROBES_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "net/network.h"
#include "net/transport.h"
#include "sim/simulator.h"

namespace perfbench {

enum class SpanKind : uint8_t { kHandler, kSend, kIssue, kCallback };

struct Span {
  uint64_t op = 0;        ///< payload op id, or the benchmark's op index
  int64_t start_ns = 0;   ///< wall clock, from the tracer's origin
  int64_t end_ns = 0;
  radd::SimTime sim = 0;  ///< simulated time at the span's start
  uint16_t site = 0;
  SpanKind kind = SpanKind::kHandler;
  radd::MessageType type = radd::MessageType::kNone;
};

/// Sums over every shard of one traced round.
struct ProbeTotals {
  /// Handler time per message type, net of benchmark callbacks nested in
  /// the handler (a reply handler runs the client's completion callback).
  std::array<uint64_t, radd::kNumMessageTypes> handler_ns{};
  std::array<uint64_t, radd::kNumMessageTypes> handler_calls{};
  uint64_t covered_ns = 0;  ///< wall time inside handlers or benchmark code
  uint64_t send_ns = 0;
  uint64_t sends = 0;
  uint64_t issue_ns = 0;
  uint64_t issues = 0;

  uint64_t HandlerNs() const;
};

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  Tracer(radd::Simulator* sim, Clock::time_point origin,
         size_t span_capacity);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Wraps the installed handler of every site in [0, num_sites).
  void WrapHandlers(radd::Network* net, int num_sites);

  /// Runs `fn` as a span of `kind` at `site`.
  template <typename Fn>
  void Time(SpanKind kind, int site, uint64_t op, Fn&& fn) {
    const Frame f = Enter(kind);
    fn();
    Leave(kind, radd::MessageType::kNone, site, op, f);
  }

  ProbeTotals Totals() const;
  /// Spans of every shard, in shard order.
  std::vector<Span> TakeSpans();

 private:
  friend class ForwardingTransport;
  struct alignas(64) Shard {
    ProbeTotals totals;
    std::vector<Span> spans;
  };

  struct Frame {
    Clock::time_point t0;
    uint64_t outer_nested_ns = 0;  ///< enclosing handler's nested time
  };
  Frame Enter(SpanKind kind);
  void Leave(SpanKind kind, radd::MessageType type, int site, uint64_t op,
             const Frame& f);

  radd::Simulator* sim_;
  Clock::time_point origin_;
  size_t span_capacity_;  ///< per shard
  std::vector<Shard> shards_;
};

/// Times every protocol send, then hands it to `inner` (the DES codec
/// transport) or, when `inner` is null, straight to the Network — the same
/// delivery the node system makes without a transport.
class ForwardingTransport : public radd::Transport {
 public:
  ForwardingTransport(radd::Network* net, radd::Transport* inner,
                      Tracer* tracer)
      : net_(net), inner_(inner), tracer_(tracer) {}

  void Send(radd::Message msg) override;
  const radd::FrameCounters& frame_counters() const override {
    return inner_ != nullptr ? inner_->frame_counters() : none_;
  }

 private:
  radd::Network* net_;
  radd::Transport* inner_;
  Tracer* tracer_;
  radd::FrameCounters none_;
};

void WriteSpans(std::FILE* f, const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // RADD_PERFBENCH_PROBES_H_
