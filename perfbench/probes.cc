#include "probes.h"

#include <algorithm>
#include <utility>
#include <variant>

namespace perfbench {

namespace {

// Nesting state of probed spans on this thread. A sharded event runs on
// one worker thread from start to end, so this state never crosses shards.
thread_local int t_handler_depth = 0;
thread_local int t_bench_depth = 0;
// Benchmark time nested in the innermost running handler.
thread_local uint64_t t_nested_ns = 0;

/// Op id carried by a payload, 0 when the message has none.
uint64_t PayloadOp(const radd::Message& msg) {
  return std::visit(
      [](const auto& p) -> uint64_t {
        if constexpr (requires { p.op; }) {
          return p.op;
        } else {
          return 0;
        }
      },
      msg.payload);
}

bool IsBench(SpanKind kind) {
  return kind == SpanKind::kIssue || kind == SpanKind::kCallback;
}

}  // namespace

uint64_t ProbeTotals::HandlerNs() const {
  uint64_t n = 0;
  for (uint64_t v : handler_ns) n += v;
  return n;
}

Tracer::Tracer(radd::Simulator* sim, Clock::time_point origin,
               size_t span_capacity)
    : sim_(sim),
      origin_(origin),
      span_capacity_(span_capacity),
      shards_(static_cast<size_t>(sim->num_shards())) {
  for (Shard& s : shards_) s.spans.reserve(span_capacity_);
}

void Tracer::WrapHandlers(radd::Network* net, int num_sites) {
  for (int site = 0; site < num_sites; ++site) {
    radd::Network::Handler inner = net->GetHandler(site);
    if (!inner) continue;
    net->RegisterHandler(
        site, [this, site, inner = std::move(inner)](radd::Message& msg) {
          const radd::MessageType type = msg.type;
          const uint64_t op = PayloadOp(msg);
          const Frame f = Enter(SpanKind::kHandler);
          inner(msg);
          Leave(SpanKind::kHandler, type, site, op, f);
        });
  }
}

Tracer::Frame Tracer::Enter(SpanKind kind) {
  Frame f;
  if (kind == SpanKind::kHandler) {
    ++t_handler_depth;
    f.outer_nested_ns = t_nested_ns;
    t_nested_ns = 0;
  } else if (IsBench(kind)) {
    ++t_bench_depth;
  }
  f.t0 = Clock::now();
  return f;
}

void Tracer::Leave(SpanKind kind, radd::MessageType type, int site,
                   uint64_t op, const Frame& f) {
  const Clock::time_point t1 = Clock::now();
  const auto ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - f.t0)
          .count());
  Shard& sh = shards_[static_cast<size_t>(sim_->current_shard())];
  ProbeTotals& t = sh.totals;
  if (kind == SpanKind::kHandler) {
    --t_handler_depth;
    const size_t i = static_cast<size_t>(type);
    t.handler_ns[i] += ns - std::min(ns, t_nested_ns);
    ++t.handler_calls[i];
    t_nested_ns = f.outer_nested_ns;
    if (t_handler_depth == 0 && t_bench_depth == 0) t.covered_ns += ns;
  } else if (kind == SpanKind::kSend) {
    // A send belongs to whatever event made it (often a disk completion),
    // so it does not mark wall time as accounted for.
    t.send_ns += ns;
    ++t.sends;
  } else {
    --t_bench_depth;
    if (kind == SpanKind::kIssue) {
      t.issue_ns += ns;
      ++t.issues;
    }
    if (t_bench_depth == 0) {
      if (t_handler_depth > 0) {
        t_nested_ns += ns;
      } else {
        t.covered_ns += ns;
      }
    }
  }
  if (sh.spans.size() < span_capacity_) {
    Span s;
    s.op = op;
    s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                     f.t0 - origin_)
                     .count();
    s.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   t1 - origin_)
                   .count();
    s.sim = sim_->Now();
    s.site = static_cast<uint16_t>(site);
    s.kind = kind;
    s.type = type;
    sh.spans.push_back(s);
  }
}

ProbeTotals Tracer::Totals() const {
  ProbeTotals sum;
  for (const Shard& sh : shards_) {
    const ProbeTotals& t = sh.totals;
    for (size_t i = 0; i < radd::kNumMessageTypes; ++i) {
      sum.handler_ns[i] += t.handler_ns[i];
      sum.handler_calls[i] += t.handler_calls[i];
    }
    sum.covered_ns += t.covered_ns;
    sum.send_ns += t.send_ns;
    sum.sends += t.sends;
    sum.issue_ns += t.issue_ns;
    sum.issues += t.issues;
  }
  return sum;
}

std::vector<Span> Tracer::TakeSpans() {
  std::vector<Span> all;
  for (Shard& sh : shards_) {
    all.insert(all.end(), sh.spans.begin(), sh.spans.end());
    sh.spans.clear();
  }
  return all;
}

void ForwardingTransport::Send(radd::Message msg) {
  const radd::MessageType type = msg.type;
  const int from = static_cast<int>(msg.from);
  const uint64_t op = PayloadOp(msg);
  const Tracer::Frame f = tracer_->Enter(SpanKind::kSend);
  if (inner_ != nullptr) {
    inner_->Send(std::move(msg));
  } else {
    net_->Send(std::move(msg));
  }
  tracer_->Leave(SpanKind::kSend, type, from, op, f);
}

void WriteSpans(std::FILE* f, const std::vector<Span>& spans) {
  static constexpr const char* kKinds[] = {"handler", "send", "issue",
                                           "callback"};
  std::fprintf(f, "kind\ttype\tsite\top\tstart_ns\tend_ns\tsim_us\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%s\t%s\t%u\t%llu\t%lld\t%lld\t%llu\n",
                 kKinds[static_cast<size_t>(s.kind)],
                 s.type == radd::MessageType::kNone
                     ? "-"
                     : radd::MessageTypeName(s.type).c_str(),
                 static_cast<unsigned>(s.site),
                 static_cast<unsigned long long>(s.op),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.sim));
  }
}

}  // namespace perfbench
