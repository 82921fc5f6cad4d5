#include "disk/scheduler.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

namespace radd {

DiskScheduler::DiskScheduler(Simulator* sim, DiskModel model,
                             const DiskSchedConfig& config)
    : sim_(sim), model_(model), config_(config) {
  const int n = config_.spindles < 1 ? 1 : config_.spindles;
  spindles_.resize(static_cast<size_t>(n));
}

void DiskScheduler::Submit(IoClass cls, IoKind kind, BlockNum addr,
                           uint32_t units, uint32_t slow,
                           Simulator::Callback done) {
  Request r;
  r.cls = cls;
  r.kind = kind;
  r.addr = addr;
  r.units = units < 1 ? 1 : units;
  r.slow = slow < 1 ? 1 : slow;
  r.deadline = sim_->Now() + (cls == IoClass::kForeground
                                  ? config_.foreground_deadline
                                  : config_.background_deadline);
  r.seq = next_seq_++;
  r.done = std::move(done);
  const size_t si = SpindleOf(addr);
  spindles_[si].queue.push_back(std::move(r));
  if (!spindles_[si].busy) Dispatch(si);
}

void DiskScheduler::Reset() {
  ++generation_;
  for (Spindle& sp : spindles_) {
    sp.queue.clear();
    sp.busy = false;
    sp.head = 0;
    sp.dir = 1;
  }
}

size_t DiskScheduler::queued() const {
  size_t total = 0;
  for (const Spindle& sp : spindles_) total += sp.queue.size();
  return total;
}

SimTime DiskScheduler::ServiceTime(const Spindle& sp,
                                   const Request& r) const {
  const SimTime per_block =
      r.kind == IoKind::kRead ? model_.read_latency : model_.write_latency;
  SimTime service = per_block * static_cast<SimTime>(r.units) *
                    static_cast<SimTime>(r.slow);
  if (config_.seek_unit != 0) {
    const BlockNum dist =
        r.addr > sp.head ? r.addr - sp.head : sp.head - r.addr;
    service +=
        std::min(config_.seek_cap,
                 config_.seek_unit * static_cast<SimTime>(dist));
  }
  return service;
}

size_t DiskScheduler::PickElevator(const Spindle& sp) const {
  // LOOK: nearest address at-or-past the head in the sweep direction;
  // if the direction is exhausted, the nearest one behind (the caller
  // flips the direction on dispatch). Ties go to arrival order.
  size_t best = sp.queue.size();
  size_t fallback = sp.queue.size();
  BlockNum best_dist = 0, fallback_dist = 0;
  for (size_t i = 0; i < sp.queue.size(); ++i) {
    const BlockNum a = sp.queue[i].addr;
    const bool ahead = sp.dir > 0 ? a >= sp.head : a <= sp.head;
    const BlockNum dist = a > sp.head ? a - sp.head : sp.head - a;
    if (ahead) {
      if (best == sp.queue.size() || dist < best_dist ||
          (dist == best_dist && sp.queue[i].seq < sp.queue[best].seq)) {
        best = i;
        best_dist = dist;
      }
    } else if (best == sp.queue.size()) {
      if (fallback == sp.queue.size() || dist < fallback_dist ||
          (dist == fallback_dist &&
           sp.queue[i].seq < sp.queue[fallback].seq)) {
        fallback = i;
        fallback_dist = dist;
      }
    }
  }
  return best != sp.queue.size() ? best : fallback;
}

size_t DiskScheduler::PickNext(const Spindle& sp) const {
  switch (config_.policy) {
    case IoPolicy::kFifo: {
      size_t best = 0;
      for (size_t i = 1; i < sp.queue.size(); ++i) {
        if (sp.queue[i].seq < sp.queue[best].seq) best = i;
      }
      return best;
    }
    case IoPolicy::kElevator:
      return PickElevator(sp);
    case IoPolicy::kDeadline: {
      // An expired deadline trumps class priority: earliest deadline
      // first among the expired. Otherwise the best (lowest) class wins
      // and the shortest seek breaks ties inside it, so foreground
      // traffic preempts maintenance in the queue while maintenance
      // starvation stays bounded by its deadline.
      const SimTime now = sim_->Now();
      size_t best = sp.queue.size();
      bool best_expired = false;
      for (size_t i = 0; i < sp.queue.size(); ++i) {
        const Request& r = sp.queue[i];
        const bool expired = r.deadline <= now;
        if (best == sp.queue.size()) {
          best = i;
          best_expired = expired;
          continue;
        }
        const Request& b = sp.queue[best];
        bool better;
        if (expired != best_expired) {
          better = expired;
        } else if (expired) {
          better = r.deadline < b.deadline ||
                   (r.deadline == b.deadline && r.seq < b.seq);
        } else if (r.cls != b.cls) {
          better = r.cls < b.cls;
        } else {
          const BlockNum rd =
              r.addr > sp.head ? r.addr - sp.head : sp.head - r.addr;
          const BlockNum bd =
              b.addr > sp.head ? b.addr - sp.head : sp.head - b.addr;
          better = rd < bd || (rd == bd && r.seq < b.seq);
        }
        if (better) {
          best = i;
          best_expired = expired;
        }
      }
      return best;
    }
  }
  std::abort();  // unreachable
}

void DiskScheduler::Dispatch(size_t si) {
  Spindle& sp = spindles_[si];
  if (sp.queue.empty()) {
    sp.busy = false;
    return;
  }
  const size_t pick = PickNext(sp);
  Request r = std::move(sp.queue[pick]);
  sp.queue.erase(sp.queue.begin() + static_cast<long>(pick));
  if (config_.policy == IoPolicy::kDeadline && r.deadline <= sim_->Now() &&
      r.cls != IoClass::kForeground) {
    ++deadline_dispatches_;
  }
  if (config_.policy == IoPolicy::kElevator) {
    // Flip the sweep when the pick is behind the head.
    if (sp.dir > 0 ? r.addr < sp.head : r.addr > sp.head) sp.dir = -sp.dir;
  }
  const SimTime service = ServiceTime(sp, r);
  sp.head = r.addr;
  sp.busy = true;
  sim_->At(sim_->Now() + service,
           [this, si, gen = generation_, done = std::move(r.done)]() {
             if (gen != generation_) return;
             ++completed_;
             done();
             Dispatch(si);
           });
}

}  // namespace radd
