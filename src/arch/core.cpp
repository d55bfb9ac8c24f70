#include "arch/core.hpp"

#include <algorithm>
#include <cassert>

namespace ndc::arch {

Core::Core(sim::NodeId id, const ArchConfig& cfg, sim::EventQueue& eq, MemoryPort& port)
    : id_(id), cfg_(&cfg), eq_(&eq), port_(port) {}

void Core::SetTrace(std::span<const Instr> trace) {
  trace_ = trace;
  done_.assign(trace_.size(), sim::kNeverCycle);
  external_.assign(trace_.size(), false);
  waiters_.assign(trace_.size(), WaitLinks{});
  next_ = 0;
  completed_ = 0;
  outstanding_loads_ = 0;
  last_issue_cycle_ = sim::kNeverCycle;
  issued_this_cycle_ = 0;
  finish_cycle_ = 0;
  retry_scheduled_ = false;
}

std::size_t Core::RunStateBytes() const {
  return done_.capacity() * sizeof(sim::Cycle) + (external_.capacity() + 7) / 8 +
         waiters_.capacity() * sizeof(WaitLinks);
}

void Core::Start() {
  eq_->ScheduleAfter(0, [this] { TryDispatch(); });
}

void Core::MarkExternal(std::uint32_t idx) { external_[idx] = true; }

void Core::Complete(std::uint32_t idx, sim::Cycle when) {
  assert(idx < trace_.size());
  if (done_[idx] != sim::kNeverCycle) return;  // idempotent (squash + fallback races)
  done_[idx] = when;
  ++completed_;
  if (trace_[idx].kind() == Instr::Kind::kLoad) --outstanding_loads_;
  finish_cycle_ = std::max(finish_cycle_, when);
  // Wake dependents that were dispatched while waiting on this slot, in the
  // order they queued.
  std::uint32_t entry = waiters_[idx].head;
  waiters_[idx].head = waiters_[idx].tail = WaitLinks::kNone;
  while (entry != WaitLinks::kNone) {
    std::uint32_t w = entry >> 1;
    entry = waiters_[w].next[entry & 1];
    ResolveWaiter(w);
  }
  if (when > eq_->now()) {
    eq_->ScheduleAt(when, [this] { TryDispatch(); });
  } else {
    TryDispatch();
  }
}

bool Core::DepsDone(const Instr& in, sim::Cycle* ready_at) const {
  sim::Cycle ready = eq_->now();
  for (std::int32_t dep : {in.dep0(), in.dep1()}) {
    if (dep < 0) continue;
    sim::Cycle d = done_[static_cast<std::size_t>(dep)];
    if (d == sim::kNeverCycle) return false;
    ready = std::max(ready, d);
  }
  *ready_at = ready;
  return true;
}

void Core::WaitOnPendingDeps(std::uint32_t idx) {
  const Instr& in = trace_[idx];
  const std::int32_t deps[2] = {in.dep0(), in.dep1()};
  for (std::uint32_t k = 0; k < 2; ++k) {
    if (deps[k] < 0) continue;
    auto dep = static_cast<std::size_t>(deps[k]);
    if (done_[dep] != sim::kNeverCycle) continue;
    std::uint32_t entry = idx * 2 + k;
    WaitLinks& list = waiters_[dep];
    if (list.tail == WaitLinks::kNone) {
      list.head = entry;
    } else {
      waiters_[list.tail >> 1].next[list.tail & 1] = entry;
    }
    list.tail = entry;
  }
}

void Core::ResolveWaiter(std::uint32_t idx) {
  const Instr& in = trace_[idx];
  if (done_[idx] != sim::kNeverCycle) return;
  sim::Cycle ready;
  if (!DepsDone(in, &ready)) return;  // still waiting on the other dep
  switch (in.kind()) {
    case Instr::Kind::kCompute:
      if (!external_[idx]) Complete(idx, ready + cfg_->compute_latency);
      break;
    case Instr::Kind::kStore:
      port_.IssueStore(id_, idx, in.addr());
      Complete(idx, ready + 1);
      break;
    default:
      break;  // loads/pre-computes are completed by the memory port
  }
}

void Core::ScheduleRetry(sim::Cycle at) {
  if (retry_scheduled_ && retry_cycle_ <= at) return;
  retry_scheduled_ = true;
  retry_cycle_ = at;
  eq_->ScheduleAt(at, [this] {
    retry_scheduled_ = false;
    TryDispatch();
  });
}

void Core::TryDispatch() {
  sim::Cycle now = eq_->now();
  if (now != last_issue_cycle_) {
    last_issue_cycle_ = now;
    issued_this_cycle_ = 0;
  }
  while (next_ < trace_.size()) {
    if (issued_this_cycle_ >= cfg_->issue_width) {
      ScheduleRetry(now + 1);
      return;
    }
    const Instr& in = trace_[next_];
    if (in.kind() == Instr::Kind::kLoad) {
      // Loads need their address operand and an LDQ slot before dispatch.
      if (in.dep0() >= 0) {
        sim::Cycle d = done_[static_cast<std::size_t>(in.dep0())];
        if (d == sim::kNeverCycle) return;  // completion will re-trigger
        if (d > now) {
          ScheduleRetry(d);
          return;
        }
      }
      if (outstanding_loads_ >= cfg_->max_outstanding_loads) {
        return;  // a load completion will re-trigger dispatch
      }
    }
    DispatchSlot(next_);
    ++next_;
    ++issued_this_cycle_;
  }
}

void Core::DispatchSlot(std::uint32_t idx) {
  const Instr& in = trace_[idx];
  ++issued_;
  sim::Cycle ready;
  switch (in.kind()) {
    case Instr::Kind::kLoad:
      ++outstanding_loads_;
      ++loads_;
      port_.IssueLoad(id_, idx, in.addr());
      break;
    case Instr::Kind::kStore:
      ++stores_;
      if (DepsDone(in, &ready)) {
        port_.IssueStore(id_, idx, in.addr());
        Complete(idx, ready + 1);
      } else {
        WaitOnPendingDeps(idx);
      }
      break;
    case Instr::Kind::kCompute:
      ++computes_;
      if (external_[idx]) break;  // machine completes it
      if (DepsDone(in, &ready)) {
        Complete(idx, ready + cfg_->compute_latency);
      } else {
        WaitOnPendingDeps(idx);
      }
      break;
    case Instr::Kind::kPreCompute:
      ++precomputes_;
      port_.IssuePreCompute(id_, idx, in);
      break;
  }
}

sim::StatSet Core::stats() const {
  sim::StatSet s;
  s.Add("core.issued", issued_);
  s.Add("core.loads", loads_);
  s.Add("core.stores", stores_);
  s.Add("core.computes", computes_);
  s.Add("core.precomputes", precomputes_);
  return s;
}

}  // namespace ndc::arch
