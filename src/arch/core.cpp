#include "arch/core.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace ndc::arch {

Core::Core(sim::NodeId id, const ArchConfig& cfg, sim::EventQueue& eq, MemoryPort& port)
    : id_(id), cfg_(&cfg), eq_(&eq), port_(port) {}

void Core::SetTrace(std::span<const Instr> trace) {
  trace_ = trace;
  std::size_t reach = 0;  // the longest dependence, in slots
  for (std::size_t i = 0; i < trace_.size(); ++i) {
    for (std::int32_t dep : {trace_[i].dep0(), trace_[i].dep1()}) {
      if (dep >= 0) reach = std::max(reach, i - static_cast<std::size_t>(dep));
    }
  }
  std::size_t slots = std::min(std::bit_ceil(4 * (reach + 1)),
                               std::bit_ceil(std::max<std::size_t>(trace_.size(), 1)));
  done_.assign(slots, sim::kNeverCycle);
  external_.assign(slots, false);
  waiters_.assign(slots, WaitLinks{});
  head_ = 0;
  mask_ = static_cast<std::uint32_t>(slots - 1);
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

void Core::MarkExternal(std::uint32_t idx) {
  assert(idx >= head_ && "a retired slot has completed");
  Cover(idx);
  external_[Cell(idx)] = true;
}

void Core::Widen(std::uint32_t idx) {
  sim::Cycle now = eq_->now();
  while (head_ < next_ && done_[Cell(head_)] <= now) {
    std::size_t c = Cell(head_++);
    done_[c] = sim::kNeverCycle;
    external_[c] = false;
    waiters_[c] = WaitLinks{};
  }
  while (idx - head_ > mask_) {
    std::size_t slots = 2 * done_.size();
    std::vector<sim::Cycle> done(slots, sim::kNeverCycle);
    std::vector<bool> external(slots, false);
    std::vector<WaitLinks> waiters(slots);
    for (std::uint32_t i = head_; i - head_ <= mask_; ++i) {
      std::size_t to = i & (slots - 1);
      done[to] = done_[Cell(i)];
      external[to] = external_[Cell(i)];
      waiters[to] = waiters_[Cell(i)];
    }
    done_.swap(done);
    external_.swap(external);
    waiters_.swap(waiters);
    mask_ = static_cast<std::uint32_t>(slots - 1);
  }
}

void Core::Complete(std::uint32_t idx, sim::Cycle when) {
  assert(idx < trace_.size());
  if (idx < head_) return;  // retired: completed long ago
  Cover(idx);
  sim::Cycle& done = done_[Cell(idx)];
  if (done != sim::kNeverCycle) return;  // idempotent (squash + fallback races)
  done = when;
  ++completed_;
  if (trace_[idx].kind() == Instr::Kind::kLoad) --outstanding_loads_;
  finish_cycle_ = std::max(finish_cycle_, when);
  // Wake dependents that were dispatched while waiting on this slot, in the
  // order they queued.
  WaitLinks& list = waiters_[Cell(idx)];
  std::uint32_t entry = list.head;
  list.head = list.tail = WaitLinks::kNone;
  while (entry != WaitLinks::kNone) {
    std::uint32_t w = entry >> 1;
    entry = waiters_[Cell(w)].next[entry & 1];
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
    sim::Cycle d = DoneAt(static_cast<std::uint32_t>(dep));
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
    auto dep = static_cast<std::uint32_t>(deps[k]);
    if (DoneAt(dep) != sim::kNeverCycle) continue;
    std::uint32_t entry = idx * 2 + k;
    WaitLinks& list = waiters_[Cell(dep)];
    if (list.tail == WaitLinks::kNone) {
      list.head = entry;
    } else {
      waiters_[Cell(list.tail >> 1)].next[list.tail & 1] = entry;
    }
    list.tail = entry;
  }
}

void Core::ResolveWaiter(std::uint32_t idx) {
  const Instr& in = trace_[idx];
  if (DoneAt(idx) != sim::kNeverCycle) return;
  sim::Cycle ready;
  if (!DepsDone(in, &ready)) return;  // still waiting on the other dep
  switch (in.kind()) {
    case Instr::Kind::kCompute:
      if (!external_[Cell(idx)]) Complete(idx, ready + cfg_->compute_latency);
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
        sim::Cycle d = DoneAt(static_cast<std::uint32_t>(in.dep0()));
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
  Cover(idx);
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
      if (external_[Cell(idx)]) break;  // machine completes it
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
