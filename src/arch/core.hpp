#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "arch/config.hpp"
#include "arch/memory_port.hpp"
#include "arch/trace.hpp"
#include "sim/event_queue.hpp"
#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace ndc::arch {

/// A two-issue out-of-order core model: instructions *dispatch* in program
/// order at `issue_width` per cycle, but execute dataflow-style — a compute
/// completes when its operands do, without blocking the dispatch of later
/// independent instructions (approximating the paper's two-issue OoO SPARC).
/// Memory-level parallelism is bounded by `max_outstanding_loads` in-flight
/// loads. Memory operations are delegated to a MemoryPort (the machine),
/// which signals completion via Complete().
///
/// Per-slot state lives in a power-of-two ring over the core's window: from
/// the oldest slot not yet retired to the highest slot dispatched, completed
/// or marked external. A dispatched slot retires once it has completed at or
/// before now; every later read of it sees "done long ago", which is what
/// its completion cycle would give. When a long wait pins the oldest slot,
/// the ring doubles instead of stalling dispatch, so timing never depends
/// on the ring's size.
class Core {
 public:
  Core(sim::NodeId id, const ArchConfig& cfg, sim::EventQueue& eq, MemoryPort& port);


  /// Installs the trace and resets execution state. The core borrows the
  /// instructions: they must stay alive and unmodified while it runs. The
  /// ring starts at four times the trace's longest dependence, and never
  /// larger than the trace.
  void SetTrace(std::span<const Instr> trace);

  std::span<const Instr> trace() const { return trace_; }

  /// Begins execution (schedules the first dispatch event).
  void Start();

  /// Marks slot `idx` as externally completed: the core will not
  /// self-complete it (used for Computes that the machine offloaded to an
  /// NDC location at run time).
  void MarkExternal(std::uint32_t idx);

  /// Signals that slot `idx`'s result is available at cycle `when`
  /// (must be >= now). Safe to call before the slot has dispatched; a no-op
  /// on a slot that already completed, retired or not.
  void Complete(std::uint32_t idx, sim::Cycle when);

  bool finished() const { return completed_ == trace_.size(); }
  sim::Cycle finish_cycle() const { return finish_cycle_; }
  /// Completion cycle of slot `idx` (kNeverCycle while pending). Valid only
  /// while the slot is in the window, which a retired slot has left: its
  /// cell may already hold a later slot, so reading it asserts.
  sim::Cycle done_cycle(std::uint32_t idx) const {
    assert(idx >= head_ && idx - head_ <= mask_ && "slot outside the core's window");
    return done_[Cell(idx)];
  }
  bool issued(std::uint32_t idx) const { return idx < next_; }

  /// Slots in the ring (a power of two).
  std::size_t window_slots() const { return done_.size(); }

  /// Bytes held in per-slot execution state (element size times element
  /// count of each per-slot container; the borrowed trace is not counted).
  std::size_t RunStateBytes() const;

  /// Counters by name ("core.issued", "core.loads", ...). The dispatch loop
  /// bumps plain integers; names are built only here.
  sim::StatSet stats() const;

 private:
  void TryDispatch();
  /// Called once all deps of a dispatched, dep-waiting slot are complete.
  void ResolveWaiter(std::uint32_t idx);
  /// Dispatch-time handling once the slot's turn comes.
  void DispatchSlot(std::uint32_t idx);
  bool DepsDone(const Instr& in, sim::Cycle* ready_at) const;
  /// Queues dispatched slot `idx` on each of its deps still outstanding.
  void WaitOnPendingDeps(std::uint32_t idx);
  void ScheduleRetry(sim::Cycle at);

  /// The ring cell of slot `idx`, which must be in the window.
  std::size_t Cell(std::uint32_t idx) const { return idx & mask_; }
  /// Completion cycle of slot `idx` as the dispatch logic reads it: a
  /// retired slot completed at or before now, so it reads as cycle 0.
  sim::Cycle DoneAt(std::uint32_t idx) const {
    return idx < head_ ? 0 : done_[Cell(idx)];
  }
  /// Brings slot `idx` (>= the oldest live slot) into the window: retires
  /// the dispatched slots that completed at or before now, then doubles the
  /// ring until it spans `idx`.
  void Cover(std::uint32_t idx) {
    if (idx - head_ > mask_) Widen(idx);
  }
  void Widen(std::uint32_t idx);

  sim::NodeId id_;
  const ArchConfig* cfg_;
  sim::EventQueue* eq_;
  MemoryPort& port_;

  std::span<const Instr> trace_;
  // The ring: slot i of the window lives in cell i & mask_.
  std::uint32_t head_ = 0;  // oldest slot not yet retired
  std::uint32_t mask_ = 0;  // ring size - 1
  std::vector<sim::Cycle> done_;
  std::vector<bool> external_;
  /// Dependency waiters as intrusive FIFO lists, one per cell. A list entry
  /// is `waiter * 2 + k`, meaning `waiter` waits on its k-th dep (dep0 or
  /// dep1): `head`/`tail` delimit the entries waiting on this slot, and
  /// `next[k]` links this slot's k-th entry within its dep's list.
  struct WaitLinks {
    static constexpr std::uint32_t kNone = 0xFFFFFFFFu;
    std::uint32_t head = kNone, tail = kNone;
    std::uint32_t next[2] = {kNone, kNone};
  };
  std::vector<WaitLinks> waiters_;
  std::uint32_t next_ = 0;  // next trace slot to dispatch (in order)
  std::size_t completed_ = 0;
  int outstanding_loads_ = 0;
  sim::Cycle last_issue_cycle_ = sim::kNeverCycle;
  int issued_this_cycle_ = 0;
  sim::Cycle finish_cycle_ = 0;
  bool retry_scheduled_ = false;
  sim::Cycle retry_cycle_ = 0;
  std::uint64_t issued_ = 0, loads_ = 0, stores_ = 0, computes_ = 0, precomputes_ = 0;
};

}  // namespace ndc::arch
