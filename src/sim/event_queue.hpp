#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "sim/callback.hpp"
#include "sim/types.hpp"

namespace ndc::sim {

/// A deterministic discrete-event queue.
///
/// Events scheduled for the same cycle execute in the order they were
/// scheduled (FIFO tie-break), which makes whole-machine simulations
/// bit-reproducible. This ordering contract is load-bearing: every figure's
/// stdout is goldened against it (tests/goldens/).
///
/// Internally this is a two-level calendar queue tuned for the simulator's
/// schedule profile (almost every event is `ScheduleAfter` with a delay of a
/// few to a few hundred cycles):
///
///  - a wheel of kWheelSize per-cycle buckets covers every event within
///    [now, now + kWheelSize); insertion is an O(1) bucket append, and an
///    occupancy bitmap finds the next non-empty cycle with a handful of
///    word scans instead of a heap sift;
///  - events at or beyond now + kWheelSize land in a sorted overflow map
///    and are promoted when the clock reaches them. Overflow entries for a
///    cycle are always older (scheduled earlier) than any wheel entry for
///    the same cycle — `now` is monotonic, so once a cycle is inside the
///    wheel window it can never be scheduled into the overflow again —
///    which is what keeps the FIFO tie-break exact across the two levels;
///  - callbacks are stored in SmallCallback slots: small captures live
///    inline in the bucket, large ones in a pooled arena, so the hot
///    scheduling path performs no heap allocation.
class EventQueue {
 public:
  /// Historical alias; any callable convertible to `void()` is accepted.
  using Callback = std::function<void()>;

  EventQueue() : wheel_(kWheelSize), occupied_(kWheelSize / 64, 0) {}
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `cb` to run at absolute cycle `when`.
  /// `when` must be >= now().
  template <typename F>
  void ScheduleAt(Cycle when, F&& cb) {
    assert(when >= now_ && "cannot schedule an event in the past");
    SmallCallback c = SmallCallback::Make(arena_, std::forward<F>(cb));
    ++pending_;
    if (when - now_ < kWheelSize) {
      auto b = static_cast<std::size_t>(when) & kWheelMask;
      wheel_[b].push_back(std::move(c));
      occupied_[b >> 6] |= 1ull << (b & 63);
    } else {
      far_[when].push_back(std::move(c));
    }
  }

  /// Schedules `cb` to run `delay` cycles from now.
  template <typename F>
  void ScheduleAfter(Cycle delay, F&& cb) {
    ScheduleAt(now_ + delay, std::forward<F>(cb));
  }

  /// Runs events until the queue is empty or the next event lies beyond
  /// `limit` (events at exactly `limit` still run). Returns the number of
  /// events executed.
  ///
  /// Clock contract: after a bounded run (`limit` != kNeverCycle), now()
  /// == `limit` — the whole window [start, limit] has elapsed even when the
  /// last event fired earlier or no event fired at all (the clock never
  /// moves backwards, so a `limit` in the past leaves now() unchanged).
  /// After an unbounded run, now() is the cycle of the last executed event.
  std::uint64_t RunUntilEmpty(Cycle limit = kNeverCycle);

  /// Runs at most one event; returns false if the queue was empty.
  bool Step();

  /// Current simulated time.
  Cycle now() const { return now_; }

  /// Number of pending events.
  std::size_t pending() const { return pending_; }

  /// Total events executed so far.
  std::uint64_t executed() const { return executed_; }

 private:
  static constexpr int kWheelBits = 12;
  static constexpr std::size_t kWheelSize = std::size_t{1} << kWheelBits;
  static constexpr std::size_t kWheelMask = kWheelSize - 1;

  /// Cycle of the earliest pending event; kNeverCycle when empty.
  Cycle NextEventCycle() const;
  /// Positions the drain cursor on cycle `c` (advancing now_ to it).
  void StartDrain(Cycle c);
  /// Executes one callback from the current drain position.
  void ExecuteOne();

  // The arena must outlive every stored SmallCallback (their destructors
  // return pooled blocks to it), so it is declared first.
  CallbackArena arena_;
  std::vector<std::vector<SmallCallback>> wheel_;  ///< kWheelSize per-cycle buckets
  std::vector<std::uint64_t> occupied_;            ///< wheel occupancy bitmap
  std::map<Cycle, std::vector<SmallCallback>> far_;  ///< events beyond the wheel

  // Drain cursor: the cycle currently executing. Promoted overflow entries
  // (always older) run before the wheel bucket's entries.
  bool draining_ = false;
  std::size_t cur_bucket_ = 0;
  std::vector<SmallCallback> far_cur_;
  std::size_t far_idx_ = 0;
  std::size_t wheel_idx_ = 0;

  Cycle now_ = 0;
  std::size_t pending_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace ndc::sim
