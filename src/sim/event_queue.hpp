#pragma once

#include <cassert>
#include <cstdint>
#include <map>
#include <memory>
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
/// few to a few hundred cycles), built on one slab of event nodes:
///
///  - every pending event is a node `{SmallCallback, next}` in a slab of
///    fixed chunks (each below glibc's 128 KiB mmap threshold) that never
///    move, so a callback is built in its node and invoked there;
///  - an executed node goes on a LIFO free list, so the next ScheduleAt
///    reuses the node that just ran, whose line is still in cache. Once the
///    slab has grown to the peak number of pending events, scheduling
///    allocates nothing;
///  - a wheel of kWheelSize per-cycle buckets covers every event within
///    [now, now + kWheelSize). A bucket is a {head, tail} pair of node
///    indices (32 KB for the whole wheel), insertion is an O(1) append to
///    its intrusive list, and an occupancy bitmap finds the next non-empty
///    cycle with a handful of word scans instead of a heap sift;
///  - events at or beyond now + kWheelSize go to an overflow map from cycle
///    to node list. When the clock reaches that cycle, its list is spliced
///    in front of the bucket's list: overflow entries for a cycle are always
///    older (scheduled earlier) than any wheel entry for the same cycle —
///    `now` is monotonic, so once a cycle is inside the wheel window it can
///    never be scheduled into the overflow again — which keeps the FIFO
///    tie-break exact across the two levels;
///  - every callback lives inline in its node's SmallCallback.
class EventQueue {
 public:
  EventQueue() : wheel_(kWheelSize), occupied_(kWheelSize / 64, 0) {}
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `cb` to run at absolute cycle `when`.
  /// `when` must be >= now().
  template <typename F>
  void ScheduleAt(Cycle when, F&& cb) {
    assert(when >= now_ && "cannot schedule an event in the past");
    std::uint32_t n = AcquireNode();
    NodeAt(n).cb.Emplace(std::forward<F>(cb));
    ++pending_;
    if (when - now_ < kWheelSize) {
      auto b = static_cast<std::size_t>(when) & kWheelMask;
      Append(wheel_[b], n);
      occupied_[b >> 6] |= 1ull << (b & 63);
    } else {
      Append(far_[when], n);
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
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  struct Node {
    SmallCallback cb;
    std::uint32_t next = kNil;  ///< next node in a bucket or the free list
  };
  /// An intrusive FIFO list of nodes (one wheel bucket or overflow cycle).
  struct List {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  // A chunk stays below glibc's 128 KiB initial mmap threshold: a larger
  // block would be mmapped and, once freed, raise the dynamic threshold and
  // with it the heap's peak RSS.
  static constexpr std::uint32_t kNodesPerChunk = 1024;
  static_assert(sizeof(Node) * kNodesPerChunk < 128 * 1024,
                "an event-node chunk must stay below glibc's initial mmap threshold");

  Node& NodeAt(std::uint32_t n) { return chunks_[n / kNodesPerChunk][n % kNodesPerChunk]; }

  /// Pops the most recently freed node, or grows the slab by one node.
  std::uint32_t AcquireNode() {
    if (free_ != kNil) {
      std::uint32_t n = free_;
      free_ = NodeAt(n).next;
      return n;
    }
    if (slab_size_ % kNodesPerChunk == 0) {
      chunks_.push_back(std::make_unique<Node[]>(kNodesPerChunk));
    }
    return slab_size_++;
  }

  void Append(List& list, std::uint32_t n) {
    NodeAt(n).next = kNil;
    if (list.tail == kNil) {
      list.head = n;
    } else {
      NodeAt(list.tail).next = n;
    }
    list.tail = n;
  }

  /// Cycle of the earliest pending event; kNeverCycle when empty.
  Cycle NextEventCycle() const;
  /// Positions the drain on cycle `c` (advancing now_ to it), splicing the
  /// cycle's overflow list in front of its wheel bucket.
  void StartDrain(Cycle c);
  /// Executes the head of the draining bucket in place.
  void ExecuteOne();

  std::vector<std::unique_ptr<Node[]>> chunks_;  ///< the node slab
  std::uint32_t slab_size_ = 0;                  ///< nodes ever handed out
  std::uint32_t free_ = kNil;                    ///< LIFO free-node list
  std::vector<List> wheel_;                      ///< kWheelSize per-cycle buckets
  std::vector<std::uint64_t> occupied_;          ///< wheel occupancy bitmap
  std::map<Cycle, List> far_;                    ///< events beyond the wheel

  // Drain state: the bucket of the cycle currently executing.
  bool draining_ = false;
  std::size_t cur_bucket_ = 0;

  Cycle now_ = 0;
  std::size_t pending_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace ndc::sim
