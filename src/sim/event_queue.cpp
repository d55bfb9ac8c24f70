#include "sim/event_queue.hpp"

namespace ndc::sim {

Cycle EventQueue::NextEventCycle() const {
  Cycle wheel_next = kNeverCycle;
  const std::size_t pos = static_cast<std::size_t>(now_) & kWheelMask;
  const std::size_t words = occupied_.size();
  for (std::size_t step = 0; step < words; ++step) {
    std::size_t w = ((pos >> 6) + step) % words;
    std::uint64_t word = occupied_[w];
    if (step == 0) word &= ~std::uint64_t{0} << (pos & 63);
    if (word != 0) {
      std::size_t idx = (w << 6) + static_cast<std::size_t>(__builtin_ctzll(word));
      wheel_next = now_ + ((idx - pos) & kWheelMask);
      break;
    }
  }
  if (wheel_next == kNeverCycle && (pos & 63) != 0) {
    // Wrapped low bits of the starting word (cycles just under now_ + N).
    std::uint64_t word = occupied_[pos >> 6] & (~std::uint64_t{0} >> (64 - (pos & 63)));
    if (word != 0) {
      std::size_t idx = ((pos >> 6) << 6) + static_cast<std::size_t>(__builtin_ctzll(word));
      wheel_next = now_ + ((idx - pos) & kWheelMask);
    }
  }
  if (!far_.empty() && far_.begin()->first < wheel_next) return far_.begin()->first;
  return wheel_next;
}

void EventQueue::StartDrain(Cycle c) {
  assert(c != kNeverCycle && c >= now_);
  now_ = c;
  cur_bucket_ = static_cast<std::size_t>(c) & kWheelMask;
  if (!far_.empty() && far_.begin()->first == c) {
    List older = far_.begin()->second;
    far_.erase(far_.begin());
    List& bucket = wheel_[cur_bucket_];
    if (bucket.head == kNil) {
      bucket.tail = older.tail;
    } else {
      NodeAt(older.tail).next = bucket.head;
    }
    bucket.head = older.head;
    occupied_[cur_bucket_ >> 6] |= 1ull << (cur_bucket_ & 63);
  }
  draining_ = true;
}

void EventQueue::ExecuteOne() {
  // Unlink the head first: the callback may append to this very bucket
  // (ScheduleAt(now)), and the node must not be reused while it runs.
  List& bucket = wheel_[cur_bucket_];
  std::uint32_t n = bucket.head;
  Node& node = NodeAt(n);
  bucket.head = node.next;
  if (bucket.head == kNil) bucket.tail = kNil;
  --pending_;
  ++executed_;
  node.cb();  // in place: chunks never move, so `node` stays valid
  node.cb.Reset();
  node.next = free_;
  free_ = n;
  if (bucket.head == kNil) {
    occupied_[cur_bucket_ >> 6] &= ~(1ull << (cur_bucket_ & 63));
    draining_ = false;
  }
}

bool EventQueue::Step() {
  if (!draining_) {
    if (pending_ == 0) return false;
    StartDrain(NextEventCycle());
  }
  ExecuteOne();
  return true;
}

std::uint64_t EventQueue::RunUntilEmpty(Cycle limit) {
  std::uint64_t n = 0;
  for (;;) {
    if (!draining_) {
      if (pending_ == 0) break;
      Cycle c = NextEventCycle();
      if (c > limit) break;
      StartDrain(c);
    } else if (now_ > limit) {
      break;  // mid-drain entries (via Step) beyond the window stay pending
    }
    while (draining_) {
      ExecuteOne();
      ++n;
    }
  }
  if (limit != kNeverCycle && limit > now_) now_ = limit;
  return n;
}

}  // namespace ndc::sim
