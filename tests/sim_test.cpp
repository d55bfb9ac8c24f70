// Unit tests for the simulation kernel: event queue ordering, stats,
// histograms, and the deterministic RNG.

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/legacy_event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"

namespace ndc::sim {
namespace {

TEST(EventQueue, RunsEventsInTimeOrder) {
  EventQueue eq;
  std::vector<int> order;
  eq.ScheduleAt(10, [&] { order.push_back(2); });
  eq.ScheduleAt(5, [&] { order.push_back(1); });
  eq.ScheduleAt(20, [&] { order.push_back(3); });
  eq.RunUntilEmpty();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eq.now(), 20u);
}

TEST(EventQueue, SameCycleEventsRunFifo) {
  EventQueue eq;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    eq.ScheduleAt(7, [&order, i] { order.push_back(i); });
  }
  eq.RunUntilEmpty();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, EventsMayScheduleMoreEvents) {
  EventQueue eq;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 5) eq.ScheduleAfter(3, chain);
  };
  eq.ScheduleAt(0, chain);
  eq.RunUntilEmpty();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(eq.now(), 12u);
}

TEST(EventQueue, RunUntilLimitStopsEarly) {
  EventQueue eq;
  int fired = 0;
  eq.ScheduleAt(5, [&] { ++fired; });
  eq.ScheduleAt(50, [&] { ++fired; });
  eq.RunUntilEmpty(10);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(eq.RunUntilEmpty(), 1u);  // the event at 50 was still pending
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, BoundedRunAdvancesClockToLimit) {
  // Regression: RunUntilEmpty(limit) used to leave now() at the last
  // *executed* event, so code that kept scheduling relative to now() after a
  // bounded run worked from a stale clock. Contract: the whole bounded
  // window elapses, so now() == limit afterwards.
  EventQueue eq;
  int fired = 0;
  eq.ScheduleAt(5, [&] { ++fired; });
  eq.ScheduleAt(50, [&] { ++fired; });
  eq.RunUntilEmpty(10);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(eq.now(), 10u);  // pre-fix: stuck at 5
  eq.RunUntilEmpty(40);      // nothing executes; the window still elapses
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(eq.now(), 40u);
  eq.RunUntilEmpty();        // unbounded: clock rests at the last event
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(eq.now(), 50u);
}

TEST(EventQueue, ScheduleAfterBoundedRunUsesTheLimitAsBase) {
  EventQueue eq;
  eq.ScheduleAt(3, [] {});
  eq.RunUntilEmpty(100);
  std::vector<Cycle> at;
  eq.ScheduleAfter(5, [&] { at.push_back(eq.now()); });
  eq.RunUntilEmpty();
  ASSERT_EQ(at.size(), 1u);
  EXPECT_EQ(at[0], 105u);  // pre-fix: 8 (relative to the stale clock)
}

TEST(EventQueue, SameCycleFifoAcrossScheduleAtAndScheduleAfter) {
  // The FIFO tie-break must not depend on which API scheduled the event.
  EventQueue eq;
  std::vector<int> order;
  eq.ScheduleAt(0, [&] {
    eq.ScheduleAt(9, [&] { order.push_back(0); });
    eq.ScheduleAfter(9, [&] { order.push_back(1); });
    eq.ScheduleAt(9, [&] { order.push_back(2); });
    eq.ScheduleAfter(9, [&] { order.push_back(3); });
  });
  eq.RunUntilEmpty();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueue, FarEventsRunBeforeSameCycleWheelEvents) {
  // An event scheduled for cycle K while K was beyond the wheel horizon
  // lives in the overflow map; it is strictly older than any event scheduled
  // for K after K entered the wheel window, so FIFO demands it run first.
  EventQueue eq;
  std::vector<int> order;
  eq.ScheduleAt(5000, [&] { order.push_back(1); });  // far at schedule time
  eq.ScheduleAt(1000, [&] {
    eq.ScheduleAt(5000, [&] { order.push_back(2); });  // 4000 ahead: wheel
  });
  eq.RunUntilEmpty();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(eq.now(), 5000u);
}

TEST(EventQueue, ScheduleAtNowFromLastCallbackOfABucketRunsThatCycle) {
  // The running event is unlinked before it runs, so when it is the last
  // one of its bucket it leaves the bucket empty. A same-cycle event it
  // schedules must still join this cycle's drain, after it.
  EventQueue eq;
  std::vector<std::pair<int, Cycle>> order;
  eq.ScheduleAt(7, [&] { order.emplace_back(0, eq.now()); });
  eq.ScheduleAt(7, [&] {
    order.emplace_back(1, eq.now());
    eq.ScheduleAt(eq.now(), [&] { order.emplace_back(2, eq.now()); });
  });
  eq.ScheduleAt(8, [&] { order.emplace_back(3, eq.now()); });
  eq.RunUntilEmpty();
  std::vector<std::pair<int, Cycle>> want{{0, 7}, {1, 7}, {2, 7}, {3, 8}};
  EXPECT_EQ(order, want);
  EXPECT_EQ(eq.RunUntilEmpty(), 0u);  // nothing left pending
}

TEST(EventQueue, PromotedOverflowRunsBeforeBucketAndSameCycleAppends) {
  // Cycle 5000 gets two overflow events (scheduled at cycle 0, beyond the
  // wheel horizon) and, from cycle 1000, two wheel events. On promotion the
  // overflow list goes in front of the non-empty bucket; events that the
  // drain itself schedules for cycle 5000 run after all four, in order.
  EventQueue eq;
  std::vector<std::string> order;
  eq.ScheduleAt(5000, [&] {
    order.push_back("far0");
    eq.ScheduleAt(eq.now(), [&] { order.push_back("far0.child"); });
  });
  eq.ScheduleAt(5000, [&] { order.push_back("far1"); });
  eq.ScheduleAt(1000, [&] {
    eq.ScheduleAt(5000, [&] {
      order.push_back("wheel0");
      eq.ScheduleAt(eq.now(), [&] { order.push_back("wheel0.child"); });
    });
    eq.ScheduleAt(5000, [&] { order.push_back("wheel1"); });
  });
  eq.RunUntilEmpty();
  std::vector<std::string> want{"far0",   "far1",       "wheel0",
                                "wheel1", "far0.child", "wheel0.child"};
  EXPECT_EQ(order, want);
  EXPECT_EQ(eq.now(), 5000u);
}

TEST(EventQueue, CallbacksOfAllStorageClassesExecute) {
  // Every callback is stored inline in its node's SmallCallback (a callable
  // over 64 bytes does not compile); one that fills the buffer with its
  // by-value captures runs intact.
  EventQueue eq;
  std::uint64_t sum = 0;
  std::array<std::uint64_t, 4> small{1, 2, 3, 4};
  std::array<std::uint64_t, 7> full{5, 6};
  eq.ScheduleAt(1, [&sum, small] {
    for (auto v : small) sum += v;
  });
  eq.ScheduleAt(2, [&sum, full] { sum += full[0] + full[1]; });
  static_assert(sizeof(full) + sizeof(&sum) == SmallCallback::kInlineBytes);
  eq.RunUntilEmpty();
  EXPECT_EQ(sum, 21u);
}

// Runs an identical randomized, reentrant schedule on a queue type and
// returns the execution order. Delays span 0 .. ~20000 cycles, so events
// land both inside the calendar wheel and in the far-overflow map, and
// callbacks reschedule (including same-cycle) while their bucket drains.
template <typename Queue>
std::vector<std::uint64_t> ExecutionOrder() {
  Queue q;
  std::vector<std::uint64_t> order;
  std::uint64_t next_id = 10000;
  std::function<void(std::uint64_t)> body = [&](std::uint64_t id) {
    order.push_back(id);
    if (id % 3 == 0 && next_id < 11500) {
      std::uint64_t far_child = next_id++;
      q.ScheduleAfter((id * 37 + 11) % 9000, [&body, far_child] { body(far_child); });
      std::uint64_t near_child = next_id++;
      q.ScheduleAfter(0, [&body, near_child] { body(near_child); });
    }
  };
  Rng rng(99);
  for (std::uint64_t i = 0; i < 500; ++i) {
    q.ScheduleAt(rng.NextBelow(20000), [&body, i] { body(i); });
  }
  q.RunUntilEmpty();
  return order;
}

TEST(EventQueue, MatchesLegacyQueueOnRandomizedReentrantSchedules) {
  // The bit-identical figure-output guarantee rests on this property: the
  // calendar queue executes any schedule in exactly the order the seed
  // binary-heap queue (explicit FIFO sequence numbers) did.
  std::vector<std::uint64_t> calendar = ExecutionOrder<EventQueue>();
  std::vector<std::uint64_t> legacy = ExecutionOrder<LegacyEventQueue>();
  ASSERT_GT(calendar.size(), 500u);  // reentrant children actually spawned
  EXPECT_EQ(calendar, legacy);
}

TEST(BucketHistogram, PaperBucketsClassifyCorrectly) {
  BucketHistogram h;  // 1, 10, 20, 50, 100, 500, 500+
  h.Add(0);
  h.Add(1);
  h.Add(2);
  h.Add(10);
  h.Add(11);
  h.Add(20);
  h.Add(50);
  h.Add(100);
  h.Add(500);
  h.Add(501);
  h.Add(kNeverCycle);  // "second operand never arrives" lands in 500+
  // 11 samples: each bucket's share is its count over 11.
  EXPECT_DOUBLE_EQ(h.Fraction(0), 2.0 / 11);  // <=1
  EXPECT_DOUBLE_EQ(h.Fraction(1), 2.0 / 11);  // (1,10]
  EXPECT_DOUBLE_EQ(h.Fraction(2), 2.0 / 11);  // (10,20]
  EXPECT_DOUBLE_EQ(h.Fraction(3), 1.0 / 11);  // (20,50]
  EXPECT_DOUBLE_EQ(h.Fraction(4), 1.0 / 11);  // (50,100]
  EXPECT_DOUBLE_EQ(h.Fraction(5), 1.0 / 11);  // (100,500]
  EXPECT_DOUBLE_EQ(h.Fraction(6), 2.0 / 11);  // 500+
}

TEST(BucketHistogram, CumulativeFractions) {
  BucketHistogram h;
  for (int i = 0; i < 50; ++i) h.Add(5);    // bucket 1
  for (int i = 0; i < 50; ++i) h.Add(1000);  // overflow
  EXPECT_DOUBLE_EQ(h.CumulativeFraction(1), 0.5);
  EXPECT_DOUBLE_EQ(h.CumulativeFraction(6), 1.0);
}

TEST(BucketHistogram, MergePreservesTotals) {
  BucketHistogram a, b;
  a.Add(5);
  b.Add(600);
  b.Add(15);
  a.MergeFrom(b);
  // 3 samples after the merge, one in each of buckets 1, 2 and 6.
  EXPECT_DOUBLE_EQ(a.Fraction(1), 1.0 / 3);
  EXPECT_DOUBLE_EQ(a.Fraction(2), 1.0 / 3);
  EXPECT_DOUBLE_EQ(a.Fraction(6), 1.0 / 3);
  EXPECT_DOUBLE_EQ(a.CumulativeFraction(6), 1.0);
}

TEST(StatSet, AddAndGet) {
  StatSet s;
  s.Add("x");
  s.Add("x", 4);
  s.Add("zero", 0);  // a zero delta adds no key: keys exist iff non-zero
  EXPECT_EQ(s.Get("x"), 5u);
  EXPECT_EQ(s.Get("missing"), 0u);
  EXPECT_EQ(s.all().size(), 1u);
  EXPECT_EQ(s.all().count("zero"), 0u);
}

TEST(GeometricMean, MatchesHandComputation) {
  EXPECT_NEAR(GeometricMean({2.0, 8.0}), 4.0, 1e-12);
  EXPECT_NEAR(GeometricMean({1.0, 1.0, 1.0}), 1.0, 1e-12);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowIsInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.NextBelow(17), 17u);
}

TEST(Rng, DoubleIsInUnitInterval) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    double d = r.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

// Property: the RNG range helper covers its whole inclusive range.
class RngRangeTest : public ::testing::TestWithParam<std::pair<std::int64_t, std::int64_t>> {};

TEST_P(RngRangeTest, StaysWithinBoundsAndHitsBoth) {
  auto [lo, hi] = GetParam();
  Rng r(static_cast<std::uint64_t>(lo * 31 + hi));
  bool hit_lo = false, hit_hi = false;
  for (int i = 0; i < 5000; ++i) {
    std::int64_t v = r.NextInRange(lo, hi);
    EXPECT_GE(v, lo);
    EXPECT_LE(v, hi);
    hit_lo |= v == lo;
    hit_hi |= v == hi;
  }
  EXPECT_TRUE(hit_lo);
  EXPECT_TRUE(hit_hi);
}

INSTANTIATE_TEST_SUITE_P(Ranges, RngRangeTest,
                         ::testing::Values(std::pair<std::int64_t, std::int64_t>{0, 1},
                                           std::pair<std::int64_t, std::int64_t>{-5, 5},
                                           std::pair<std::int64_t, std::int64_t>{3, 17},
                                           std::pair<std::int64_t, std::int64_t>{-100, -90}));

}  // namespace
}  // namespace ndc::sim
