// Tests for the core model: in-order dispatch at issue width, dataflow
// completion (computes don't block later independent instructions),
// the outstanding-load cap, store/compute dependence resolution, and
// external (NDC) completion.

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "arch/core.hpp"
#include "sim/event_queue.hpp"

namespace ndc::arch {
namespace {

// A scriptable memory port: loads complete after a fixed or per-address
// latency; records issue order.
class FakePort : public MemoryPort {
 public:
  explicit FakePort(sim::EventQueue& eq) : eq_(eq) {}

  void IssueLoad(sim::NodeId, std::uint32_t idx, sim::Addr addr) override {
    issued_loads.push_back({eq_.now(), idx});
    sim::Cycle lat = latency;
    auto it = per_addr_latency.find(addr);
    if (it != per_addr_latency.end()) lat = it->second;
    if (auto_complete) {
      eq_.ScheduleAfter(lat, [this, idx] { core->Complete(idx, eq_.now()); });
    }
  }
  void IssueStore(sim::NodeId, std::uint32_t idx, sim::Addr) override {
    issued_stores.push_back({eq_.now(), idx});
  }
  void IssuePreCompute(sim::NodeId, std::uint32_t idx, const Instr&) override {
    issued_precomputes.push_back({eq_.now(), idx});
  }

  sim::EventQueue& eq_;
  Core* core = nullptr;
  sim::Cycle latency = 50;
  std::map<sim::Addr, sim::Cycle> per_addr_latency;
  bool auto_complete = true;
  std::vector<std::pair<sim::Cycle, std::uint32_t>> issued_loads;
  std::vector<std::pair<sim::Cycle, std::uint32_t>> issued_stores;
  std::vector<std::pair<sim::Cycle, std::uint32_t>> issued_precomputes;
};

struct CoreFixture : public ::testing::Test {
  ArchConfig cfg;
  sim::EventQueue eq;
  FakePort port{eq};
  std::unique_ptr<Core> core;
  Trace trace;  // the core borrows it

  void Run(Trace t) {
    trace = std::move(t);
    core = std::make_unique<Core>(0, cfg, eq, port);
    port.core = core.get();
    core->SetTrace(trace);
    core->Start();
    eq.RunUntilEmpty();
  }
};

TEST_F(CoreFixture, IssueWidthLimitsDispatchRate) {
  Trace t;
  for (int i = 0; i < 8; ++i) t.push_back(MakeCompute(Op::kAdd, -1, -1, false));
  Run(std::move(t));
  EXPECT_TRUE(core->finished());
  // 8 independent single-cycle computes at width 2: finishes around cycle 4.
  EXPECT_LE(core->finish_cycle(), 6u);
  EXPECT_GE(core->finish_cycle(), 4u);
}

TEST_F(CoreFixture, LoadsOverlapUpToTheCap) {
  cfg.max_outstanding_loads = 4;
  port.latency = 100;
  Trace t;
  for (int i = 0; i < 8; ++i) t.push_back(MakeLoad(static_cast<sim::Addr>(i) * 4096));
  Run(std::move(t));
  EXPECT_TRUE(core->finished());
  // Two waves of 4 loads: ~200 cycles, not 800 (full overlap within waves).
  EXPECT_LT(core->finish_cycle(), 230u);
  EXPECT_GE(core->finish_cycle(), 200u);
}

TEST_F(CoreFixture, ComputeDoesNotBlockLaterLoads) {
  port.latency = 100;
  Trace t;
  t.push_back(MakeLoad(0));                       // 0
  t.push_back(MakeCompute(Op::kAdd, 0, -1, false));  // 1 waits on the load
  t.push_back(MakeLoad(4096));                    // 2 must not wait for 1
  Run(std::move(t));
  ASSERT_EQ(port.issued_loads.size(), 2u);
  // Both loads dispatched within the first couple of cycles.
  EXPECT_LE(port.issued_loads[1].first, 2u);
  EXPECT_GE(core->done_cycle(1), 100u);
}

TEST_F(CoreFixture, ComputeCompletesAtMaxOfDeps) {
  port.per_addr_latency[0] = 40;
  port.per_addr_latency[4096] = 90;
  Trace t;
  t.push_back(MakeLoad(0));
  t.push_back(MakeLoad(4096));
  t.push_back(MakeCompute(Op::kAdd, 0, 1, false));
  Run(std::move(t));
  EXPECT_EQ(core->done_cycle(2), core->done_cycle(1) + cfg.compute_latency);
}

TEST_F(CoreFixture, DependentsOfOneSlotWakeInDispatchOrder) {
  // Four stores wait on load 0, two of them through dep1 (one also waits on
  // load 1, which returns first). When load 0 returns they must wake in the
  // order they dispatched, all in the same cycle.
  port.per_addr_latency[0] = 100;
  port.per_addr_latency[4096] = 30;
  Trace t;
  t.push_back(MakeLoad(0));             // 0
  t.push_back(MakeLoad(4096));          // 1
  t.push_back(MakeStore(8192, 0));      // 2
  t.push_back(MakeStore(8200, 1, 0));   // 3: waits on 1 and 0
  t.push_back(MakeStore(8208, 0));      // 4
  t.push_back(MakeStore(8216, -1, 0));  // 5: waits on 0 through dep1
  Run(std::move(t));
  EXPECT_TRUE(core->finished());
  ASSERT_EQ(port.issued_stores.size(), 4u);
  std::vector<std::uint32_t> order;
  for (const auto& [when, idx] : port.issued_stores) {
    EXPECT_EQ(when, core->done_cycle(0));
    order.push_back(idx);
  }
  EXPECT_EQ(order, (std::vector<std::uint32_t>{2, 3, 4, 5}));
}

TEST_F(CoreFixture, WaiterOnTwoPendingDepsResolvesAfterTheSecond) {
  // dep0 returns last: the first wake-up (from dep1) must not resolve the
  // compute or the store.
  port.per_addr_latency[0] = 120;
  port.per_addr_latency[4096] = 40;
  Trace t;
  t.push_back(MakeLoad(0));                         // 0: slow
  t.push_back(MakeLoad(4096));                      // 1: fast
  t.push_back(MakeCompute(Op::kAdd, 0, 1, false));  // 2
  t.push_back(MakeStore(8192, 1, 0));               // 3: waits on 1 and 0
  Run(std::move(t));
  EXPECT_TRUE(core->finished());
  EXPECT_EQ(core->done_cycle(0), 120u);
  EXPECT_EQ(core->done_cycle(1), 40u);
  EXPECT_EQ(core->done_cycle(2), 120u + cfg.compute_latency);
  ASSERT_EQ(port.issued_stores.size(), 1u);
  EXPECT_EQ(port.issued_stores[0].first, 120u);
}

TEST_F(CoreFixture, StoreWaitsForItsValue) {
  port.latency = 60;
  Trace t;
  t.push_back(MakeLoad(0));
  t.push_back(MakeCompute(Op::kAdd, 0, -1, false));
  t.push_back(MakeStore(8192, 1));
  Run(std::move(t));
  ASSERT_EQ(port.issued_stores.size(), 1u);
  EXPECT_GE(port.issued_stores[0].first, 60u);  // after the load returned
}

TEST_F(CoreFixture, IndirectLoadBlocksOnAddressDependence) {
  port.per_addr_latency[0] = 70;  // index load
  Trace t;
  t.push_back(MakeLoad(0));         // index
  t.push_back(MakeLoad(4096, 0));   // data: address depends on 0
  Run(std::move(t));
  ASSERT_EQ(port.issued_loads.size(), 2u);
  EXPECT_GE(port.issued_loads[1].first, 70u);
}

TEST_F(CoreFixture, PreComputeDispatchesWithoutWaitingForLoads) {
  port.latency = 200;
  port.auto_complete = false;  // nothing ever completes on its own
  Trace t;
  t.push_back(MakeLoad(0));
  t.push_back(MakeLoad(4096));
  t.push_back(MakePreCompute(Op::kAdd, 0, 1, Loc::kCacheCtrl, 10));
  core = std::make_unique<Core>(0, cfg, eq, port);
  port.core = core.get();
  core->SetTrace(t);
  core->Start();
  eq.RunUntilEmpty();
  // The pre-compute dispatched even though the loads never completed.
  ASSERT_EQ(port.issued_precomputes.size(), 1u);
  EXPECT_LE(port.issued_precomputes[0].first, 2u);
  EXPECT_FALSE(core->finished());
  // The machine completes everything externally.
  core->Complete(0, eq.now());
  core->Complete(1, eq.now());
  core->Complete(2, eq.now());
  eq.RunUntilEmpty();
  EXPECT_TRUE(core->finished());
}

TEST_F(CoreFixture, ExternalComputeIsNotSelfCompleted) {
  port.latency = 10;
  Trace t;
  t.push_back(MakeLoad(0));
  t.push_back(MakeLoad(4096));
  t.push_back(MakeCompute(Op::kAdd, 0, 1, true));
  core = std::make_unique<Core>(0, cfg, eq, port);
  port.core = core.get();
  core->SetTrace(t);
  core->MarkExternal(2);
  core->Start();
  eq.RunUntilEmpty();
  EXPECT_FALSE(core->finished());  // slot 2 awaits the machine
  core->Complete(2, eq.now() + 5);
  eq.RunUntilEmpty();
  EXPECT_TRUE(core->finished());
  EXPECT_EQ(core->done_cycle(2), core->finish_cycle());
}

TEST_F(CoreFixture, CompleteIsIdempotent) {
  Trace t;
  t.push_back(MakeLoad(0));
  core = std::make_unique<Core>(0, cfg, eq, port);
  port.core = core.get();
  port.auto_complete = false;
  core->SetTrace(t);
  core->Start();
  eq.RunUntilEmpty();
  core->Complete(0, eq.now());
  core->Complete(0, eq.now() + 99);  // must be ignored
  eq.RunUntilEmpty();
  EXPECT_TRUE(core->finished());
  EXPECT_EQ(core->done_cycle(0), 0u + eq.now());
}

TEST_F(CoreFixture, EarlyCompletionBeforeDispatchIsHonored) {
  // The machine may complete a slot before the core reaches it (an NDC
  // result racing in-order dispatch).
  port.latency = 5;
  Trace t;
  for (int i = 0; i < 40; ++i) t.push_back(MakeCompute(Op::kAdd, i ? i - 1 : -1, -1, false));
  t.push_back(MakeCompute(Op::kAdd, 39, -1, false));  // 40
  core = std::make_unique<Core>(0, cfg, eq, port);
  port.core = core.get();
  core->SetTrace(t);
  core->MarkExternal(40);
  core->Start();
  core->Complete(40, 1);  // completes long before dispatch reaches slot 40
  eq.RunUntilEmpty();
  EXPECT_TRUE(core->finished());
}

TEST_F(CoreFixture, FinishCycleIsMaxCompletion) {
  port.per_addr_latency[0] = 10;
  port.per_addr_latency[4096] = 300;
  Trace t;
  t.push_back(MakeLoad(0));
  t.push_back(MakeLoad(4096));
  Run(std::move(t));
  EXPECT_EQ(core->finish_cycle(), core->done_cycle(1));
}

TEST_F(CoreFixture, RingGrowsWhileALongWaitPinsTheOldestSlot) {
  // Load 0 returns 50,000 cycles late and compute 1 waits on it, while
  // 10,000 independent computes dispatch: the oldest slot cannot retire, so
  // the ring (8 slots: four times the longest dependence plus one) doubles
  // eleven times to span all 10,002 slots, without stalling dispatch.
  port.per_addr_latency[0] = 50'000;
  Trace t;
  t.push_back(MakeLoad(0));                          // 0
  t.push_back(MakeCompute(Op::kAdd, 0, -1, false));  // 1 waits on the load
  for (int i = 0; i < 10'000; ++i) t.push_back(MakeCompute(Op::kAdd, -1, -1, false));
  Run(std::move(t));
  EXPECT_TRUE(core->finished());
  EXPECT_EQ(core->window_slots(), 16'384u);
  EXPECT_EQ(core->done_cycle(0), 50'000u);
  EXPECT_EQ(core->done_cycle(1), 50'000u + cfg.compute_latency);
  // Two slots dispatch per cycle: slot i at cycle i / 2.
  for (std::uint32_t i = 2; i < 10'002; ++i) {
    ASSERT_EQ(core->done_cycle(i), i / 2 + cfg.compute_latency) << i;
  }
  EXPECT_EQ(core->finish_cycle(), 50'000u + cfg.compute_latency);
}

TEST_F(CoreFixture, SlotsRetireOnceCompletedAndACompleteOnOneIsANoOp) {
  // 64 independent computes: no dependence, so a 4-slot ring, and every
  // slot completes one cycle after it dispatches. The ring wraps as the
  // oldest slots retire, and never grows.
  Trace t;
  for (int i = 0; i < 64; ++i) t.push_back(MakeCompute(Op::kAdd, -1, -1, false));
  Run(std::move(t));
  EXPECT_TRUE(core->finished());
  EXPECT_EQ(core->window_slots(), 4u);
  EXPECT_EQ(core->finish_cycle(), 31u + cfg.compute_latency);
  EXPECT_EQ(core->done_cycle(63), core->finish_cycle());
  core->Complete(0, eq.now() + 1000);  // slot 0 retired long ago
  eq.RunUntilEmpty();
  EXPECT_TRUE(core->finished());  // not counted twice
  EXPECT_EQ(core->finish_cycle(), 31u + cfg.compute_latency);
  // A retired slot's cell now holds a later slot: reading it asserts.
  EXPECT_DEBUG_DEATH((void)core->done_cycle(0), "outside the core's window");
}

TEST_F(CoreFixture, DependenceOnARetiredSlotReadsAsDone) {
  // Longest dependence 15: a 64-slot ring. Dispatching slot 64 (cycle 32)
  // fills it, so slots 0..63, all completed by cycle 32, retire. Store 65
  // then reads its value's slot 50 as done long ago and issues in its own
  // dispatch cycle, as it would have from slot 50's completion at cycle 26.
  Trace t;
  for (int i = 0; i < 65; ++i) t.push_back(MakeCompute(Op::kAdd, -1, -1, false));
  t.push_back(MakeStore(8192, 50));  // 65
  for (int i = 0; i < 14; ++i) t.push_back(MakeCompute(Op::kAdd, -1, -1, false));
  Run(std::move(t));
  EXPECT_TRUE(core->finished());
  EXPECT_EQ(core->window_slots(), 64u);
  ASSERT_EQ(port.issued_stores.size(), 1u);
  EXPECT_EQ(port.issued_stores[0].first, 32u);
  EXPECT_EQ(core->done_cycle(65), 33u);
}

TEST_F(CoreFixture, EmptyTraceFinishesImmediately) {
  Run({});
  EXPECT_TRUE(core->finished());
  EXPECT_EQ(core->finish_cycle(), 0u);
}

}  // namespace
}  // namespace ndc::arch
