// Tests for the synchronization subsystem: engine-level semantics (ticket
// locks, barriers, remote atomics, post/wait), end-to-end execution of the
// sync-lowered sharded scenarios, cross-scheme value agreement, seed
// reproducibility, the sync-off bit-identity guarantee, and request
// conservation in every sync scenario.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "arch/config.hpp"
#include "fault/conservation.hpp"
#include "metrics/experiment.hpp"
#include "sim/event_queue.hpp"
#include "sync/sync.hpp"
#include "workloads/workloads.hpp"

namespace ndc {
namespace {

// ----------------------------------------------------- engine semantics ---

sync::SyncRequest Req(sync::SyncOp op, sim::Addr addr, sim::NodeId core,
                      std::int64_t arg = 0, std::int64_t arg2 = 0) {
  sync::SyncRequest r;
  r.op = op;
  r.addr = addr;
  r.arg = arg;
  r.arg2 = arg2;
  r.core = core;
  r.issued_at = 0;
  r.grant = [](const sync::SyncRequest&, sim::Cycle) {};
  return r;
}

TEST(SyncEngine, TicketLockGrantsInFifoOrder) {
  sim::EventQueue eq;
  sync::SyncManager sm(eq, {});
  std::vector<int> order;
  for (int c = 0; c < 3; ++c) {
    sync::SyncRequest r = Req(sync::SyncOp::kLockAcquire, 64, c);
    r.grant = [&, c](const sync::SyncRequest&, sim::Cycle when) {
      order.push_back(c);
      sync::SyncRequest rel = Req(sync::SyncOp::kLockRelease, 64, c);
      rel.issued_at = when;
      sm.Enqueue(0, std::move(rel));
    };
    sm.Enqueue(0, std::move(r));
  }
  eq.RunUntilEmpty();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(sm.stats().lock_acquires, 3u);
  EXPECT_EQ(sm.stats().lock_releases, 3u);
}

TEST(SyncEngine, BarrierReleasesAllArrivalsTogether) {
  sim::EventQueue eq;
  sync::SyncManager sm(eq, {});
  std::vector<sim::Cycle> granted_at;
  for (int c = 0; c < 4; ++c) {
    sync::SyncRequest r = Req(sync::SyncOp::kBarrierArrive, 128, c, /*arg=*/4);
    r.grant = [&](const sync::SyncRequest&, sim::Cycle t) { granted_at.push_back(t); };
    sm.Enqueue(1, std::move(r));
  }
  eq.RunUntilEmpty();
  ASSERT_EQ(granted_at.size(), 4u);
  EXPECT_EQ(granted_at.front(), granted_at.back());  // released by one event
  EXPECT_EQ(sm.stats().barrier_arrivals, 4u);
  EXPECT_EQ(sm.stats().barrier_departures, 4u);
}

TEST(SyncEngine, BarrierIsReusableAcrossGenerations) {
  sim::EventQueue eq;
  sync::SyncManager sm(eq, {});
  int grants = 0;
  auto arrive = [&](int c) {
    sync::SyncRequest r = Req(sync::SyncOp::kBarrierArrive, 128, c, /*arg=*/2);
    r.grant = [&](const sync::SyncRequest&, sim::Cycle) { ++grants; };
    sm.Enqueue(0, std::move(r));
  };
  arrive(0);
  arrive(1);
  eq.RunUntilEmpty();
  EXPECT_EQ(grants, 2);
  arrive(0);  // second generation must start from an empty barrier
  arrive(1);
  eq.RunUntilEmpty();
  EXPECT_EQ(grants, 4);
  EXPECT_EQ(sm.stats().barrier_departures, 4u);
}

TEST(SyncEngine, AtomicAddAccumulatesAndCasCompares) {
  sim::EventQueue eq;
  sync::SyncManager sm(eq, {});
  sm.Enqueue(0, Req(sync::SyncOp::kAtomicAdd, 8, 0, 5));
  sm.Enqueue(0, Req(sync::SyncOp::kAtomicAdd, 8, 1, 7));
  sm.Enqueue(0, Req(sync::SyncOp::kAtomicCas, 16, 2, /*expected=*/0, /*desired=*/9));
  sm.Enqueue(0, Req(sync::SyncOp::kAtomicCas, 16, 3, /*expected=*/3, /*desired=*/1));
  eq.RunUntilEmpty();
  EXPECT_EQ(sm.values().at(8), 12);
  EXPECT_EQ(sm.values().at(16), 9);  // second CAS saw 9 != 3 and left it alone
  EXPECT_EQ(sm.stats().atomics_issued, 4u);
  EXPECT_EQ(sm.stats().atomics_completed, 4u);
}

TEST(SyncEngine, WaitParksUntilEnoughPosts) {
  sim::EventQueue eq;
  sync::SyncManager sm(eq, {});
  bool granted = false;
  sync::SyncRequest w = Req(sync::SyncOp::kWait, 32, 0, /*threshold=*/2);
  w.grant = [&](const sync::SyncRequest&, sim::Cycle) { granted = true; };
  sm.Enqueue(0, std::move(w));
  eq.RunUntilEmpty();
  EXPECT_FALSE(granted);
  sm.Enqueue(0, Req(sync::SyncOp::kPost, 32, 1));
  eq.RunUntilEmpty();
  EXPECT_FALSE(granted);
  sm.Enqueue(0, Req(sync::SyncOp::kPost, 32, 1));
  eq.RunUntilEmpty();
  EXPECT_TRUE(granted);
  EXPECT_EQ(sm.stats().posts, 2u);
  EXPECT_EQ(sm.stats().waits, 1u);
}

TEST(SyncEngine, ContendedEngineAccumulatesQueueWait) {
  sim::EventQueue eq;
  sync::SyncManager sm(eq, {});
  for (int c = 0; c < 8; ++c) sm.Enqueue(0, Req(sync::SyncOp::kAtomicAdd, 8, c, 1));
  eq.RunUntilEmpty();
  EXPECT_EQ(sm.stats().ops, 8u);
  // One engine services serially: whoever is not first waits in queue.
  EXPECT_GT(sm.stats().queue_wait_cycles, 0u);
  EXPECT_GT(sm.stats().stall_cycles, sm.stats().queue_wait_cycles);
}

// ------------------------------------------------- workload execution ---

// Mirrors ChunkFor(Scale::kTest) in workloads/sharded.cpp.
constexpr ir::Int kTestChunk = 24;

// The per-iteration payload the code generator feeds every lowered RMW;
// must mirror ReductionPayload() in compiler/codegen.cpp so the expected
// final value of the shared total is computable in closed form.
ir::Int ExpectedReduceTotal(ir::Int cores, ir::Int chunk) {
  ir::Int sum = 0;
  for (ir::Int c = 0; c < cores; ++c) {
    for (ir::Int i = 0; i < chunk; ++i) sum += 1 + ((c * 31 + i) % 13);
  }
  return sum;
}

TEST(SyncMachine, AtomicAndLockSchemesAgreeOnFinalValues) {
  arch::ArchConfig cfg;
  metrics::Experiment ea("shard.reduce.atomic", workloads::Scale::kTest, cfg);
  metrics::Experiment el("shard.reduce.lock", workloads::Scale::kTest, cfg);
  const runtime::RunResult& ra = ea.Baseline();
  const runtime::RunResult& rl = el.Baseline();
  const std::uint64_t iters =
      static_cast<std::uint64_t>(cfg.num_nodes()) * static_cast<std::uint64_t>(kTestChunk);

  ASSERT_EQ(ra.sync_values.size(), 1u);
  EXPECT_EQ(ra.sync_values, rl.sync_values);  // same cells, same final values
  EXPECT_EQ(ra.sync_values.begin()->second,
            ExpectedReduceTotal(cfg.num_nodes(), kTestChunk));

  EXPECT_EQ(ra.stats.Get("sync.atomics_issued"), iters);
  EXPECT_EQ(ra.stats.Get("sync.atomics_completed"), iters);
  EXPECT_EQ(ra.stats.Get("sync.lock_acquires"), 0u);
  EXPECT_EQ(rl.stats.Get("sync.lock_acquires"), iters);
  EXPECT_EQ(rl.stats.Get("sync.lock_releases"), iters);
  EXPECT_EQ(rl.stats.Get("sync.atomics_issued"), 0u);
  EXPECT_EQ(ra.stats.Get("sync.barrier_arrivals"),
            static_cast<std::uint64_t>(cfg.num_nodes()));
  EXPECT_EQ(rl.stats.Get("sync.barrier_arrivals"),
            static_cast<std::uint64_t>(cfg.num_nodes()));
}

TEST(SyncMachine, WavePipelineCompletesWithPostsAndWaits) {
  arch::ArchConfig cfg;
  metrics::Experiment ew("shard.stencil.wave", workloads::Scale::kTest, cfg);
  const runtime::RunResult& rw = ew.Baseline();
  const std::uint64_t cores = static_cast<std::uint64_t>(cfg.num_nodes());
  const std::uint64_t chunk = static_cast<std::uint64_t>(kTestChunk);

  // Every core posts once per iteration; every core but the first waits on
  // its left neighbour once per iteration.
  EXPECT_EQ(rw.stats.Get("sync.posts"), cores * chunk);
  EXPECT_EQ(rw.stats.Get("sync.waits"), (cores - 1) * chunk);
  EXPECT_EQ(rw.stats.Get("sync.barrier_arrivals"), cores);
  EXPECT_EQ(rw.stats.Get("sync.barrier_departures"), cores);
  EXPECT_TRUE(rw.sync_values.empty());  // post/wait carries no data values
  // Pipeline skew is real: downstream cores spend cycles blocked in waits.
  EXPECT_GT(rw.stats.Get("sync.stall_cycles"), 0u);
}

TEST(SyncMachine, SameSeedRunsAreBitIdentical) {
  arch::ArchConfig cfg;
  for (const char* name : {"shard.reduce.atomic", "shard.reduce.lock",
                           "shard.stencil.wave"}) {
    metrics::Experiment e1(name, workloads::Scale::kTest, cfg);
    metrics::Experiment e2(name, workloads::Scale::kTest, cfg);
    const runtime::RunResult& a = e1.Baseline();
    const runtime::RunResult& b = e2.Baseline();
    EXPECT_EQ(a.makespan, b.makespan) << name;
    EXPECT_EQ(a.events, b.events) << name;
    EXPECT_EQ(a.sync_values, b.sync_values) << name;
    EXPECT_EQ(a.stats.all(), b.stats.all()) << name;
  }
}

TEST(SyncMachine, SyncFreeRunsCarryNoSyncState) {
  arch::ArchConfig cfg;
  metrics::Experiment e("shard.reduce", workloads::Scale::kTest, cfg);
  for (const arch::Trace& t : e.BaselineTraces()) {
    for (const arch::Instr& in : t) {
      EXPECT_NE(in.kind, arch::Instr::Kind::kSync);
    }
  }
  const runtime::RunResult& r = e.Baseline();
  EXPECT_TRUE(r.sync_values.empty());
  for (const auto& [key, value] : r.stats.all()) {
    EXPECT_NE(key.rfind("sync.", 0), 0u) << key << " leaked into a sync-free run";
  }
}

// Every sync scenario contends: all cores hammer one atomic, one lock or
// one barrier. No request may be lost, with or without NDC offloads.
TEST(SyncMachine, ConservationHoldsUnderSyncContentionStorms) {
  arch::ArchConfig cfg;
  for (const char* name : {"shard.reduce.atomic", "shard.reduce.lock",
                           "shard.stencil.wave"}) {
    metrics::Experiment exp(name, workloads::Scale::kTest, cfg);
    for (metrics::Scheme scheme : {metrics::Scheme::kBaseline, metrics::Scheme::kDefault}) {
      metrics::SchemeResult r = exp.Run(scheme);
      const fault::ConservationInputs& in = exp.last_conservation();
      fault::ConservationReport rep = fault::CheckConservation(in);
      EXPECT_TRUE(rep.ok) << name << " " << metrics::SchemeName(scheme) << "\n"
                          << rep.ToString();
      EXPECT_GT(in.sync_acquires + in.sync_barrier_arrivals + in.sync_atomics_issued, 0u)
          << name;
      EXPECT_GT(r.run.makespan, 0u) << name;
    }
  }
}

}  // namespace
}  // namespace ndc
