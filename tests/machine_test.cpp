// Integration tests for the full machine: memory hierarchy timing, NUCA
// homing, NDC offload execution at each location kind, time-outs and
// fallbacks, and the observation (quantification) mode of Section 4.

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>

#include "arch/config.hpp"
#include "arch/trace.hpp"
#include "compiler/arch_desc.hpp"
#include "compiler/codegen.hpp"
#include "compiler/pipeline.hpp"
#include "ndc/machine.hpp"
#include "ndc/policy.hpp"
#include "test_support.hpp"
#include "noc/geometry.hpp"
#include "workloads/workloads.hpp"

namespace ndc::runtime {
namespace {

using arch::ArchConfig;
using arch::Instr;
using arch::Loc;
using arch::MakeCompute;
using arch::MakeLoad;
using arch::MakePreCompute;
using arch::MakeStore;
using arch::Op;
using arch::Trace;

// Two addresses with the same L2 home bank (node 0) but different L1 lines.
constexpr sim::Addr kAddrA = 0;
constexpr sim::Addr kAddrB = 256ull * 25;  // home = (B/256) % 25 = 0

std::vector<Trace> Program(sim::NodeId core, Trace t, int num_cores = 25) {
  std::vector<Trace> p(static_cast<std::size_t>(num_cores));
  p[static_cast<std::size_t>(core)] = std::move(t);
  return p;
}

TEST(Machine, SingleLoadMissTraversesHierarchy) {
  ArchConfig cfg;
  Machine m(cfg);
  m.LoadProgram(Program(6, {MakeLoad(kAddrA)}));
  RunResult r = m.Run();
  EXPECT_EQ(r.l1_misses, 1u);
  EXPECT_EQ(r.l2_misses, 1u);
  // L1 tag check + request to home + L2 access + MC round trip + responses.
  EXPECT_GT(r.makespan, cfg.l2.access_latency + cfg.dram.row_miss_latency);
  EXPECT_LT(r.makespan, 500u);
}

TEST(Machine, SecondAccessToSameLineHitsL1) {
  ArchConfig cfg;
  Machine m(cfg);
  // dep0 forces ordering so the fill has landed.
  Trace t{MakeLoad(kAddrA), MakeLoad(kAddrA + 8, /*dep=*/0)};
  m.LoadProgram(Program(6, std::move(t)));
  RunResult r = m.Run();
  EXPECT_EQ(r.l1_misses, 1u);
  EXPECT_EQ(r.l1_hits, 1u);
}

TEST(Machine, L2HitIsFasterThanMemoryAccess) {
  ArchConfig cfg;
  // Two cores read the same L2 line; the second (delayed) gets an L2 hit.
  Machine miss_machine(cfg);
  miss_machine.LoadProgram(Program(6, {MakeLoad(kAddrA)}));
  sim::Cycle miss_time = miss_machine.Run().makespan;

  Machine m(cfg);
  std::vector<Trace> p(25);
  p[6] = {MakeLoad(kAddrA)};
  // Core 7: long dependent chain, then read a different word of A's L2 line
  // (different L1 line to avoid its own L1).
  Trace t7;
  t7.push_back(MakeCompute(Op::kAdd, -1, -1, false));
  for (int i = 1; i < 400; ++i) t7.push_back(MakeCompute(Op::kAdd, i - 1, -1, false));
  t7.push_back(MakeLoad(kAddrA + 64, 399));
  p[7] = std::move(t7);
  m.LoadProgram(std::move(p));
  RunResult r = m.Run();
  EXPECT_EQ(r.l2_hits, 1u);
  EXPECT_EQ(r.l2_misses, 1u);
  // Core 7 issues its load at ~cycle 400 (serial 400-compute chain); the L2
  // hit must finish well before a full memory access would have.
  EXPECT_LT(r.makespan, 400 + miss_time);
  EXPECT_GT(r.makespan, 400u);
}

// --- Idle-machine latencies ------------------------------------------------
// On an idle machine one load takes exactly the sum along its path
// (DESIGN.md §10, "Load latency on an idle machine"). The message sizes
// are the packet kinds' sizes in the machine: an 8 B request, a 64 B L1
// line to the core, a 256 B L2 line from the memory controller.
constexpr int kReqBytes = 8;
constexpr int kL1LineBytes = 64;
constexpr int kL2LineBytes = 256;

// An address whose L2 home (node 12, mid-mesh) is neither the requesting
// corner core 24 nor its memory controller's node 0.
constexpr sim::Addr kAddrMid = 256ull * 12;
constexpr sim::NodeId kCorner = 24;

// Idle-mesh cycles for a `bytes` message from `a` to `b`: per X-Y hop one
// router pipeline plus serialization, then the router pipeline of the
// delivering node (the whole cost of a same-node message).
sim::Cycle NocCycles(const ArchConfig& cfg, sim::NodeId a, sim::NodeId b, int bytes) {
  noc::Mesh mesh(cfg.mesh_width, cfg.mesh_height);
  noc::Coord ca = mesh.CoordOf(a), cb = mesh.CoordOf(b);
  auto hops = static_cast<sim::Cycle>(std::abs(ca.x - cb.x) + std::abs(ca.y - cb.y));
  auto ser = static_cast<sim::Cycle>((bytes + cfg.noc.link_bytes - 1) / cfg.noc.link_bytes);
  return hops * (cfg.noc.router_pipeline + ser) + cfg.noc.router_pipeline;
}

// L1 miss to DRAM and back: request to the home bank, L2 miss, request to
// the memory controller, the DRAM access, the L2 line back to the home and
// the L1 line back to the core.
sim::Cycle DramPath(const ArchConfig& cfg, sim::NodeId core, sim::Addr addr,
                    sim::Cycle dram_latency) {
  mem::AddressMap amap = cfg.MakeAddressMap();
  sim::NodeId home = amap.HomeBank(addr);
  sim::NodeId mc = cfg.McNodes()[static_cast<std::size_t>(amap.Mc(addr))];
  return cfg.l1.access_latency + NocCycles(cfg, core, home, kReqBytes) +
         cfg.l2.access_latency + NocCycles(cfg, home, mc, kReqBytes) + dram_latency +
         NocCycles(cfg, mc, home, kL2LineBytes) + NocCycles(cfg, home, core, kL1LineBytes);
}

TEST(MachineLatency, L1Hit) {
  ArchConfig cfg;
  Machine m(cfg);
  m.LoadProgram(Program(6, {MakeLoad(kAddrA), MakeLoad(kAddrA + 8, /*dep=*/0)}));
  RunResult r = m.Run();
  ASSERT_EQ(r.l1_hits, 1u);
  // The second load dispatches the cycle the first completes.
  EXPECT_EQ(m.core(6).done_cycle(1) - m.core(6).done_cycle(0), cfg.l1.access_latency);
}

TEST(MachineLatency, LocalL2Hit) {
  // Core 0 is kAddrA's home: the L1 miss reaches its own L2 bank without a
  // router transit, and the line comes back as a same-node message.
  ArchConfig cfg;
  ASSERT_EQ(cfg.MakeAddressMap().HomeBank(kAddrA), 0);
  Machine m(cfg);
  m.LoadProgram(Program(0, {MakeLoad(kAddrA), MakeLoad(kAddrA + 64, /*dep=*/0)}));
  RunResult r = m.Run();
  ASSERT_EQ(r.l2_hits, 1u);
  EXPECT_EQ(m.core(0).done_cycle(1) - m.core(0).done_cycle(0),
            cfg.l1.access_latency + cfg.l2.access_latency + cfg.noc.router_pipeline);
}

TEST(MachineLatency, RemoteL2Hit) {
  ArchConfig cfg;
  sim::NodeId home = cfg.MakeAddressMap().HomeBank(kAddrMid);
  Machine m(cfg);
  m.LoadProgram(Program(kCorner, {MakeLoad(kAddrMid), MakeLoad(kAddrMid + 64, /*dep=*/0)}));
  RunResult r = m.Run();
  ASSERT_EQ(r.l2_hits, 1u);
  EXPECT_EQ(m.core(kCorner).done_cycle(1) - m.core(kCorner).done_cycle(0),
            cfg.l1.access_latency + NocCycles(cfg, kCorner, home, kReqBytes) +
                cfg.l2.access_latency + NocCycles(cfg, home, kCorner, kL1LineBytes));
}

TEST(MachineLatency, DramRowMiss) {
  ArchConfig cfg;
  Machine m(cfg);
  m.LoadProgram(Program(kCorner, {MakeLoad(kAddrMid)}));
  RunResult r = m.Run();
  ASSERT_EQ(r.stats.Get("mc.row_misses"), 1u);
  // The first slot dispatches at cycle 0.
  EXPECT_EQ(m.core(kCorner).done_cycle(0),
            DramPath(cfg, kCorner, kAddrMid, cfg.dram.row_miss_latency));
}

TEST(MachineLatency, DramRowHit) {
  // The next L2 line (another home) lies in the same DRAM row, which the
  // first load left open. The bank's data beat ended long before.
  ArchConfig cfg;
  const sim::Addr next = kAddrMid + 256;
  mem::AddressMap amap = cfg.MakeAddressMap();
  ASSERT_EQ(amap.Mc(next), amap.Mc(kAddrMid));
  ASSERT_EQ(amap.DramBank(next), amap.DramBank(kAddrMid));
  ASSERT_EQ(amap.DramRow(next), amap.DramRow(kAddrMid));
  Machine m(cfg);
  m.LoadProgram(Program(kCorner, {MakeLoad(kAddrMid), MakeLoad(next, /*dep=*/0)}));
  RunResult r = m.Run();
  ASSERT_EQ(r.stats.Get("mc.row_hits"), 1u);
  EXPECT_EQ(m.core(kCorner).done_cycle(1) - m.core(kCorner).done_cycle(0),
            DramPath(cfg, kCorner, next, cfg.dram.row_hit_latency));
}

TEST(Machine, LoadProgramRejectsMoreTracesThanCores) {
  ArchConfig cfg;
  Machine m(cfg);
  std::vector<Trace> p(static_cast<std::size_t>(cfg.num_nodes()) + 1);
  p.back() = {MakeLoad(kAddrA)};
  EXPECT_THROW(m.LoadProgram(std::move(p)), std::invalid_argument);
}

// A dep names an earlier slot of the same trace; a self, forward or
// past-the-end dep is rejected before the core could index past its trace.
TEST(Machine, LoadProgramRejectsForwardDeps) {
  ArchConfig cfg;
  const std::vector<Trace> bad = {
      {MakeLoad(kAddrA), MakeCompute(Op::kAdd, 0, 1, true)},        // self
      {MakeLoad(kAddrA), MakeStore(kAddrB, 0, 2), MakeLoad(kAddrB)},  // forward
      {MakeLoad(kAddrA), MakeLoad(kAddrB, 7)},                        // past the end
      {MakeLoad(kAddrA, 0)},                                          // self at slot 0
  };
  for (const Trace& t : bad) {
    Machine m(cfg);
    try {
      m.LoadProgram(Program(3, t));
      ADD_FAILURE() << "accepted a trace with a forward dep";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("core 3 slot "), std::string::npos) << e.what();
    }
  }
  Machine ok(cfg);
  ok.LoadProgram(Program(3, {MakeLoad(kAddrA), MakeLoad(kAddrB, 0),
                             MakeCompute(Op::kAdd, 0, 1, true)}));
  EXPECT_EQ(ok.Run().stats.Get("run.incomplete_cores"), 0u);
}

TEST(Machine, LoadProgramIdlesMissingCores) {
  ArchConfig cfg;
  Machine m(cfg);
  m.LoadProgram({Trace{MakeLoad(kAddrA)}, Trace{MakeLoad(kAddrB)}});
  RunResult r = m.Run();
  EXPECT_EQ(r.l1_misses, 2u);
  EXPECT_TRUE(m.core(1).finished());
  EXPECT_TRUE(m.core(24).finished());
  EXPECT_TRUE(m.core(24).trace().empty());
}

TEST(Machine, LoadProgramBorrowsAnLvalueWithoutCopying) {
  ArchConfig cfg;
  Machine m(cfg);
  std::vector<Trace> traces = {Trace{MakeLoad(kAddrA)}, Trace{MakeLoad(kAddrB)}};
  m.LoadProgram(traces);
  EXPECT_EQ(m.core(0).trace().data(), traces[0].data());
  EXPECT_EQ(m.core(1).trace().data(), traces[1].data());
  EXPECT_EQ(m.Run().l1_misses, 2u);
}

TEST(Machine, LoadProgramOwnsAnRvalueBeyondTheCallersVector) {
  ArchConfig cfg;
  MachineOptions opts;
  AlwaysWaitPolicy policy(cfg);
  opts.policy = &policy;
  Machine m(cfg, opts);
  {
    Trace t{MakeLoad(kAddrA), MakeLoad(kAddrB), MakeCompute(Op::kAdd, 0, 1, true)};
    std::vector<Trace> traces = Program(6, std::move(t));
    const Instr* moved = traces[6].data();
    m.LoadProgram(std::move(traces));
    EXPECT_EQ(m.core(6).trace().data(), moved);  // moved, not copied
    traces.clear();
    traces.shrink_to_fit();
  }
  RunResult r = m.Run();
  EXPECT_EQ(r.stats.Get("run.incomplete_cores"), 0u);
  EXPECT_EQ(r.candidates, 1u);
  EXPECT_EQ(r.offloads, 1u);
  EXPECT_EQ(r.ndc_success, 1u);
}

TEST(Machine, RunStateBytesCountsSlotsAndCandidates) {
  ArchConfig cfg;
  Machine m(cfg);
  Trace t{MakeLoad(kAddrA), MakeLoad(kAddrB), MakeCompute(Op::kAdd, 0, 1, true)};
  m.LoadProgram(Program(6, std::move(t)));
  std::size_t loaded = m.RunStateBytes();
  EXPECT_GT(loaded, 0u);
  m.Run();
  // The run created one candidate record: its chunk is now counted too.
  EXPECT_GE(m.RunStateBytes(), loaded + Machine::CandidateRecordBytes());
}

TEST(Machine, StoreGeneratesWriteTraffic) {
  ArchConfig cfg;
  Machine m(cfg);
  m.LoadProgram(Program(3, {MakeStore(0x12345)}));
  RunResult r = m.Run();
  EXPECT_GT(r.stats.Get("noc.packets"), 0u);
}

TEST(Machine, CandidateWithoutPolicyRunsConventionally) {
  ArchConfig cfg;
  Machine m(cfg);
  Trace t{MakeLoad(kAddrA), MakeLoad(kAddrB), MakeCompute(Op::kAdd, 0, 1, true)};
  m.LoadProgram(Program(6, std::move(t)));
  RunResult r = m.Run();
  EXPECT_EQ(r.ndc_success, 0u);
  EXPECT_EQ(r.offloads, 0u);
  EXPECT_EQ(r.l1_misses, 2u);
}

TEST(Machine, AlwaysWaitPolicyPerformsNdc) {
  ArchConfig cfg;
  AlwaysWaitPolicy policy(cfg);
  MachineOptions opts;
  opts.policy = &policy;
  Machine m(cfg, opts);
  Trace t{MakeLoad(kAddrA), MakeLoad(kAddrB), MakeCompute(Op::kAdd, 0, 1, true)};
  m.LoadProgram(Program(6, std::move(t)));
  RunResult r = m.Run();
  EXPECT_EQ(r.candidates, 1u);
  EXPECT_EQ(r.offloads, 1u);
  EXPECT_EQ(r.ndc_success, 1u);
  EXPECT_EQ(r.fallbacks, 0u);
  // Responses were squashed before reaching the core: L1 must not contain
  // the operand lines afterwards (the locality cost of NDC).
  EXPECT_FALSE(MachinePeer::InL1(m, 6, kAddrA));
  EXPECT_FALSE(MachinePeer::InL1(m, 6, kAddrB));
}

TEST(Machine, ControlRegisterRestrictsLocation) {
  ArchConfig cfg;
  cfg.control_register = arch::LocBit(Loc::kCacheCtrl);
  AlwaysWaitPolicy policy(cfg);
  MachineOptions opts;
  opts.policy = &policy;
  Machine m(cfg, opts);
  Trace t{MakeLoad(kAddrA), MakeLoad(kAddrB), MakeCompute(Op::kAdd, 0, 1, true)};
  m.LoadProgram(Program(6, std::move(t)));
  RunResult r = m.Run();
  EXPECT_EQ(r.ndc_success, 1u);
  EXPECT_EQ(r.ndc_at_loc[static_cast<std::size_t>(Loc::kCacheCtrl)], 1u);
  EXPECT_EQ(r.ndc_at_loc[static_cast<std::size_t>(Loc::kLinkBuffer)], 0u);
}

TEST(Machine, LocalL1HitSkipsNdc) {
  ArchConfig cfg;
  AlwaysWaitPolicy policy(cfg);
  MachineOptions opts;
  opts.policy = &policy;
  Machine m(cfg, opts);
  Trace t;
  t.push_back(MakeLoad(kAddrA));               // 0: warms L1 with A
  t.push_back(MakeLoad(kAddrA + 8, 0));        // 1: ordered after fill
  t.push_back(MakeLoad(kAddrB, 1));            // 2
  t.push_back(MakeCompute(Op::kAdd, 1, 2, true));
  m.LoadProgram(Program(6, std::move(t)));
  RunResult r = m.Run();
  EXPECT_EQ(r.local_l1_skips, 1u);
  EXPECT_EQ(r.offloads, 0u);
}

TEST(Machine, PreComputeExecutesAtPlannedL2Bank) {
  ArchConfig cfg;
  Machine m(cfg);
  Trace t{MakeLoad(kAddrA), MakeLoad(kAddrB),
          MakePreCompute(Op::kAdd, 0, 1, Loc::kCacheCtrl, 10000)};
  m.LoadProgram(Program(6, std::move(t)));
  RunResult r = m.Run();
  EXPECT_EQ(r.offloads, 1u);
  EXPECT_EQ(r.ndc_success, 1u);
  EXPECT_EQ(r.ndc_at_loc[static_cast<std::size_t>(Loc::kCacheCtrl)], 1u);
}

TEST(Machine, PreComputeShortTimeoutFallsBack) {
  ArchConfig cfg;
  Machine m(cfg);
  std::vector<Trace> p(25);
  // Core 7 warms the home L2 bank with A's line.
  p[7] = {MakeLoad(kAddrA + 64)};
  // Core 6 waits ~400 cycles, then loads A (L2 hit, data at the bank fast)
  // and B (L2 miss, data at the bank ~130+ cycles later). The pre-compute's
  // 3-cycle time-out register expires long before B arrives.
  Trace t;
  t.push_back(MakeCompute(Op::kAdd, -1, -1, false));
  for (int i = 1; i < 400; ++i) t.push_back(MakeCompute(Op::kAdd, i - 1, -1, false));
  t.push_back(MakeLoad(kAddrA, 399));  // 400
  t.push_back(MakeLoad(kAddrB, 399));  // 401
  t.push_back(MakePreCompute(Op::kAdd, 400, 401, Loc::kCacheCtrl, 3));
  p[6] = std::move(t);
  m.LoadProgram(std::move(p));
  RunResult r = m.Run();
  EXPECT_EQ(r.offloads, 1u);
  EXPECT_EQ(r.ndc_success, 0u);
  EXPECT_EQ(r.fallbacks, 1u);
  EXPECT_GT(r.stats.Get("ndc.abort.timeout") + r.stats.Get("ndc.abort.partner_done"), 0u);
}

TEST(Machine, PreComputeInfeasiblePlanFallsBack) {
  ArchConfig cfg;
  Machine m(cfg);
  // Different home banks: L2 plan infeasible.
  sim::Addr b = 256;  // home bank 1
  Trace t{MakeLoad(kAddrA), MakeLoad(b),
          MakePreCompute(Op::kAdd, 0, 1, Loc::kCacheCtrl, 10000)};
  m.LoadProgram(Program(6, std::move(t)));
  RunResult r = m.Run();
  EXPECT_EQ(r.ndc_success, 0u);
  EXPECT_EQ(r.stats.Get("ndc.plan_infeasible"), 1u);
  // The pre-compute still completes (conventional fallback).
  EXPECT_EQ(r.stats.Get("run.incomplete_cores"), 0u);
}

TEST(Machine, RestrictOpsToAddSubBlocksMul) {
  ArchConfig cfg;
  cfg.restrict_ops_to_addsub = true;
  AlwaysWaitPolicy policy(cfg);
  MachineOptions opts;
  opts.policy = &policy;
  Machine m(cfg, opts);
  Trace t{MakeLoad(kAddrA), MakeLoad(kAddrB), MakeCompute(Op::kMul, 0, 1, true)};
  m.LoadProgram(Program(6, std::move(t)));
  RunResult r = m.Run();
  EXPECT_EQ(r.offloads, 0u);
}

TEST(Machine, ObserveModeRecordsArrivalWindows) {
  ArchConfig cfg;
  MachineOptions opts;
  opts.observe = true;
  Machine m(cfg, opts);
  Trace t{MakeLoad(kAddrA), MakeLoad(kAddrB), MakeCompute(Op::kAdd, 0, 1, true)};
  m.LoadProgram(Program(6, std::move(t)));
  RunResult r = m.Run();
  ASSERT_NE(r.records, nullptr);
  EXPECT_EQ(r.records->TotalInstances(), 1u);
  const InstanceRecord* rec = r.records->Find(6, 2);
  ASSERT_NE(rec, nullptr);
  // The record names its site; the operands are read from the trace.
  std::span<const Instr> trace = m.core(6).trace();
  const Instr& site = trace[rec->compute_idx];
  EXPECT_EQ(trace[static_cast<std::size_t>(site.dep0())].addr(), kAddrA);
  EXPECT_EQ(trace[static_cast<std::size_t>(site.dep1())].addr(), kAddrB);
  EXPECT_EQ(rec->pc, site.pc());
  EXPECT_FALSE(rec->local_l1);
  EXPECT_TRUE(rec->at(Loc::kCacheCtrl).feasible);
  EXPECT_NE(rec->at(Loc::kCacheCtrl).Window(), sim::kNeverCycle);
  // Conventional completion: the later operand's arrival at the core (its
  // load's completion) plus the op.
  sim::Cycle arrived = std::max(m.core(6).done_cycle(0), m.core(6).done_cycle(1));
  ASSERT_NE(arrived, sim::kNeverCycle);
  EXPECT_EQ(rec->conv_done, arrived + cfg.compute_latency);
  // Observation must not change behaviour: no offloads happened.
  EXPECT_EQ(r.offloads, 0u);
  EXPECT_EQ(r.ndc_success, 0u);
}

TEST(Machine, ObserveRunCutShortLeavesConventionalCompletionUnknown) {
  // Run(limit) stops the run after both operand loads issued but before
  // either miss returns: the candidate has a record, but no operand reached
  // the core and the site never completed.
  ArchConfig cfg;
  MachineOptions opts;
  opts.observe = true;
  Machine m(cfg, opts);
  Trace t{MakeLoad(kAddrA), MakeLoad(kAddrB), MakeCompute(Op::kAdd, 0, 1, true)};
  m.LoadProgram(Program(6, std::move(t)));
  RunResult r = m.Run(/*limit=*/10);
  EXPECT_EQ(r.stats.Get("run.incomplete_cores"), 1u);
  EXPECT_EQ(m.core(6).done_cycle(0), sim::kNeverCycle);
  EXPECT_EQ(m.core(6).done_cycle(2), sim::kNeverCycle);
  ASSERT_EQ(r.records->TotalInstances(), 1u);
  const InstanceRecord* rec = r.records->Find(6, 2);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->conv_done, sim::kNeverCycle);
  EXPECT_TRUE(rec->at(Loc::kCacheCtrl).feasible);
  EXPECT_FALSE(rec->at(Loc::kCacheCtrl).BothArrived());
}

TEST(Machine, ObserveModeMatchesBaselineTiming) {
  ArchConfig cfg;
  Trace t{MakeLoad(kAddrA), MakeLoad(kAddrB), MakeCompute(Op::kAdd, 0, 1, true),
          MakeStore(0x9999, 2)};
  Machine base(cfg);
  base.LoadProgram(Program(6, Trace(t)));
  sim::Cycle base_time = base.Run().makespan;

  MachineOptions opts;
  opts.observe = true;
  Machine obs(cfg, opts);
  obs.LoadProgram(Program(6, Trace(t)));
  EXPECT_EQ(obs.Run().makespan, base_time);
}

TEST(Machine, OraclePolicySkipsWhenOperandReused) {
  ArchConfig cfg;
  Trace t;
  t.push_back(MakeLoad(kAddrA));                    // 0
  t.push_back(MakeLoad(kAddrB));                    // 1
  t.push_back(MakeCompute(Op::kAdd, 0, 1, true));   // 2 candidate
  t.push_back(MakeLoad(kAddrA + 8, 2));             // 3 reuse of A's L1 line

  MachineOptions obs_opts;
  obs_opts.observe = true;
  Machine obs(cfg, obs_opts);
  obs.LoadProgram(Program(6, Trace(t)));
  RunResult prof = obs.Run();
  const InstanceRecord* rec = prof.records->Find(6, 2);
  ASSERT_NE(rec, nullptr);
  EXPECT_TRUE(rec->operand_reused_later);

  OraclePolicy oracle(cfg, *prof.records);
  MachineOptions run_opts;
  run_opts.policy = &oracle;
  Machine m(cfg, run_opts);
  m.LoadProgram(Program(6, Trace(t)));
  RunResult r = m.Run();
  EXPECT_EQ(r.offloads, 0u);  // oracle favors data locality over NDC
}

TEST(Machine, DeterministicAcrossRuns) {
  ArchConfig cfg;
  AlwaysWaitPolicy p1(cfg), p2(cfg);
  Trace t{MakeLoad(kAddrA), MakeLoad(kAddrB), MakeCompute(Op::kAdd, 0, 1, true),
          MakeLoad(0x5000, 2), MakeStore(0x6000, 3)};
  MachineOptions o1, o2;
  o1.policy = &p1;
  o2.policy = &p2;
  Machine m1(cfg, o1), m2(cfg, o2);
  m1.LoadProgram(Program(6, Trace(t)));
  m2.LoadProgram(Program(6, Trace(t)));
  RunResult r1 = m1.Run(), r2 = m2.Run();
  EXPECT_EQ(r1.makespan, r2.makespan);
  EXPECT_EQ(r1.events, r2.events);
  EXPECT_EQ(r1.ndc_success, r2.ndc_success);
}

TEST(Machine, AllCoresFinish) {
  ArchConfig cfg;
  AlwaysWaitPolicy policy(cfg);
  MachineOptions opts;
  opts.policy = &policy;
  Machine m(cfg, opts);
  std::vector<Trace> p(25);
  for (int c = 0; c < 25; ++c) {
    Trace t;
    for (int i = 0; i < 20; ++i) {
      auto base = static_cast<sim::Addr>(c * 0x10000 + i * 640);
      int l0 = static_cast<int>(t.size());
      t.push_back(MakeLoad(base));
      t.push_back(MakeLoad(base + 256ull * 25));
      t.push_back(MakeCompute(Op::kAdd, l0, l0 + 1, true));
      t.push_back(MakeStore(base + 0x800, l0 + 2));
    }
    p[static_cast<std::size_t>(c)] = std::move(t);
  }
  m.LoadProgram(std::move(p));
  RunResult r = m.Run();
  EXPECT_EQ(r.stats.Get("run.incomplete_cores"), 0u);
  EXPECT_EQ(r.candidates, 500u);
}

// Every core's counters reach RunResult::stats: on an Algorithm-1 lowering
// of md, the issue, load, store and compute counts equal the instruction
// counts of the traces.
TEST(Machine, RunStatsCarryCoreCounters) {
  ArchConfig cfg;
  ir::Program prog = workloads::BuildWorkload("md", workloads::Scale::kTest);
  compiler::Compile(prog, compiler::ArchDescription(cfg), compiler::CompileOptions{});
  std::vector<Trace> traces = compiler::Lower(prog, cfg.num_nodes(), &cfg).traces;
  std::uint64_t total = 0, loads = 0, stores = 0, computes = 0, precomputes = 0;
  for (const Trace& t : traces) {
    total += t.size();
    for (const Instr& in : t) {
      switch (in.kind()) {
        case Instr::Kind::kLoad: ++loads; break;
        case Instr::Kind::kStore: ++stores; break;
        case Instr::Kind::kCompute: ++computes; break;
        case Instr::Kind::kPreCompute: ++precomputes; break;
      }
    }
  }
  ASSERT_GT(precomputes, 0u);

  AlwaysWaitPolicy policy(cfg);
  MachineOptions opts;
  opts.policy = &policy;
  Machine m(cfg, opts);
  m.LoadProgram(traces);
  RunResult r = m.Run();
  EXPECT_EQ(r.stats.Get("run.incomplete_cores"), 0u);
  EXPECT_EQ(r.stats.Get("core.issued"), total);
  EXPECT_EQ(r.stats.Get("core.loads"), loads);
  EXPECT_EQ(r.stats.Get("core.stores"), stores);
  EXPECT_EQ(r.stats.Get("core.computes") + r.stats.Get("core.precomputes"),
            computes + precomputes);
}

}  // namespace
}  // namespace ndc::runtime
