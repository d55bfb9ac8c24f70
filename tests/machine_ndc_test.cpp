// Deeper machine-level NDC tests: meeting semantics at each location kind,
// service-table and offload-table capacity, held-packet buffer pressure,
// route overrides, squash semantics, and observation residency tracking.

#include <gtest/gtest.h>

#include "arch/config.hpp"
#include "arch/trace.hpp"
#include "fault/conservation.hpp"
#include "ndc/machine.hpp"
#include "ndc/policy.hpp"
#include "test_support.hpp"

namespace ndc::runtime {
namespace {

using arch::ArchConfig;
using arch::Instr;
using arch::Loc;
using arch::MakeCompute;
using arch::MakeLoad;
using arch::MakePreCompute;
using arch::Op;
using arch::Trace;

std::vector<Trace> Program1(sim::NodeId core, Trace t, int cores = 25) {
  std::vector<Trace> p(static_cast<std::size_t>(cores));
  p[static_cast<std::size_t>(core)] = std::move(t);
  return p;
}

// Addresses with the same L2 home bank (node 0).
constexpr sim::Addr kA = 0;
constexpr sim::Addr kB = 256ull * 25;

// Addresses in the same 4 KB page (same MC, same DRAM bank) but distinct
// L2 lines and different home banks.
constexpr sim::Addr kPageA = 0x1000;          // page 1 -> MC 1
constexpr sim::Addr kPageB = 0x1000 + 512;    // same page, +2 L2 lines

TEST(MachineNdc, MemorySidePlannedPairMeetsAtMc) {
  ArchConfig cfg;
  Machine m(cfg);
  Trace t{MakeLoad(kPageA), MakeLoad(kPageB),
          MakePreCompute(Op::kAdd, 0, 1, Loc::kMemCtrl, 4000)};
  m.LoadProgram(Program1(12, std::move(t)));
  RunResult r = m.Run();
  EXPECT_EQ(r.ndc_success, 1u);
  EXPECT_EQ(r.ndc_at_loc[static_cast<std::size_t>(Loc::kMemCtrl)], 1u);
  // The squashed responses never filled the caches.
  EXPECT_FALSE(MachinePeer::InL1(m, 12, kPageA));
  EXPECT_FALSE(MachinePeer::InL2(m, kPageA));
}

TEST(MachineNdc, MemoryBankPlannedPairMeetsAtBank) {
  ArchConfig cfg;
  Machine m(cfg);
  const mem::AddressMap amap = cfg.MakeAddressMap();
  ASSERT_EQ(amap.DramBank(kPageA), amap.DramBank(kPageB));
  Trace t{MakeLoad(kPageA), MakeLoad(kPageB),
          MakePreCompute(Op::kAdd, 0, 1, Loc::kMemBank, 4000)};
  m.LoadProgram(Program1(12, std::move(t)));
  RunResult r = m.Run();
  EXPECT_EQ(r.ndc_at_loc[static_cast<std::size_t>(Loc::kMemBank)], 1u);
}

TEST(MachineNdc, LinkPlannedPairMeetsInNetwork) {
  ArchConfig cfg;
  Machine m(cfg);
  // Different home banks whose responses converge on core 12.
  sim::Addr a = 256ull * 2;   // home 2
  sim::Addr b = 256ull * 3;   // home 3
  Trace t{MakeLoad(a), MakeLoad(b), MakePreCompute(Op::kAdd, 0, 1, Loc::kLinkBuffer, 4000)};
  m.LoadProgram(Program1(12, std::move(t)));
  RunResult r = m.Run();
  EXPECT_EQ(r.ndc_success + r.fallbacks, 1u);
  if (r.ndc_success == 1) {
    EXPECT_EQ(r.ndc_at_loc[static_cast<std::size_t>(Loc::kLinkBuffer)], 1u);
  }
}

TEST(MachineNdc, CacheMeetLeavesLinesInL2) {
  ArchConfig cfg;
  Machine m(cfg);
  Trace t{MakeLoad(kA), MakeLoad(kB), MakePreCompute(Op::kAdd, 0, 1, Loc::kCacheCtrl, 4000)};
  m.LoadProgram(Program1(6, std::move(t)));
  RunResult r = m.Run();
  ASSERT_EQ(r.ndc_success, 1u);
  // An L2-bank meeting consumes the responses but the lines stay cached.
  EXPECT_TRUE(MachinePeer::InL2(m, kA));
  EXPECT_TRUE(MachinePeer::InL2(m, kB));
  EXPECT_FALSE(MachinePeer::InL1(m, 6, kA));
}

TEST(MachineNdc, OffloadTableCapacityBoundsConcurrentOffloads) {
  ArchConfig cfg;
  cfg.offload_table_entries = 2;
  AlwaysWaitPolicy policy(cfg);
  MachineOptions opts;
  opts.policy = &policy;
  Machine m(cfg, opts);
  Trace t;
  for (int i = 0; i < 12; ++i) {
    int l0 = static_cast<int>(t.size());
    t.push_back(MakeLoad(kA + static_cast<sim::Addr>(i) * 64 * 25 * 8));
    t.push_back(MakeLoad(kB + static_cast<sim::Addr>(i) * 64 * 25 * 8));
    t.push_back(MakeCompute(Op::kAdd, l0, l0 + 1, true));
  }
  m.LoadProgram(Program1(6, std::move(t)));
  RunResult r = m.Run();
  EXPECT_GT(r.stats.Get("ndc.offload_table_full"), 0u);
  EXPECT_LT(r.offloads, r.candidates);
}

TEST(MachineNdc, ServiceTableFullAborts) {
  ArchConfig cfg;
  cfg.service_table_entries = 0;  // no NDC ALU slots anywhere
  Machine m(cfg);
  Trace t{MakeLoad(kA), MakeLoad(kB), MakePreCompute(Op::kAdd, 0, 1, Loc::kCacheCtrl, 4000)};
  m.LoadProgram(Program1(6, std::move(t)));
  RunResult r = m.Run();
  EXPECT_EQ(r.ndc_success, 0u);
  EXPECT_GT(r.stats.Get("ndc.service_table_full"), 0u);
  EXPECT_EQ(r.fallbacks, 1u);
}

TEST(MachineNdc, ObserveRecordsL2Residency) {
  ArchConfig cfg;
  MachineOptions opts;
  opts.observe = true;
  Machine m(cfg, opts);
  Trace t{MakeLoad(kA), MakeLoad(kB), MakeCompute(Op::kAdd, 0, 1, true)};
  m.LoadProgram(Program1(6, std::move(t)));
  RunResult r = m.Run();
  const InstanceRecord* rec = r.records->Find(6, 2);
  ASSERT_NE(rec, nullptr);
  const LocObs& o = rec->at(Loc::kCacheCtrl);
  EXPECT_TRUE(o.feasible);
  EXPECT_TRUE(o.meet_ok);  // back-to-back loads: first line still resident
  EXPECT_TRUE(o.BothArrived());
}

TEST(MachineNdc, RegisterOperandPairsWithSameAddress) {
  // Both operands alias the same address (x + x): still a valid site.
  ArchConfig cfg;
  Machine m(cfg);
  Trace t{MakeLoad(kA), MakeLoad(kA), MakePreCompute(Op::kAdd, 0, 1, Loc::kCacheCtrl, 4000)};
  m.LoadProgram(Program1(6, std::move(t)));
  RunResult r = m.Run();
  EXPECT_EQ(r.stats.Get("run.incomplete_cores"), 0u);
  EXPECT_EQ(r.candidates, 1u);
}

TEST(MachineNdc, HeldPacketDelaysPassingTraffic) {
  // Two cores: core 6 offloads with a long timeout so one operand holds in
  // a link buffer; core 7 streams packets across the same region and must
  // observe buffer-pressure delay vs an uncontended run.
  auto run = [](bool with_hold) {
    ArchConfig cfg;
    Machine m(cfg);
    std::vector<Trace> p(25);
    if (with_hold) {
      // Home banks 1 and 2 -> responses converge toward core 0 and hold.
      Trace t;
      t.push_back(MakeLoad(256ull * 1));
      t.push_back(MakeCompute(Op::kAdd, 0, -1, false));
      for (int i = 2; i < 420; ++i) t.push_back(MakeCompute(Op::kAdd, i - 1, -1, false));
      t.push_back(MakeLoad(256ull * 2, 419));  // 420: delayed partner
      t.push_back(MakePreCompute(Op::kAdd, 0, 420, Loc::kLinkBuffer, 100000));
      p[0] = std::move(t);
    }
    Trace t7;
    for (int i = 0; i < 30; ++i) {
      t7.push_back(MakeLoad(256ull * 1 + 8192ull * 25 * static_cast<sim::Addr>(i + 1)));
    }
    p[1] = std::move(t7);
    Machine mm(cfg);
    mm.LoadProgram(std::move(p));
    RunResult r = mm.Run();
    return r;
  };
  RunResult quiet = run(false);
  RunResult held = run(true);
  EXPECT_GE(held.stats.Get("noc.hol_blocked") + held.stats.Get("noc.holds"),
            quiet.stats.Get("noc.hol_blocked"));
}

TEST(MachineNdc, MarkovPolicyRunsEndToEnd) {
  ArchConfig cfg;
  MarkovWaitPolicy policy(cfg);
  MachineOptions opts;
  opts.policy = &policy;
  Machine m(cfg, opts);
  Trace t;
  for (int i = 0; i < 10; ++i) {
    int l0 = static_cast<int>(t.size());
    t.push_back(MakeLoad(kA + static_cast<sim::Addr>(i) * 64 * 25 * 8, -1, /*pc=*/7));
    t.push_back(MakeLoad(kB + static_cast<sim::Addr>(i) * 64 * 25 * 8, -1, /*pc=*/7));
    arch::Instr c = MakeCompute(Op::kAdd, l0, l0 + 1, true, /*pc=*/7);
    t.push_back(c);
  }
  m.LoadProgram(Program1(6, std::move(t)));
  RunResult r = m.Run();
  EXPECT_EQ(r.stats.Get("run.incomplete_cores"), 0u);
  EXPECT_GT(r.offloads, 0u);
}

TEST(MachineNdc, ControlRegisterZeroMeansConventional) {
  ArchConfig cfg;
  cfg.control_register = 0;
  AlwaysWaitPolicy policy(cfg);
  MachineOptions opts;
  opts.policy = &policy;
  Machine m(cfg, opts);
  Trace t{MakeLoad(kA), MakeLoad(kB), MakeCompute(Op::kAdd, 0, 1, true)};
  m.LoadProgram(Program1(6, std::move(t)));
  RunResult r = m.Run();
  EXPECT_EQ(r.offloads, 0u);
  EXPECT_TRUE(MachinePeer::InL1(m, 6, kA));
}

// 300 pre-compute sites on one core: more instances than one slab chunk
// holds. Even sites pair two lines of one DRAM page and plan the MC; odd
// sites pair two lines of one L2 home bank and plan the cache controller.
// Every other site of each kind gets a 1-cycle time-out, so its held
// response is replayed (MC -> home, or home -> core).
Trace ManySitesTrace(int sites) {
  Trace t;
  for (int i = 0; i < sites; ++i) {
    auto base = static_cast<std::int32_t>(t.size());
    sim::Addr a, b;
    Loc loc;
    if (i % 2 == 0) {
      a = static_cast<sim::Addr>(16 + i) * 4096;
      b = a + 512;
      loc = Loc::kMemCtrl;
    } else {
      a = (1ull << 24) + static_cast<sim::Addr>(i) * 2 * 256 * 25;
      b = a + 256 * 25;
      loc = Loc::kCacheCtrl;
    }
    sim::Cycle timeout = i % 4 < 2 ? 1 : 4000;
    t.push_back(MakeLoad(a));
    t.push_back(MakeLoad(b));
    t.push_back(MakePreCompute(Op::kAdd, base, base + 1, loc, timeout));
  }
  return t;
}

TEST(MachineNdc, InstancesBeyondOneSlabChunkConserveRequests) {
  ArchConfig cfg;
  Machine m(cfg);
  m.LoadProgram(Program1(12, ManySitesTrace(300)));
  RunResult r = m.Run();
  EXPECT_EQ(r.candidates, 300u);
  EXPECT_GT(r.ndc_success, 0u);
  EXPECT_GT(r.fallbacks, 0u);
  EXPECT_GT(r.ndc_at_loc[static_cast<std::size_t>(Loc::kMemCtrl)], 0u);
  EXPECT_GT(r.ndc_at_loc[static_cast<std::size_t>(Loc::kCacheCtrl)], 0u);
  EXPECT_EQ(r.offloads, r.ndc_success + r.fallbacks);
  fault::ConservationReport rep = fault::CheckConservation(m.GatherConservation());
  EXPECT_TRUE(rep.ok) << rep.ToString();

  MachineOptions opts;
  opts.observe = true;
  Machine obs(cfg, opts);
  obs.LoadProgram(Program1(12, ManySitesTrace(300)));
  RunResult ro = obs.Run();
  ASSERT_NE(ro.records, nullptr);
  EXPECT_EQ(ro.records->TotalInstances(), 300u);
  EXPECT_TRUE(fault::CheckConservation(obs.GatherConservation()).ok);
}

}  // namespace
}  // namespace ndc::runtime
