// Tests for the NDC compilation pipeline (Algorithms 1 and 2): chain
// gating, target selection, access-movement legality (strategies (b)-(d)),
// reuse-aware skipping,
// control-register restriction, coarse-grain mode, and report consistency.

#include <gtest/gtest.h>

#include "analysis/dependence.hpp"
#include "compiler/arch_desc.hpp"
#include "compiler/pipeline.hpp"
#include "ir/program.hpp"
#include "test_support.hpp"

namespace ndc::compiler {
namespace {

using ir::AffineAccess;
using ir::Int;
using ir::IntMat;
using ir::IntVec;
using ir::LoopNest;
using ir::Operand;
using ir::Program;
using ir::Stmt;

Operand Aff(int array, IntVec coefs, Int off) {
  AffineAccess a;
  a.array = array;
  a.F = IntMat(1, static_cast<int>(coefs.size()));
  for (int c = 0; c < a.F.cols(); ++c) a.F.at(0, c) = coefs[static_cast<std::size_t>(c)];
  a.f = {off};
  return Operand::Affine(a);
}

// Two 64-byte-strided streams: the canonical NDC-friendly chain.
Program StreamProgram(Int n0 = 32, Int n1 = 16) {
  Program p;
  int x = p.AddArray("x", {n0 * n1 * 8});
  int y = p.AddArray("y", {n0 * n1 * 8});
  int z = p.AddArray("z", {n0 * n1});
  LoopNest nest;
  nest.loops = {{0, n0 - 1, -1, 0, -1, 0}, {0, n1 - 1, -1, 0, -1, 0}};
  Stmt s;
  s.id = p.NextStmtId();
  s.lhs = Aff(z, {n1, 1}, 0);
  s.rhs0 = Aff(x, {n1 * 8, 8}, 0);
  s.rhs1 = Aff(y, {n1 * 8, 8}, 0);
  nest.body.push_back(s);
  p.nests.push_back(std::move(nest));
  return p;
}

TEST(Pipeline, BaselineModeDoesNothing) {
  Program p = StreamProgram();
  ArchDescription ad{arch::ArchConfig{}};
  CompileOptions opt;
  opt.mode = Mode::kBaseline;
  CompileReport rep = Compile(p, ad, opt);
  EXPECT_EQ(rep.chains, 0u);
  EXPECT_FALSE(p.nests[0].body[0].ndc.offload);
}

TEST(Pipeline, PlansStreamingChain) {
  Program p = StreamProgram();
  ArchDescription ad{arch::ArchConfig{}};
  CompileOptions opt;
  opt.mode = Mode::kAlgorithm1;
  CompileReport rep = Compile(p, ad, opt);
  EXPECT_EQ(rep.chains, 1u);
  EXPECT_EQ(rep.planned, 1u);
  EXPECT_TRUE(p.nests[0].body[0].ndc.offload);
  EXPECT_GT(p.nests[0].body[0].ndc.timeout, 0u);
}

TEST(Pipeline, DenseLocalityChainIsGated) {
  // 8-byte strides: spatial reuse everywhere; CME gate must reject.
  Program p;
  int x = p.AddArray("x", {8192});
  int y = p.AddArray("y", {8192});
  LoopNest nest;
  nest.loops = {{0, 31, -1, 0, -1, 0}, {0, 63, -1, 0, -1, 0}};
  Stmt s;
  s.id = p.NextStmtId();
  s.rhs0 = Aff(x, {64, 1}, 0);
  s.rhs1 = Aff(y, {64, 1}, 0);
  nest.body.push_back(s);
  p.nests.push_back(std::move(nest));
  ArchDescription ad{arch::ArchConfig{}};
  CompileOptions opt;
  opt.mode = Mode::kAlgorithm1;
  CompileReport rep = Compile(p, ad, opt);
  EXPECT_EQ(rep.planned, 0u);
  EXPECT_FALSE(p.nests[0].body[0].ndc.offload);
}

TEST(Pipeline, Algorithm2SkipsReusedOperands) {
  // rhs1 = w(i) is reused across the entire inner loop: Algorithm 2 must
  // bypass the chain, Algorithm 1 may take it.
  auto make = [] {
    Program p;
    int x = p.AddArray("x", {32 * 16 * 8});
    int w = p.AddArray("w", {64});
    LoopNest nest;
    nest.loops = {{0, 31, -1, 0, -1, 0}, {0, 15, -1, 0, -1, 0}};
    Stmt s;
    s.id = p.NextStmtId();
    s.rhs0 = Aff(x, {16 * 8, 8}, 0);
    s.rhs1 = Aff(w, {1, 0}, 0);
    nest.body.push_back(s);
    p.nests.push_back(std::move(nest));
    return p;
  };
  ArchDescription ad{arch::ArchConfig{}};
  Program p2 = make();
  CompileOptions a2;
  a2.mode = Mode::kAlgorithm2;
  CompileReport rep2 = Compile(p2, ad, a2);
  EXPECT_EQ(rep2.reuse_skips, 1u);
  EXPECT_EQ(rep2.planned, 0u);
}

TEST(Pipeline, ControlRegisterRestrictsTargets) {
  Program p = StreamProgram();
  ArchDescription ad{arch::ArchConfig{}};
  CompileOptions opt;
  opt.mode = Mode::kAlgorithm1;
  opt.control_register = arch::LocBit(arch::Loc::kMemBank);
  CompileReport rep = Compile(p, ad, opt);
  // Different arrays rarely share a DRAM bank: nothing plannable.
  for (std::size_t l = 0; l < rep.planned_at_loc.size(); ++l) {
    if (l != static_cast<std::size_t>(arch::Loc::kMemBank)) {
      EXPECT_EQ(rep.planned_at_loc[l], 0u);
    }
  }
}

TEST(Pipeline, SameL2LinePairTargetsFollowDataPath) {
  // Same 256-byte line: home banks (and pages/banks) always equal. For a
  // cold single pass the data path reaches the memory side first; when the
  // nest repeats (warm L2), the L2 bank is the first meeting point.
  auto make = [](int passes) {
    Program p;
    int a = p.AddArray("a", {512 * 32 + 64});
    int z = p.AddArray("z", {512});
    LoopNest nest;
    nest.loops = {{0, 511, -1, 0, -1, 0}};
    Stmt s;
    s.id = p.NextStmtId();
    s.lhs = Aff(z, {1}, 0);
    s.rhs0 = Aff(a, {32}, 0);
    s.rhs1 = Aff(a, {32}, 16);
    nest.body.push_back(s);
    p.nests.push_back(nest);
    for (int t = 1; t < passes; ++t) p.nests.push_back(p.nests[0]);
    return p;
  };
  ArchDescription ad{arch::ArchConfig{}};
  CompileOptions opt;
  opt.mode = Mode::kAlgorithm1;

  Program cold = make(1);
  CompileReport rep = Compile(cold, ad, opt);
  ASSERT_EQ(rep.planned, 1u);
  EXPECT_TRUE(cold.nests[0].body[0].ndc.planned == arch::Loc::kMemCtrl ||
              cold.nests[0].body[0].ndc.planned == arch::Loc::kMemBank);

  Program warm = make(2);
  CompileReport rep2 = Compile(warm, ad, opt);
  ASSERT_GE(rep2.planned, 1u);
  // The second pass runs over L2-resident data: its chain meets at the bank.
  EXPECT_EQ(warm.nests[1].body[0].ndc.planned, arch::Loc::kCacheCtrl);
}

TEST(Pipeline, DependenceLimitedChainFallsBackOrSkips) {
  // applu-style wavefront: x(i,j) = x(i,j-1) + x(i-1,j) — flow deps forbid
  // hoisting either operand.
  Program p;
  Int M = 34;
  int x = p.AddArray("x", {M * M + 2 * M});
  LoopNest nest;
  nest.loops = {{0, 31, -1, 0, -1, 0}, {0, 31, -1, 0, -1, 0}};
  Stmt s;
  s.id = p.NextStmtId();
  s.lhs = Aff(x, {M, 1}, M + 1);
  s.rhs0 = Aff(x, {M, 1}, 1);
  s.rhs1 = Aff(x, {M, 1}, M);
  nest.body.push_back(s);
  p.nests.push_back(std::move(nest));
  ArchDescription ad{arch::ArchConfig{}};
  CompileOptions opt;
  opt.mode = Mode::kAlgorithm1;
  CompileReport rep = Compile(p, ad, opt);
  // Either nothing is planned, or movement degenerated to lead 0 (dense
  // strides gate it out anyway); what matters is legality was respected.
  if (p.nests[0].body[0].ndc.offload) {
    EXPECT_EQ(p.nests[0].body[0].ndc.lead0, 0);
    EXPECT_EQ(p.nests[0].body[0].ndc.lead1, 0);
  }
  (void)rep;
}

// --- Section 5.2.1 movement strategies (c), (d) and the last resort --------
// The chain z(i,j) = x(i,8j) + y(i,8j) over 32x16, one 64-byte line per
// element, with a store x(i-d0, 8(j-d1)) or y(i-d0, 8(j-d1)) per Carried
// entry: the store rewrites the element the chain read d0 rows and d1
// iterations earlier, an anti dependence of linearized distance
// 16*d0 + d1 that blocks hoisting that operand by more. The stores also
// shape the gap estimate, so each nest below was chosen by the strategy it
// reaches; the assertions check the strategy, not the cost model's numbers.

constexpr int kX = 0, kY = 1;
constexpr Int kRows = 32, kCols = 16;

struct Carried {
  int array;
  Int d0, d1;
};

Operand Row8(int array, Int f0, Int f1) {
  AffineAccess a;
  a.array = array;
  a.F = IntMat(2, 2, {1, 0, 0, 8});
  a.f = {f0, f1};
  return Operand::Affine(a);
}

Program CarriedStreamProgram(std::initializer_list<Carried> stores) {
  Program p;
  p.AddArray("x", {kRows, kCols * 8});
  p.AddArray("y", {kRows, kCols * 8});
  int z = p.AddArray("z", {kRows * kCols});
  LoopNest nest;
  nest.loops = {{0, kRows - 1, -1, 0, -1, 0}, {0, kCols - 1, -1, 0, -1, 0}};
  Stmt s;
  s.id = p.NextStmtId();
  s.lhs = Aff(z, {kCols, 1}, 0);
  s.rhs0 = Row8(kX, 0, 0);
  s.rhs1 = Row8(kY, 0, 0);
  nest.body.push_back(s);
  for (const Carried& c : stores) {
    Stmt w;
    w.id = p.NextStmtId();
    w.lhs = Row8(c.array, -c.d0, -8 * c.d1);
    w.rhs0 = ir::ScalarOperand();
    w.rhs1 = ir::ScalarOperand();
    nest.body.push_back(w);
  }
  p.nests.push_back(std::move(nest));
  return p;
}

TEST(Pipeline, StrategyCKeepsYAndMovesX) {
  // y carries distance 2: hoisting y by the wanted lead is unsafe, so
  // strategy (b) fails and (c) delays x by the whole lead instead.
  Program p = CarriedStreamProgram({{kY, 0, 2}});
  ArchDescription ad{arch::ArchConfig{}};
  CompileOptions opt;
  CompileReport rep = Compile(p, ad, opt);
  const ir::NdcAnnotation& a = p.nests[0].body[0].ndc;
  ASSERT_TRUE(a.offload);
  EXPECT_EQ(rep.legality_failures, 1u);
  EXPECT_EQ(rep.verify.ErrorCount(), 0) << rep.verify.ToText();
  Int want = -a.lead0;  // leads are (-want, 0)
  EXPECT_NE(want, 0);
  EXPECT_EQ(a.lead1, 0);
  analysis::DependenceSet deps = analysis::AnalyzeDependences(p, p.nests[0]);
  EXPECT_FALSE(deps.ReadHoistIsSafe(kY, want, kCols));
  EXPECT_TRUE(deps.ReadHoistIsSafe(kX, -want, kCols));
}

TEST(Pipeline, StrategyDSplitsTheLeadAcrossBothOperands) {
  // x carries distance 16, y distance 24: neither operand can move by the
  // whole lead, but each can move by half of it, so strategy (d) splits it.
  Program p = CarriedStreamProgram({{kX, 1, 0}, {kY, 1, 8}});
  ArchDescription ad{arch::ArchConfig{}};
  CompileOptions opt;
  CompileReport rep = Compile(p, ad, opt);
  const ir::NdcAnnotation& a = p.nests[0].body[0].ndc;
  ASSERT_TRUE(a.offload);
  EXPECT_EQ(rep.legality_failures, 1u);
  EXPECT_EQ(rep.verify.ErrorCount(), 0) << rep.verify.ToText();
  Int want = a.lead1 - a.lead0;  // leads are (-(want - want/2), want/2)
  EXPECT_NE(a.lead0, 0);
  EXPECT_EQ(a.lead1, want / 2);
  analysis::DependenceSet deps = analysis::AnalyzeDependences(p, p.nests[0]);
  EXPECT_FALSE(deps.ReadHoistIsSafe(kY, want, kCols));
  EXPECT_FALSE(deps.ReadHoistIsSafe(kX, -want, kCols));
  EXPECT_TRUE(deps.ReadHoistIsSafe(kY, a.lead1, kCols));
  EXPECT_TRUE(deps.ReadHoistIsSafe(kX, a.lead0, kCols));
}

TEST(Pipeline, NoLegalMovementLeavesChainUnplanned) {
  // x carries distance 2 and y distance 24: strategies (b), (c) and (d) all
  // fail, each counted as a legality failure, and the chain is not planned.
  Program p = CarriedStreamProgram({{kX, 0, 2}, {kY, 1, 8}});
  ArchDescription ad{arch::ArchConfig{}};
  CompileOptions opt;
  CompileReport rep = Compile(p, ad, opt);
  EXPECT_EQ(rep.legality_failures, 3u);
  EXPECT_EQ(rep.planned, 0u);
  EXPECT_FALSE(p.nests[0].body[0].ndc.offload);
  EXPECT_EQ(rep.verify.ErrorCount(), 0) << rep.verify.ToText();
}

TEST(Pipeline, CoarseGrainUsesWholeNestMapping) {
  Program p = StreamProgram();
  ArchDescription ad{arch::ArchConfig{}};
  CompileOptions opt;
  opt.mode = Mode::kCoarseGrain;
  CompileReport rep = Compile(p, ad, opt);
  ASSERT_EQ(rep.planned, 1u);
  EXPECT_EQ(p.nests[0].body[0].ndc.lead0, 0);
  EXPECT_EQ(p.nests[0].body[0].ndc.lead1, 0);
  EXPECT_EQ(p.nests[0].body[0].ndc.timeout, arch::ArchConfig{}.default_timeout);
}

TEST(Pipeline, ReportCountsAreConsistent) {
  Program p = StreamProgram();
  Program q = StreamProgram();
  p.nests.push_back(q.nests[0]);
  ArchDescription ad{arch::ArchConfig{}};
  CompileOptions opt;
  opt.mode = Mode::kAlgorithm1;
  CompileReport rep = Compile(p, ad, opt);
  EXPECT_EQ(rep.chains, 2u);
  std::uint64_t per_loc = 0;
  for (std::uint64_t v : rep.planned_at_loc) per_loc += v;
  EXPECT_EQ(per_loc, rep.planned);
  EXPECT_LE(rep.planned, rep.chains);
}

TEST(ArchDescriptionTest, LatencyEstimatesAreOrdered) {
  arch::ArchConfig cfg;
  ArchDescription ad(cfg);
  sim::Addr addr = 0x123456;
  sim::NodeId core = 7;
  sim::Cycle at_l2_hit = ad.EstDataAtLoc(core, addr, arch::Loc::kCacheCtrl, false);
  sim::Cycle at_l2_miss = ad.EstDataAtLoc(core, addr, arch::Loc::kCacheCtrl, true);
  sim::Cycle at_core_hit = ad.EstDataAtCore(core, addr, true, false);
  EXPECT_LT(at_l2_hit, at_l2_miss);
  EXPECT_LT(at_l2_hit, at_core_hit);
  // Memory-side targets are unreachable for L2 hits.
  EXPECT_EQ(ad.EstDataAtLoc(core, addr, arch::Loc::kMemCtrl, false), sim::kNeverCycle);
  EXPECT_NE(ad.EstDataAtLoc(core, addr, arch::Loc::kMemCtrl, true), sim::kNeverCycle);
}

TEST(ArchDescriptionTest, LocNodePlacement) {
  arch::ArchConfig cfg;
  ArchDescription ad(cfg);
  sim::Addr addr = 0x40000;
  EXPECT_EQ(ad.LocNode(addr, arch::Loc::kCacheCtrl, 0), ad.amap().HomeBank(addr));
  EXPECT_EQ(ad.LocNode(addr, arch::Loc::kMemCtrl, 0), ad.McNode(addr));
  EXPECT_EQ(ad.LocNode(addr, arch::Loc::kMemBank, 0), ad.McNode(addr));
}

}  // namespace
}  // namespace ndc::compiler
