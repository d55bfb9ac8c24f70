// Tests for code generation: lowering loop nests to per-core traces,
// dependence wiring, NDC candidate marking, pre-compute emission with the
// per-iteration CME gate, access-movement leads, and block distribution.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "arch/config.hpp"
#include "compiler/arch_desc.hpp"
#include "compiler/codegen.hpp"
#include "compiler/pipeline.hpp"
#include "ir/program.hpp"
#include "ndc/machine.hpp"
#include "sim/rng.hpp"
#include "lower_reference.hpp"
#include "workloads/workloads.hpp"
#include "test_support.hpp"

namespace ndc::compiler {
namespace {

using arch::Instr;
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

// z(i,j) = x(...) + y(...) over an n0 x n1 nest; strides of 8 elements keep
// every access on a fresh line (no spatial reuse, no CME gating surprises).
Program StreamProgram(Int n0, Int n1) {
  Program p;
  int x = p.AddArray("x", {n0 * n1 * 8});
  int y = p.AddArray("y", {n0 * n1 * 8});
  int z = p.AddArray("z", {n0 * n1});
  LoopNest nest;
  nest.loops = {{0, n0 - 1, -1, 0, -1, 0}, {0, n1 - 1, -1, 0, -1, 0}};
  Stmt s;
  s.id = p.NextStmtId();
  s.lhs = Aff(z, {n1, 1}, 0);
  s.op = arch::Op::kAdd;
  s.rhs0 = Aff(x, {n1 * 8, 8}, 0);
  s.rhs1 = Aff(y, {n1 * 8, 8}, 0);
  nest.body.push_back(s);
  p.nests.push_back(std::move(nest));
  return p;
}

int CountKind(const arch::Trace& t, Instr::Kind k) {
  int n = 0;
  for (const Instr& i : t) n += i.kind() == k;
  return n;
}

TEST(Codegen, EmitsLoadsComputeStorePerIteration) {
  Program p = StreamProgram(4, 4);
  CodegenResult r = Lower(p, 1);
  const arch::Trace& t = r.traces[0];
  EXPECT_EQ(CountKind(t, Instr::Kind::kLoad), 32);
  EXPECT_EQ(CountKind(t, Instr::Kind::kCompute), 16);
  EXPECT_EQ(CountKind(t, Instr::Kind::kStore), 16);
  EXPECT_EQ(r.total_instrs, t.size());
}

TEST(Codegen, ComputeDependsOnItsLoads) {
  Program p = StreamProgram(2, 2);
  arch::Trace t = Lower(p, 1).traces[0];
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind() != Instr::Kind::kCompute) continue;
    ASSERT_GE(t[i].dep0(), 0);
    ASSERT_GE(t[i].dep1(), 0);
    EXPECT_EQ(t[static_cast<std::size_t>(t[i].dep0())].kind(), Instr::Kind::kLoad);
    EXPECT_EQ(t[static_cast<std::size_t>(t[i].dep1())].kind(), Instr::Kind::kLoad);
    EXPECT_LT(static_cast<std::size_t>(t[i].dep0()), i);
    EXPECT_TRUE(t[i].ndc_candidate());
  }
}

TEST(Codegen, StoreDependsOnCompute) {
  Program p = StreamProgram(2, 2);
  arch::Trace t = Lower(p, 1).traces[0];
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind() != Instr::Kind::kStore) continue;
    ASSERT_GE(t[i].dep0(), 0);
    Instr::Kind k = t[static_cast<std::size_t>(t[i].dep0())].kind();
    EXPECT_TRUE(k == Instr::Kind::kCompute || k == Instr::Kind::kPreCompute);
  }
}

TEST(Codegen, BlockDistributionAcrossCores) {
  Program p = StreamProgram(25, 4);
  CodegenResult r = Lower(p, 25);
  int active = 0;
  for (const arch::Trace& t : r.traces) active += !t.empty();
  EXPECT_EQ(active, 25);
  // Each core receives one outer iteration: identical instruction counts.
  for (const arch::Trace& t : r.traces) EXPECT_EQ(t.size(), r.traces[0].size());
}

TEST(Codegen, CoreForIterationIsBalancedAndMonotonic) {
  Program p = StreamProgram(100, 1);
  const LoopNest& nest = p.nests[0];
  int prev = 0;
  std::vector<int> count(25, 0);
  for (Int i = 0; i < 100; ++i) {
    int c = CoreForIteration(nest, {i, 0}, 25);
    EXPECT_GE(c, prev);
    prev = c;
    ++count[static_cast<std::size_t>(c)];
  }
  for (int c : count) EXPECT_EQ(c, 4);

  // Every outer value lies in exactly one core's CoreBlock, the one
  // CoreForIteration names, and the blocks tile the outer range in core
  // order (spans empty, below, off and on multiples of the core count).
  for (Int span : {0, 1, 3, 24, 25, 26, 100, 101}) {
    for (int cores : {1, 3, 25}) {
      LoopNest n;
      n.loops = {{-3, -3 + span - 1, -1, 0, -1, 0}};
      Int next = -3;
      for (int c = 0; c < cores; ++c) {
        const OuterBlock b = CoreBlock(n, c, cores);
        EXPECT_EQ(b.begin, next) << "span " << span << " cores " << cores << " core " << c;
        EXPECT_LE(b.begin, b.end);
        next = b.end;
      }
      EXPECT_EQ(next, -3 + span) << "span " << span << " cores " << cores;
      for (Int v = -3; v < -3 + span; ++v) {
        int owners = 0;
        for (int c = 0; c < cores; ++c) {
          const OuterBlock b = CoreBlock(n, c, cores);
          if (b.begin <= v && v < b.end) {
            ++owners;
            EXPECT_EQ(c, CoreForIteration(n, {v}, cores)) << "span " << span << " v " << v;
          }
        }
        EXPECT_EQ(owners, 1) << "span " << span << " cores " << cores << " v " << v;
      }
    }
  }
}

TEST(Codegen, PreComputeEmittedForOffloadedChains) {
  Program p = StreamProgram(4, 8);
  p.nests[0].body[0].ndc.offload = true;
  p.nests[0].body[0].ndc.planned = arch::Loc::kLinkBuffer;
  p.nests[0].body[0].ndc.timeout = 42;
  arch::Trace t = Lower(p, 1).traces[0];
  int pre = CountKind(t, Instr::Kind::kPreCompute);
  // 8-element strides never hit L1, so the per-iteration CME gate lets every
  // instance through.
  EXPECT_EQ(pre, 32);
  for (const Instr& in : t) {
    if (in.kind() != Instr::Kind::kPreCompute) continue;
    EXPECT_EQ(in.planned_loc(), arch::Loc::kLinkBuffer);
    EXPECT_EQ(in.timeout(), 42u);
  }
}

TEST(Codegen, CmeGateSuppressesPreComputeOnDenseStrides) {
  // Dense strides have spatial reuse: most instances must stay conventional.
  Program p;
  int x = p.AddArray("x", {4096});
  int y = p.AddArray("y", {4096});
  LoopNest nest;
  nest.loops = {{0, 7, -1, 0, -1, 0}, {0, 63, -1, 0, -1, 0}};
  Stmt s;
  s.id = p.NextStmtId();
  s.rhs0 = Aff(x, {64, 1}, 0);
  s.rhs1 = Aff(y, {64, 1}, 0);
  s.ndc.offload = true;
  nest.body.push_back(s);
  p.nests.push_back(std::move(nest));
  arch::Trace t = Lower(p, 1).traces[0];
  int pre = CountKind(t, Instr::Kind::kPreCompute);
  int comp = CountKind(t, Instr::Kind::kCompute);
  EXPECT_LT(pre, comp);  // boundary line-crossings only
  EXPECT_GT(pre, 0);
}

TEST(Codegen, LeadHoistsOperandLoad) {
  Program p = StreamProgram(1, 32);
  p.nests[0].body[0].ndc.offload = true;
  p.nests[0].body[0].ndc.lead1 = 4;  // y loaded 4 iterations early
  arch::Trace t = Lower(p, 1).traces[0];
  // For later iterations the hoisted y-load sits ~4 iterations before its
  // pre-compute, while the x-load stays adjacent: the trace distance to
  // dep1 must exceed the distance to dep0 substantially.
  int checked = 0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind() != Instr::Kind::kPreCompute) continue;
    ++checked;
    if (checked <= 8) continue;  // skip the clamped prologue iterations
    auto dist0 = static_cast<std::int64_t>(i) - t[i].dep0();
    auto dist1 = static_cast<std::int64_t>(i) - t[i].dep1();
    EXPECT_GT(dist1, dist0 + 6) << "pre-compute " << checked;
  }
  EXPECT_GT(checked, 8);
}

TEST(Codegen, NegativeLeadDelaysComputation) {
  Program p = StreamProgram(1, 32);
  p.nests[0].body[0].ndc.offload = true;
  p.nests[0].body[0].ndc.lead1 = -4;  // y loaded 4 iterations late
  arch::Trace t = Lower(p, 1).traces[0];
  // Every pre-compute still depends on both of its loads.
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind() != Instr::Kind::kPreCompute) continue;
    EXPECT_LT(static_cast<std::size_t>(t[i].dep0()), i);
    EXPECT_LT(static_cast<std::size_t>(t[i].dep1()), i);
  }
}

TEST(Codegen, IndirectOperandEmitsIndexLoadFirst) {
  Program p;
  int idx = p.AddArray("idx", {16});
  int tgt = p.AddArray("T", {64});
  int q = p.AddArray("q", {16 * 8});
  p.index_data[idx] = std::vector<Int>(16, 3);
  LoopNest nest;
  nest.loops = {{0, 15, -1, 0, -1, 0}};
  Stmt s;
  s.id = p.NextStmtId();
  AffineAccess ia;
  ia.array = idx;
  ia.F = IntMat(1, 1, {1});
  ia.f = {0};
  s.rhs0 = Operand::Indirect(ia, tgt);
  s.rhs1 = Aff(q, {8}, 0);
  nest.body.push_back(s);
  p.nests.push_back(std::move(nest));
  arch::Trace t = Lower(p, 1).traces[0];
  // Data loads through indirection depend on their index load.
  int dependent_loads = 0;
  for (const Instr& in : t) {
    if (in.kind() == Instr::Kind::kLoad && in.dep0() >= 0) {
      EXPECT_EQ(t[static_cast<std::size_t>(in.dep0())].kind(), Instr::Kind::kLoad);
      ++dependent_loads;
    }
  }
  EXPECT_EQ(dependent_loads, 16);
}

TEST(Codegen, MultipleNestsAppendSequentially) {
  Program p = StreamProgram(2, 2);
  Program p2 = StreamProgram(2, 2);
  p.nests.push_back(p2.nests[0]);
  arch::Trace t = Lower(p, 1).traces[0];
  EXPECT_EQ(CountKind(t, Instr::Kind::kCompute), 8);
}

TEST(Codegen, DeterministicOutput) {
  Program a = StreamProgram(6, 6);
  Program b = StreamProgram(6, 6);
  CodegenResult ra = Lower(a, 25);
  CodegenResult rb = Lower(b, 25);
  ASSERT_EQ(ra.traces.size(), rb.traces.size());
  for (std::size_t c = 0; c < ra.traces.size(); ++c) {
    ASSERT_EQ(ra.traces[c].size(), rb.traces[c].size());
    for (std::size_t i = 0; i < ra.traces[c].size(); ++i) {
      EXPECT_EQ(ra.traces[c][i].addr(), rb.traces[c][i].addr());
      EXPECT_EQ(ra.traces[c][i].kind(), rb.traces[c][i].kind());
    }
  }
}

// --- Frozen lowering digest ----------------------------------------------
// An FNV-1a hash over every field of every lowered instruction (and the
// pre-compute count) for the 20 benchmarks lowered as baseline, Algorithm-1
// and Algorithm-2, all at test scale. Any change to the emitted traces
// moves the digest; a lowering rewrite must keep it.

// A lowered trace stores one Instr per slot, so its size bounds trace memory.
static_assert(sizeof(Instr) == 16, "arch::Instr grew: lowered traces cost more memory");
// Every NDC candidate of a run gets one record, offloaded or not.
static_assert(runtime::Machine::CandidateRecordBytes() <= 48,
              "the machine's per-candidate record grew: run state costs more memory");

constexpr sim::Addr kMaxAddr = (std::uint64_t{1} << 48) - 1;
constexpr std::int32_t kMaxDep = (1 << 24) - 2;  // all-ones is the "no dep" code
constexpr std::uint32_t kMaxPc = (1u << 24) - 1;
constexpr sim::Cycle kMaxTimeout = (1u << 24) - 1;
static_assert(Instr::kMaxAddr == kMaxAddr && Instr::kMaxDep == kMaxDep &&
              Instr::kMaxPc == kMaxPc && Instr::kMaxTimeout == kMaxTimeout);

// Every Make* constructor returns each field it was given, at the extremes
// of every packed field; a field a kind does not use reads its default.
TEST(InstrLayout, MakeRoundTripsEveryFieldAtItsExtremes) {
  for (std::int32_t dep : {-1, 0, kMaxDep}) {
    for (sim::Addr a : {sim::Addr{0}, kMaxAddr}) {
      Instr ld = arch::MakeLoad(a, dep, kMaxPc);
      EXPECT_EQ(ld.kind(), Instr::Kind::kLoad);
      EXPECT_EQ(ld.addr(), a);
      EXPECT_EQ(ld.dep0(), dep);
      EXPECT_EQ(ld.dep1(), -1);
      EXPECT_EQ(ld.pc(), kMaxPc);
      EXPECT_EQ(ld.timeout(), 0u);
      EXPECT_FALSE(ld.ndc_candidate());
      EXPECT_EQ(ld.planned_loc(), arch::Loc::kCacheCtrl);

      Instr st = arch::MakeStore(a, dep, kMaxDep, kMaxPc);
      EXPECT_EQ(st.kind(), Instr::Kind::kStore);
      EXPECT_EQ(st.addr(), a);
      EXPECT_EQ(st.dep0(), dep);
      EXPECT_EQ(st.dep1(), kMaxDep);
      EXPECT_EQ(st.pc(), kMaxPc);
      EXPECT_EQ(st.timeout(), 0u);
    }
  }
  for (int o = 0; o <= static_cast<int>(arch::Op::kXor); ++o) {
    const auto op = static_cast<arch::Op>(o);
    for (bool cand : {false, true}) {
      Instr c = arch::MakeCompute(op, kMaxDep, -1, cand, kMaxPc);
      EXPECT_EQ(c.kind(), Instr::Kind::kCompute);
      EXPECT_EQ(c.op(), op);
      EXPECT_EQ(c.dep0(), kMaxDep);
      EXPECT_EQ(c.dep1(), -1);
      EXPECT_EQ(c.ndc_candidate(), cand);
      EXPECT_EQ(c.pc(), kMaxPc);
      EXPECT_EQ(c.addr(), 0u);
      EXPECT_EQ(c.timeout(), 0u);
      EXPECT_EQ(c.planned_loc(), arch::Loc::kCacheCtrl);
    }
    for (int l = 0; l < arch::kNumLocs; ++l) {
      const auto loc = static_cast<arch::Loc>(l);
      for (sim::Cycle timeout : {sim::Cycle{0}, kMaxTimeout}) {
        Instr pre = arch::MakePreCompute(op, -1, kMaxDep, loc, timeout, kMaxPc);
        EXPECT_EQ(pre.kind(), Instr::Kind::kPreCompute);
        EXPECT_EQ(pre.op(), op);
        EXPECT_EQ(pre.dep0(), -1);
        EXPECT_EQ(pre.dep1(), kMaxDep);
        EXPECT_EQ(pre.planned_loc(), loc);
        EXPECT_EQ(pre.timeout(), timeout);
        EXPECT_EQ(pre.pc(), kMaxPc);
        EXPECT_EQ(pre.addr(), 0u);
        EXPECT_FALSE(pre.ndc_candidate());
      }
    }
  }
  const Instr def;
  EXPECT_EQ(def.kind(), Instr::Kind::kCompute);
  EXPECT_EQ(def.op(), arch::Op::kAdd);
  EXPECT_EQ(def.dep0(), -1);
  EXPECT_EQ(def.dep1(), -1);
  EXPECT_EQ(def.pc(), 0u);
  EXPECT_EQ(def.addr(), 0u);
  EXPECT_EQ(def.timeout(), 0u);
  EXPECT_FALSE(def.ndc_candidate());
  EXPECT_EQ(def.planned_loc(), arch::Loc::kCacheCtrl);
}

// Expects `make` to throw std::out_of_range with a message naming `field`.
template <typename F>
void ExpectOutOfRange(F make, const std::string& field) {
  try {
    make();
    ADD_FAILURE() << field << ": no exception";
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
  }
}

TEST(InstrLayout, FieldBeyondItsWidthThrows) {
  using arch::Loc;
  using arch::Op;
  const sim::Addr addr = kMaxAddr + 1;
  const std::uint32_t pc = kMaxPc + 1;
  const std::int32_t dep = kMaxDep + 1;
  ExpectOutOfRange([&] { return arch::MakeLoad(addr); }, "address");
  ExpectOutOfRange([&] { return arch::MakeStore(addr); }, "address");
  ExpectOutOfRange([&] { return arch::MakeLoad(0, -1, pc); }, "pc");
  ExpectOutOfRange([&] { return arch::MakeStore(0, -1, -1, pc); }, "pc");
  ExpectOutOfRange([&] { return arch::MakeCompute(Op::kAdd, 0, 1, true, pc); }, "pc");
  ExpectOutOfRange([&] { return arch::MakePreCompute(Op::kAdd, 0, 1, Loc::kMemBank, 5, pc); },
                   "pc");
  ExpectOutOfRange([&] { return arch::MakeLoad(0, dep); }, "dep0");
  ExpectOutOfRange([&] { return arch::MakeStore(0, dep); }, "dep0");
  ExpectOutOfRange([&] { return arch::MakeStore(0, 0, dep); }, "dep1");
  ExpectOutOfRange([&] { return arch::MakeCompute(Op::kAdd, dep, 1, true); }, "dep0");
  ExpectOutOfRange([&] { return arch::MakeCompute(Op::kAdd, 0, dep, true); }, "dep1");
  ExpectOutOfRange([&] { return arch::MakePreCompute(Op::kAdd, dep, 1, Loc::kMemBank, 5); },
                   "dep0");
  ExpectOutOfRange([&] { return arch::MakePreCompute(Op::kAdd, 0, dep, Loc::kMemBank, 5); },
                   "dep1");
  ExpectOutOfRange([&] { return arch::MakeCompute(Op::kAdd, -2, 1, true); }, "dep0");
  ExpectOutOfRange(
      [&] { return arch::MakePreCompute(Op::kAdd, 0, 1, Loc::kMemBank, kMaxTimeout + 1); },
      "timeout");
}

struct Fnv1a {
  std::uint64_t h = 1469598103934665603ull;
  std::uint64_t precomputes = 0;
  void Add(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
};

void HashLowered(Fnv1a& fnv, const CodegenResult& r) {
  fnv.Add(r.traces.size());
  fnv.Add(r.precomputes);
  fnv.precomputes += r.precomputes;
  for (const arch::Trace& t : r.traces) {
    fnv.Add(t.size());
    for (const Instr& i : t) {
      fnv.Add(static_cast<std::uint64_t>(i.kind()));
      fnv.Add(static_cast<std::uint64_t>(i.op()));
      fnv.Add(i.addr());
      fnv.Add(static_cast<std::uint64_t>(static_cast<std::int64_t>(i.dep0())));
      fnv.Add(static_cast<std::uint64_t>(static_cast<std::int64_t>(i.dep1())));
      fnv.Add(i.pc());
      fnv.Add(i.ndc_candidate() ? 1u : 0u);
      fnv.Add(static_cast<std::uint64_t>(i.planned_loc()));
      fnv.Add(i.timeout());
    }
  }
}

// Hands `use` the 20 benchmarks at `scale` as baseline, Algorithm-1 and
// Algorithm-2 programs, in that order per benchmark, with the machine
// configuration to lower them for.
template <typename F>
void ForAllModes(workloads::Scale scale, F use) {
  const arch::ArchConfig cfg;
  const ArchDescription ad(cfg);
  for (const std::string& name : workloads::BenchmarkNames()) {
    const Program built = workloads::BuildWorkload(name, scale);
    use(built, cfg);
    for (Mode mode : {Mode::kAlgorithm1, Mode::kAlgorithm2}) {
      Program p = built;
      CompileOptions opt;
      opt.mode = mode;
      Compile(p, ad, opt);
      use(p, cfg);
    }
  }
}

// Lowers the 20 benchmarks at `scale` as baseline, Algorithm-1 and
// Algorithm-2 programs, in that order per benchmark, and hands each result
// to `use`.
template <typename F>
void LowerAllModes(workloads::Scale scale, F use) {
  ForAllModes(scale, [&](const Program& p, const arch::ArchConfig& cfg) {
    use(Lower(p, cfg.num_nodes(), &cfg));
  });
}

TEST(Codegen, LoweredTracesMatchFrozenDigest) {
  Fnv1a fnv;
  LowerAllModes(workloads::Scale::kTest, [&](const CodegenResult& r) { HashLowered(fnv, r); });
  EXPECT_GT(fnv.precomputes, 0u);
  EXPECT_EQ(fnv.h, 0x9bec531fb6e2c767ull) << std::hex << "digest 0x" << fnv.h;
}

// --- Lower against its reference model ------------------------------------
// tests/lower_reference.hpp keeps the code generator as first written
// (per-iteration core lookup, every emission counting-sorted by slot);
// Lower must give the same instruction words, trace capacities and counts.

void ExpectSameLowering(const CodegenResult& got, const CodegenResult& want,
                        const std::string& what) {
  EXPECT_EQ(got.total_instrs, want.total_instrs) << what;
  EXPECT_EQ(got.precomputes, want.precomputes) << what;
  ASSERT_EQ(got.traces.size(), want.traces.size()) << what;
  for (std::size_t c = 0; c < want.traces.size(); ++c) {
    const arch::Trace& g = got.traces[c];
    const arch::Trace& w = want.traces[c];
    EXPECT_EQ(g.capacity(), w.capacity()) << what << " core " << c;
    ASSERT_EQ(g.size(), w.size()) << what << " core " << c;
    for (std::size_t i = 0; i < w.size(); ++i) {
      ASSERT_EQ(g[i].words(), w[i].words()) << what << " core " << c << " instr " << i;
    }
  }
}

// An affine access to `array` over a depth-`depth` nest with small random
// coefficients and offsets, so that some subscripts fall out of bounds.
AffineAccess RandomAccess(sim::Rng& rng, const Program& p, int array, int depth) {
  AffineAccess a;
  a.array = array;
  const int rank = static_cast<int>(p.array(array).dims.size());
  a.F = IntMat(rank, depth);
  for (int r = 0; r < rank; ++r) {
    for (int c = 0; c < depth; ++c) a.F.at(r, c) = rng.NextInRange(-1, 2);
    a.f.push_back(rng.NextInRange(-1, 3));
  }
  return a;
}

// A random operand: absent, a register, affine, or indirect through an
// index array whose values run past the target array.
Operand RandomOperand(sim::Rng& rng, const Program& p, int depth, const std::vector<int>& data,
                      int idx, int tgt) {
  switch (rng.NextBelow(5)) {
    case 0: return Operand{};
    case 1: return ir::ScalarOperand();
    case 2: return Operand::Indirect(RandomAccess(rng, p, idx, depth), tgt);
    default:
      return Operand::Affine(RandomAccess(
          rng, p, data[static_cast<std::size_t>(rng.NextBelow(data.size()))], depth));
  }
}

// A program of 1-3 nests of depth 1-3 with rectangular or triangular
// bounds, outer spans of 0, below, off and on multiples of `cores`, and
// statements annotated with leads of up to 5 iterations either way.
Program RandomProgram(sim::Rng& rng, int cores) {
  Program p;
  std::vector<int> data = {p.AddArray("a", {rng.NextInRange(1, 40)}),
                           p.AddArray("b", {rng.NextInRange(1, 8), rng.NextInRange(1, 8)})};
  const int idx = p.AddArray("idx", {rng.NextInRange(1, 24)});
  const int tgt = p.AddArray("t", {rng.NextInRange(1, 16)});
  if (!rng.NextBool(0.1)) {  // sometimes the index array has no values
    std::vector<Int>& values = p.index_data[idx];
    const Int n = p.array(idx).NumElems() - (rng.NextBool(0.3) ? 2 : 0);
    for (Int k = 0; k < n; ++k) values.push_back(rng.NextInRange(-2, p.array(tgt).NumElems() + 1));
  }
  const int num_nests = 1 + static_cast<int>(rng.NextBelow(3));
  for (int n = 0; n < num_nests; ++n) {
    LoopNest nest;
    const int depth = 1 + static_cast<int>(rng.NextBelow(3));
    const Int k = rng.NextInRange(1, 3);
    const Int spans[] = {0, std::max<Int>(0, cores - 1), k * cores + rng.NextInRange(1, 4),
                         k * cores, rng.NextInRange(1, 12)};
    const Int span = spans[rng.NextBelow(5)];
    const Int lo = rng.NextInRange(-2, 3);
    nest.loops.push_back({lo, lo + span - 1, -1, 0, -1, 0});
    for (int level = 1; level < depth; ++level) {
      ir::Loop l{rng.NextInRange(-1, 1), rng.NextInRange(0, 4), -1, 0, -1, 0};
      if (rng.NextBool(0.4)) {  // triangular: hi follows an enclosing iterator
        l.hi_dep = static_cast<int>(rng.NextBelow(static_cast<std::uint64_t>(level)));
        l.hi_coef = rng.NextInRange(-1, 1);
      }
      if (rng.NextBool(0.3)) {
        l.lo_dep = static_cast<int>(rng.NextBelow(static_cast<std::uint64_t>(level)));
        l.lo_coef = rng.NextInRange(-1, 1);
      }
      nest.loops.push_back(l);
    }
    const int stmts = 1 + static_cast<int>(rng.NextBelow(3));
    for (int s = 0; s < stmts; ++s) {
      Stmt st;
      st.id = p.NextStmtId();
      st.op = static_cast<arch::Op>(rng.NextBelow(static_cast<std::uint64_t>(arch::Op::kXor) + 1));
      st.lhs = RandomOperand(rng, p, depth, data, idx, tgt);
      st.rhs0 = RandomOperand(rng, p, depth, data, idx, tgt);
      st.rhs1 = RandomOperand(rng, p, depth, data, idx, tgt);
      if (rng.NextBool(0.5)) {
        st.ndc.offload = true;
        st.ndc.planned = static_cast<arch::Loc>(rng.NextBelow(arch::kNumLocs));
        st.ndc.timeout = rng.NextBelow(100);
        if (rng.NextBool(0.7)) {
          st.ndc.lead0 = rng.NextInRange(-5, 5);
          st.ndc.lead1 = rng.NextInRange(-5, 5);
        }
      }
      nest.body.push_back(st);
    }
    p.nests.push_back(std::move(nest));
  }
  return p;
}

// Seeded property: on random nests, Lower matches the reference model word
// for word, on 1, 3 and 25 cores, with and without a machine configuration.
TEST(Codegen, LowerMatchesReferenceOnRandomNests) {
  sim::Rng rng(20261019);
  const arch::ArchConfig cfg;
  std::uint64_t instrs = 0, precomputes = 0, with_lead = 0;
  for (int trial = 0; trial < 300; ++trial) {
    for (int cores : {1, 3, 25}) {
      const Program p = RandomProgram(rng, cores);
      for (const ir::LoopNest& nest : p.nests) {
        for (const Stmt& st : nest.body) with_lead += st.ndc.offload && st.ndc.lead0 != 0;
      }
      const arch::ArchConfig* c = rng.NextBool(0.5) ? &cfg : nullptr;
      const CodegenResult want = reference::Lower(p, cores, c);
      ExpectSameLowering(Lower(p, cores, c), want,
                         "trial " + std::to_string(trial) + " cores " + std::to_string(cores));
      if (HasFailure()) return;
      instrs += want.total_instrs;
      precomputes += want.precomputes;
    }
  }
  // The programs exercise what the property is about.
  EXPECT_GT(instrs, 500000u);
  EXPECT_GT(precomputes, 300u);
  EXPECT_GT(with_lead, 500u);
}

// The 20 benchmarks at small scale as baseline, Algorithm-1 and Algorithm-2
// programs lower exactly as the reference model lowers them.
TEST(Codegen, LowerMatchesReferenceOnBenchmarks) {
  int programs = 0;
  ForAllModes(workloads::Scale::kSmall, [&](const Program& p, const arch::ArchConfig& cfg) {
    ExpectSameLowering(Lower(p, cfg.num_nodes(), &cfg),
                       reference::Lower(p, cfg.num_nodes(), &cfg),
                       p.name + " #" + std::to_string(programs++));
  });
  EXPECT_EQ(programs, 60);
}

// The largest value each packed field takes over a set of lowered traces.
struct FieldMaxima {
  sim::Addr addr = 0;
  std::uint32_t pc = 0;
  sim::Cycle timeout = 0;
  std::int32_t dep = -1;

  void Add(const CodegenResult& r) {
    for (const arch::Trace& t : r.traces) {
      for (const Instr& i : t) {
        addr = std::max(addr, i.addr());
        pc = std::max(pc, i.pc());
        timeout = std::max(timeout, i.timeout());
        dep = std::max({dep, i.dep0(), i.dep1()});
      }
    }
  }
};

// The paper-sized inputs lower into traces that fit the 16-byte Instr with
// room to spare: lowering would throw on a field that does not fit, and each
// field's largest value stays within 1/64 of its limit, so a workload that
// eats into the headroom fails here before it reaches the limit.
TEST(Codegen, FullScaleTracesFitTheInstrLayout) {
  FieldMaxima max;
  LowerAllModes(workloads::Scale::kFull, [&](const CodegenResult& r) { max.Add(r); });
  EXPECT_GT(max.timeout, 0u);
  EXPECT_LE(max.addr, kMaxAddr / 64) << std::hex << "address 0x" << max.addr;
  EXPECT_LE(max.pc, kMaxPc / 64);
  EXPECT_LE(max.timeout, kMaxTimeout / 64);
  EXPECT_LE(max.dep, kMaxDep / 64);
}

}  // namespace
}  // namespace ndc::compiler
