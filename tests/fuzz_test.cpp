// Randomized robustness tests: arbitrary (valid) traces over arbitrary
// address mixes, run under every policy, must always run to completion —
// no deadlocks, no lost completions — and deterministically. Plus a
// pipeline/auditor cross-check: random IR programs fed through Compile()
// in every mode must come out clean under the independent verifier.

#include <gtest/gtest.h>

#include "arch/config.hpp"
#include "arch/trace.hpp"
#include "compiler/pipeline.hpp"
#include "ndc/machine.hpp"
#include "ndc/policy.hpp"
#include "sim/rng.hpp"
#include "verify/verify.hpp"

namespace ndc::runtime {
namespace {

using arch::Instr;
using arch::MakeCompute;
using arch::MakeLoad;
using arch::MakePreCompute;
using arch::MakeStore;
using arch::Op;
using arch::Trace;

// Generates a random but structurally valid trace: loads with optional
// address deps, candidate computes over two previous loads, pre-computes
// with random planned locations/timeouts, dependent stores.
Trace RandomTrace(sim::Rng& rng, int len) {
  Trace t;
  std::vector<int> loads;
  auto rand_addr = [&] {
    // Mix of pages, lines, and nearby offsets to hit every component mix.
    return static_cast<sim::Addr>(rng.NextBelow(1u << 22)) & ~sim::Addr{7};
  };
  while (static_cast<int>(t.size()) < len) {
    switch (rng.NextBelow(10)) {
      case 0: case 1: case 2: case 3: {
        sim::Addr a = rand_addr();
        std::int32_t dep = -1;
        if (!loads.empty() && rng.NextBool(0.2)) {
          dep = loads[rng.NextBelow(loads.size())];
        }
        auto pc = static_cast<std::uint32_t>(rng.NextBelow(32));
        loads.push_back(static_cast<int>(t.size()));
        t.push_back(MakeLoad(a, dep, pc));
        break;
      }
      case 4: case 5: {
        if (loads.size() < 2) break;
        int a = loads[loads.size() - 1];
        int b = loads[loads.size() - 2];
        t.push_back(MakeCompute(static_cast<Op>(rng.NextBelow(7)), a, b, true,
                                static_cast<std::uint32_t>(rng.NextBelow(32))));
        loads.clear();  // a load feeds at most one site
        break;
      }
      case 6: {
        if (loads.size() < 2) break;
        int a = loads[loads.size() - 1];
        int b = loads[loads.size() - 2];
        auto loc = static_cast<arch::Loc>(rng.NextBelow(4));
        t.push_back(MakePreCompute(static_cast<Op>(rng.NextBelow(7)), a, b, loc,
                                   rng.NextBelow(200) + 1,
                                   static_cast<std::uint32_t>(rng.NextBelow(32))));
        loads.clear();
        break;
      }
      case 7: {
        std::int32_t dep = -1;
        if (!t.empty() && rng.NextBool(0.5)) {
          dep = static_cast<std::int32_t>(rng.NextBelow(t.size()));
          if (t[static_cast<std::size_t>(dep)].kind() == Instr::Kind::kStore) dep = -1;
        }
        t.push_back(MakeStore(rand_addr(), dep));
        break;
      }
      default: {
        std::int32_t dep =
            t.empty() ? -1 : static_cast<std::int32_t>(rng.NextBelow(t.size()));
        if (dep >= 0 && t[static_cast<std::size_t>(dep)].kind() == Instr::Kind::kStore) dep = -1;
        t.push_back(MakeCompute(Op::kAdd, dep, -1, false));
        break;
      }
    }
  }
  return t;
}

std::vector<Trace> RandomProgram(std::uint64_t seed, int cores, int len) {
  sim::Rng rng(seed);
  std::vector<Trace> p(static_cast<std::size_t>(cores));
  for (int c = 0; c < cores; ++c) p[static_cast<std::size_t>(c)] = RandomTrace(rng, len);
  return p;
}

class FuzzSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSeeds, AllPoliciesRunToCompletion) {
  arch::ArchConfig cfg;
  std::vector<Trace> program = RandomProgram(GetParam(), 25, 120);

  // Baseline + observe + every hardware policy.
  std::vector<std::pair<const char*, std::unique_ptr<Policy>>> policies;
  policies.emplace_back("none", nullptr);
  policies.emplace_back("default", std::make_unique<AlwaysWaitPolicy>(cfg));
  policies.emplace_back("last-wait", std::make_unique<LastWaitPolicy>(cfg));
  policies.emplace_back("markov", std::make_unique<MarkovWaitPolicy>(cfg));

  for (auto& [name, pol] : policies) {
    MachineOptions opts;
    opts.policy = pol.get();
    Machine m(cfg, opts);
    m.LoadProgram(program);
    RunResult r = m.Run(/*limit=*/50'000'000);
    EXPECT_EQ(r.stats.Get("run.incomplete_cores"), 0u)
        << "seed " << GetParam() << " policy " << name;
  }

  // Observation mode.
  MachineOptions obs;
  obs.observe = true;
  Machine m(cfg, obs);
  m.LoadProgram(program);
  RunResult r = m.Run(50'000'000);
  EXPECT_EQ(r.stats.Get("run.incomplete_cores"), 0u);
}

TEST_P(FuzzSeeds, DeterministicUnderDefaultPolicy) {
  arch::ArchConfig cfg;
  std::vector<Trace> program = RandomProgram(GetParam() * 77 + 5, 25, 80);
  sim::Cycle first = 0;
  for (int run = 0; run < 2; ++run) {
    AlwaysWaitPolicy pol(cfg);
    MachineOptions opts;
    opts.policy = &pol;
    Machine m(cfg, opts);
    m.LoadProgram(program);
    RunResult r = m.Run(50'000'000);
    if (run == 0) {
      first = r.makespan;
    } else {
      EXPECT_EQ(r.makespan, first);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeeds, ::testing::Values(1, 2, 3, 4, 5, 11, 23, 42));

// --- random IR programs: the compiler must never emit annotations the ---
// --- independent auditor (src/verify) rejects ---------------------------

// Generates a random but structurally valid IR program: rectangular nests
// of depth 1-3, 1-D flattened or rank-matched affine accesses (arrays sized
// so every subscript stays in bounds), occasional stencil offsets, reused
// arrays across statements (creating real dependences), and occasional
// indirect accesses (creating unknown dependences the pipeline must respect).
ir::Program RandomIrProgram(std::uint64_t seed) {
  sim::Rng rng(seed);
  ir::Program p;
  p.name = "fuzz-" + std::to_string(seed);

  int depth = 1 + static_cast<int>(rng.NextBelow(3));
  std::vector<ir::Int> trips;
  std::vector<ir::Loop> loops;
  for (int l = 0; l < depth; ++l) {
    ir::Int trip = 3 + static_cast<ir::Int>(rng.NextBelow(6));
    trips.push_back(trip);
    loops.push_back({0, trip - 1, -1, 0, -1, 0});
  }

  // Arrays sized to admit any offset in [-2, 2] on any dimension.
  ir::Int slack = 4;
  std::vector<int> arrays;
  int num_arrays = 2 + static_cast<int>(rng.NextBelow(3));
  for (int a = 0; a < num_arrays; ++a) {
    std::vector<ir::Int> dims;
    for (int l = 0; l < depth; ++l) dims.push_back(trips[static_cast<std::size_t>(l)] + slack);
    arrays.push_back(p.AddArray("A" + std::to_string(a), dims));
  }
  int idx_array = -1;
  if (rng.NextBool(0.3)) {
    // A 1-D index array covering the innermost trip count, pointing into
    // the first data array's flattened elements.
    ir::Int n = trips.back() + slack;
    idx_array = p.AddArray("idx", {n});
    std::vector<ir::Int>& data = p.index_data[idx_array];
    ir::Int target_elems = p.array(arrays[0]).NumElems();
    for (ir::Int i = 0; i < n; ++i) {
      data.push_back(static_cast<ir::Int>(
          rng.NextBelow(static_cast<std::uint64_t>(target_elems))));
    }
  }

  auto random_affine = [&](int arr) {
    ir::AffineAccess acc;
    acc.array = arr;
    int rank = static_cast<int>(p.array(arr).dims.size());
    acc.F = ir::IntMat(rank, depth);
    acc.f.assign(static_cast<std::size_t>(rank), 0);
    for (int d = 0; d < rank && d < depth; ++d) acc.F.at(d, d) = 1;
    // Random small offset on one dimension (stencil halo; stays in bounds
    // thanks to the dimension slack).
    int d = static_cast<int>(rng.NextBelow(static_cast<std::uint64_t>(rank)));
    acc.f[static_cast<std::size_t>(d)] = static_cast<ir::Int>(rng.NextBelow(3));
    return acc;
  };

  int num_nests = 1 + static_cast<int>(rng.NextBelow(2));
  for (int n = 0; n < num_nests; ++n) {
    ir::LoopNest nest;
    nest.loops = loops;
    int num_stmts = 1 + static_cast<int>(rng.NextBelow(3));
    for (int s = 0; s < num_stmts; ++s) {
      ir::Stmt st;
      st.id = p.NextStmtId();
      st.op = static_cast<arch::Op>(rng.NextBelow(7));
      int a0 = arrays[rng.NextBelow(arrays.size())];
      int a1 = arrays[rng.NextBelow(arrays.size())];
      st.rhs0 = ir::Operand::Affine(random_affine(a0));
      if (idx_array >= 0 && depth == 1 && rng.NextBool(0.3)) {
        ir::AffineAccess ia;
        ia.array = idx_array;
        ia.F = ir::IntMat(1, depth);
        ia.F.at(0, depth - 1) = 1;
        ia.f = {0};
        st.rhs1 = ir::Operand::Indirect(ia, arrays[0]);
      } else {
        st.rhs1 = ir::Operand::Affine(random_affine(a1));
      }
      if (rng.NextBool(0.7)) {
        int aw = arrays[rng.NextBelow(arrays.size())];
        st.lhs = ir::Operand::Affine(random_affine(aw));
      } else {
        st.lhs = ir::Operand::Scalar();
      }
      nest.body.push_back(std::move(st));
    }
    p.nests.push_back(std::move(nest));
  }
  return p;
}

class FuzzIrSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzIrSeeds, CompiledProgramsPassTheIndependentAuditor) {
  arch::ArchConfig cfg;
  compiler::ArchDescription ad(cfg);
  for (compiler::Mode mode : {compiler::Mode::kBaseline, compiler::Mode::kAlgorithm1,
                              compiler::Mode::kAlgorithm2, compiler::Mode::kCoarseGrain}) {
    ir::Program prog = RandomIrProgram(GetParam());
    compiler::CompileOptions opt;
    opt.mode = mode;
    opt.verify_after = false;  // verified explicitly below
    compiler::Compile(prog, ad, opt);
    verify::Report rep = verify::VerifyProgram(prog);
    EXPECT_EQ(rep.ErrorCount(), 0)
        << "seed " << GetParam() << " mode " << compiler::ModeName(mode) << "\n"
        << prog.ToString() << rep.ToText();
  }
}

INSTANTIATE_TEST_SUITE_P(IrSeeds, FuzzIrSeeds,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14,
                                           15, 16, 17, 18, 19, 20, 101, 202, 303, 404));

}  // namespace
}  // namespace ndc::runtime
