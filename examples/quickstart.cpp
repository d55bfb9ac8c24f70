// Quickstart: build a small loop-nest program, compile it with the paper's
// Algorithm 1 and Algorithm 2 NDC passes, run all three versions on the
// simulated 5x5 manycore, and print what happened.
//
//   $ ./examples/quickstart

#include <cstdio>
#include <memory>

#include "compiler/arch_desc.hpp"
#include "compiler/codegen.hpp"
#include "compiler/pipeline.hpp"
#include "harness/cell.hpp"
#include "ir/program.hpp"
#include "ndc/machine.hpp"

using namespace ndc;

namespace {

// z(i,j) = x(i,j) + y(i,j) over records one cache line apart — every access
// misses the L1, so each computation is a textbook use-use chain (Figure 8's
// S1/S2/S3) worth performing near the data.
ir::Program MakeStreamAdd(ir::Int n) {
  ir::Program p;
  p.name = "stream-add";
  int x = p.AddArray("x", {n * n * 8});  // 8-element (64-byte) records
  int y = p.AddArray("y", {n * n * 8});
  int z = p.AddArray("z", {n * n});

  ir::LoopNest nest;
  nest.loops = {{0, n - 1, -1, 0, -1, 0}, {0, n - 1, -1, 0, -1, 0}};
  ir::Stmt s;
  s.id = p.NextStmtId();
  auto record = [&](int arr) {
    ir::AffineAccess a;
    a.array = arr;
    a.F = ir::IntMat(1, 2, {n * 8, 8});  // one 64-byte record per (i, j)
    a.f = {0};
    return ir::Operand::Affine(a);
  };
  ir::AffineAccess za;
  za.array = z;
  za.F = ir::IntMat(1, 2, {n, 1});
  za.f = {0};
  s.lhs = ir::Operand::Affine(za);
  s.op = arch::Op::kAdd;
  s.rhs0 = record(x);
  s.rhs1 = record(y);
  nest.body.push_back(s);
  p.nests.push_back(std::move(nest));
  return p;
}

runtime::RunResult RunProgram(const ir::Program& prog, const arch::ArchConfig& cfg) {
  runtime::Machine machine(cfg, {});
  machine.LoadProgram(compiler::Lower(prog, cfg.num_nodes()).traces);
  return machine.Run();
}

}  // namespace

int main() {
  arch::ArchConfig cfg;  // Table 1 defaults: 5x5 mesh, 4 MCs, NDC everywhere
  const ir::Int n = 64;

  std::printf("== near-data-computing quickstart ==\n");
  std::printf("machine: %dx%d mesh, %d MCs, L1 %lluKB, L2 %lluKB/bank\n\n", cfg.mesh_width,
              cfg.mesh_height, cfg.num_mcs,
              static_cast<unsigned long long>(cfg.l1.size_bytes / 1024),
              static_cast<unsigned long long>(cfg.l2.size_bytes / 1024));

  // 1. Baseline: conventional execution.
  ir::Program base = MakeStreamAdd(n);
  runtime::RunResult base_run = RunProgram(base, cfg);
  std::printf("baseline        : %10llu cycles  (L1 miss %.1f%%, L2 miss %.1f%%)\n",
              static_cast<unsigned long long>(base_run.makespan),
              base_run.L1MissRate() * 100.0, base_run.L2MissRate() * 100.0);

  // 2. Algorithm 1: restructure for NDC and insert pre-compute instructions.
  for (compiler::Mode mode : {compiler::Mode::kAlgorithm1, compiler::Mode::kAlgorithm2}) {
    ir::Program prog = MakeStreamAdd(n);
    compiler::ArchDescription ad(cfg);
    compiler::CompileOptions opt;
    opt.mode = mode;
    compiler::CompileReport rep = compiler::Compile(prog, ad, opt);
    runtime::RunResult run = RunProgram(prog, cfg);
    std::printf("%-16s: %10llu cycles  (%+.1f%%)  chains=%llu planned=%llu "
                "ndc-done=%llu fallbacks=%llu\n",
                compiler::ModeName(mode), static_cast<unsigned long long>(run.makespan),
                metrics::ImprovementPct(base_run.makespan, run.makespan),
                static_cast<unsigned long long>(rep.chains),
                static_cast<unsigned long long>(rep.planned),
                static_cast<unsigned long long>(run.ndc_success),
                static_cast<unsigned long long>(run.fallbacks));
    std::printf("                  NDC breakdown: cache=%llu network=%llu MC=%llu memory=%llu\n",
                static_cast<unsigned long long>(run.ndc_at_loc[1]),
                static_cast<unsigned long long>(run.ndc_at_loc[0]),
                static_cast<unsigned long long>(run.ndc_at_loc[2]),
                static_cast<unsigned long long>(run.ndc_at_loc[3]));
  }

  // 3. The oracle upper bound from the quantification framework (Section 4).
  harness::CellSpec swim;
  swim.workload = "swim";
  swim.scale = workloads::Scale::kTest;
  swim.scheme = metrics::Scheme::kOracle;
  swim.cfg = cfg;
  // The oracle reads the profile's observation run, which is also its baseline.
  std::shared_ptr<metrics::Profile> profile = harness::MakeProfile(swim, swim.NeedsObserve());
  metrics::SchemeResult oracle = harness::RunScheme(swim, *profile);
  std::printf("\nswim (stand-in) oracle improvement: %+.1f%% (NDC at cache=%llu "
              "network=%llu MC=%llu memory=%llu)\n",
              metrics::ImprovementPct(profile->Baseline().makespan, oracle.run.makespan),
              static_cast<unsigned long long>(oracle.run.ndc_at_loc[1]),
              static_cast<unsigned long long>(oracle.run.ndc_at_loc[0]),
              static_cast<unsigned long long>(oracle.run.ndc_at_loc[2]),
              static_cast<unsigned long long>(oracle.run.ndc_at_loc[3]));
  return 0;
}
