// metrics::Profile and harness::RunScheme unit tests: result caching
// semantics, the two facts a profile's reuse rests on (compiled programs
// match by their annotations; the profile runs ignore the NDC hardware
// fields), ImprovementPct edge cases, compiled runs from the profile's
// program, and cell-for-cell determinism of a parallel harness sweep
// against a serial one.

#include <gtest/gtest.h>

#include "compiler/codegen.hpp"
#include "fault/conservation.hpp"
#include "harness/sweep.hpp"
#include "metrics/profile.hpp"
#include "obs/obs.hpp"
#include "test_support.hpp"

namespace ndc::metrics {
namespace {

using harness::TestCell;
using workloads::Scale;

TEST(Profile, BaselineIsComputedOnceAndCached) {
  Profile profile("md", Scale::kTest, arch::ArchConfig{});
  const runtime::RunResult& a = profile.Baseline();
  const runtime::RunResult& b = profile.Baseline();
  EXPECT_EQ(&a, &b);  // same object, not a re-run
  EXPECT_GT(a.makespan, 0u);
}

TEST(Profile, ObserveIsComputedOnceAndCached) {
  Profile profile("md", Scale::kTest, arch::ArchConfig{});
  const runtime::RunResult& a = profile.Observe();
  const runtime::RunResult& b = profile.Observe();
  EXPECT_EQ(&a, &b);
  // Observation mode must not distort timing (Section 4's design point).
  EXPECT_EQ(a.makespan, profile.Baseline().makespan);
}

// The observation run records request conservation whether or not it also
// serves as the baseline, and conserves like the baseline does.
TEST(Profile, ObserveRunConservesRequests) {
  for (bool baseline_from_observe : {false, true}) {
    Profile profile("md", Scale::kTest, arch::ArchConfig{}, 1, baseline_from_observe);
    const fault::ConservationInputs& obs = profile.Observe().conservation;
    EXPECT_TRUE(fault::CheckConservation(obs).ok) << fault::CheckConservation(obs).ToString();
    EXPECT_GT(obs.packets_sent, 0u);
    EXPECT_GT(obs.mc_reads, 0u);
    EXPECT_EQ(obs, profile.Baseline().conservation) << baseline_from_observe;
  }
}

// Every instruction word of a program's traces, trace by trace.
using TraceWords = std::vector<std::vector<std::array<std::uint64_t, 2>>>;

TraceWords LoweredWords(const ir::Program& prog, const arch::ArchConfig& cfg) {
  TraceWords out;
  for (const arch::Trace& t : compiler::Lower(prog, cfg.num_nodes(), &cfg).traces) {
    auto& words = out.emplace_back();
    for (const arch::Instr& in : t) words.push_back(in.words());
  }
  return out;
}

std::vector<ir::NdcAnnotation> Annotations(const ir::Program& prog) {
  std::vector<ir::NdcAnnotation> out;
  for (const ir::LoopNest& nest : prog.nests) {
    for (const ir::Stmt& st : nest.body) out.push_back(st.ndc);
  }
  return out;
}

// What Profile::RunCompiled's reuse rests on: Compile writes nothing but
// Stmt::ndc, and lowering is a pure function of the program and the
// configuration. So programs compiled from one build lower to the same
// instruction words on a configuration exactly when every statement's
// annotation is equal. Checked over the compiled modes, each compiled for
// the default, no-reroute and cache-only (fig14) hardware, and every pair
// lowered on each of those configurations.
TEST(Profile, CompiledRunsMatchByAnnotations) {
  std::vector<arch::ArchConfig> cfgs(3);
  cfgs[1].allow_reroute = false;
  cfgs[2].control_register = arch::LocBit(arch::Loc::kCacheCtrl);
  std::size_t equal = 0, differ = 0;
  for (const std::string& name : workloads::BenchmarkNames()) {
    harness::CellSpec coarse = TestCell(name, Scheme::kAlgorithm1);
    coarse.coarse_grain = true;
    const harness::CellSpec cells[] = {TestCell(name, Scheme::kAlgorithm1),
                                       TestCell(name, Scheme::kAlgorithm2), coarse};
    const ir::Program built = workloads::BuildWorkload(name, Scale::kTest);
    std::vector<ir::Program> programs;
    for (const arch::ArchConfig& cfg : cfgs) {
      for (harness::CellSpec cell : cells) {
        cell.cfg = cfg;
        ir::Program& prog = programs.emplace_back(built);
        compiler::Compile(prog, compiler::ArchDescription(cfg), harness::CellCompileOptions(cell));
      }
    }
    for (const arch::ArchConfig& cfg : cfgs) {
      std::vector<TraceWords> words;
      for (const ir::Program& prog : programs) words.push_back(LoweredWords(prog, cfg));
      for (std::size_t i = 0; i < programs.size(); ++i) {
        for (std::size_t j = i + 1; j < programs.size(); ++j) {
          bool same = Annotations(programs[i]) == Annotations(programs[j]);
          EXPECT_EQ(same, words[i] == words[j]) << name << " programs " << i << ", " << j;
          if (same) {
            ++equal;
          } else {
            ++differ;
          }
        }
      }
    }
  }
  // Both sides of the equivalence occur.
  EXPECT_GT(equal, 0u);
  EXPECT_GT(differ, 0u);
}

// Every field of every observation record, in record order.
std::vector<std::uint64_t> RecordFields(const runtime::RunRecord& records) {
  std::vector<std::uint64_t> out;
  records.ForEach([&](const runtime::InstanceRecord& r) {
    out.insert(out.end(), {static_cast<std::uint64_t>(r.core), r.compute_idx, r.pc, r.local_l1,
                           r.operand_reused_later, r.operand_reused_later_l2, r.conv_done});
    for (const runtime::LocObs& o : r.locs) {
      out.insert(out.end(),
                 {o.t_a, o.t_b, static_cast<std::uint64_t>(o.node), o.feasible, o.meet_ok});
    }
  });
  return out;
}

// What lets cells that differ only in their NDC hardware share one profile
// (harness::CellSpec::ProfileKey resets the control register and the
// reroute flag): the baseline and observation runs are the same runs,
// records included, whatever those two fields hold.
TEST(Profile, RunsIgnoreControlRegisterAndReroute) {
  std::vector<arch::ArchConfig> cfgs(3);
  cfgs[1].allow_reroute = false;
  cfgs[2].control_register = arch::LocBit(arch::Loc::kCacheCtrl);
  for (const std::string& name : workloads::BenchmarkNames()) {
    Profile ref(name, Scale::kTest, cfgs[0]);
    const std::vector<std::uint64_t> ref_records = RecordFields(*ref.Observe().records);
    EXPECT_FALSE(ref_records.empty()) << name;
    for (std::size_t c = 1; c < cfgs.size(); ++c) {
      Profile other(name, Scale::kTest, cfgs[c]);
      std::string what = name + " cfg " + std::to_string(c);
      harness::ExpectSameRun(other.Baseline(), ref.Baseline(), what);
      harness::ExpectSameRun(other.Observe(), ref.Observe(), what);
      EXPECT_EQ(RecordFields(*other.Observe().records), ref_records) << what;
    }
  }
}

TEST(ImprovementPct, ZeroBaselineYieldsZeroNotDivisionByZero) {
  EXPECT_EQ(ImprovementPct(0, 100), 0.0);
  EXPECT_EQ(ImprovementPct(0, 0), 0.0);
}

TEST(ImprovementPct, SignConventions) {
  EXPECT_DOUBLE_EQ(ImprovementPct(200, 100), 50.0);   // faster = positive
  EXPECT_DOUBLE_EQ(ImprovementPct(100, 150), -50.0);  // slower = negative
  EXPECT_DOUBLE_EQ(ImprovementPct(100, 100), 0.0);
}

// A compiled run compiles a copy of the program the profile built instead
// of regenerating it; the result must match a run on a fresh profile.
TEST(RunScheme, CompiledRunMatchesFreshProfile) {
  harness::CellSpec spec = TestCell("md", Scheme::kAlgorithm1);

  auto reused = harness::MakeProfile(spec, false);
  (void)reused->Baseline();  // populate caches before compiling
  SchemeResult a = harness::RunScheme(spec, *reused);

  SchemeResult b = harness::RunSchemeAlone(spec);

  EXPECT_EQ(a.run.makespan, b.run.makespan);
  EXPECT_EQ(a.run.ndc_success, b.run.ndc_success);
  EXPECT_EQ(a.compile_report.planned, b.compile_report.planned);
  EXPECT_EQ(a.compile_report.chains, b.compile_report.chains);
}

// A traced policy cell simulates its own run and nothing else: it reads
// neither the profile's baseline nor its observation run.
TEST(RunScheme, TracedPolicyCellSimulatesOnlyItsOwnRun) {
  harness::CellSpec spec = TestCell("md", Scheme::kDefault);
  auto profile = harness::MakeProfile(spec, spec.NeedsObserve());
  obs::Observability ob;
  SchemeResult traced = harness::RunScheme(spec, *profile, &ob);
  EXPECT_EQ(profile->run_counts().machine_runs, 1u);
  EXPECT_EQ(profile->run_counts().runs_reused, 0u);
  EXPECT_GT(traced.run.offloads, 0u);
}

// Consecutive compiled runs on one profile see the same pristine program
// (Compile must not leak mutations into later runs).
TEST(RunScheme, CompiledRunIsRepeatable) {
  harness::CellSpec spec = TestCell("swim", Scheme::kAlgorithm2);
  auto profile = harness::MakeProfile(spec, false);
  SchemeResult a = harness::RunScheme(spec, *profile);
  SchemeResult b = harness::RunScheme(spec, *profile);
  EXPECT_EQ(a.run.makespan, b.run.makespan);
  EXPECT_EQ(a.compile_report.planned, b.compile_report.planned);
}

// The harness determinism contract: a 4-thread sweep produces results
// cell-for-cell identical to the serial sweep of the same spec.
TEST(Experiment, ParallelSweepMatchesSerialSweep) {
  harness::SweepSpec spec;
  spec.figure = "determinism";
  for (const char* w : {"md", "swim", "fft"}) {
    for (Scheme s : {Scheme::kBaseline, Scheme::kOracle, Scheme::kAlgorithm1}) {
      spec.cells.push_back(TestCell(w, s));
    }
  }

  harness::SweepOptions serial;
  serial.jobs = 1;
  serial.use_cache = false;
  harness::SweepOptions parallel = serial;
  parallel.jobs = 4;

  harness::SweepResult a = harness::RunSweep(spec, serial);
  harness::SweepResult b = harness::RunSweep(spec, parallel);
  ASSERT_EQ(a.cells.size(), spec.cells.size());
  ASSERT_EQ(b.cells.size(), spec.cells.size());
  for (std::size_t i = 0; i < spec.cells.size(); ++i) {
    EXPECT_TRUE(a.cells[i] == b.cells[i])
        << spec.cells[i].workload << "/" << spec.cells[i].SchemeLabel();
  }
}

}  // namespace
}  // namespace ndc::metrics
