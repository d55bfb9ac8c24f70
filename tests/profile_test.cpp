// metrics::Profile and harness::RunScheme unit tests: result caching
// semantics, ImprovementPct edge cases, compiled runs from the profile's
// program, and cell-for-cell determinism of a parallel harness sweep
// against a serial one.

#include <gtest/gtest.h>

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
    const fault::ConservationInputs& obs = profile.ObserveConservation();
    EXPECT_TRUE(fault::CheckConservation(obs).ok) << fault::CheckConservation(obs).ToString();
    EXPECT_GT(obs.packets_sent, 0u);
    EXPECT_GT(obs.mc_reads, 0u);
    EXPECT_EQ(obs, profile.BaselineConservation()) << baseline_from_observe;
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

  SchemeResult b = harness::RunScheme(spec);

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
