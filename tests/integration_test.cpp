// End-to-end integration tests: workloads through the compiler and the full
// machine, scheme orderings the paper establishes, sensitivity configs, and
// determinism of whole experiments.

#include <gtest/gtest.h>

#include "metrics/profile.hpp"
#include "obs/obs.hpp"
#include "test_support.hpp"

namespace ndc::metrics {
namespace {

using harness::CellSpec;
using harness::ExpectSameRun;
using harness::RunScheme;
using harness::TestCell;
using workloads::Scale;

TEST(EndToEnd, BaselineRunsToCompletionOnAllBenchmarks) {
  for (const std::string& name : workloads::BenchmarkNames()) {
    Profile profile(name, Scale::kTest, arch::ArchConfig{});
    const runtime::RunResult& r = profile.Baseline();
    EXPECT_GT(r.makespan, 0u) << name;
    EXPECT_EQ(r.stats.Get("run.incomplete_cores"), 0u) << name;
    EXPECT_GT(r.candidates, 0u) << name;
    for (const auto& [key, value] : r.stats.all()) {
      EXPECT_NE(value, 0u) << name << ": a stats key exists only while non-zero: " << key;
    }
  }
}

// Observation records arrival times and never perturbs the run: on every
// benchmark the observe run matches a separately simulated baseline in
// every result field and in the request-conservation inputs. This is what
// lets a profile that observes take its baseline from the observe run.
void ExpectObserveMatchesBaseline(Scale scale) {
  for (const std::string& name : workloads::BenchmarkNames()) {
    Profile plain(name, scale, arch::ArchConfig{});
    Profile observed(name, scale, arch::ArchConfig{}, 1, /*baseline_from_observe=*/true);
    const runtime::RunResult& obs = observed.Observe();
    ExpectSameRun(obs, plain.Baseline(), name);
    EXPECT_EQ(observed.Baseline().conservation, plain.Baseline().conservation) << name;
    EXPECT_GT(obs.records->TotalInstances(), 0u) << name;
    ExpectSameRun(observed.Baseline(), plain.Baseline(), name);
    EXPECT_EQ(observed.Baseline().records, nullptr) << name;
    EXPECT_EQ(observed.run_counts().machine_runs, 1u) << name;
  }
}

TEST(EndToEnd, ObserveModePreservesBaselineTiming) {
  ExpectObserveMatchesBaseline(Scale::kTest);
}

// The same check at the scale the figures run at, where the baseline could
// be taken from the observe run.
TEST(EndToEnd, ObserveModePreservesBaselineTimingAtSmallScale) {
  ExpectObserveMatchesBaseline(Scale::kSmall);
}

// A profile runs each compiled program once per configuration. At small
// scale Algorithms 1 and 2 lower md to identical traces, so Algorithm 2's
// run is Algorithm 1's and simulates nothing; swim's programs differ, so
// both simulate. A traced run always simulates its own run.
TEST(EndToEnd, RunCompiledReusesIdenticalPrograms) {
  for (const std::string name : {"md", "swim"}) {
    const bool identical = name == "md";
    CellSpec alg1 = TestCell(name, Scheme::kAlgorithm1, Scale::kSmall);
    CellSpec alg2 = TestCell(name, Scheme::kAlgorithm2, Scale::kSmall);
    auto profile = harness::MakeProfile(alg1, false);
    SchemeResult a1 = RunScheme(alg1, *profile);
    RunCounts before = profile->run_counts();
    SchemeResult a2 = RunScheme(alg2, *profile);
    RunCounts after = profile->run_counts();
    EXPECT_EQ(after.machine_runs - before.machine_runs, identical ? 0u : 1u) << name;
    EXPECT_EQ(after.runs_reused - before.runs_reused, identical ? 1u : 0u) << name;
    EXPECT_EQ(after.sim_events - before.sim_events, identical ? 0u : a2.run.events) << name;

    SchemeResult f2 = RunSchemeAlone(alg2);
    ExpectSameRun(a2.run, f2.run, name);
    EXPECT_EQ(a2.run.conservation, f2.run.conservation) << name;
    if (identical) ExpectSameRun(a1.run, a2.run, name);

    obs::Observability ob;
    before = profile->run_counts();
    SchemeResult t2 = RunScheme(alg2, *profile, &ob);
    after = profile->run_counts();
    EXPECT_EQ(after.machine_runs - before.machine_runs, 1u) << name;
    EXPECT_EQ(after.runs_reused, before.runs_reused) << name;
    ExpectSameRun(t2.run, f2.run, name);
  }
}

TEST(EndToEnd, SchemesRunToCompletion) {
  auto profile = harness::MakeProfile(TestCell("md", Scheme::kOracle), true);
  for (Scheme s : {Scheme::kDefault, Scheme::kOracle, Scheme::kWait10, Scheme::kLastWait,
                   Scheme::kMarkov, Scheme::kAlgorithm1, Scheme::kAlgorithm2}) {
    SchemeResult r = RunScheme(TestCell("md", s), *profile);
    EXPECT_GT(r.run.makespan, 0u) << SchemeName(s);
    EXPECT_EQ(r.run.stats.Get("run.incomplete_cores"), 0u) << SchemeName(s);
  }
}

TEST(EndToEnd, CompilerSchemesOffloadOnNdcFriendlyWorkloads) {
  for (const char* name : {"md", "nab", "applu"}) {
    SchemeResult r = RunSchemeAlone(TestCell(name, Scheme::kAlgorithm1));
    EXPECT_GT(r.compile_report.planned, 0u) << name;
    EXPECT_GT(r.run.offloads, 0u) << name;
    EXPECT_GT(r.run.ndc_success, 0u) << name;
  }
}

TEST(EndToEnd, Algorithm2SkipsReuseOnWater) {
  // water's xm operand is reused K times: Algorithm 2 must bypass that
  // chain (the Figure 15 mechanism).
  SchemeResult a2 = RunSchemeAlone(TestCell("water", Scheme::kAlgorithm2));
  EXPECT_GT(a2.compile_report.reuse_skips, 0u);
}

TEST(EndToEnd, Algorithm2NoWorseThanAlgorithm1OnSwim) {
  // The stencil's group reuse punishes Algorithm 1's extra offloads.
  CellSpec alg1 = TestCell("swim", Scheme::kAlgorithm1);
  auto profile = harness::MakeProfile(alg1, false);
  SchemeResult a1 = RunScheme(alg1, *profile);
  SchemeResult a2 = RunScheme(TestCell("swim", Scheme::kAlgorithm2), *profile);
  sim::Cycle base = profile->Baseline().makespan;
  EXPECT_GE(ImprovementPct(base, a2.run.makespan) + 1.0,
            ImprovementPct(base, a1.run.makespan));  // 1pp tolerance
}

TEST(EndToEnd, OracleNeverCollapses) {
  // The oracle may drift slightly from its profile but must never produce
  // the pathological slowdowns of the naive waiting schemes.
  for (const char* name : {"md", "radiosity", "mgrid", "water"}) {
    CellSpec spec = TestCell(name, Scheme::kOracle);
    auto profile = harness::MakeProfile(spec, spec.NeedsObserve());
    SchemeResult r = RunScheme(spec, *profile);
    EXPECT_GT(ImprovementPct(profile->Baseline().makespan, r.run.makespan), -8.0) << name;
  }
}

TEST(EndToEnd, NdcBreakdownSumsToSuccesses) {
  SchemeResult r = RunSchemeAlone(TestCell("md", Scheme::kAlgorithm1));
  std::uint64_t sum = 0;
  for (std::uint64_t v : r.run.ndc_at_loc) sum += v;
  EXPECT_EQ(sum, r.run.ndc_success);
  EXPECT_LE(r.run.ndc_success + r.run.fallbacks, r.run.offloads + r.run.fallbacks);
  EXPECT_LE(r.run.offloads, r.run.candidates);
}

TEST(EndToEnd, ExperimentsAreDeterministic) {
  CellSpec alg2 = TestCell("barnes", Scheme::kAlgorithm2);
  CellSpec def = TestCell("barnes", Scheme::kDefault);
  auto a = harness::MakeProfile(alg2, false);
  auto b = harness::MakeProfile(alg2, false);
  EXPECT_EQ(a->Baseline().makespan, b->Baseline().makespan);
  EXPECT_EQ(RunScheme(alg2, *a).run.makespan, RunScheme(alg2, *b).run.makespan);
  EXPECT_EQ(RunScheme(def, *a).run.makespan, RunScheme(def, *b).run.makespan);
}

TEST(Sensitivity, MeshSizesRunEndToEnd) {
  for (int dim : {4, 6}) {
    CellSpec spec = TestCell("md", Scheme::kAlgorithm1);
    spec.cfg.mesh_width = dim;
    spec.cfg.mesh_height = dim;
    SchemeResult r = RunSchemeAlone(spec);
    EXPECT_GT(r.run.makespan, 0u);
    EXPECT_EQ(r.run.stats.Get("run.incomplete_cores"), 0u);
  }
}

TEST(Sensitivity, L2CapacityVariantsRun) {
  for (std::uint64_t kb : {256, 1024}) {
    CellSpec spec = TestCell("ocean", Scheme::kAlgorithm1);
    spec.cfg.l2.size_bytes = kb * 1024;
    EXPECT_GT(RunSchemeAlone(spec).run.makespan, 0u);
  }
}

TEST(Sensitivity, AddSubRestrictionReducesOffloads) {
  CellSpec full = TestCell("bt", Scheme::kDefault);  // bt has a kMul chain
  SchemeResult rf = RunSchemeAlone(full);
  CellSpec restricted = full;
  restricted.cfg.restrict_ops_to_addsub = true;
  SchemeResult rr = RunSchemeAlone(restricted);
  EXPECT_LE(rr.run.offloads, rf.run.offloads);
}

TEST(Ablation, RerouteIncreasesRouterNdc) {
  CellSpec with = TestCell("nab", Scheme::kAlgorithm1);
  CellSpec without = with;
  without.cfg.allow_reroute = false;
  auto profile = harness::MakeProfile(with, false);
  constexpr auto kLink = static_cast<std::size_t>(arch::Loc::kLinkBuffer);
  std::uint64_t net_with = RunScheme(with, *profile).run.ndc_at_loc[kLink];
  std::uint64_t net_without = RunScheme(without, *profile).run.ndc_at_loc[kLink];
  EXPECT_GE(net_with + 2, net_without);  // reroute never loses more than noise
}

TEST(Ablation, CoarseGrainUnderperformsFineGrain) {
  CellSpec fine = TestCell("md", Scheme::kAlgorithm1);
  CellSpec coarse = fine;
  coarse.coarse_grain = true;
  auto profile = harness::MakeProfile(fine, false);
  SchemeResult rf = RunScheme(fine, *profile);
  SchemeResult rc = RunScheme(coarse, *profile);
  sim::Cycle base = profile->Baseline().makespan;
  EXPECT_GE(ImprovementPct(base, rf.run.makespan) + 3.0, ImprovementPct(base, rc.run.makespan));
}

TEST(Metrics, ImprovementMathAndFormatting) {
  EXPECT_DOUBLE_EQ(ImprovementPct(200, 150), 25.0);
  EXPECT_DOUBLE_EQ(ImprovementPct(100, 120), -20.0);
  EXPECT_DOUBLE_EQ(ImprovementPct(0, 50), 0.0);
  for (Scheme s : {Scheme::kBaseline, Scheme::kDefault, Scheme::kOracle, Scheme::kWait5,
                   Scheme::kWait10, Scheme::kWait25, Scheme::kWait50, Scheme::kLastWait,
                   Scheme::kMarkov, Scheme::kAlgorithm1, Scheme::kAlgorithm2}) {
    EXPECT_STRNE(SchemeName(s), "?");
  }
}

}  // namespace
}  // namespace ndc::metrics
