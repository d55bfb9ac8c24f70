// End-to-end integration tests: workloads through the compiler and the full
// machine, scheme orderings the paper establishes, sensitivity configs, and
// determinism of whole experiments.

#include <gtest/gtest.h>

#include "metrics/experiment.hpp"
#include "obs/phase.hpp"

namespace ndc::metrics {
namespace {

using workloads::Scale;

TEST(EndToEnd, BaselineRunsToCompletionOnAllBenchmarks) {
  for (const std::string& name : workloads::BenchmarkNames()) {
    arch::ArchConfig cfg;
    Experiment exp(name, Scale::kTest, cfg);
    const runtime::RunResult& r = exp.Baseline();
    EXPECT_GT(r.makespan, 0u) << name;
    EXPECT_EQ(r.stats.Get("run.incomplete_cores"), 0u) << name;
    EXPECT_GT(r.candidates, 0u) << name;
    for (const auto& [key, value] : r.stats.all()) {
      EXPECT_NE(value, 0u) << name << ": a stats key exists only while non-zero: " << key;
    }
  }
}

// Every field of two runs but their observation records.
void ExpectSameRun(const runtime::RunResult& a, const runtime::RunResult& b,
                   const std::string& what) {
  EXPECT_EQ(a.makespan, b.makespan) << what;
  EXPECT_EQ(a.events, b.events) << what;
  EXPECT_EQ(a.l1_hits, b.l1_hits) << what;
  EXPECT_EQ(a.l1_misses, b.l1_misses) << what;
  EXPECT_EQ(a.l2_hits, b.l2_hits) << what;
  EXPECT_EQ(a.l2_misses, b.l2_misses) << what;
  EXPECT_EQ(a.candidates, b.candidates) << what;
  EXPECT_EQ(a.local_l1_skips, b.local_l1_skips) << what;
  EXPECT_EQ(a.offloads, b.offloads) << what;
  EXPECT_EQ(a.ndc_success, b.ndc_success) << what;
  EXPECT_EQ(a.fallbacks, b.fallbacks) << what;
  EXPECT_EQ(a.ndc_at_loc, b.ndc_at_loc) << what;
  EXPECT_EQ(a.stats.all(), b.stats.all()) << what;
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
    EXPECT_EQ(observed.BaselineConservation(), plain.BaselineConservation()) << name;
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
// both simulate. A traced Experiment always simulates its own run.
TEST(EndToEnd, RunCompiledReusesIdenticalPrograms) {
  auto options = [](compiler::Mode mode) {
    compiler::CompileOptions opt;
    opt.mode = mode;
    return opt;
  };
  auto sim_events = [] { return obs::GlobalPhases().Take().sim_events; };
  for (const std::string name : {"md", "swim"}) {
    const bool identical = name == "md";
    auto profile = std::make_shared<Profile>(name, Scale::kSmall, arch::ArchConfig{});
    Experiment exp(profile);
    SchemeResult a1 = exp.RunCompiled(options(compiler::Mode::kAlgorithm1));
    RunCounts before = profile->run_counts();
    std::uint64_t events_before = sim_events();
    SchemeResult a2 = exp.RunCompiled(options(compiler::Mode::kAlgorithm2));
    RunCounts after = profile->run_counts();
    EXPECT_EQ(after.machine_runs - before.machine_runs, identical ? 0u : 1u) << name;
    EXPECT_EQ(after.runs_reused - before.runs_reused, identical ? 1u : 0u) << name;
    if constexpr (obs::kObsEnabled) {
      EXPECT_EQ(sim_events() - events_before, identical ? 0u : a2.run.events) << name;
    }

    Experiment fresh(name, Scale::kSmall, arch::ArchConfig{});
    SchemeResult f2 = fresh.RunCompiled(options(compiler::Mode::kAlgorithm2));
    ExpectSameRun(a2.run, f2.run, name);
    EXPECT_EQ(exp.last_conservation(), fresh.last_conservation()) << name;
    EXPECT_EQ(a2.improvement_pct, f2.improvement_pct) << name;
    if (identical) ExpectSameRun(a1.run, a2.run, name);

    obs::Observability ob;
    Experiment traced(profile);
    traced.set_obs(&ob);
    before = profile->run_counts();
    SchemeResult t2 = traced.RunCompiled(options(compiler::Mode::kAlgorithm2));
    after = profile->run_counts();
    EXPECT_EQ(after.machine_runs - before.machine_runs, 1u) << name;
    EXPECT_EQ(after.runs_reused, before.runs_reused) << name;
    ExpectSameRun(t2.run, f2.run, name);
  }
}

TEST(EndToEnd, SchemesRunToCompletion) {
  arch::ArchConfig cfg;
  Experiment exp("md", Scale::kTest, cfg);
  for (Scheme s : {Scheme::kDefault, Scheme::kOracle, Scheme::kWait10, Scheme::kLastWait,
                   Scheme::kMarkov, Scheme::kAlgorithm1, Scheme::kAlgorithm2}) {
    SchemeResult r = exp.Run(s);
    EXPECT_GT(r.run.makespan, 0u) << SchemeName(s);
    EXPECT_EQ(r.run.stats.Get("run.incomplete_cores"), 0u) << SchemeName(s);
  }
}

TEST(EndToEnd, CompilerSchemesOffloadOnNdcFriendlyWorkloads) {
  arch::ArchConfig cfg;
  for (const char* name : {"md", "nab", "applu"}) {
    Experiment exp(name, Scale::kTest, cfg);
    SchemeResult r = exp.Run(Scheme::kAlgorithm1);
    EXPECT_GT(r.compile_report.planned, 0u) << name;
    EXPECT_GT(r.run.offloads, 0u) << name;
    EXPECT_GT(r.run.ndc_success, 0u) << name;
  }
}

TEST(EndToEnd, Algorithm2SkipsReuseOnWater) {
  // water's xm operand is reused K times: Algorithm 2 must bypass that
  // chain (the Figure 15 mechanism).
  arch::ArchConfig cfg;
  Experiment exp("water", Scale::kTest, cfg);
  SchemeResult a2 = exp.Run(Scheme::kAlgorithm2);
  EXPECT_GT(a2.compile_report.reuse_skips, 0u);
}

TEST(EndToEnd, Algorithm2NoWorseThanAlgorithm1OnSwim) {
  // The stencil's group reuse punishes Algorithm 1's extra offloads.
  arch::ArchConfig cfg;
  Experiment exp("swim", Scale::kTest, cfg);
  SchemeResult a1 = exp.Run(Scheme::kAlgorithm1);
  SchemeResult a2 = exp.Run(Scheme::kAlgorithm2);
  EXPECT_GE(a2.improvement_pct + 1.0, a1.improvement_pct);  // 1pp tolerance
}

TEST(EndToEnd, OracleNeverCollapses) {
  // The oracle may drift slightly from its profile but must never produce
  // the pathological slowdowns of the naive waiting schemes.
  for (const char* name : {"md", "radiosity", "mgrid", "water"}) {
    arch::ArchConfig cfg;
    Experiment exp(name, Scale::kTest, cfg);
    SchemeResult r = exp.Run(Scheme::kOracle);
    EXPECT_GT(r.improvement_pct, -8.0) << name;
  }
}

TEST(EndToEnd, NdcBreakdownSumsToSuccesses) {
  arch::ArchConfig cfg;
  Experiment exp("md", Scale::kTest, cfg);
  SchemeResult r = exp.Run(Scheme::kAlgorithm1);
  std::uint64_t sum = 0;
  for (std::uint64_t v : r.run.ndc_at_loc) sum += v;
  EXPECT_EQ(sum, r.run.ndc_success);
  EXPECT_LE(r.run.ndc_success + r.run.fallbacks, r.run.offloads + r.run.fallbacks);
  EXPECT_LE(r.run.offloads, r.run.candidates);
}

TEST(EndToEnd, ExperimentsAreDeterministic) {
  arch::ArchConfig cfg;
  Experiment a("barnes", Scale::kTest, cfg);
  Experiment b("barnes", Scale::kTest, cfg);
  EXPECT_EQ(a.Baseline().makespan, b.Baseline().makespan);
  EXPECT_EQ(a.Run(Scheme::kAlgorithm2).run.makespan, b.Run(Scheme::kAlgorithm2).run.makespan);
  EXPECT_EQ(a.Run(Scheme::kDefault).run.makespan, b.Run(Scheme::kDefault).run.makespan);
}

TEST(Sensitivity, MeshSizesRunEndToEnd) {
  for (int dim : {4, 6}) {
    arch::ArchConfig cfg;
    cfg.mesh_width = dim;
    cfg.mesh_height = dim;
    Experiment exp("md", Scale::kTest, cfg);
    SchemeResult r = exp.Run(Scheme::kAlgorithm1);
    EXPECT_GT(r.run.makespan, 0u);
    EXPECT_EQ(r.run.stats.Get("run.incomplete_cores"), 0u);
  }
}

TEST(Sensitivity, L2CapacityVariantsRun) {
  for (std::uint64_t kb : {256, 1024}) {
    arch::ArchConfig cfg;
    cfg.l2.size_bytes = kb * 1024;
    Experiment exp("ocean", Scale::kTest, cfg);
    EXPECT_GT(exp.Run(Scheme::kAlgorithm1).run.makespan, 0u);
  }
}

TEST(Sensitivity, AddSubRestrictionReducesOffloads) {
  arch::ArchConfig cfg;
  Experiment full("bt", Scale::kTest, cfg);  // bt has a kMul chain
  SchemeResult rf = full.Run(Scheme::kDefault);
  arch::ArchConfig cfg2;
  cfg2.restrict_ops_to_addsub = true;
  Experiment restricted("bt", Scale::kTest, cfg2);
  SchemeResult rr = restricted.Run(Scheme::kDefault);
  EXPECT_LE(rr.run.offloads, rf.run.offloads);
}

TEST(Ablation, RerouteIncreasesRouterNdc) {
  arch::ArchConfig cfg;
  Experiment exp("nab", Scale::kTest, cfg);
  compiler::CompileOptions with;
  with.mode = compiler::Mode::kAlgorithm1;
  compiler::CompileOptions without = with;
  without.allow_reroute = false;
  std::uint64_t net_with = exp.RunCompiled(with).run.ndc_at_loc[static_cast<std::size_t>(
      arch::Loc::kLinkBuffer)];
  std::uint64_t net_without = exp.RunCompiled(without)
                                  .run.ndc_at_loc[static_cast<std::size_t>(arch::Loc::kLinkBuffer)];
  EXPECT_GE(net_with + 2, net_without);  // reroute never loses more than noise
}

TEST(Ablation, CoarseGrainUnderperformsFineGrain) {
  arch::ArchConfig cfg;
  Experiment exp("md", Scale::kTest, cfg);
  compiler::CompileOptions fine;
  fine.mode = compiler::Mode::kAlgorithm1;
  compiler::CompileOptions coarse;
  coarse.mode = compiler::Mode::kCoarseGrain;
  SchemeResult rf = exp.RunCompiled(fine);
  SchemeResult rc = exp.RunCompiled(coarse);
  EXPECT_GE(rf.improvement_pct + 3.0, rc.improvement_pct);
}

TEST(Metrics, ImprovementMathAndFormatting) {
  EXPECT_DOUBLE_EQ(ImprovementPct(200, 150), 25.0);
  EXPECT_DOUBLE_EQ(ImprovementPct(100, 120), -20.0);
  EXPECT_DOUBLE_EQ(ImprovementPct(0, 50), 0.0);
  EXPECT_NE(FormatRow({"a", "b"}).find("| "), std::string::npos);
  for (Scheme s : {Scheme::kBaseline, Scheme::kDefault, Scheme::kOracle, Scheme::kWait5,
                   Scheme::kWait10, Scheme::kWait25, Scheme::kWait50, Scheme::kLastWait,
                   Scheme::kMarkov, Scheme::kAlgorithm1, Scheme::kAlgorithm2}) {
    EXPECT_STRNE(SchemeName(s), "?");
  }
}

}  // namespace
}  // namespace ndc::metrics
