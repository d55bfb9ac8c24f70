// End-to-end integration tests: workloads through the compiler and the full
// machine, scheme orderings the paper establishes, sensitivity configs, and
// determinism of whole experiments.

#include <gtest/gtest.h>

#include "metrics/experiment.hpp"

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

// Observation records arrival times and never perturbs the run: on every
// benchmark the observe run matches the baseline in timing, event count,
// cache behaviour, candidate accounting and every merged counter.
void ExpectObserveMatchesBaseline(Scale scale) {
  for (const std::string& name : workloads::BenchmarkNames()) {
    Profile profile(name, scale, arch::ArchConfig{});
    const runtime::RunResult& base = profile.Baseline();
    const runtime::RunResult& obs = profile.Observe();
    EXPECT_EQ(obs.makespan, base.makespan) << name;
    EXPECT_EQ(obs.events, base.events) << name;
    EXPECT_EQ(obs.l1_hits, base.l1_hits) << name;
    EXPECT_EQ(obs.l1_misses, base.l1_misses) << name;
    EXPECT_EQ(obs.l2_hits, base.l2_hits) << name;
    EXPECT_EQ(obs.l2_misses, base.l2_misses) << name;
    EXPECT_EQ(obs.candidates, base.candidates) << name;
    EXPECT_EQ(obs.local_l1_skips, base.local_l1_skips) << name;
    EXPECT_EQ(obs.stats.all(), base.stats.all()) << name;
    EXPECT_GT(obs.records->TotalInstances(), 0u) << name;
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
