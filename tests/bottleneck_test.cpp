// Tests for the bottleneck taxonomy (src/obs/sampler, src/obs/bottleneck):
// phase-window bucketing, utilization attribution, classifier precedence,
// histogram percentile/merge math, and decision-log priors. The end-to-end
// section asserts the reconciliation contract — a classified run's signal
// vector (raw fields and window sums alike) must equal the touched-only
// counters it derives from — and skips itself under NDC_OBS=OFF.

#include <gtest/gtest.h>

#include <string>

#include "harness/cell.hpp"
#include "harness/json.hpp"
#include "metrics/experiment.hpp"
#include "obs/obs.hpp"

namespace {

using ndc::harness::json::Dump;
using ndc::harness::json::Parse;
using ndc::harness::json::Value;
using ndc::metrics::Experiment;
using ndc::metrics::Scheme;
using ndc::obs::Classify;
using ndc::obs::ClassifierThresholds;
using ndc::obs::ComputeSignals;
using ndc::obs::Label;
using ndc::obs::MachineShape;
using ndc::obs::Signal;
using ndc::obs::UtilizationSignals;
using ndc::obs::WindowSampler;

// ---------------------------------------------------------- unit: sampler ---

class SamplerUnit : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!ndc::obs::kObsEnabled) {
      GTEST_SKIP() << "observability compiled out (NDC_OBS=OFF)";
    }
  }
};

TEST_F(SamplerUnit, DisabledSamplerDropsEveryNote) {
  WindowSampler s;  // window_cycles == 0: off
  s.Note(Signal::kDramAccess, 100, 5);
  EXPECT_FALSE(s.enabled());
  EXPECT_EQ(s.num_windows(), 0u);
  EXPECT_EQ(s.Total(Signal::kDramAccess), 0u);
}

TEST_F(SamplerUnit, BucketsDeltasByWindowAndSumsToTotal) {
  WindowSampler s;
  s.Configure(100);
  s.Note(Signal::kDramAccess, 5, 2);     // window 0
  s.Note(Signal::kDramAccess, 150, 3);   // window 1
  s.Note(Signal::kDramAccess, 199, 4);   // window 1 again
  s.Note(Signal::kNocBusy, 250, 7);      // window 2, different signal
  EXPECT_TRUE(s.enabled());
  EXPECT_EQ(s.num_windows(), 3u);
  EXPECT_EQ(s.At(Signal::kDramAccess, 0), 2u);
  EXPECT_EQ(s.At(Signal::kDramAccess, 1), 7u);
  EXPECT_EQ(s.At(Signal::kDramAccess, 2), 0u);
  EXPECT_EQ(s.At(Signal::kNocBusy, 2), 7u);
  EXPECT_EQ(s.Total(Signal::kDramAccess), 9u);
  EXPECT_EQ(s.Total(Signal::kNocBusy), 7u);
}

TEST_F(SamplerUnit, ReconfigureResetsTheSeries) {
  WindowSampler s;
  s.Configure(10);
  s.Note(Signal::kNdcBusy, 5, 1);
  s.Configure(10);
  EXPECT_EQ(s.Total(Signal::kNdcBusy), 0u);
  EXPECT_EQ(s.num_windows(), 0u);
}

TEST_F(SamplerUnit, PathologicalWindowWidthClampsButStillReconciles) {
  WindowSampler s;
  s.Configure(1);  // one window per cycle: cycle 10M would be window 10M
  s.Note(Signal::kMcQueueWait, 10'000'000, 4);
  s.Note(Signal::kMcQueueWait, 20'000'000, 6);
  // Clamped into the last representable window; the total is never lost.
  EXPECT_EQ(s.num_windows(), 1u << 16);
  EXPECT_EQ(s.At(Signal::kMcQueueWait, (1u << 16) - 1), 10u);
  EXPECT_EQ(s.Total(Signal::kMcQueueWait), 10u);
}

// ------------------------------------------------- unit: attribution math ---

MachineShape TestShape() {
  MachineShape sh;
  sh.num_cores = 25;
  sh.num_mcs = 4;
  sh.num_links = 80;
  sh.dram_data_beat = 4;
  sh.compute_latency = 1;
  return sh;
}

TEST(ComputeSignalsUnit, DerivesFractionsFromStatSet) {
  ndc::sim::StatSet st;
  st.Add("mc.reads", 100);
  st.Add("mc.writes", 50);
  st.Add("mc.queue_wait_cycles", 3000);
  st.Add("mc.row_hits", 120);
  st.Add("mc.row_misses", 30);
  st.Add("noc.link_busy_cycles", 8000);
  st.Add("ndc.success", 40);
  st.Add("core.busy.compute", 250);
  st.Add("core.stall.mem", 12500);

  UtilizationSignals s = ComputeSignals(st, 1000, TestShape());
  EXPECT_EQ(s.mc_reads, 100u);
  EXPECT_EQ(s.mc_writes, 50u);
  EXPECT_DOUBLE_EQ(s.dram_bw_frac, 150.0 * 4 / (4 * 1000));      // 0.15
  EXPECT_DOUBLE_EQ(s.mc_queue_occ, 3000.0 / (4 * 1000));         // 0.75
  EXPECT_DOUBLE_EQ(s.avg_queue_wait, 3000.0 / 150);              // 20
  EXPECT_DOUBLE_EQ(s.row_miss_ratio, 30.0 / 150);                // 0.2
  EXPECT_DOUBLE_EQ(s.noc_util, 8000.0 / (80 * 1000));            // 0.1
  EXPECT_DOUBLE_EQ(s.noc_max_link_util, s.noc_util);             // unrefined
  EXPECT_DOUBLE_EQ(s.ndc_busy_frac, 40.0 * 1 / 1000);            // 0.04
  EXPECT_DOUBLE_EQ(s.compute_frac, 250.0 / (25 * 1000));         // 0.01
  EXPECT_DOUBLE_EQ(s.mem_stall_frac, 12500.0 / (25 * 1000));     // 0.5
}

TEST(ComputeSignalsUnit, UntouchedKeysAndZeroMakespanAreAllZero) {
  ndc::sim::StatSet st;
  UtilizationSignals s = ComputeSignals(st, 0, TestShape());
  EXPECT_DOUBLE_EQ(s.dram_bw_frac, 0.0);
  EXPECT_DOUBLE_EQ(s.avg_queue_wait, 0.0);
  EXPECT_DOUBLE_EQ(s.noc_util, 0.0);
  EXPECT_EQ(Classify(s), Label::kBalanced);
}

TEST(ComputeSignalsUnit, RefineMaxLinkBusyOnlyRaises) {
  UtilizationSignals s;
  s.makespan = 1000;
  s.noc_max_link_util = 0.2;
  ndc::obs::RefineMaxLinkBusy(s, 100);  // 0.1 < 0.2: keep
  EXPECT_DOUBLE_EQ(s.noc_max_link_util, 0.2);
  ndc::obs::RefineMaxLinkBusy(s, 500);  // 0.5 > 0.2: raise
  EXPECT_DOUBLE_EQ(s.noc_max_link_util, 0.5);
}

// ------------------------------------------------------- unit: classifier ---

TEST(ClassifierUnit, FixedPrecedenceOrder) {
  UtilizationSignals s;
  // Everything screaming at once: the data bus wins outright.
  s.dram_bw_frac = 0.6;
  s.avg_queue_wait = 1000.0;
  s.noc_max_link_util = 0.9;
  s.compute_frac = 0.9;
  EXPECT_EQ(Classify(s), Label::kDramBw);
  // Bus below threshold: deep MC queues outrank the hot link feeding them.
  s.dram_bw_frac = 0.1;
  EXPECT_EQ(Classify(s), Label::kDramLatency);
  // Queues shallow: the mesh is the constraint.
  s.avg_queue_wait = 1.0;
  EXPECT_EQ(Classify(s), Label::kNoc);
  // Links idle: compute-bound.
  s.noc_max_link_util = 0.0;
  EXPECT_EQ(Classify(s), Label::kCompute);
  // Nothing past threshold.
  s.compute_frac = 0.0;
  EXPECT_EQ(Classify(s), Label::kBalanced);
}

TEST(ClassifierUnit, ThresholdsAreInclusiveAndNdcCountsAsCompute) {
  ClassifierThresholds t;
  UtilizationSignals s;
  s.dram_bw_frac = t.dram_bw;  // exactly at threshold => labeled
  EXPECT_EQ(Classify(s, t), Label::kDramBw);
  UtilizationSignals c;
  c.compute_frac = t.compute / 2;
  c.ndc_busy_frac = t.compute / 2;  // host + near-data ALU time pool together
  EXPECT_EQ(Classify(c, t), Label::kCompute);
}

TEST(ClassifierUnit, MaxLinkRefinementCanFlipToNoc) {
  ClassifierThresholds t;
  UtilizationSignals s;
  s.noc_util = t.noc / 2;  // average link utilization looks fine
  EXPECT_EQ(Classify(s, t), Label::kBalanced);
  s.noc_max_link_util = t.noc + 0.1;  // ...but one link is saturated
  EXPECT_EQ(Classify(s, t), Label::kNoc);
}

// ------------------------------------------- unit: histogram percentiles ---

TEST(HistogramPercentile, EmptyHistogramReportsZero) {
  ndc::obs::Histogram h({1, 10, 20, 50, 100, 500});
  EXPECT_EQ(h.Percentile(50), 0u);
  EXPECT_EQ(h.Percentile(100), 0u);
}

TEST(HistogramPercentile, SingleBucketAnswersThatBucketEdge) {
  ndc::obs::Histogram h({1, 10, 20, 50, 100, 500});
  h.Add(5);
  h.Add(7);
  h.Add(3);  // all in the (1, 10] bucket
  EXPECT_EQ(h.Percentile(1), 10u);
  EXPECT_EQ(h.Percentile(50), 10u);
  EXPECT_EQ(h.Percentile(100), 10u);
}

TEST(HistogramPercentile, OverflowBucketReportsAboveLastEdge) {
  ndc::obs::Histogram h({1, 10, 20, 50, 100, 500});
  h.Add(5);
  h.Add(1000);  // above every edge
  EXPECT_EQ(h.Percentile(50), 10u);   // first sample covers half
  EXPECT_EQ(h.Percentile(100), 501u);  // the "500+" marker
}

TEST(HistogramPercentile, OutOfRangePercentilesClamp) {
  ndc::obs::Histogram h({1, 10, 20, 50, 100, 500});
  h.Add(5);
  EXPECT_EQ(h.Percentile(-5), h.Percentile(0));
  EXPECT_EQ(h.Percentile(150), h.Percentile(100));
}

TEST(HistogramPercentile, MergeFromAddsMatchingBuckets) {
  ndc::obs::Histogram a({1, 10, 20, 50, 100, 500});
  ndc::obs::Histogram b({1, 10, 20, 50, 100, 500});
  a.Add(5);
  b.Add(1000);
  a.MergeFrom(b);
  EXPECT_EQ(a.hist().total(), 2u);
  EXPECT_EQ(a.Percentile(50), 10u);
  EXPECT_EQ(a.Percentile(100), 501u);
}

// -------------------------------------------- unit: decision-log priors ---

TEST(DecisionLogPrior, ZeroPriorOmittedNonzeroEmitted) {
  ndc::obs::DecisionLog log;
  log.Record(1, 0, 0, ndc::obs::DecisionKind::kLocalL1Skip, -1, 10);      // default 0
  log.Record(2, 0, 1, ndc::obs::DecisionKind::kOffload, 2, 11, 3);        // 3 feasible locs
  std::string jsonl = log.ToJsonl();
  std::size_t nl = jsonl.find('\n');
  ASSERT_NE(nl, std::string::npos);
  std::string first = jsonl.substr(0, nl);
  std::string second = jsonl.substr(nl + 1, jsonl.find('\n', nl + 1) - nl - 1);

  Value v;
  std::string err;
  ASSERT_TRUE(Parse(first, &v, &err)) << err;
  EXPECT_EQ(v.Find("prior"), nullptr);  // advisory field absent when 0
  ASSERT_TRUE(Parse(second, &v, &err)) << err;
  ASSERT_NE(v.Find("prior"), nullptr);
  EXPECT_EQ(v.Find("prior")->AsU64(), 3u);
}

// ------------------------------------------------- end-to-end (obs only) ---

class ClassifyEndToEnd : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!ndc::obs::kObsEnabled) {
      GTEST_SKIP() << "observability compiled out (NDC_OBS=OFF)";
    }
  }

  static ndc::metrics::SchemeResult RunSampled(ndc::obs::Observability* ob,
                                               const std::string& workload,
                                               Scheme scheme) {
    Experiment exp(workload, ndc::workloads::Scale::kTest, ndc::arch::ArchConfig{});
    exp.set_obs(ob);
    return exp.Run(scheme);
  }

  static ndc::obs::ObsOptions SampledOptions() {
    ndc::obs::ObsOptions oo;
    oo.emit_stage_events = false;
    oo.window_cycles = 1024;
    return oo;
  }
};

TEST_F(ClassifyEndToEnd, WindowSumsReconcileWithTouchedOnlyCounters) {
  ndc::obs::Observability ob(SampledOptions());
  ndc::metrics::SchemeResult r = RunSampled(&ob, "md", Scheme::kOracle);
  const ndc::sim::StatSet& st = r.run.stats;
  ndc::arch::ArchConfig cfg;

  // Every sampled signal, summed over its windows, equals the run counter
  // it shadows — both via Total() and via the per-window series.
  EXPECT_EQ(ob.sampler.Total(Signal::kDramAccess),
            st.Get("mc.reads") + st.Get("mc.writes"));
  EXPECT_EQ(ob.sampler.Total(Signal::kMcQueueWait), st.Get("mc.queue_wait_cycles"));
  EXPECT_EQ(ob.sampler.Total(Signal::kNocBusy), st.Get("noc.link_busy_cycles"));
  EXPECT_EQ(ob.sampler.Total(Signal::kNdcBusy),
            st.Get("ndc.success") * cfg.compute_latency);
  ASSERT_GT(ob.sampler.Total(Signal::kDramAccess), 0u);
  for (int i = 0; i < ndc::obs::kNumSignals; ++i) {
    auto sig = static_cast<Signal>(i);
    std::uint64_t sum = 0;
    for (std::size_t w = 0; w < ob.sampler.num_windows(); ++w) sum += ob.sampler.At(sig, w);
    EXPECT_EQ(sum, ob.sampler.Total(sig)) << ndc::obs::SignalName(sig);
  }

  // The sampled run carries the gated stall-breakdown keys.
  EXPECT_TRUE(st.Has("core.stall.mem"));
  EXPECT_TRUE(st.Has("core.busy.compute"));
}

TEST_F(ClassifyEndToEnd, UnsampledRunsKeepStallKeysOutOfTheStatSet) {
  ndc::obs::Observability ob;  // obs attached but sampler off
  ndc::metrics::SchemeResult r = RunSampled(&ob, "md", Scheme::kOracle);
  const ndc::sim::StatSet& st = r.run.stats;
  EXPECT_FALSE(st.Has("core.stall.mem"));
  EXPECT_FALSE(st.Has("core.busy.compute"));
  EXPECT_EQ(ob.sampler.num_windows(), 0u);
}

TEST_F(ClassifyEndToEnd, ComputeRunSignalsMatchesTheStatSetVerbatim) {
  ndc::obs::Observability ob(SampledOptions());
  ndc::metrics::SchemeResult r = RunSampled(&ob, "md", Scheme::kOracle);
  const ndc::sim::StatSet& st = r.run.stats;
  ndc::arch::ArchConfig cfg;
  UtilizationSignals s =
      ndc::harness::ComputeRunSignals(st, r.run.makespan, cfg, &ob.registry);
  EXPECT_EQ(s.makespan, r.run.makespan);
  EXPECT_EQ(s.mc_reads, st.Get("mc.reads"));
  EXPECT_EQ(s.mc_writes, st.Get("mc.writes"));
  EXPECT_EQ(s.mc_queue_wait_cycles, st.Get("mc.queue_wait_cycles"));
  EXPECT_EQ(s.noc_link_busy_cycles, st.Get("noc.link_busy_cycles"));
  EXPECT_EQ(s.ndc_success, st.Get("ndc.success"));
  EXPECT_EQ(s.core_stall_mem, st.Get("core.stall.mem"));
  EXPECT_EQ(s.core_busy_compute, st.Get("core.busy.compute"));
  // The registry's per-link counters can only sharpen the hottest-link view.
  EXPECT_GE(s.noc_max_link_util, s.noc_util);
}

TEST_F(ClassifyEndToEnd, ClassificationJsonIsByteStableAcrossSameSeedRuns) {
  std::string dumps[2];
  for (int i = 0; i < 2; ++i) {
    ndc::obs::Observability ob(SampledOptions());
    ndc::metrics::SchemeResult r = RunSampled(&ob, "fft", Scheme::kOracle);
    UtilizationSignals s = ndc::harness::ComputeRunSignals(
        r.run.stats, r.run.makespan, ndc::arch::ArchConfig{}, &ob.registry);
    dumps[i] = Dump(ndc::harness::ClassificationJson(s, ob.sampler));
  }
  EXPECT_EQ(dumps[0], dumps[1]);
  EXPECT_NE(dumps[0].find("\"label\""), std::string::npos);
}

TEST_F(ClassifyEndToEnd, RunCellObsSummaryGatesClassificationOnWindow) {
  ndc::harness::CellSpec spec;
  spec.workload = "md";
  spec.scale = ndc::workloads::Scale::kTest;
  spec.scheme = Scheme::kOracle;

  Value plain = ndc::harness::RunCellObsSummary(spec);
  EXPECT_EQ(plain.Find("classification"), nullptr);

  Value classified = ndc::harness::RunCellObsSummary(spec, 1, 1024);
  const Value* c = classified.Find("classification");
  ASSERT_NE(c, nullptr);
  ASSERT_NE(c->Find("label"), nullptr);
  bool known = false;
  for (int i = 0; i < ndc::obs::kNumLabels; ++i) {
    if (c->Find("label")->str == ndc::obs::LabelName(static_cast<Label>(i))) known = true;
  }
  EXPECT_TRUE(known) << c->Find("label")->str;
  ASSERT_NE(c->Find("window_cycles"), nullptr);
  EXPECT_EQ(c->Find("window_cycles")->AsU64(), 1024u);
  ASSERT_NE(c->Find("windows"), nullptr);
  EXPECT_GT(c->Find("windows")->arr.size(), 0u);
  ASSERT_NE(c->Find("raw"), nullptr);
  ASSERT_NE(c->Find("derived"), nullptr);
  ASSERT_NE(c->Find("thresholds"), nullptr);
}

}  // namespace
