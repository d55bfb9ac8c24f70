// src/harness unit tests: the JSON codec, cache-key semantics, CellResult
// round-tripping, the on-disk result cache, the plan scheduler, the
// warm-sweep zero-simulation guarantee, and the equivalence of a sweep that
// shares profiles with standalone RunCell calls.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "harness/cache.hpp"
#include "harness/figures.hpp"
#include "harness/pool.hpp"
#include "harness/sweep.hpp"
#include "obs/phase.hpp"

namespace ndc::harness {
namespace {

// --------------------------------------------------------------- json ---

TEST(Json, DumpIsDeterministicAndParsesBack) {
  json::Value v = json::Value::Object();
  v.obj["b"] = json::Value::Int(42);
  v.obj["a"] = json::Value::Str("x\"y\n");
  v.obj["c"] = json::Value::Array();
  v.obj["c"].arr.push_back(json::Value::Bool(true));
  v.obj["c"].arr.push_back(json::Value::Double(1.5));
  v.obj["c"].arr.push_back(json::Value::Null());

  std::string s = json::Dump(v);
  EXPECT_EQ(s, "{\"a\":\"x\\\"y\\n\",\"b\":42,\"c\":[true,1.5,null]}");

  json::Value back;
  ASSERT_TRUE(json::Parse(s, &back));
  EXPECT_EQ(json::Dump(back), s);
}

TEST(Json, RejectsMalformedInput) {
  json::Value v;
  EXPECT_FALSE(json::Parse("{\"a\":}", &v));
  EXPECT_FALSE(json::Parse("[1,2", &v));
  EXPECT_FALSE(json::Parse("{} trailing", &v));
  EXPECT_FALSE(json::Parse("", &v));
}

TEST(Json, RoundTripsLargeIntegersExactly) {
  json::Value v = json::Value::Int(18446744073709551615ull);
  json::Value back;
  ASSERT_TRUE(json::Parse(json::Dump(v), &back));
  EXPECT_EQ(back.AsU64(), 18446744073709551615ull);
}

// --------------------------------------------------------------- keys ---

TEST(CellSpec, KeyIsStableAndSensitiveToSemanticFields) {
  CellSpec a;
  a.workload = "md";
  a.scale = workloads::Scale::kTest;
  a.scheme = metrics::Scheme::kOracle;

  CellSpec b = a;
  EXPECT_EQ(a.Key(), b.Key());

  b.scheme = metrics::Scheme::kAlgorithm1;
  EXPECT_NE(a.Key(), b.Key());

  b = a;
  b.cfg.l2.size_bytes *= 2;
  EXPECT_NE(a.Key(), b.Key());

  b = a;
  b.seed = 7;
  EXPECT_NE(a.Key(), b.Key());

  // Sharded cells (a different same-cycle tie-break schedule) must never
  // share an entry with sequential ones, and the default must keep every
  // historical key: sim_threads is hashed only when != 1.
  b = a;
  b.sim_threads = 4;
  EXPECT_NE(a.Key(), b.Key());
  b.sim_threads = 1;
  EXPECT_EQ(a.Key(), b.Key());
}

// Cells share a profile exactly when their baseline and observation runs
// are the same runs: the measured run's own fields leave the key alone,
// everything the baseline reads changes it.
TEST(CellSpec, ProfileKeyKeepsEverythingTheBaselineDependsOn) {
  CellSpec a;
  a.workload = "md";
  a.scale = workloads::Scale::kTest;
  a.scheme = metrics::Scheme::kOracle;

  CellSpec b = a;
  b.scheme = metrics::Scheme::kAlgorithm2;
  b.coarse_grain = true;
  b.allow_reroute = false;
  b.control_register = 1;
  b.faults.seed = 3;
  b.faults.mc_pressure.push_back({0, 0, 100, 8});
  b.variant = "label";
  EXPECT_EQ(a.ProfileKey(), b.ProfileKey());
  EXPECT_NE(a.Key(), b.Key());

  b = a;
  b.seed = 2;
  EXPECT_NE(a.ProfileKey(), b.ProfileKey());
  b = a;
  b.scale = workloads::Scale::kSmall;
  EXPECT_NE(a.ProfileKey(), b.ProfileKey());
  b = a;
  b.cfg.l2.size_bytes *= 2;
  EXPECT_NE(a.ProfileKey(), b.ProfileKey());
  b = a;
  b.cfg.allow_reroute = false;  // an ArchConfig field, unlike CellSpec::allow_reroute
  EXPECT_NE(a.ProfileKey(), b.ProfileKey());
}

// sim_threads changes the baseline itself: 2 or more threads is a
// different same-cycle tie-break schedule from 1 (MachineOptions::
// sim_threads). So cells that differ only in sim_threads must not share a
// profile, and every count >= 2 gives the same baseline.
TEST(CellSpec, SimThreadsSeparatesProfiles) {
  CellSpec a;
  a.workload = "fft";
  a.scale = workloads::Scale::kTest;
  CellSpec b = a;
  b.sim_threads = 2;
  CellSpec c = a;
  c.sim_threads = 4;
  EXPECT_NE(a.ProfileKey(), b.ProfileKey());
  EXPECT_NE(b.ProfileKey(), c.ProfileKey());

  std::uint64_t one = MakeProfile(a)->Baseline().events;
  std::uint64_t two = MakeProfile(b)->Baseline().events;
  EXPECT_NE(one, two);
  EXPECT_EQ(two, MakeProfile(c)->Baseline().events);
}

// The variant display label is deliberately not hashed: two figures probing
// the same resolved configuration share one cache entry.
TEST(CellSpec, VariantLabelDoesNotChangeTheKey) {
  CellSpec a;
  a.workload = "md";
  a.scale = workloads::Scale::kTest;
  CellSpec b = a;
  b.variant = "default-5x5";
  EXPECT_EQ(a.Key(), b.Key());
}

// ------------------------------------------------------------- results ---

CellResult SampleResult() {
  CellResult r;
  r.makespan = 123456;
  r.baseline_makespan = 234567;
  r.l1_hits = 10;
  r.l1_misses = 3;
  r.l2_hits = 7;
  r.l2_misses = 2;
  r.candidates = 99;
  r.local_l1_skips = 5;
  r.offloads = 42;
  r.ndc_success = 40;
  r.fallbacks = 2;
  r.ndc_at_loc = {4, 3, 2, 1};
  r.chains = 6;
  r.planned = 5;
  r.transforms = 8;
  r.stats["noc.contention_cycles"] = 777;
  r.stats["core.computes"] = 1234;
  return r;
}

TEST(CellResult, JsonRoundTripPreservesEveryField) {
  CellResult r = SampleResult();
  json::Value v = r.ToJson();
  CellResult back;
  ASSERT_TRUE(CellResult::FromJson(v, &back));
  EXPECT_TRUE(r == back);
  EXPECT_EQ(back.Stat("noc.contention_cycles"), 777u);
  EXPECT_EQ(back.Stat("missing.counter"), 0u);
}

TEST(CellResult, ImprovementPctHandlesZeroBaseline) {
  CellResult r;
  r.makespan = 100;
  r.baseline_makespan = 0;
  EXPECT_EQ(r.ImprovementPct(), 0.0);
}

// --------------------------------------------------------------- cache ---

std::string UniqueCacheDir(const char* tag) {
  return testing::TempDir() + "/ndc-harness-test-" + tag;
}

TEST(ResultCache, InsertThenLookupAcrossReopen) {
  std::string dir = UniqueCacheDir("reopen");
  std::remove((dir + "/results.jsonl").c_str());

  CellSpec spec;
  spec.workload = "md";
  spec.scale = workloads::Scale::kTest;
  spec.scheme = metrics::Scheme::kOracle;
  CellResult r = SampleResult();

  {
    ResultCache cache(dir);
    ASSERT_TRUE(cache.ok());
    CellResult out;
    EXPECT_FALSE(cache.Lookup(spec, &out));
    cache.Insert(spec, r);
    EXPECT_TRUE(cache.Lookup(spec, &out));
    EXPECT_TRUE(out == r);
  }
  // A second process (re-open) sees the persisted entry, marked from_cache.
  ResultCache cache(dir);
  EXPECT_EQ(cache.load_errors(), 0u);
  CellResult out;
  ASSERT_TRUE(cache.Lookup(spec, &out));
  EXPECT_TRUE(out.from_cache);
  EXPECT_EQ(out.makespan, r.makespan);
}

TEST(ResultCache, CorruptLinesAreCountedAndSkipped) {
  std::string dir = UniqueCacheDir("corrupt");
  std::remove((dir + "/results.jsonl").c_str());
  {
    ResultCache cache(dir);  // creates the directory
    ASSERT_TRUE(cache.ok());
  }
  std::FILE* f = std::fopen((dir + "/results.jsonl").c_str(), "a");
  ASSERT_NE(f, nullptr);
  std::fputs("this is not json\n{\"key\":\n", f);
  std::fclose(f);

  ResultCache cache(dir);
  EXPECT_EQ(cache.load_errors(), 2u);
  EXPECT_EQ(cache.size(), 0u);
}

// ----------------------------------------------------------- scheduler ---

TEST(Scheduler, RunsEveryTaskExactlyOnce) {
  std::atomic<int> counter{0};
  std::vector<std::atomic<int>> per_task(257);
  for (auto& t : per_task) t = 0;
  std::vector<PlanTask> plan(per_task.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    plan[i].run = [&, i] {
      per_task[i].fetch_add(1);
      counter.fetch_add(1);
    };
    if (i % 3 == 2) plan[i].deps = {i / 2};
  }
  RunPlan(4, plan);
  EXPECT_EQ(counter.load(), 257);
  for (auto& t : per_task) EXPECT_EQ(t.load(), 1);
}

// Every task checks, as it starts, that each of its dependencies has
// finished. Dependencies reach back several tasks so that workers really
// do find the next task in plan order blocked and skip ahead.
TEST(Scheduler, NoTaskStartsBeforeItsDependenciesFinish) {
  constexpr std::size_t kTasks = 120;
  std::vector<std::atomic<bool>> done(kTasks);
  for (auto& d : done) d = false;
  std::atomic<int> violations{0};
  std::vector<PlanTask> plan(kTasks);
  for (std::size_t i = 0; i < kTasks; ++i) {
    if (i >= 1 && i % 4 != 0) plan[i].deps.push_back(i - 1);
    if (i >= 7 && i % 5 == 0) plan[i].deps.push_back(i - 7);
    plan[i].run = [&, i] {
      for (std::size_t d : plan[i].deps) {
        if (!done[d].load()) violations.fetch_add(1);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50 * (i % 7)));
      done[i] = true;
    };
  }
  for (int jobs : {2, 8}) {
    for (auto& d : done) d = false;
    RunPlan(jobs, plan);
    EXPECT_EQ(violations.load(), 0) << "jobs=" << jobs;
    for (auto& d : done) EXPECT_TRUE(d.load());
  }
}

TEST(Scheduler, SingleJobRunsTasksInPlanOrder) {
  std::vector<std::size_t> order;
  std::vector<PlanTask> plan(20);
  for (std::size_t i = 0; i < plan.size(); ++i) {
    plan[i].run = [&order, i] { order.push_back(i); };
    if (i > 0) plan[i].deps = {0};
  }
  RunPlan(1, plan);
  ASSERT_EQ(order.size(), plan.size());
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(Scheduler, ParallelForCoversTheFullIndexRange) {
  std::vector<std::atomic<int>> hits(100);
  for (auto& h : hits) h = 0;
  ParallelFor(3, hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// --------------------------------------------------------------- sweep ---

SweepSpec SmallSpec() {
  SweepSpec spec;
  spec.figure = "harness-test";
  for (const char* w : {"md", "fft"}) {
    for (metrics::Scheme s : {metrics::Scheme::kBaseline, metrics::Scheme::kOracle}) {
      CellSpec cell;
      cell.workload = w;
      cell.scale = workloads::Scale::kTest;
      cell.scheme = s;
      spec.cells.push_back(cell);
    }
  }
  return spec;
}

TEST(Sweep, WarmRerunPerformsZeroSimulatorInvocations) {
  std::string dir = UniqueCacheDir("warm");
  std::remove((dir + "/results.jsonl").c_str());
  SweepSpec spec = SmallSpec();

  SweepOptions opt;
  opt.jobs = 2;
  opt.cache_dir = dir;

  SweepResult cold = RunSweep(spec, opt);
  EXPECT_EQ(cold.summary.sim_invocations, spec.cells.size());
  EXPECT_EQ(cold.summary.cache_hits, 0u);

  SweepResult warm = RunSweep(spec, opt);
  EXPECT_EQ(warm.summary.sim_invocations, 0u);
  EXPECT_EQ(warm.summary.cache_hits, spec.cells.size());
  ASSERT_EQ(warm.cells.size(), cold.cells.size());
  for (std::size_t i = 0; i < cold.cells.size(); ++i) {
    EXPECT_TRUE(warm.cells[i] == cold.cells[i]) << i;
    EXPECT_TRUE(warm.cells[i].from_cache);
  }
}

TEST(Sweep, UncachedParallelMatchesSerial) {
  SweepSpec spec = SmallSpec();
  SweepOptions serial;
  serial.jobs = 1;
  serial.use_cache = false;
  SweepOptions parallel = serial;
  parallel.jobs = 4;
  SweepResult a = RunSweep(spec, serial);
  SweepResult b = RunSweep(spec, parallel);
  for (std::size_t i = 0; i < spec.cells.size(); ++i) {
    EXPECT_TRUE(a.cells[i] == b.cells[i]) << i;
  }
}

fault::FaultSchedule SmallFaultSchedule() {
  fault::FaultSchedule s;
  s.seed = 7;
  s.link_faults.push_back({3, 100, 900, 8, 0.25});
  s.mc_pressure.push_back({1, 200, 400, 16});
  return s;
}

/// A test-scale grid that exercises every way cells can share a profile:
/// all 11 schemes of one workload, a coarse-grain and a reroute-off
/// compiled cell, a faulted cell, sim_threads=2 cells, two ArchConfig
/// variants of one workload, and a duplicated cell.
SweepSpec EquivalenceGrid() {
  SweepSpec spec;
  spec.figure = "equivalence";
  auto cell = [](const char* w, metrics::Scheme s) {
    CellSpec c;
    c.workload = w;
    c.scale = workloads::Scale::kTest;
    c.scheme = s;
    return c;
  };
  using metrics::Scheme;
  for (Scheme s : {Scheme::kBaseline, Scheme::kDefault, Scheme::kOracle, Scheme::kWait5,
                   Scheme::kWait10, Scheme::kWait25, Scheme::kWait50, Scheme::kLastWait,
                   Scheme::kMarkov, Scheme::kAlgorithm1, Scheme::kAlgorithm2}) {
    spec.cells.push_back(cell("md", s));
  }
  CellSpec coarse = cell("md", Scheme::kAlgorithm1);
  coarse.coarse_grain = true;
  spec.cells.push_back(coarse);
  CellSpec no_reroute = cell("md", Scheme::kAlgorithm2);
  no_reroute.allow_reroute = false;
  spec.cells.push_back(no_reroute);
  CellSpec faulted = cell("md", Scheme::kOracle);
  faulted.faults = SmallFaultSchedule();
  spec.cells.push_back(faulted);
  for (Scheme s : {Scheme::kBaseline, Scheme::kWait25}) {
    CellSpec threads = cell("fft", s);
    threads.sim_threads = 2;
    spec.cells.push_back(threads);
    spec.cells.push_back(cell("fft", s));
    CellSpec half_l2 = cell("fft", s);
    half_l2.cfg.l2.size_bytes /= 2;
    half_l2.variant = "half-l2";
    spec.cells.push_back(half_l2);
  }
  spec.cells.push_back(spec.cells[2]);  // md Oracle again
  return spec;
}

std::uint64_t SimEventsSoFar() { return obs::GlobalPhases().Take().sim_events; }

// A sweep that shares one profile per key produces, cell for cell, what
// standalone RunCell calls produce, at any job count and with part of the
// grid served from the cache. With observability compiled in it also
// simulates exactly one baseline per key, one observation run per key that
// needs it and one measured run per simulated cell (a fault-free Baseline
// cell's measured run is the profile's baseline itself).
TEST(Sweep, SharedProfilesMatchStandaloneCells) {
  SweepSpec spec = EquivalenceGrid();
  const std::size_t n = spec.cells.size();
  std::vector<CellResult> standalone(n);
  for (std::size_t i = 0; i < n; ++i) standalone[i] = RunCell(spec.cells[i]);

  // Warm: two md cells, and every cell of the half-L2 profile, which then
  // has no misses and must plan no profile runs.
  auto warm = [&](std::size_t i) {
    return spec.cells[i].scheme == metrics::Scheme::kDefault ||
           spec.cells[i].scheme == metrics::Scheme::kLastWait ||
           spec.cells[i].variant == "half-l2";
  };

  // Expected simulated events: the profile runs each missed key needs, plus
  // each missed cell's measured run over an already filled profile.
  std::map<std::string, std::shared_ptr<metrics::Profile>> profiles;
  std::map<std::string, bool> needs_observe;
  std::uint64_t expected_events = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (warm(i)) continue;
    std::string key = spec.cells[i].ProfileKey();
    auto& p = profiles[key];
    if (p == nullptr) p = MakeProfile(spec.cells[i]);
    needs_observe[key] = needs_observe[key] || spec.cells[i].NeedsObserve();
  }
  for (const auto& [key, p] : profiles) {
    expected_events += p->Baseline().events;
    if (needs_observe[key]) expected_events += p->Observe().events;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (warm(i)) continue;
    std::uint64_t before = SimEventsSoFar();
    CellResult r = RunCell(spec.cells[i], profiles[spec.cells[i].ProfileKey()]);
    expected_events += SimEventsSoFar() - before;
    EXPECT_TRUE(r == standalone[i]) << i;
  }

  for (int jobs : {1, 3, 8}) {
    std::string dir = UniqueCacheDir(("shared-j" + std::to_string(jobs)).c_str());
    std::filesystem::remove_all(dir);
    std::size_t num_warm = 0;
    {
      ResultCache cache(dir);
      ASSERT_TRUE(cache.ok());
      for (std::size_t i = 0; i < n; ++i) {
        if (warm(i)) {
          cache.Insert(spec.cells[i], standalone[i]);
          ++num_warm;
        }
      }
    }
    SweepOptions opt;
    opt.jobs = jobs;
    opt.cache_dir = dir;
    SweepResult res = RunSweep(spec, opt);
    ASSERT_EQ(res.cells.size(), n);
    EXPECT_EQ(res.summary.cache_hits, num_warm) << "jobs=" << jobs;
    EXPECT_EQ(res.summary.sim_invocations, n - num_warm) << "jobs=" << jobs;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(res.cells[i] == standalone[i])
          << "jobs=" << jobs << " cell " << i << " " << spec.cells[i].workload << "/"
          << spec.cells[i].SchemeLabel();
    }
    if constexpr (obs::kObsEnabled) {
      EXPECT_EQ(res.summary.sim_events, expected_events) << "jobs=" << jobs;
    }
  }
}

// ------------------------------------------------------------- figures ---

TEST(Figures, RegistryKnowsEveryPaperFigure) {
  for (const char* name : {"fig02", "fig03", "fig04", "fig05", "fig06", "fig13", "fig14",
                           "fig15", "fig16", "fig17", "tab02", "abl", "smoke"}) {
    EXPECT_TRUE(HasFigure(name)) << name;
  }
  EXPECT_FALSE(HasFigure("fig99"));
}

TEST(Figures, ParallelRunRendersTheSameTableAsSerial) {
  FigureOptions opt;
  opt.scale = workloads::Scale::kTest;
  opt.only = "md";
  opt.use_cache = false;

  testing::internal::CaptureStdout();
  opt.jobs = 1;
  ASSERT_EQ(RunFigure("fig04", opt), 0);
  std::string serial = testing::internal::GetCapturedStdout();

  testing::internal::CaptureStdout();
  opt.jobs = 4;
  ASSERT_EQ(RunFigure("fig04", opt), 0);
  std::string parallel = testing::internal::GetCapturedStdout();

  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
}

TEST(Figures, UnknownFigureNameFails) {
  FigureOptions opt;
  EXPECT_EQ(RunFigure("not-a-figure", opt), 2);
}

// Reads every regular file under `dir` into a name -> contents map.
std::map<std::string, std::string> SlurpDir(const std::string& dir) {
  std::map<std::string, std::string> out;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (!e.is_regular_file()) continue;
    std::ifstream f(e.path());
    std::ostringstream ss;
    ss << f.rdbuf();
    out[e.path().filename().string()] = ss.str();
  }
  return out;
}

// --classify/--export-obs under --jobs=N: cells re-simulate in parallel but
// their classification JSONL stream (stderr) and per-cell summary files are
// buffered and emitted in canonical cell order — byte-identical for any job
// count, run after run.
TEST(Figures, ClassifyExportIsByteStableAcrossJobs) {
  FigureOptions opt;
  opt.scale = workloads::Scale::kTest;
  opt.only = "md";
  opt.use_cache = false;
  opt.classify_window = kDefaultClassifyWindow;

  auto run = [&](int jobs, const char* tag) {
    std::string dir = UniqueCacheDir(tag);
    std::filesystem::remove_all(dir);
    opt.jobs = jobs;
    opt.export_obs = dir;
    testing::internal::CaptureStdout();
    testing::internal::CaptureStderr();
    int rc = RunFigure("fig04", opt);
    std::string out = testing::internal::GetCapturedStdout();
    std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(rc, 0);
    return std::make_tuple(out, err, SlurpDir(dir));
  };

  auto [out1, err1, files1] = run(1, "obs-j1");
  auto [out8a, err8a, files8a] = run(8, "obs-j8a");
  auto [out8b, err8b, files8b] = run(8, "obs-j8b");

  EXPECT_FALSE(err1.empty());
  EXPECT_FALSE(files1.empty());
  EXPECT_EQ(out1, out8a);
  EXPECT_EQ(err1, err8a) << "classification stream must not depend on --jobs";
  EXPECT_EQ(files1, files8a) << "obs summaries must not depend on --jobs";
  EXPECT_EQ(err8a, err8b) << "double run at --jobs=8 must be byte-identical";
  EXPECT_EQ(files8a, files8b);
}

// A figure regenerated under the sharded engine renders the same table for
// any parallel thread count (the machine-level 2 == 4 == 8 bit-identity,
// surfaced end-to-end through sweep, cache keys, and rendering).
TEST(Figures, ShardedFigureOutputIdenticalAcrossThreadCounts) {
  FigureOptions opt;
  opt.scale = workloads::Scale::kTest;
  opt.only = "md";
  opt.use_cache = false;

  testing::internal::CaptureStdout();
  opt.sim_threads = 2;
  ASSERT_EQ(RunFigure("fig04", opt), 0);
  std::string two = testing::internal::GetCapturedStdout();

  testing::internal::CaptureStdout();
  opt.sim_threads = 8;
  opt.jobs = 4;  // sweep-level and simulation-level parallelism compose
  ASSERT_EQ(RunFigure("fig04", opt), 0);
  std::string eight = testing::internal::GetCapturedStdout();

  EXPECT_FALSE(two.empty());
  EXPECT_EQ(two, eight);
}

}  // namespace
}  // namespace ndc::harness
