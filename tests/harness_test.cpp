// src/harness unit tests: cache-key semantics, CellResult round-tripping,
// the on-disk result cache, the plan scheduler, the warm-sweep
// zero-simulation guarantee, the equivalence of a sweep that shares
// profiles with standalone RunCell calls, and the sweep exports parsing as
// JSON.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "compiler/codegen.hpp"
#include "harness/cache.hpp"
#include "harness/figures.hpp"
#include "harness/pool.hpp"
#include "harness/sweep.hpp"
#include "obs/phase.hpp"

namespace ndc::harness {
namespace {

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
}

// Cache keys are pinned literals: a change to CanonicalString() or
// kCacheVersion that moves them orphans every entry already on disk, so it
// must show up here (and come with a version bump).
TEST(CellSpec, DefaultKeyIsStable) {
  CellSpec a;
  a.workload = "swim";
  a.scale = workloads::Scale::kSmall;
  a.scheme = metrics::Scheme::kOracle;
  EXPECT_EQ(a.Key(), "c692381c58525e96");
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

TEST(CellResult, FromJsonRejectsANonIntegerCounter) {
  const json::Value good = SampleResult().ToJson();
  CellResult out;
  ASSERT_TRUE(CellResult::FromJson(good, &out));
  json::Value v = good;
  v.obj["makespan"] = json::Value::Double(123456.5);
  EXPECT_FALSE(CellResult::FromJson(v, &out));
  v = good;
  v.obj["offloads"] = json::Value::Str("42");
  EXPECT_FALSE(CellResult::FromJson(v, &out));
  v = good;
  v.obj["ndc_at_loc"].arr[2] = json::Value::Signed(-2);
  EXPECT_FALSE(CellResult::FromJson(v, &out));
  v = good;
  v.obj["stats"].obj["core.computes"] = json::Value::Double(1234.0);
  EXPECT_FALSE(CellResult::FromJson(v, &out));
}

// ToJson, FromJson and operator== walk one field list: a change to any
// serialized scalar counter survives the round trip and breaks equality.
TEST(CellResult, EverySerializedCounterTakesPartInEquality) {
  const CellResult base = SampleResult();
  const json::Value good = base.ToJson();
  int scalars = 0;
  for (const auto& [key, field] : good.obj) {
    if (field.kind != json::Value::Kind::kInt) continue;
    ++scalars;
    json::Value v = good;
    v.obj[key] = json::Value::Int(field.u64 + 1);
    CellResult changed;
    ASSERT_TRUE(CellResult::FromJson(v, &changed)) << key;
    EXPECT_FALSE(changed == base) << key;
  }
  EXPECT_EQ(scalars, 17);
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

TEST(CellConservation, ViolationThrowsWithCellKeyAndReport) {
  CellSpec spec;
  spec.workload = "md";
  spec.scale = workloads::Scale::kTest;
  spec.scheme = metrics::Scheme::kDefault;
  fault::ConservationInputs in;
  in.offloads = 3;
  in.ndc_success = 1;
  in.fallbacks = 1;  // one offload never resolved
  try {
    CheckCellConservation(spec, in);
    ADD_FAILURE() << "no exception";
  } catch (const std::runtime_error& e) {
    std::string what = e.what();
    EXPECT_NE(what.find(spec.Key()), std::string::npos) << what;
    EXPECT_NE(what.find(fault::CheckConservation(in).ToString()), std::string::npos) << what;
  }
  in.fallbacks = 2;
  EXPECT_NO_THROW(CheckCellConservation(spec, in));
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

// A throwing task stops the plan: nothing depending on it runs, no worker
// waits forever on its dependents, and the caller receives the exception.
TEST(Scheduler, TaskExceptionStopsSchedulingAndIsRethrown) {
  constexpr std::size_t kTasks = 40;
  constexpr std::size_t kFailing = 5;
  for (int jobs : {1, 2, 8}) {
    std::vector<std::atomic<int>> ran(kTasks);
    for (auto& r : ran) r = 0;
    std::vector<PlanTask> plan(kTasks);
    for (std::size_t i = 0; i < kTasks; ++i) {
      plan[i].run = [&ran, i] {
        if (i == kFailing) throw std::runtime_error("task 5 failed");
        ran[i].fetch_add(1);
      };
      if (i > kFailing && i % 2 == 0) plan[i].deps = {kFailing};
    }
    try {
      RunPlan(jobs, plan);
      ADD_FAILURE() << "no exception, jobs=" << jobs;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "task 5 failed") << "jobs=" << jobs;
    }
    for (std::size_t i = 0; i < kTasks; ++i) {
      if (!plan[i].deps.empty()) {
        EXPECT_EQ(ran[i].load(), 0) << "dependent " << i << " ran, jobs=" << jobs;
      }
      EXPECT_LE(ran[i].load(), 1);
    }
  }
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

/// A test-scale grid that exercises every way cells can share a profile:
/// all 11 schemes of one workload, a coarse-grain and a reroute-off
/// compiled cell, two ArchConfig variants of one workload, and duplicated
/// cells.
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
  for (Scheme s : {Scheme::kBaseline, Scheme::kWait25}) {
    spec.cells.push_back(cell("fft", s));
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

// The configuration and lowered traces (as instruction words) a compiled
// cell runs, built the way metrics::Experiment::RunCompiled builds them.
using CompiledProgram =
    std::pair<arch::ArchConfig, std::vector<std::vector<std::array<std::uint64_t, 2>>>>;
CompiledProgram LowerCompiledCell(const CellSpec& c) {
  compiler::CompileOptions opt;
  opt.mode = c.coarse_grain ? compiler::Mode::kCoarseGrain
             : c.scheme == metrics::Scheme::kAlgorithm2 ? compiler::Mode::kAlgorithm2
                                                         : compiler::Mode::kAlgorithm1;
  opt.allow_reroute = c.allow_reroute;
  opt.control_register = c.control_register;
  CompiledProgram out{c.cfg, {}};
  out.first.allow_reroute = c.allow_reroute;
  out.first.control_register = c.control_register;
  ir::Program prog = workloads::BuildWorkload(c.workload, c.scale, c.seed);
  compiler::Compile(prog, compiler::ArchDescription(out.first), opt);
  for (const arch::Trace& t : compiler::Lower(prog, out.first.num_nodes(), &out.first).traces) {
    auto& words = out.second.emplace_back();
    for (const arch::Instr& in : t) words.push_back(in.words());
  }
  return out;
}

// A sweep that shares one profile per key produces, cell for cell, what
// standalone RunCell calls produce, at any job count and with part of the
// grid served from the cache. It makes exactly one profile run per missed
// key (the observation run when a cell needs it, which also serves as the
// baseline), one measured run per missed policy cell, and one run per
// distinct compiled program (configuration and lowered traces) among the
// missed compiled cells; a Baseline cell's measured run is the profile's
// baseline itself. Each run's events are what the same run costs standalone.
TEST(Sweep, SharedProfilesMatchStandaloneCells) {
  SweepSpec spec = EquivalenceGrid();
  const std::size_t n = spec.cells.size();
  std::vector<CellResult> standalone(n);
  std::vector<std::uint64_t> standalone_events(n);  // profile run + measured run
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t before = SimEventsSoFar();
    standalone[i] = RunCell(spec.cells[i]);
    standalone_events[i] = SimEventsSoFar() - before;
  }

  // Warm: two md cells, and every cell of the half-L2 profile, which then
  // has no misses and must plan no profile runs.
  auto warm = [&](std::size_t i) {
    return spec.cells[i].scheme == metrics::Scheme::kDefault ||
           spec.cells[i].scheme == metrics::Scheme::kLastWait ||
           spec.cells[i].variant == "half-l2";
  };

  std::map<std::string, std::uint64_t> profile_run_events;  // per missed key
  std::map<std::string, bool> needs_observe;
  for (std::size_t i = 0; i < n; ++i) {
    if (warm(i)) continue;
    std::string key = spec.cells[i].ProfileKey();
    if (!profile_run_events.contains(key)) {
      profile_run_events[key] = MakeProfile(spec.cells[i], false)->Baseline().events;
    }
    needs_observe[key] = needs_observe[key] || spec.cells[i].NeedsObserve();
  }
  std::uint64_t expected_events = 0, expected_runs = 0, expected_reused = 0;
  for (const auto& [key, events] : profile_run_events) {
    expected_events += events;
    ++expected_runs;
    if (needs_observe[key]) ++expected_reused;  // the baseline
  }
  std::vector<CompiledProgram> programs;
  for (std::size_t i = 0; i < n; ++i) {
    const CellSpec& c = spec.cells[i];
    if (warm(i) || c.scheme == metrics::Scheme::kBaseline) continue;
    if (c.IsCompiled()) {
      CompiledProgram p = LowerCompiledCell(c);
      if (std::find(programs.begin(), programs.end(), p) != programs.end()) {
        ++expected_reused;
        continue;
      }
      programs.push_back(std::move(p));
    }
    expected_events += standalone_events[i] - profile_run_events[c.ProfileKey()];
    ++expected_runs;
  }
  // md's Algorithm-1 and Algorithm-2 programs coincide at test scale, so the
  // grid exercises a reused compiled run.
  EXPECT_GT(expected_reused, profile_run_events.size());

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
    EXPECT_EQ(res.summary.machine_runs, expected_runs) << "jobs=" << jobs;
    EXPECT_EQ(res.summary.runs_reused, expected_reused) << "jobs=" << jobs;
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

TEST(Figures, UnknownBenchmarkFailsBeforeAnyCellRuns) {
  FigureOptions opt;
  opt.scale = workloads::Scale::kTest;
  opt.only = "nosuch";
  opt.use_cache = false;
  SweepSummary summary;
  summary.cells = 99;  // untouched on failure

  testing::internal::CaptureStdout();
  EXPECT_EQ(RunFigure("fig04", opt, &summary), 2);
  EXPECT_EQ(testing::internal::GetCapturedStdout(), "");
  EXPECT_EQ(summary.cells, 99u);
}

TEST(Figures, UnwritableExportFails) {
  const std::string missing_dir = testing::TempDir() + "/ndc-harness-test-no-such-dir";
  std::filesystem::remove_all(missing_dir);
  FigureOptions opt;
  opt.scale = workloads::Scale::kTest;
  opt.only = "md";
  opt.use_cache = false;

  testing::internal::CaptureStdout();
  opt.export_jsonl = missing_dir + "/cells.jsonl";
  EXPECT_EQ(RunFigure("fig04", opt), 2);
  opt.export_jsonl.clear();
  opt.export_csv = missing_dir + "/cells.csv";
  EXPECT_EQ(RunFigure("fig04", opt), 2);
  testing::internal::GetCapturedStdout();
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

// Every sweep export is JSON that json::Parse reads back: each line of
// --export-jsonl, each --export-obs file, and the --summary line.
TEST(Figures, ExportsParseAsJson) {
  const std::string dir = UniqueCacheDir("exports");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  FigureOptions opt;
  opt.scale = workloads::Scale::kTest;
  opt.only = "md";
  opt.use_cache = false;
  opt.export_jsonl = dir + "/cells.jsonl";
  opt.export_obs = dir + "/obs";
  SweepSummary summary;
  testing::internal::CaptureStdout();
  int rc = RunFigure("fig04", opt, &summary);
  testing::internal::GetCapturedStdout();
  ASSERT_EQ(rc, 0);
  ASSERT_TRUE(AppendSummary(summary, dir + "/summary.jsonl"));

  std::ifstream cells(opt.export_jsonl);
  std::string line;
  std::uint64_t cell_lines = 0, summary_lines = 0;
  while (std::getline(cells, line)) {
    json::Value v;
    std::string err;
    ASSERT_TRUE(json::Parse(line, &v, &err)) << err << "\n" << line;
    if (v.Find("summary") != nullptr) {
      ++summary_lines;
      continue;
    }
    ++cell_lines;
    CellResult r;
    ASSERT_NE(v.Find("result"), nullptr);
    EXPECT_TRUE(CellResult::FromJson(*v.Find("result"), &r)) << line;
  }
  EXPECT_EQ(cell_lines, summary.cells);
  EXPECT_EQ(summary_lines, 1u);

  std::map<std::string, std::string> obs = SlurpDir(opt.export_obs);
  EXPECT_EQ(obs.size(), summary.cells);
  for (const auto& [name, text] : obs) {
    json::Value v;
    std::string err;
    ASSERT_TRUE(json::Parse(text, &v, &err)) << name << ": " << err;
    EXPECT_EQ(v.Find("workload")->str, "md") << name;
  }

  std::ifstream summary_file(dir + "/summary.jsonl");
  ASSERT_TRUE(std::getline(summary_file, line));
  json::Value v;
  ASSERT_TRUE(json::Parse(line, &v)) << line;
  EXPECT_EQ(v.Find("cells")->AsU64(), summary.cells);
}

// --export-obs under --jobs=N: cells re-simulate in parallel but their
// per-cell summary files are buffered and written in canonical cell order —
// byte-identical for any job count, run after run.
TEST(Figures, ExportObsIsByteStableAcrossJobs) {
  FigureOptions opt;
  opt.scale = workloads::Scale::kTest;
  opt.only = "md";
  opt.use_cache = false;

  auto run = [&](int jobs, const char* tag) {
    std::string dir = UniqueCacheDir(tag);
    std::filesystem::remove_all(dir);
    opt.jobs = jobs;
    opt.export_obs = dir;
    testing::internal::CaptureStdout();
    int rc = RunFigure("fig04", opt);
    std::string out = testing::internal::GetCapturedStdout();
    EXPECT_EQ(rc, 0);
    return std::make_tuple(out, SlurpDir(dir));
  };

  auto [out1, files1] = run(1, "obs-j1");
  auto [out8a, files8a] = run(8, "obs-j8a");
  auto [out8b, files8b] = run(8, "obs-j8b");

  EXPECT_FALSE(files1.empty());
  EXPECT_EQ(out1, out8a);
  EXPECT_EQ(files1, files8a) << "obs summaries must not depend on --jobs";
  EXPECT_EQ(out8a, out8b) << "double run at --jobs=8 must be byte-identical";
  EXPECT_EQ(files8a, files8b);
}

}  // namespace
}  // namespace ndc::harness
