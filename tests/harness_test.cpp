// src/harness unit tests: cell-key semantics, CellResult's JSON form, the
// plan scheduler, the equivalence of a sweep that shares profiles and
// dedupes cells with standalone RunCell calls, the run counts and phase
// times each sweep and record figure reports, one plan shared by several
// figures, and the sweep exports.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "compiler/codegen.hpp"
#include "json_parse.hpp"
#include "harness/figures.hpp"
#include "harness/pool.hpp"
#include "harness/sweep.hpp"

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

// Keys are pinned literals: they name cells in the JSONL and CSV exports,
// so a change to CanonicalString() that moves them must show up here.
TEST(CellSpec, DefaultKeyIsStable) {
  CellSpec a;
  a.workload = "swim";
  a.scale = workloads::Scale::kSmall;
  a.scheme = metrics::Scheme::kOracle;
  EXPECT_EQ(a.Key(), "452cdd9d005d0265");
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
  b.cfg.allow_reroute = false;
  b.cfg.control_register = 1;
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
  b.cfg.allow_reroute = false;  // only the measured run reads it
  EXPECT_EQ(a.ProfileKey(), b.ProfileKey());
}

// The variant display label is deliberately not hashed: two figures probing
// the same resolved configuration share one plan cell.
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

// The counters ToJson writes, which operator== compares.
constexpr std::uint64_t CellResult::*kCounters[] = {
    &CellResult::makespan,          &CellResult::baseline_makespan, &CellResult::l1_hits,
    &CellResult::l1_misses,         &CellResult::l2_hits,           &CellResult::l2_misses,
    &CellResult::candidates,        &CellResult::local_l1_skips,    &CellResult::offloads,
    &CellResult::ndc_success,       &CellResult::fallbacks,         &CellResult::chains,
    &CellResult::planned,           &CellResult::reuse_skips,       &CellResult::legality_failures,
    &CellResult::gating_failures,   &CellResult::transforms,
};

// What ToJson writes, dumped and parsed back, holds every field: one
// integer per counter, the per-location counts and the stats map.
TEST(CellResult, JsonRoundTripPreservesEveryField) {
  CellResult r = SampleResult();
  json::Value v;
  ASSERT_TRUE(json::Parse(json::Dump(r.ToJson()), &v));
  std::set<std::uint64_t> counters;
  int scalars = 0;
  for (const auto& [key, field] : v.obj) {
    if (field.kind != json::Value::Kind::kInt) continue;
    ++scalars;
    counters.insert(field.u64);
  }
  EXPECT_EQ(scalars, static_cast<int>(std::size(kCounters)));
  for (auto member : kCounters) EXPECT_TRUE(counters.contains(r.*member));
  EXPECT_EQ(AsU64(*Find(v, "makespan")), 123456u);
  EXPECT_EQ(AsU64(*Find(v, "transforms")), 8u);
  const json::Value* locs = Find(v, "ndc_at_loc");
  ASSERT_TRUE(locs != nullptr && IsArray(*locs));
  ASSERT_EQ(locs->arr.size(), r.ndc_at_loc.size());
  for (std::size_t i = 0; i < r.ndc_at_loc.size(); ++i) {
    EXPECT_EQ(AsU64(locs->arr[i]), r.ndc_at_loc[i]);
  }
  const json::Value* stats = Find(v, "stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(AsU64(*Find(*stats, "noc.contention_cycles")), 777u);
  EXPECT_EQ(r.Stat("noc.contention_cycles"), 777u);
  EXPECT_EQ(r.Stat("missing.counter"), 0u);
}

// ToJson and operator== walk one field list: a change to any exported
// scalar counter breaks equality.
TEST(CellResult, EverySerializedCounterTakesPartInEquality) {
  const CellResult base = SampleResult();
  for (auto member : kCounters) {
    CellResult changed = base;
    changed.*member += 1;
    EXPECT_FALSE(changed == base) << changed.*member;
  }
  CellResult changed = base;
  changed.ndc_at_loc[2] += 1;
  EXPECT_FALSE(changed == base);
  changed = base;
  changed.stats["core.computes"] += 1;
  EXPECT_FALSE(changed == base);
}

TEST(CellResult, ImprovementPctHandlesZeroBaseline) {
  CellResult r;
  r.makespan = 100;
  r.baseline_makespan = 0;
  EXPECT_EQ(r.ImprovementPct(), 0.0);
}

std::string UniqueTempDir(const char* tag) {
  return testing::TempDir() + "/ndc-harness-test-" + tag;
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

std::set<std::string> PhaseKeys(const SweepSummary& s) {
  std::set<std::string> out;
  for (const auto& [name, ms] : s.phase_ms) out.insert(name);
  return out;
}

TEST(Sweep, UncachedParallelMatchesSerial) {
  SweepSpec spec = SmallSpec();
  SweepOptions serial;
  serial.jobs = 1;
  SweepOptions parallel = serial;
  parallel.jobs = 4;
  SweepResult a = RunSweep(spec, serial);
  SweepResult b = RunSweep(spec, parallel);
  for (std::size_t i = 0; i < spec.cells.size(); ++i) {
    EXPECT_TRUE(a.cells[i] == b.cells[i]) << i;
  }
  // No cell compiles, so the compile phase has no key.
  for (const SweepResult* r : {&a, &b}) {
    EXPECT_EQ(PhaseKeys(r->summary),
              (std::set<std::string>{"build_workload", "lower_traces", "simulate"}));
  }
}

// A sweep's counts are those of the profiles it built: two sweeps
// over different workloads, run at once on two threads, each report the
// machine runs, simulated events and phases they report alone.
TEST(Sweep, ConcurrentSweepsCountOnlyTheirOwnRuns) {
  auto grid = [](const char* workload) {
    SweepSpec spec;
    spec.figure = workload;
    for (metrics::Scheme s :
         {metrics::Scheme::kBaseline, metrics::Scheme::kDefault, metrics::Scheme::kAlgorithm1}) {
      CellSpec c;
      c.workload = workload;
      c.scale = workloads::Scale::kTest;
      c.scheme = s;
      spec.cells.push_back(c);
    }
    return spec;
  };
  const std::array<SweepSpec, 2> specs = {grid("swim"), grid("lu")};
  SweepOptions opt;
  std::array<SweepSummary, 2> alone;
  for (std::size_t i = 0; i < specs.size(); ++i) alone[i] = RunSweep(specs[i], opt).summary;
  EXPECT_NE(alone[0].sim_events, alone[1].sim_events);

  for (int rep = 0; rep < 20; ++rep) {
    std::array<SweepSummary, 2> together;
    std::thread other([&] { together[1] = RunSweep(specs[1], opt).summary; });
    together[0] = RunSweep(specs[0], opt).summary;
    other.join();
    for (std::size_t i = 0; i < specs.size(); ++i) {
      std::string what = specs[i].figure + " rep " + std::to_string(rep);
      EXPECT_EQ(together[i].machine_runs, alone[i].machine_runs) << what;
      EXPECT_EQ(together[i].sim_events, alone[i].sim_events) << what;
      EXPECT_EQ(PhaseKeys(together[i]), PhaseKeys(alone[i])) << what;
    }
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
  no_reroute.cfg.allow_reroute = false;
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

// The configuration and lowered traces (as instruction words) a compiled
// cell runs, built from the options RunScheme compiles it with.
using CompiledProgram =
    std::pair<arch::ArchConfig, std::vector<std::vector<std::array<std::uint64_t, 2>>>>;
CompiledProgram LowerCompiledCell(const CellSpec& c) {
  CompiledProgram out{c.cfg, {}};
  ir::Program prog = workloads::BuildWorkload(c.workload, c.scale, c.seed);
  compiler::Compile(prog, compiler::ArchDescription(c.cfg), CellCompileOptions(c));
  for (const arch::Trace& t : compiler::Lower(prog, c.cfg.num_nodes(), &c.cfg).traces) {
    auto& words = out.second.emplace_back();
    for (const arch::Instr& in : t) words.push_back(in.words());
  }
  return out;
}

// A sweep that shares one profile per key produces, cell for cell, what
// standalone RunCell calls produce, at any job count, and runs a cell that
// the grid holds twice once. It makes exactly one profile run per key (the
// observation run when a cell needs it, which also serves as the
// baseline), one measured run per distinct policy cell, and one run per
// distinct compiled program (configuration and lowered traces) among the
// compiled cells; a Baseline cell's measured run is the profile's baseline
// itself. Each run's events are what the same run costs standalone.
TEST(Sweep, SharedProfilesMatchStandaloneCells) {
  SweepSpec spec = EquivalenceGrid();
  const std::size_t n = spec.cells.size();
  std::vector<CellResult> standalone(n);
  std::vector<std::uint64_t> standalone_events(n);  // profile run + measured run
  for (std::size_t i = 0; i < n; ++i) {
    auto profile = MakeProfile(spec.cells[i], spec.cells[i].NeedsObserve());
    standalone[i] = RunCell(spec.cells[i], profile);
    standalone_events[i] = profile->run_counts().sim_events;
  }

  // The first copy of each cell; the grid repeats some.
  std::vector<std::size_t> distinct;
  {
    std::set<std::string> seen;
    for (std::size_t i = 0; i < n; ++i) {
      if (seen.insert(spec.cells[i].CanonicalString()).second) distinct.push_back(i);
    }
  }
  ASSERT_LT(distinct.size(), n);

  std::map<std::string, std::uint64_t> profile_run_events;  // per key
  std::map<std::string, bool> needs_observe;
  for (std::size_t i : distinct) {
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
  for (std::size_t i : distinct) {
    const CellSpec& c = spec.cells[i];
    if (c.scheme == metrics::Scheme::kBaseline) continue;
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
    SweepOptions opt;
    opt.jobs = jobs;
    SweepResult res = RunSweep(spec, opt);
    ASSERT_EQ(res.cells.size(), n);
    EXPECT_EQ(res.summary.cells, n) << "jobs=" << jobs;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(res.cells[i] == standalone[i])
          << "jobs=" << jobs << " cell " << i << " " << spec.cells[i].workload << "/"
          << spec.cells[i].SchemeLabel();
    }
    EXPECT_EQ(res.summary.machine_runs, expected_runs) << "jobs=" << jobs;
    EXPECT_EQ(res.summary.runs_reused, expected_reused) << "jobs=" << jobs;
    EXPECT_EQ(res.summary.sim_events, expected_events) << "jobs=" << jobs;
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

// A record figure's summary counts the profiles it built: fig05 simulates
// the observation runs of ocean and radiosity, fig02 one per benchmark, and
// tab02 builds no profile.
TEST(Figures, RecordFigureSummariesCountTheirProfiles) {
  FigureOptions opt;
  opt.scale = workloads::Scale::kTest;
  opt.jobs = 2;
  auto run = [&](const char* name) {
    SweepSummary s;
    testing::internal::CaptureStdout();
    EXPECT_EQ(RunFigure(name, opt, &s), 0) << name;
    testing::internal::GetCapturedStdout();
    return s;
  };

  SweepSummary fig05 = run("fig05");
  std::uint64_t events = 0;
  for (const char* w : {"ocean", "radiosity"}) {
    events += metrics::Profile(w, opt.scale, arch::ArchConfig{}, opt.seed).Observe().events;
  }
  EXPECT_EQ(fig05.machine_runs, 2u);
  EXPECT_EQ(fig05.sim_events, events);
  EXPECT_TRUE(fig05.phase_ms.contains("simulate"));

  EXPECT_EQ(run("fig02").machine_runs, workloads::BenchmarkNames().size());

  SweepSummary tab02 = run("tab02");
  EXPECT_EQ(tab02.machine_runs, 0u);
  EXPECT_EQ(tab02.sim_events, 0u);
  EXPECT_TRUE(tab02.phase_ms.empty());
}

TEST(Figures, UnknownFigureNameFails) {
  FigureOptions opt;
  EXPECT_EQ(RunFigure("not-a-figure", opt), 2);
}

TEST(Figures, UnknownBenchmarkFailsBeforeAnyCellRuns) {
  FigureOptions opt;
  opt.scale = workloads::Scale::kTest;
  opt.only = "nosuch";
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

// Every sweep export is JSON that the tests' reader parses: each line of
// --export-jsonl, each --export-obs file, and the --summary line.
TEST(Figures, ExportsParseAsJson) {
  const std::string dir = UniqueTempDir("exports");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  FigureOptions opt;
  opt.scale = workloads::Scale::kTest;
  opt.only = "md";
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
    if (Find(v, "summary") != nullptr) {
      ++summary_lines;
      continue;
    }
    ++cell_lines;
    const json::Value* result = Find(v, "result");
    ASSERT_TRUE(result != nullptr && IsObject(*result)) << line;
    EXPECT_GT(AsU64(*Find(*result, "makespan")), 0u) << line;
  }
  EXPECT_EQ(cell_lines, summary.cells);
  EXPECT_EQ(summary_lines, 1u);

  std::map<std::string, std::string> obs = SlurpDir(opt.export_obs);
  EXPECT_EQ(obs.size(), summary.cells);
  for (const auto& [name, text] : obs) {
    json::Value v;
    std::string err;
    ASSERT_TRUE(json::Parse(text, &v, &err)) << name << ": " << err;
    EXPECT_EQ(Find(v, "workload")->str, "md") << name;
  }

  std::ifstream summary_file(dir + "/summary.jsonl");
  ASSERT_TRUE(std::getline(summary_file, line));
  json::Value v;
  ASSERT_TRUE(json::Parse(line, &v)) << line;
  EXPECT_EQ(AsU64(*Find(v, "cells")), summary.cells);
}

// --export-obs under --jobs=N: cells re-simulate in parallel but their
// per-cell summary files are buffered and written in canonical cell order —
// byte-identical for any job count, run after run.
TEST(Figures, ExportObsIsByteStableAcrossJobs) {
  FigureOptions opt;
  opt.scale = workloads::Scale::kTest;
  opt.only = "md";

  auto run = [&](int jobs, const char* tag) {
    std::string dir = UniqueTempDir(tag);
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

// --export-obs traces the sweep's own measured run of each cell, so it is
// counted: on md's ten Figure-4 cells, the observation run (which also
// serves as the baseline) plus one traced run per cell, Algorithm 2's
// included, which a traced cell cannot take from Algorithm 1's run.
TEST(Figures, ExportObsCountsOneTracedRunPerCell) {
  const std::string dir = UniqueTempDir("obs-counts");
  std::filesystem::remove_all(dir);
  FigureOptions opt;
  opt.scale = workloads::Scale::kTest;
  opt.only = "md";
  opt.export_obs = dir;
  SweepSummary summary;
  testing::internal::CaptureStdout();
  int rc = RunFigure("fig04", opt, &summary);
  testing::internal::GetCapturedStdout();
  ASSERT_EQ(rc, 0);
  EXPECT_EQ(summary.cells, 10u);
  EXPECT_EQ(summary.machine_runs, 11u);
  EXPECT_EQ(summary.runs_reused, 1u);
  EXPECT_EQ(SlurpDir(dir).size(), summary.cells);
}

// An exporting sweep renders the same table as a plain one.
TEST(Figures, ExportObsRendersTheSameTable) {
  const std::string dir = UniqueTempDir("obs-same-table");
  std::filesystem::remove_all(dir);
  FigureOptions opt;
  opt.scale = workloads::Scale::kTest;
  opt.only = "md";
  auto run = [&] {
    testing::internal::CaptureStdout();
    int rc = RunFigure("fig04", opt);
    std::string out = testing::internal::GetCapturedStdout();
    EXPECT_EQ(rc, 0);
    return out;
  };
  const std::string plain_out = run();
  opt.export_obs = dir;
  EXPECT_EQ(run(), plain_out);
  EXPECT_FALSE(SlurpDir(dir).empty());
}

// An --export-obs directory that cannot be created fails the call, as an
// unwritable JSONL or CSV export does: here its parent is a regular file.
TEST(Figures, UnwritableObsExportFails) {
  const std::string file = UniqueTempDir("obs-parent-is-a-file");
  std::filesystem::remove_all(file);
  std::ofstream(file) << "not a directory\n";
  FigureOptions opt;
  opt.scale = workloads::Scale::kTest;
  opt.only = "md";
  opt.export_obs = file + "/obs";
  testing::internal::CaptureStdout();
  int rc = RunFigure("fig04", opt);
  testing::internal::GetCapturedStdout();
  EXPECT_EQ(rc, 2);
}

// The stdout of each figure run alone, and the summary of that run.
std::pair<std::string, SweepSummary> RunAlone(const std::string& name, FigureOptions opt) {
  SweepSummary summary;
  testing::internal::CaptureStdout();
  EXPECT_EQ(RunFigure(name, opt, &summary), 0) << name;
  return {testing::internal::GetCapturedStdout(), summary};
}

// One call plans every requested figure at once: fig06's Oracle cells are
// fig04's, and fig02 reads the observation run of the profile fig04's
// cells share, so the call simulates exactly what fig04 alone does. Each
// figure renders what it renders alone, in request order, with an empty
// line between two figures.
TEST(Figures, PlanSharesCellsAndProfilesAcrossFigures) {
  FigureOptions opt;
  opt.scale = workloads::Scale::kTest;
  opt.only = "md";
  opt.jobs = 3;
  const std::vector<std::string> names = {"fig04", "fig06", "fig02"};
  std::string joined;
  SweepSummary fig04;
  for (const std::string& name : names) {
    auto [out, summary] = RunAlone(name, opt);
    if (!joined.empty()) joined += "\n";
    joined += out;
    if (name == "fig04") fig04 = summary;
  }

  SweepSummary together;
  testing::internal::CaptureStdout();
  ASSERT_EQ(RunFigures(names, opt, &together), 0);
  EXPECT_EQ(testing::internal::GetCapturedStdout(), joined);
  EXPECT_EQ(together.figure, "fig04,fig06,fig02");
  EXPECT_GT(fig04.machine_runs, 0u);
  EXPECT_EQ(together.machine_runs, fig04.machine_runs);
  EXPECT_EQ(together.runs_reused, fig04.runs_reused);
  EXPECT_EQ(together.sim_events, fig04.sim_events);
  EXPECT_EQ(together.cells, 10u + 1u + 1u);  // fig04's, fig06's, fig02's read
}

// One call writes one JSONL and one CSV file holding every grid figure's
// cells in request order, each naming its own figure.
TEST(Figures, MultiFigureExportsKeepEveryFigure) {
  const std::string dir = UniqueTempDir("multi-exports");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  FigureOptions opt;
  opt.scale = workloads::Scale::kTest;
  opt.only = "md";
  opt.export_jsonl = dir + "/cells.jsonl";
  opt.export_csv = dir + "/cells.csv";
  testing::internal::CaptureStdout();
  int rc = RunFigures({"fig06", "fig13", "fig02", "fig15"}, opt);
  testing::internal::GetCapturedStdout();
  ASSERT_EQ(rc, 0);

  std::vector<std::string> figures;
  std::ifstream jsonl(opt.export_jsonl);
  for (std::string line; std::getline(jsonl, line);) {
    json::Value v;
    ASSERT_TRUE(json::Parse(line, &v)) << line;
    const json::Value* figure = Find(v, "figure");
    figures.push_back(figure != nullptr ? figure->str : "summary");
  }
  EXPECT_EQ(figures, (std::vector<std::string>{"fig06", "fig13", "fig15", "fig15", "summary"}));

  figures.clear();
  std::ifstream csv(opt.export_csv);
  std::string line;
  ASSERT_TRUE(std::getline(csv, line));
  EXPECT_EQ(line.rfind("figure,workload,scheme,", 0), 0u) << line;
  while (std::getline(csv, line)) figures.push_back(line.substr(0, line.find(',')));
  EXPECT_EQ(figures, (std::vector<std::string>{"fig06", "fig13", "fig15", "fig15"}));
}

}  // namespace
}  // namespace ndc::harness
