#include "harness/sweep.hpp"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "harness/pool.hpp"

namespace ndc::harness {

void SweepSummary::SetRunCounts(const metrics::RunCounts& runs) {
  machine_runs = runs.machine_runs;
  runs_reused = runs.runs_reused;
  sim_events = runs.sim_events;
  phase_ms.clear();
  for (std::size_t i = 0; i < runs.phase_ns.size(); ++i) {
    if (runs.phase_ns[i] > 0) phase_ms[metrics::kPhaseNames[i]] = runs.phase_ns[i] / 1000000;
  }
  std::uint64_t sim_ns = runs.phase_ns[static_cast<std::size_t>(metrics::Phase::kSimulate)];
  sim_events_per_sec =
      sim_ns > 0 ? static_cast<double>(sim_events) * 1e9 / static_cast<double>(sim_ns) : 0.0;
}

json::Value SweepSummary::ToJson() const {
  json::Value v = json::Value::Object();
  v.obj["figure"] = json::Value::Str(figure);
  v.obj["jobs"] = json::Value::Int(static_cast<std::uint64_t>(jobs));
  v.obj["cells"] = json::Value::Int(cells);
  v.obj["cache_hits"] = json::Value::Int(cache_hits);
  v.obj["sim_invocations"] = json::Value::Int(sim_invocations);
  v.obj["cache_load_errors"] = json::Value::Int(cache_load_errors);
  v.obj["machine_runs"] = json::Value::Int(machine_runs);
  v.obj["runs_reused"] = json::Value::Int(runs_reused);
  v.obj["elapsed_ms"] = json::Value::Int(elapsed_ms);
  if (!phase_ms.empty()) {
    json::Value ph = json::Value::Object();
    for (const auto& [k, ms] : phase_ms) ph.obj[k] = json::Value::Int(ms);
    v.obj["phases"] = std::move(ph);
  }
  if (sim_events > 0) {
    v.obj["sim_events"] = json::Value::Int(sim_events);
    v.obj["sim_events_per_sec"] = json::Value::Double(sim_events_per_sec);
  }
  return v;
}

namespace {

/// Periodic progress/ETA lines on stderr while cells are simulating.
class ProgressReporter {
 public:
  ProgressReporter(const std::string& figure, std::size_t to_simulate, std::size_t cached)
      : figure_(figure),
        total_(to_simulate),
        cached_(cached),
        start_(std::chrono::steady_clock::now()),
        tty_(isatty(2) != 0),
        thread_([this] { Loop(); }) {}

  ~ProgressReporter() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
    Print(true);
    if (tty_) std::fprintf(stderr, "\n");
  }

  void CellDone() { done_.fetch_add(1, std::memory_order_relaxed); }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, std::chrono::milliseconds(500), [this] { return stop_; })) {
      Print(false);
    }
  }

  void Print(bool final_line) {
    std::size_t done = done_.load(std::memory_order_relaxed);
    double secs = std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
                      .count();
    char eta[32] = "";
    if (!final_line && done > 0 && done < total_) {
      std::snprintf(eta, sizeof(eta), " | ETA %.1fs",
                    secs / static_cast<double>(done) *
                        static_cast<double>(total_ - done));
    }
    std::fprintf(stderr, "%ssweep %s: %zu/%zu cells simulated (+%zu cached) | %.1fs%s%s",
                 tty_ ? "\r" : "", figure_.c_str(), done, total_, cached_, secs, eta,
                 tty_ ? "   " : "\n");
    std::fflush(stderr);
  }

  std::string figure_;
  std::size_t total_;
  std::size_t cached_;
  std::chrono::steady_clock::time_point start_;
  bool tty_;
  std::atomic<std::size_t> done_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace

SweepResult RunSweep(const SweepSpec& spec, const SweepOptions& opt,
                     std::vector<json::Value>* obs_summaries) {
  auto start = std::chrono::steady_clock::now();
  SweepResult out;
  out.cells.resize(spec.cells.size());
  out.summary.figure = spec.figure;
  out.summary.jobs = opt.jobs;
  out.summary.cells = spec.cells.size();

  if (obs_summaries != nullptr) obs_summaries->assign(spec.cells.size(), json::Value());
  // A traced sweep bypasses the cache, so that every cell has a traced run.
  std::unique_ptr<ResultCache> cache;
  if (opt.use_cache && obs_summaries == nullptr) {
    cache = std::make_unique<ResultCache>(opt.cache_dir);
    out.summary.cache_load_errors = cache->load_errors();
  }

  std::vector<std::size_t> misses;
  for (std::size_t i = 0; i < spec.cells.size(); ++i) {
    if (cache != nullptr && cache->Lookup(spec.cells[i], &out.cells[i])) {
      ++out.summary.cache_hits;
    } else {
      misses.push_back(i);
    }
  }
  out.summary.sim_invocations = misses.size();

  // Group the misses by profile key, in order of first miss. Each group
  // plans one lowering, then one profile run: the observation run if some
  // cell reads it (the baseline is then taken from it, as the two are
  // timing-identical), else the baseline run. Its cells follow, each
  // compiled cell after the group's previous compiled cell, so that a
  // compiled program annotated as one the group already ran finds that run
  // (metrics::Profile::RunCompiled) instead of racing it. The scheduler's
  // plan-order priority finishes one group's cells before it starts
  // lowering later groups whenever it can, and each profile is dropped
  // after its last cell, so only about `jobs` profiles are alive at once.
  struct Group {
    std::vector<std::size_t> cells;  // indices into spec.cells
    bool observe = false;
    std::shared_ptr<metrics::Profile> profile;
    std::atomic<std::size_t> cells_left{0};
    metrics::RunCounts runs;  // the profile's, taken when it is dropped
  };
  std::deque<Group> groups;  // a deque: Group is not movable
  {
    std::map<std::string, std::size_t> index;
    for (std::size_t i : misses) {
      auto [it, fresh] = index.emplace(spec.cells[i].ProfileKey(), groups.size());
      if (fresh) groups.emplace_back();
      Group& g = groups[it->second];
      g.cells.push_back(i);
      g.observe = g.observe || spec.cells[i].NeedsObserve();
      ++g.cells_left;
    }
  }

  {
    std::unique_ptr<ProgressReporter> progress;
    if (opt.progress && !misses.empty()) {
      progress = std::make_unique<ProgressReporter>(spec.figure, misses.size(),
                                                    out.summary.cache_hits);
    }
    std::vector<PlanTask> plan;
    for (Group& group : groups) {
      std::size_t lower = plan.size();
      plan.push_back({[&group, &spec] {
                        group.profile =
                            MakeProfile(spec.cells[group.cells.front()], group.observe);
                        group.profile->Traces();
                      },
                      {}});
      std::size_t profile_run = plan.size();
      plan.push_back({[&group] { group.profile->Baseline(); }, {lower}});
      std::size_t last_compiled = profile_run;
      for (std::size_t i : group.cells) {
        std::vector<std::size_t> deps = {profile_run};
        if (spec.cells[i].IsCompiled()) {
          if (last_compiled != profile_run) deps.push_back(last_compiled);
          last_compiled = plan.size();
        }
        plan.push_back({[&, i] {
                          CellResult r = RunCell(
                              spec.cells[i], group.profile,
                              obs_summaries != nullptr ? &(*obs_summaries)[i] : nullptr);
                          if (cache != nullptr) cache->Insert(spec.cells[i], r);
                          out.cells[i] = std::move(r);
                          if (group.cells_left.fetch_sub(1, std::memory_order_acq_rel) == 1) {
                            group.runs = group.profile->run_counts();
                            group.profile.reset();
                          }
                          if (progress != nullptr) progress->CellDone();
                        },
                        std::move(deps)});
      }
    }
    RunPlan(opt.jobs, plan);
  }
  metrics::RunCounts runs;
  for (const Group& group : groups) runs += group.runs;
  out.summary.SetRunCounts(runs);

  out.summary.elapsed_ms = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  return out;
}

namespace {

json::Value CellLine(const SweepSpec& spec, std::size_t i, const CellResult& r) {
  const CellSpec& c = spec.cells[i];
  json::Value v = json::Value::Object();
  v.obj["figure"] = json::Value::Str(spec.figure);
  v.obj["workload"] = json::Value::Str(c.workload);
  v.obj["scheme"] = json::Value::Str(c.SchemeLabel());
  v.obj["scale"] = json::Value::Str(ScaleName(c.scale));
  if (!c.variant.empty()) v.obj["variant"] = json::Value::Str(c.variant);
  v.obj["seed"] = json::Value::Int(c.seed);
  v.obj["key"] = json::Value::Str(c.Key());
  v.obj["from_cache"] = json::Value::Bool(r.from_cache);
  v.obj["improvement_pct"] = json::Value::Double(r.ImprovementPct());
  v.obj["result"] = r.ToJson();
  return v;
}

}  // namespace

bool ExportJsonl(const SweepSpec& spec, const SweepResult& result, const std::string& path) {
  std::ofstream f(path);
  if (!f) return false;
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    f << json::Dump(CellLine(spec, i, result.cells[i])) << "\n";
  }
  json::Value s = json::Value::Object();
  s.obj["summary"] = result.summary.ToJson();
  f << json::Dump(s) << "\n";
  return static_cast<bool>(f);
}

bool ExportCsv(const SweepSpec& spec, const SweepResult& result, const std::string& path) {
  std::ofstream f(path);
  if (!f) return false;
  f << "figure,workload,scheme,scale,variant,seed,key,from_cache,"
       "makespan,baseline_makespan,improvement_pct,l1_miss_rate,l2_miss_rate,"
       "candidates,offloads,ndc_success,fallbacks,"
       "ndc_network,ndc_cache,ndc_mc,ndc_memory,chains,planned,transforms\n";
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    const CellSpec& c = spec.cells[i];
    const CellResult& r = result.cells[i];
    char num[64];
    f << spec.figure << ',' << c.workload << ',' << c.SchemeLabel() << ','
      << ScaleName(c.scale) << ',' << c.variant << ',' << c.seed << ',' << c.Key() << ','
      << (r.from_cache ? 1 : 0) << ',' << r.makespan << ',' << r.baseline_makespan << ',';
    std::snprintf(num, sizeof(num), "%.6f,%.6f,%.6f", r.ImprovementPct(), r.L1MissRate(),
                  r.L2MissRate());
    f << num << ',' << r.candidates << ',' << r.offloads << ',' << r.ndc_success << ','
      << r.fallbacks;
    for (std::uint64_t x : r.ndc_at_loc) f << ',' << x;
    f << ',' << r.chains << ',' << r.planned << ',' << r.transforms << "\n";
  }
  return static_cast<bool>(f);
}

bool AppendSummary(const SweepSummary& summary, const std::string& path) {
  std::ofstream f(path, std::ios::app);
  if (!f) return false;
  f << json::Dump(summary.ToJson()) << "\n";
  return static_cast<bool>(f);
}

}  // namespace ndc::harness
