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

/// Periodic progress/ETA lines on stderr while the plan runs.
class ProgressReporter {
 public:
  ProgressReporter(const std::string& figure, std::size_t total)
      : figure_(figure),
        total_(total),
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

  void TaskDone() { done_.fetch_add(1, std::memory_order_relaxed); }

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
    std::fprintf(stderr, "%ssweep %s: %zu/%zu tasks done | %.1fs%s%s",
                 tty_ ? "\r" : "", figure_.c_str(), done, total_, secs, eta,
                 tty_ ? "   " : "\n");
    std::fflush(stderr);
  }

  std::string figure_;
  std::size_t total_;
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
                     std::vector<json::Value>* obs_summaries, const PlanExtras& extras) {
  auto start = std::chrono::steady_clock::now();
  const std::vector<CellSpec>& cells = spec.cells;
  SweepResult out;
  out.cells.resize(cells.size());
  out.summary.figure = spec.figure;
  out.summary.jobs = opt.jobs;
  out.summary.cells = cells.size() + extras.observe_reads.size() + extras.tasks.size();
  if (obs_summaries != nullptr) obs_summaries->assign(cells.size(), json::Value());

  // The spec index of each cell's first copy; only first copies run.
  std::vector<std::size_t> first(cells.size());
  std::vector<std::size_t> distinct;
  {
    std::map<std::string, std::size_t> seen;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      auto [it, fresh] = seen.emplace(cells[i].CanonicalString(), i);
      first[i] = it->second;
      if (fresh) distinct.push_back(i);
    }
  }

  // Group the distinct cells and the observation reads by profile key, in
  // order of first appearance. Each group plans one lowering, then one
  // profile run: the observation run if some cell or read needs it (the
  // baseline is then taken from it, as the two are timing-identical), else
  // the baseline run. Its reads and cells follow, each compiled cell after
  // the group's previous compiled cell, so that a compiled program
  // annotated as one the group already ran finds that run
  // (metrics::Profile::RunCompiled) instead of racing it. The scheduler's
  // plan-order priority finishes one group's tasks before it starts
  // lowering later groups whenever it can, and each profile is dropped
  // after its last task, so only about `jobs` profiles are alive at once.
  struct Group {
    CellSpec at;                     // names the profile
    std::vector<std::size_t> cells;  // indices into spec.cells
    std::vector<std::size_t> reads;  // indices into extras.observe_reads
    bool observe = false;
    std::shared_ptr<metrics::Profile> profile;
    std::atomic<std::size_t> tasks_left{0};
    metrics::RunCounts runs;  // the profile's, taken when it is dropped
  };
  std::deque<Group> groups;  // a deque: Group is not movable
  {
    std::map<std::string, std::size_t> index;
    auto group_of = [&](const CellSpec& c) -> Group& {
      auto [it, fresh] = index.emplace(c.ProfileKey(), groups.size());
      if (fresh) groups.emplace_back().at = c;
      Group& g = groups[it->second];
      ++g.tasks_left;
      return g;
    };
    for (std::size_t i : distinct) {
      Group& g = group_of(cells[i]);
      g.cells.push_back(i);
      g.observe = g.observe || cells[i].NeedsObserve();
    }
    for (std::size_t r = 0; r < extras.observe_reads.size(); ++r) {
      Group& g = group_of(extras.observe_reads[r].cell);
      g.reads.push_back(r);
      g.observe = true;
    }
  }

  {
    std::unique_ptr<ProgressReporter> progress;
    std::size_t tasks = distinct.size() + extras.observe_reads.size() + extras.tasks.size();
    if (opt.progress && tasks > 0) {
      progress = std::make_unique<ProgressReporter>(spec.figure, tasks);
    }
    auto done = [&progress] {
      if (progress != nullptr) progress->TaskDone();
    };
    auto finish = [&done](Group& group) {
      if (group.tasks_left.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        group.runs = group.profile->run_counts();
        group.profile.reset();
      }
      done();
    };
    std::vector<PlanTask> plan;
    for (Group& group : groups) {
      std::size_t lower = plan.size();
      plan.push_back({[&group] {
                        group.profile = MakeProfile(group.at, group.observe);
                        group.profile->Traces();
                      },
                      {}});
      std::size_t profile_run = plan.size();
      plan.push_back({[&group] {
                        if (group.observe) {
                          group.profile->Observe();
                        } else {
                          group.profile->Baseline();
                        }
                      },
                      {lower}});
      for (std::size_t r : group.reads) {
        plan.push_back({[&, r] {
                          extras.observe_reads[r].read(*group.profile);
                          finish(group);
                        },
                        {profile_run}});
      }
      std::size_t last_compiled = profile_run;
      for (std::size_t i : group.cells) {
        std::vector<std::size_t> deps = {profile_run};
        if (cells[i].IsCompiled()) {
          if (last_compiled != profile_run) deps.push_back(last_compiled);
          last_compiled = plan.size();
        }
        plan.push_back({[&, i] {
                          out.cells[i] = RunCell(
                              cells[i], group.profile,
                              obs_summaries != nullptr ? &(*obs_summaries)[i] : nullptr);
                          finish(group);
                        },
                        std::move(deps)});
      }
    }
    for (const std::function<void()>& task : extras.tasks) {
      plan.push_back({[&] {
                        task();
                        done();
                      },
                      {}});
    }
    RunPlan(opt.jobs, plan);
  }
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (first[i] == i) continue;
    out.cells[i] = out.cells[first[i]];
    if (obs_summaries != nullptr) (*obs_summaries)[i] = (*obs_summaries)[first[i]];
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

bool AppendSummary(const SweepSummary& summary, const std::string& path) {
  std::ofstream f(path, std::ios::app);
  if (!f) return false;
  f << json::Dump(summary.ToJson()) << "\n";
  return static_cast<bool>(f);
}

}  // namespace ndc::harness
