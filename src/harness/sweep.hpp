#pragma once

// The sweep engine: runs a declarative SweepSpec (a list of fully resolved
// cells) as one plan on `jobs` workers. Cells with equal CanonicalString()
// are one cell and run once. The distinct cells share one metrics::Profile
// (program, baseline traces, profile runs and compiled runs) per
// CellSpec::ProfileKey(). The engine plans, per key, a lowering, one
// profile run (the observation run if some cell or observation read needs
// it, which also serves as the baseline, else the baseline run), then the
// key's observation reads and cells (harness::RunPlan), and drops each
// profile after its last task. Results come back in spec order, and each
// equals a standalone RunCell — so a parallel sweep is cell-for-cell
// identical to a serial one.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "harness/cell.hpp"

namespace ndc::harness {

struct SweepSpec {
  std::string figure;  ///< the figures this sweep regenerates, joined by ','
  std::vector<CellSpec> cells;
};

struct SweepOptions {
  int jobs = 1;          ///< worker threads (1 = run inline)
  /// Read by nothing. perfbench sets it, so it stays until the benchmark
  /// next changes, and then goes.
  bool use_cache = true;
  bool progress = false;  ///< live progress/ETA lines on stderr
};

struct SweepSummary {
  std::string figure;
  int jobs = 1;
  /// The spec's cells (a duplicate counted each time) plus the plan's
  /// observation reads and tasks (PlanExtras).
  std::uint64_t cells = 0;
  /// Machine runs the plan simulated: profile runs plus measured runs.
  std::uint64_t machine_runs = 0;
  /// Runs taken from an earlier identical run instead of simulated: a
  /// baseline taken from the observation run, and a compiled program that
  /// its profile already ran (metrics::Profile::RunCompiled).
  std::uint64_t runs_reused = 0;
  std::uint64_t elapsed_ms = 0;
  /// Host wall clock (ms) of each phase that ran in the profiles the plan
  /// built, keyed by metrics::kPhaseNames. Empty when nothing was built,
  /// compiled or simulated; the summary JSON then omits the "phases" key.
  std::map<std::string, std::uint64_t> phase_ms;
  /// Simulated events the profiles' machine runs retired, and the
  /// substrate's end-to-end throughput over their simulate wall clock. Zero
  /// when nothing was simulated; the summary JSON then omits both keys.
  std::uint64_t sim_events = 0;
  double sim_events_per_sec = 0.0;

  /// Sets machine_runs, runs_reused, phase_ms, sim_events and
  /// sim_events_per_sec from `runs`, the summed counts of every profile
  /// the plan built.
  void SetRunCounts(const metrics::RunCounts& runs);

  json::Value ToJson() const;
};

struct SweepResult {
  std::vector<CellResult> cells;  ///< one per SweepSpec cell, same order
  SweepSummary summary;
};

/// Work a plan runs beside its cells: the record figures' per-benchmark
/// reductions (RunFigures).
struct PlanExtras {
  /// Reads the profile of `cell` (its ProfileKey()), whose observation run
  /// has been made by the time `read` runs: the read joins that key's
  /// group, and the group then makes the observation run.
  struct ObserveRead {
    CellSpec cell;
    std::function<void(metrics::Profile&)> read;
  };
  std::vector<ObserveRead> observe_reads;
  /// Tasks that read no profile.
  std::vector<std::function<void()>> tasks;
};

/// Runs the spec's cells and `extras` as one plan. With `obs_summaries`
/// non-null, every distinct cell's measured run is traced over its group's
/// shared profile and the cell's CellObsSummary is stored at its spec
/// index (and at each duplicate's).
SweepResult RunSweep(const SweepSpec& spec, const SweepOptions& opt,
                     std::vector<json::Value>* obs_summaries = nullptr,
                     const PlanExtras& extras = {});

/// Appends the summary as one JSONL line to `path`.
bool AppendSummary(const SweepSummary& summary, const std::string& path);

}  // namespace ndc::harness
