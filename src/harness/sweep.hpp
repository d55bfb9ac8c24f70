#pragma once

// The sweep engine: consults the persistent result cache for each cell of a
// declarative SweepSpec (a list of fully resolved cells), then simulates the
// misses on `jobs` workers, sharing one metrics::Profile (program, baseline
// traces, profile runs and compiled runs) among the misses with the same
// CellSpec::ProfileKey(). It plans, per key, a lowering, one profile run
// (the observation run if some cell needs it, which also serves as the
// baseline, else the baseline run), then the cells (harness::RunPlan), and
// drops each profile after its last cell. Results come back in spec order,
// and each equals a standalone RunCell — so a parallel sweep is
// cell-for-cell identical to a serial one.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness/cache.hpp"
#include "harness/cell.hpp"

namespace ndc::harness {

struct SweepSpec {
  std::string figure;  ///< name of the figure/grid this sweep regenerates
  std::vector<CellSpec> cells;
};

struct SweepOptions {
  int jobs = 1;                         ///< worker threads (1 = run inline)
  bool use_cache = true;
  std::string cache_dir = ".ndc-cache";
  bool progress = false;                ///< live progress/ETA lines on stderr
};

struct SweepSummary {
  std::string figure;
  int jobs = 1;
  std::uint64_t cells = 0;
  std::uint64_t cache_hits = 0;
  /// Cells actually simulated this run (== cells - cache_hits). A warm
  /// re-run of an already-measured grid reports 0 here.
  std::uint64_t sim_invocations = 0;
  std::uint64_t cache_load_errors = 0;
  /// Machine runs simulated for the cells this sweep simulated: profile
  /// runs plus measured runs.
  std::uint64_t machine_runs = 0;
  /// Runs taken from an earlier identical run instead of simulated: a
  /// baseline taken from the observation run, and a compiled program that
  /// its profile already ran (metrics::Profile::RunCompiled).
  std::uint64_t runs_reused = 0;
  std::uint64_t elapsed_ms = 0;
  /// Host wall clock (ms) of each phase that ran in the profiles this sweep
  /// built, keyed by metrics::kPhaseNames. Empty when nothing was built,
  /// compiled or simulated; the summary JSON then omits the "phases" key.
  std::map<std::string, std::uint64_t> phase_ms;
  /// Simulated events the profiles' machine runs retired, and the
  /// substrate's end-to-end throughput over their simulate wall clock. Zero
  /// when every cell was a cache hit; the summary JSON then omits both keys.
  std::uint64_t sim_events = 0;
  double sim_events_per_sec = 0.0;

  /// Sets machine_runs, runs_reused, phase_ms, sim_events and
  /// sim_events_per_sec from `runs`, the summed counts of every profile
  /// this run built.
  void SetRunCounts(const metrics::RunCounts& runs);

  json::Value ToJson() const;
};

struct SweepResult {
  std::vector<CellResult> cells;  ///< one per SweepSpec cell, same order
  SweepSummary summary;
};

/// With `obs_summaries` non-null, every cell's measured run is traced over
/// its group's shared profile and the cell's CellObsSummary is stored at
/// its spec index; such a sweep neither reads nor writes the result cache,
/// so every cell is simulated.
SweepResult RunSweep(const SweepSpec& spec, const SweepOptions& opt,
                     std::vector<json::Value>* obs_summaries = nullptr);

/// One JSONL line per cell (spec fields + result + improvement), then a
/// summary line. Returns false when the file cannot be written.
bool ExportJsonl(const SweepSpec& spec, const SweepResult& result, const std::string& path);

/// Flat CSV, one row per cell.
bool ExportCsv(const SweepSpec& spec, const SweepResult& result, const std::string& path);

/// Appends the summary as one JSONL line to `path` (for CI cache-hit
/// verification across runs).
bool AppendSummary(const SweepSummary& summary, const std::string& path);

}  // namespace ndc::harness
