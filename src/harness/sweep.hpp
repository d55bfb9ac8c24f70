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
  /// Host wall-clock per phase (ms) accrued during this sweep, keyed by
  /// obs::PhaseName. Empty when NDC_OBS=OFF or nothing was simulated; the
  /// summary JSON omits the "phases" key in that case (byte-stable with
  /// pre-observability output).
  std::map<std::string, std::uint64_t> phase_ms;
  /// Simulated events retired during this sweep and the substrate's
  /// end-to-end throughput over the kSimulate wall clock. Zero when
  /// NDC_OBS=OFF or every cell was a cache hit; the summary JSON omits both
  /// keys in that case (byte-stable with pre-observability output).
  std::uint64_t sim_events = 0;
  double sim_events_per_sec = 0.0;

  json::Value ToJson() const;
};

struct SweepResult {
  std::vector<CellResult> cells;  ///< one per SweepSpec cell, same order
  SweepSummary summary;
};

SweepResult RunSweep(const SweepSpec& spec, const SweepOptions& opt);

/// One JSONL line per cell (spec fields + result + improvement), then a
/// summary line. Returns false when the file cannot be written.
bool ExportJsonl(const SweepSpec& spec, const SweepResult& result, const std::string& path);

/// Flat CSV, one row per cell.
bool ExportCsv(const SweepSpec& spec, const SweepResult& result, const std::string& path);

/// Appends the summary as one JSONL line to `path` (for CI cache-hit
/// verification across runs).
bool AppendSummary(const SweepSummary& summary, const std::string& path);

}  // namespace ndc::harness
