#pragma once

// The figure registry: every paper figure/table grid the bench binaries
// regenerate, expressed as a declarative SweepSpec builder plus a stdout
// renderer. RunFigure() is the single entry point shared by the bench
// binaries and the ndc-sweep tool — it sweeps the grid (parallel, cached)
// and renders a table bit-compatible with the pre-harness binaries at
// default settings.
//
// Two figure flavors:
//  - grid figures (fig04, fig06, fig13..fig17, abl, diag_congestion,
//    smoke): a (workload x scheme x config) grid of scalar cells; cached.
//  - record figures (fig02, fig03, fig05, tab02): need full observation
//    records or access replay, too large for the scalar cache; they still
//    fan out per workload on the same scheduler (ParallelFor).

#include <string>
#include <vector>

#include "harness/sweep.hpp"

namespace ndc::harness {

struct FigureOptions {
  workloads::Scale scale = workloads::Scale::kSmall;
  std::string only;   ///< run a single benchmark when non-empty (--bench)
  int jobs = 1;
  bool use_cache = true;
  std::string cache_dir = ".ndc-cache";
  bool progress = false;
  std::uint64_t seed = 1;
  std::string export_jsonl;  ///< per-cell JSONL path ("" = off)
  std::string export_csv;    ///< per-cell CSV path ("" = off)
  /// Directory for per-cell observability summaries ("" = off). Grid cells
  /// are re-simulated with tracing attached (never cached) and one JSON file
  /// per cell is written: <figure>_<idx>_<workload>_<scheme>.json.
  std::string export_obs;
  /// Phase-window width for bottleneck classification (0 = off). When set,
  /// grid cells are re-simulated with the sampler attached — outside the
  /// result cache, same contract as export_obs — and one classification
  /// JSONL line per cell (label + derived signal vector) goes to stderr;
  /// stdout tables stay byte-identical to unclassified runs. With
  /// export_obs also set, the per-cell summary files carry the full
  /// "classification" object (one re-simulation serves both).
  std::uint64_t classify_window = 0;
  /// Fault schedule stamped onto every grid cell (default: empty =
  /// fault-free; record figures always run fault-free). Faulted cells carry
  /// the schedule in their cache key, so they never collide with — or
  /// invalidate — fault-free entries.
  fault::FaultSchedule faults;
  /// Simulation-thread count stamped onto every grid cell (default 1 =
  /// sequential engine, cache keys unchanged). >= 2 enables
  /// conservative-window sharding on eligible cells; sharded cells carry the
  /// thread count in their cache key so they never collide with sequential
  /// entries. Record figures always run sequentially.
  int sim_threads = 1;
};

struct FigureInfo {
  std::string name;
  std::string title;
  bool grid = true;  ///< false: record figure (uncached, no cell export)
};

/// All registered figures, in paper order.
const std::vector<FigureInfo>& Figures();

bool HasFigure(const std::string& name);

/// Regenerates one figure end-to-end: sweep + render to stdout. Returns 0
/// on success (2 for an unknown figure name) and fills `summary` when
/// non-null. Exporters run when the corresponding FigureOptions paths are
/// set (grid figures only).
int RunFigure(const std::string& name, const FigureOptions& opt,
              SweepSummary* summary = nullptr);

// Record figures (implemented in figures_records.cpp).
SweepSummary RunFig02(const FigureOptions& opt);
SweepSummary RunFig03(const FigureOptions& opt);
SweepSummary RunFig05(const FigureOptions& opt);
SweepSummary RunTab02(const FigureOptions& opt);

}  // namespace ndc::harness
