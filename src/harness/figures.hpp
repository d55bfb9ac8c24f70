#pragma once

// The figure registry: every paper figure/table grid, expressed as a
// declarative SweepSpec builder plus a stdout renderer. RunFigure() is the
// single entry point, behind `ndc-sweep --figure=NAME` — it sweeps the
// grid (parallel, cached) and renders a table bit-compatible with the
// pre-harness figure binaries at default settings.
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
  /// Directory for per-cell observability summaries ("" = off). Each grid
  /// cell's measured run is traced on the sweep's shared profile, and one
  /// JSON file per cell is written: <figure>_<idx>_<workload>_<scheme>.json.
  /// An exporting sweep neither reads nor writes the result cache.
  std::string export_obs;
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
/// on success and fills `summary` when non-null. Returns 2, before any cell
/// runs, for an unknown figure name or an `only` that names no benchmark,
/// and 2, after rendering, when a JSONL or CSV export cannot be written.
/// Exporters run when the corresponding FigureOptions paths are set (grid
/// figures only).
int RunFigure(const std::string& name, const FigureOptions& opt,
              SweepSummary* summary = nullptr);

/// The benchmarks a figure runs: all of them, or just `opt.only`.
std::vector<std::string> FilteredWorkloads(const FigureOptions& opt);
/// Prints a figure's title line with its scale.
void PrintHeader(const char* what, const FigureOptions& opt);

// Record figures (implemented in figures_records.cpp).
SweepSummary RunFig02(const FigureOptions& opt);
SweepSummary RunFig03(const FigureOptions& opt);
SweepSummary RunFig05(const FigureOptions& opt);
SweepSummary RunTab02(const FigureOptions& opt);

}  // namespace ndc::harness
