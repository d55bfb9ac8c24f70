#pragma once

// The figure registry: every paper figure/table, planned into one shared
// sweep plan and rendered to stdout bit-compatible with the pre-harness
// figure binaries at default settings. RunFigures() is the entry point
// behind `ndc-sweep`: it plans every requested figure as one RunSweep, so a
// cell or profile that several figures read is run once, then renders
// each figure in request order.
//
// Two figure flavors:
//  - grid figures (fig04, fig06, fig13..fig17, abl, diag_congestion,
//    smoke): a (workload x scheme x config) grid of scalar cells, built as
//    a SweepSpec whose cells join the plan.
//  - record figures (fig02, fig03, fig05, tab02): per-benchmark reductions
//    that join the plan as tasks. fig02, fig03 and fig05 read the
//    observation run of the benchmark's Table-1 profile, the one fig04's
//    cells share; tab02 replays accesses and simulates nothing.

#include <functional>
#include <string>
#include <vector>

#include "harness/sweep.hpp"

namespace ndc::harness {

struct FigureOptions {
  workloads::Scale scale = workloads::Scale::kSmall;
  std::string only;   ///< run a single benchmark when non-empty (--bench)
  int jobs = 1;
  /// Read by nothing. perfbench sets it, so it stays until the benchmark
  /// next changes, and then goes.
  bool use_cache = true;
  bool progress = false;
  std::uint64_t seed = 1;
  /// Per-cell JSONL path ("" = off): the grid figures' cells in request
  /// order, each line naming its figure, then the summary line.
  std::string export_jsonl;
  std::string export_csv;    ///< per-cell CSV path, same rows ("" = off)
  /// Directory for per-cell observability summaries ("" = off). Each grid
  /// cell's measured run is traced on the plan's shared profile, and one
  /// JSON file per cell is written: <figure>_<idx>_<workload>_<scheme>.json.
  std::string export_obs;
};

struct FigureInfo {
  std::string name;
  std::string title;
  bool grid = true;  ///< false: record figure (no cell export)
};

/// All registered figures, in paper order.
const std::vector<FigureInfo>& Figures();

bool HasFigure(const std::string& name);

/// Regenerates the named figures end-to-end as one plan, then renders each
/// to stdout in request order, with an empty line between two figures.
/// Returns 0 on success and fills `summary` (its figure is the names joined
/// by ',') when non-null. Returns 2, before any cell runs, for an unknown
/// figure name or an `only` that names no benchmark, and 2, after
/// rendering, when a JSONL, CSV or obs export cannot be written. Exporters
/// run when the corresponding FigureOptions paths are set (grid figures
/// only).
int RunFigures(const std::vector<std::string>& names, const FigureOptions& opt,
               SweepSummary* summary = nullptr);

/// RunFigures for one figure.
int RunFigure(const std::string& name, const FigureOptions& opt,
              SweepSummary* summary = nullptr);

/// The benchmarks a figure runs: all of them, or just `opt.only`.
std::vector<std::string> FilteredWorkloads(const FigureOptions& opt);
/// Prints a figure's title line with its scale.
void PrintHeader(const char* what, const FigureOptions& opt);

/// A record figure in a plan: its reductions, which fill the figure's
/// state, and a renderer that prints that state once the plan has run.
struct RecordFigure {
  PlanExtras work;
  std::function<void()> render;
};

// Record figures (implemented in figures_records.cpp).
RecordFigure PlanFig02(const FigureOptions& opt);
RecordFigure PlanFig03(const FigureOptions& opt);
RecordFigure PlanFig05(const FigureOptions& opt);
RecordFigure PlanTab02(const FigureOptions& opt);

}  // namespace ndc::harness
