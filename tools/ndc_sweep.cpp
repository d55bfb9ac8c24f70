// ndc-sweep — regenerate any paper figure's experiment grid by name.
//
// Plans every requested figure as one sweep: the union of the figures'
// cells runs once per distinct cell, on worker threads that share one
// profile per configuration, and the record figures read the same
// profiles' observation runs. Then it renders each figure's stdout table
// in request order. This is the one way to run a figure.
//
// Exit status: 0 on success, 2 on usage errors, an unknown figure, a --bench
// that names no benchmark, or an --export-jsonl/--export-csv/--export-obs/
// --summary target that cannot be written.
//
// Run with --help for the flags.

#include <cstdio>
#include <string>
#include <vector>

#include "cli.hpp"
#include "harness/cell.hpp"
#include "harness/figures.hpp"

int main(int argc, char** argv) {
  using ndc::harness::FigureInfo;
  std::vector<std::string> figures;
  ndc::harness::FigureOptions opt;
  bool list = false;
  std::string summary_path;
  ndc::cli::Parser cli("ndc-sweep");
  cli.Strings("figure", &figures, "NAME", "figure to run (repeatable); 'all' runs every one")
      .Switch("list", &list, "list the figures and exit")
      .Choice("scale", &opt.scale, ndc::harness::kScaleNames,
              "workload input size (default small)")
      .String("bench", &opt.only, "NAME", "run one benchmark only")
      .Unsigned("jobs", &opt.jobs, "worker threads (default 1)", 1)
      .Switch("progress", &opt.progress, "report progress on stderr")
      .String("export-jsonl", &opt.export_jsonl, "FILE", "write every cell as JSONL")
      .String("export-csv", &opt.export_csv, "FILE", "write every cell as CSV")
      .String("export-obs", &opt.export_obs, "DIR", "write a traced summary per cell")
      .String("summary", &summary_path, "FILE", "append the call's summary JSON line");
  cli.Parse(argc, argv);

  if (list) {
    std::printf("%-16s %-6s %s\n", "figure", "kind", "title");
    for (const FigureInfo& f : ndc::harness::Figures()) {
      std::printf("%-16s %-6s %s\n", f.name.c_str(), f.grid ? "grid" : "record",
                  f.title.c_str());
    }
    return 0;
  }
  if (figures.empty()) cli.Fail("no --figure given");

  // Expand --figure=all into the registry, in paper order.
  std::vector<std::string> names;
  for (const std::string& f : figures) {
    if (f == "all") {
      for (const FigureInfo& info : ndc::harness::Figures()) names.push_back(info.name);
    } else if (!ndc::harness::HasFigure(f)) {
      std::fprintf(stderr, "ndc-sweep: unknown figure '%s' (see --list)\n", f.c_str());
      return 2;
    } else {
      names.push_back(f);
    }
  }

  ndc::harness::SweepSummary summary;
  // RunFigure is RunFigures' one-figure case.
  int rc = names.size() == 1 ? ndc::harness::RunFigure(names.front(), opt, &summary)
                             : ndc::harness::RunFigures(names, opt, &summary);
  if (rc != 0) return rc;
  std::fprintf(stderr, "%s\n", ndc::json::Dump(summary.ToJson()).c_str());
  if (!summary_path.empty() && !ndc::harness::AppendSummary(summary, summary_path)) {
    std::fprintf(stderr, "ndc-sweep: cannot append to %s\n", summary_path.c_str());
    return 2;
  }
  return 0;
}
