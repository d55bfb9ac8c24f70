// ndc-sweep — regenerate any paper figure's experiment grid by name.
//
// Fans the figure's (workload x scheme x config) grid across worker
// threads that share one baseline profile per configuration, consults the
// persistent on-disk result cache (.ndc-cache/), and renders the figure's
// stdout table. This is the one way to run a figure.
// A warm re-run of an already-measured grid performs zero simulator
// invocations; --require-all-hits turns that into an enforced exit status
// for CI cache verification.
//
// Exit status: 0 on success, 2 on usage errors, an unknown figure, a --bench
// that names no benchmark, or an --export-jsonl/--export-csv/--summary file
// that cannot be written, 3 when --require-all-hits is set and any cell had
// to be simulated.
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
  bool list = false, no_cache = false, require_all_hits = false;
  std::string summary_path;
  ndc::cli::Parser cli("ndc-sweep");
  cli.Strings("figure", &figures, "NAME", "figure to run (repeatable); 'all' runs every one")
      .Switch("list", &list, "list the figures and exit")
      .Choice("scale", &opt.scale, ndc::harness::kScaleNames,
              "workload input size (default small)")
      .String("bench", &opt.only, "NAME", "run one benchmark only")
      .Unsigned("jobs", &opt.jobs, "worker threads (default 1)", 1)
      .Switch("no-cache", &no_cache, "simulate every cell; read and write no cache")
      .String("cache-dir", &opt.cache_dir, "DIR", "result cache directory (default .ndc-cache)")
      .Switch("progress", &opt.progress, "report progress on stderr")
      .String("export-jsonl", &opt.export_jsonl, "FILE", "write every cell as JSONL")
      .String("export-csv", &opt.export_csv, "FILE", "write every cell as CSV")
      .String("export-obs", &opt.export_obs, "DIR", "write a traced summary per cell")
      .String("summary", &summary_path, "FILE", "append each figure's summary JSON line")
      .Switch("require-all-hits", &require_all_hits,
              "exit 3 unless every cell came from the cache");
  cli.Parse(argc, argv);
  opt.use_cache = !no_cache;

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

  std::uint64_t total_sims = 0;
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i > 0) std::printf("\n");
    ndc::harness::SweepSummary summary;
    int rc = ndc::harness::RunFigure(names[i], opt, &summary);
    if (rc != 0) return rc;
    total_sims += summary.sim_invocations;
    std::fprintf(stderr, "%s\n", ndc::json::Dump(summary.ToJson()).c_str());
    if (!summary_path.empty() && !ndc::harness::AppendSummary(summary, summary_path)) {
      std::fprintf(stderr, "ndc-sweep: cannot append to %s\n", summary_path.c_str());
      return 2;
    }
  }
  if (require_all_hits && total_sims > 0) {
    std::fprintf(stderr,
                 "ndc-sweep: --require-all-hits failed: %llu cells were simulated "
                 "(expected a fully warm cache)\n",
                 static_cast<unsigned long long>(total_sims));
    return 3;
  }
  return 0;
}
