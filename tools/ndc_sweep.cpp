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
// Usage:
//   ndc-sweep --figure=NAME|all [--scale=test|small|full] [--bench=NAME]
//             [--jobs=N] [--no-cache] [--cache-dir=DIR]
//             [--progress]
//             [--export-jsonl=FILE] [--export-csv=FILE] [--export-obs=DIR]
//             [--summary=FILE] [--require-all-hits]
//   ndc-sweep --list

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "harness/cell.hpp"
#include "harness/figures.hpp"

namespace {

using ndc::harness::FigureInfo;
using ndc::harness::FigureOptions;
using ndc::harness::SweepSummary;

struct SweepArgs {
  std::vector<std::string> figures;
  FigureOptions opt;
  bool list = false;
  bool require_all_hits = false;
  std::string summary_path;  ///< append per-figure summary JSONL lines here
};

[[noreturn]] void UsageAndExit() {
  std::fprintf(stderr,
               "usage: ndc-sweep --figure=NAME|all [--scale=test|small|full]\n"
               "         [--bench=NAME] [--jobs=N] [--no-cache] [--cache-dir=DIR]\n"
               "         [--progress] [--export-jsonl=FILE] [--export-csv=FILE]\n"
               "         [--export-obs=DIR] [--summary=FILE] [--require-all-hits]\n"
               "       ndc-sweep --list\n");
  std::exit(2);
}

SweepArgs Parse(int argc, char** argv) {
  SweepArgs a;
  a.opt.scale = ndc::workloads::Scale::kSmall;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--figure=", 9) == 0) {
      a.figures.push_back(arg + 9);
    } else if (std::strcmp(arg, "--list") == 0) {
      a.list = true;
    } else if (std::strcmp(arg, "--scale=test") == 0) {
      a.opt.scale = ndc::workloads::Scale::kTest;
    } else if (std::strcmp(arg, "--scale=small") == 0) {
      a.opt.scale = ndc::workloads::Scale::kSmall;
    } else if (std::strcmp(arg, "--scale=full") == 0) {
      a.opt.scale = ndc::workloads::Scale::kFull;
    } else if (std::strncmp(arg, "--scale=", 8) == 0) {
      std::fprintf(stderr, "ndc-sweep: unknown scale '%s' (expected test|small|full)\n",
                   arg + 8);
      UsageAndExit();
    } else if (std::strncmp(arg, "--bench=", 8) == 0) {
      a.opt.only = arg + 8;
    } else if (std::strncmp(arg, "--jobs=", 7) == 0) {
      char* end = nullptr;
      long n = std::strtol(arg + 7, &end, 10);
      if (end == nullptr || *end != '\0' || n < 1 || n > INT_MAX) {
        std::fprintf(stderr, "ndc-sweep: --jobs expects a positive integer, got '%s'\n",
                     arg + 7);
        UsageAndExit();
      }
      a.opt.jobs = static_cast<int>(n);
    } else if (std::strcmp(arg, "--no-cache") == 0) {
      a.opt.use_cache = false;
    } else if (std::strncmp(arg, "--cache-dir=", 12) == 0) {
      a.opt.cache_dir = arg + 12;
    } else if (std::strcmp(arg, "--progress") == 0) {
      a.opt.progress = true;
    } else if (std::strncmp(arg, "--export-jsonl=", 15) == 0) {
      a.opt.export_jsonl = arg + 15;
    } else if (std::strncmp(arg, "--export-csv=", 13) == 0) {
      a.opt.export_csv = arg + 13;
    } else if (std::strncmp(arg, "--export-obs=", 13) == 0) {
      a.opt.export_obs = arg + 13;
    } else if (std::strncmp(arg, "--summary=", 10) == 0) {
      a.summary_path = arg + 10;
    } else if (std::strcmp(arg, "--require-all-hits") == 0) {
      a.require_all_hits = true;
    } else {
      std::fprintf(stderr, "ndc-sweep: unknown argument '%s'\n", arg);
      UsageAndExit();
    }
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  SweepArgs args = Parse(argc, argv);

  if (args.list) {
    std::printf("%-16s %-6s %s\n", "figure", "kind", "title");
    for (const FigureInfo& f : ndc::harness::Figures()) {
      std::printf("%-16s %-6s %s\n", f.name.c_str(), f.grid ? "grid" : "record",
                  f.title.c_str());
    }
    return 0;
  }
  if (args.figures.empty()) {
    std::fprintf(stderr, "ndc-sweep: no --figure given\n");
    UsageAndExit();
  }

  // Expand --figure=all into the registry, in paper order.
  std::vector<std::string> names;
  for (const std::string& f : args.figures) {
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
    SweepSummary summary;
    int rc = ndc::harness::RunFigure(names[i], args.opt, &summary);
    if (rc != 0) return rc;
    total_sims += summary.sim_invocations;
    std::fprintf(stderr, "%s\n", ndc::json::Dump(summary.ToJson()).c_str());
    if (!args.summary_path.empty() &&
        !ndc::harness::AppendSummary(summary, args.summary_path)) {
      std::fprintf(stderr, "ndc-sweep: cannot append to %s\n", args.summary_path.c_str());
      return 2;
    }
  }
  if (args.require_all_hits && total_sims > 0) {
    std::fprintf(stderr,
                 "ndc-sweep: --require-all-hits failed: %llu cells were simulated "
                 "(expected a fully warm cache)\n",
                 static_cast<unsigned long long>(total_sims));
    return 3;
  }
  return 0;
}
