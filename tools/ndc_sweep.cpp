// ndc-sweep — regenerate any paper figure's experiment grid by name.
//
// Fans the figure's (workload x scheme x config) grid across worker
// threads that share one baseline profile per configuration, consults the
// persistent on-disk result cache (.ndc-cache/), and renders the same
// stdout table the corresponding bench binary prints.
// A warm re-run of an already-measured grid performs zero simulator
// invocations; --require-all-hits turns that into an enforced exit status
// for CI cache verification.
//
// Exit status: 0 on success, 2 on usage errors or unknown figure,
// 3 when --require-all-hits is set and any cell had to be simulated.
//
// --faults=FILE (or an inline JSON object) runs every grid cell under that
// fault schedule; --fault-intensity=X,Y,... additionally repeats each figure
// once per intensity with the schedule's magnitudes scaled by that factor —
// the raw material of a degradation curve. Faulted runs never share cache
// entries with fault-free ones.
//
// --classify re-simulates every grid cell with the phase-window sampler
// attached (outside the result cache — cache keys are untouched) and emits
// one bottleneck-classification JSONL line per cell to stderr: label plus
// the derived signal vector. Combined with --export-obs the per-cell
// summary files carry the full classification object (raw + derived
// signals, thresholds, per-window series). stdout tables stay byte-identical
// to unclassified runs. --classify-window overrides the window width.
//
// Usage:
// --sim-threads=N (N >= 2) runs every grid cell's simulations under the
// conservative-window sharded engine with N worker threads (eligible
// baseline runs shard; policy/sync/fault/observed runs degrade to the
// sequential engine). Results are deterministic for any N >= 2 but are a
// different same-cycle tie-break schedule than the default N=1 sequential
// engine, so sharded cells get distinct cache keys.
//
// Usage:
//   ndc-sweep --figure=NAME|all [--scale=test|small|full] [--bench=NAME]
//             [--jobs=N] [--sim-threads=N] [--no-cache] [--cache-dir=DIR]
//             [--progress]
//             [--export-jsonl=FILE] [--export-csv=FILE] [--export-obs=DIR]
//             [--classify] [--classify-window=CYCLES]
//             [--summary=FILE] [--require-all-hits]
//             [--faults=FILE|JSON] [--fault-intensity=X[,Y,...]]
//   ndc-sweep --list

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "fault/schedule.hpp"
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
  bool have_faults = false;  ///< --faults parsed into opt.faults
  std::vector<double> intensities;  ///< --fault-intensity factors (may be empty)
};

[[noreturn]] void UsageAndExit() {
  std::fprintf(stderr,
               "usage: ndc-sweep --figure=NAME|all [--scale=test|small|full]\n"
               "         [--bench=NAME] [--jobs=N] [--sim-threads=N] [--no-cache]\n"
               "         [--cache-dir=DIR]\n"
               "         [--progress] [--export-jsonl=FILE] [--export-csv=FILE]\n"
               "         [--export-obs=DIR] [--classify] [--classify-window=CYCLES]\n"
               "         [--summary=FILE] [--require-all-hits]\n"
               "         [--faults=FILE|JSON] [--fault-intensity=X[,Y,...]]\n"
               "       ndc-sweep --list\n");
  std::exit(2);
}

std::vector<double> ParseIntensityList(const char* list) {
  std::vector<double> out;
  const char* p = list;
  while (*p != '\0') {
    char* end = nullptr;
    double v = std::strtod(p, &end);
    if (end == p || v < 0.0) {
      std::fprintf(stderr,
                   "ndc-sweep: --fault-intensity expects comma-separated "
                   "non-negative factors, got '%s'\n",
                   list);
      UsageAndExit();
    }
    out.push_back(v);
    p = end;
    if (*p == ',') ++p;
    else if (*p != '\0') {
      std::fprintf(stderr, "ndc-sweep: trailing characters in --fault-intensity '%s'\n",
                   list);
      UsageAndExit();
    }
  }
  if (out.empty()) {
    std::fprintf(stderr, "ndc-sweep: --fault-intensity list is empty\n");
    UsageAndExit();
  }
  return out;
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
      if (end == nullptr || *end != '\0' || n < 1) {
        std::fprintf(stderr, "ndc-sweep: --jobs expects a positive integer, got '%s'\n",
                     arg + 7);
        UsageAndExit();
      }
      a.opt.jobs = static_cast<int>(n);
    } else if (std::strncmp(arg, "--sim-threads=", 14) == 0) {
      char* end = nullptr;
      long n = std::strtol(arg + 14, &end, 10);
      if (end == nullptr || *end != '\0' || n < 1) {
        std::fprintf(stderr,
                     "ndc-sweep: --sim-threads expects a positive integer, got '%s'\n",
                     arg + 14);
        UsageAndExit();
      }
      a.opt.sim_threads = static_cast<int>(n);
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
    } else if (std::strcmp(arg, "--classify") == 0) {
      if (a.opt.classify_window == 0) {
        a.opt.classify_window = ndc::harness::kDefaultClassifyWindow;
      }
    } else if (std::strncmp(arg, "--classify-window=", 18) == 0) {
      char* end = nullptr;
      unsigned long long n = std::strtoull(arg + 18, &end, 10);
      if (end == nullptr || *end != '\0' || n == 0) {
        std::fprintf(stderr,
                     "ndc-sweep: --classify-window expects a positive cycle count, got '%s'\n",
                     arg + 18);
        UsageAndExit();
      }
      a.opt.classify_window = static_cast<std::uint64_t>(n);
    } else if (std::strncmp(arg, "--summary=", 10) == 0) {
      a.summary_path = arg + 10;
    } else if (std::strcmp(arg, "--require-all-hits") == 0) {
      a.require_all_hits = true;
    } else if (std::strncmp(arg, "--faults=", 9) == 0) {
      std::string err;
      if (!ndc::fault::LoadSchedule(arg + 9, &a.opt.faults, &err)) {
        std::fprintf(stderr, "ndc-sweep: --faults: %s\n", err.c_str());
        std::exit(2);
      }
      a.have_faults = true;
    } else if (std::strncmp(arg, "--fault-intensity=", 18) == 0) {
      a.intensities = ParseIntensityList(arg + 18);
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
  if (!args.intensities.empty() && !args.have_faults) {
    std::fprintf(stderr, "ndc-sweep: --fault-intensity requires --faults\n");
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
  auto run_one = [&](const std::string& name, const FigureOptions& opt) -> int {
    SweepSummary summary;
    int rc = ndc::harness::RunFigure(name, opt, &summary);
    if (rc != 0) return rc;
    total_sims += summary.sim_invocations;
    std::fprintf(stderr, "%s\n", ndc::harness::json::Dump(summary.ToJson()).c_str());
    if (!args.summary_path.empty() &&
        !ndc::harness::AppendSummary(summary, args.summary_path)) {
      std::fprintf(stderr, "ndc-sweep: cannot append to %s\n", args.summary_path.c_str());
      return 2;
    }
    return 0;
  };

  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i > 0) std::printf("\n");
    if (args.intensities.empty()) {
      int rc = run_one(names[i], args.opt);
      if (rc != 0) return rc;
    } else {
      for (std::size_t k = 0; k < args.intensities.size(); ++k) {
        if (k > 0) std::printf("\n");
        FigureOptions opt = args.opt;
        opt.faults = args.opt.faults.Scaled(args.intensities[k]);
        std::printf("## fault-intensity=%g (fault seed %llu)\n", args.intensities[k],
                    static_cast<unsigned long long>(opt.faults.seed));
        int rc = run_one(names[i], opt);
        if (rc != 0) return rc;
      }
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
