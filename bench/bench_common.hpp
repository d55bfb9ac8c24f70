#pragma once

// Shared helpers for the figure-regeneration bench binaries.
//
// Every binary goes through benchutil::Parse, which is strict: an unknown
// or misspelled argument (e.g. --scale=ful) prints a usage message and
// exits non-zero instead of being silently ignored.

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "harness/figures.hpp"
#include "metrics/experiment.hpp"

namespace ndc::benchutil {

struct ParseSpec {
  bool positional_name = false;  ///< accept one leading positional workload name
  bool allow_all = false;        ///< accept the --all flag (export_records)
};

struct Args {
  workloads::Scale scale = workloads::Scale::kSmall;
  std::string only;        ///< run a single benchmark when non-empty
  int jobs = 1;            ///< sweep worker threads (--jobs=N)
  bool use_cache = true;   ///< --no-cache disables the on-disk result cache
  std::string cache_dir = ".ndc-cache";
  bool progress = false;   ///< --progress: live progress/ETA lines on stderr
  std::string export_jsonl;
  std::string export_csv;
  std::string export_obs;  ///< per-cell obs-summary directory ("" = off)
  std::string positional;  ///< leading positional name (ParseSpec::positional_name)
  bool all = false;        ///< --all (ParseSpec::allow_all)
};

[[noreturn]] inline void UsageAndExit(const char* prog, const ParseSpec& spec) {
  std::fprintf(stderr,
               "usage: %s%s%s [--scale=test|small|full] [--bench=NAME] [--jobs=N]\n"
               "         [--no-cache] [--cache-dir=DIR] [--progress]\n"
               "         [--export-jsonl=FILE] [--export-csv=FILE] [--export-obs=DIR]\n",
               prog, spec.positional_name ? " [WORKLOAD]" : "",
               spec.allow_all ? " [--all]" : "");
  std::exit(2);
}

inline Args Parse(int argc, char** argv, workloads::Scale default_scale,
                  const ParseSpec& spec = {}) {
  Args a;
  a.scale = default_scale;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (spec.positional_name && i == 1 && arg[0] != '-') {
      a.positional = arg;
    } else if (std::strcmp(arg, "--scale=test") == 0) {
      a.scale = workloads::Scale::kTest;
    } else if (std::strcmp(arg, "--scale=small") == 0) {
      a.scale = workloads::Scale::kSmall;
    } else if (std::strcmp(arg, "--scale=full") == 0) {
      a.scale = workloads::Scale::kFull;
    } else if (std::strncmp(arg, "--scale=", 8) == 0) {
      std::fprintf(stderr, "%s: unknown scale '%s' (expected test|small|full)\n",
                   argv[0], arg + 8);
      UsageAndExit(argv[0], spec);
    } else if (std::strncmp(arg, "--bench=", 8) == 0) {
      a.only = arg + 8;
    } else if (std::strncmp(arg, "--jobs=", 7) == 0) {
      char* end = nullptr;
      long n = std::strtol(arg + 7, &end, 10);
      if (end == nullptr || *end != '\0' || n < 1 || n > INT_MAX) {
        std::fprintf(stderr, "%s: --jobs expects a positive integer, got '%s'\n",
                     argv[0], arg + 7);
        UsageAndExit(argv[0], spec);
      }
      a.jobs = static_cast<int>(n);
    } else if (std::strcmp(arg, "--no-cache") == 0) {
      a.use_cache = false;
    } else if (std::strncmp(arg, "--cache-dir=", 12) == 0) {
      a.cache_dir = arg + 12;
    } else if (std::strcmp(arg, "--progress") == 0) {
      a.progress = true;
    } else if (std::strncmp(arg, "--export-jsonl=", 15) == 0) {
      a.export_jsonl = arg + 15;
    } else if (std::strncmp(arg, "--export-csv=", 13) == 0) {
      a.export_csv = arg + 13;
    } else if (std::strncmp(arg, "--export-obs=", 13) == 0) {
      a.export_obs = arg + 13;
    } else if (spec.allow_all && std::strcmp(arg, "--all") == 0) {
      a.all = true;
    } else {
      std::fprintf(stderr, "%s: unknown argument '%s'\n", argv[0], arg);
      UsageAndExit(argv[0], spec);
    }
  }
  return a;
}

inline harness::FigureOptions ToFigureOptions(const Args& a) {
  harness::FigureOptions opt;
  opt.scale = a.scale;
  opt.only = a.only;
  opt.jobs = a.jobs;
  opt.use_cache = a.use_cache;
  opt.cache_dir = a.cache_dir;
  opt.progress = a.progress;
  opt.export_jsonl = a.export_jsonl;
  opt.export_csv = a.export_csv;
  opt.export_obs = a.export_obs;
  return opt;
}

/// Runs one registered harness figure with the parsed options — the whole
/// main() of a ported figure binary.
inline int RunFigureMain(const char* figure, int argc, char** argv,
                         workloads::Scale default_scale) {
  Args args = Parse(argc, argv, default_scale);
  return harness::RunFigure(figure, ToFigureOptions(args));
}

inline const char* ScaleName(workloads::Scale s) { return harness::ScaleName(s); }

template <typename Fn>
void ForEachBenchmark(const Args& a, Fn&& fn) {
  for (const std::string& name : workloads::BenchmarkNames()) {
    if (!a.only.empty() && name != a.only) continue;
    fn(name);
  }
}

inline void PrintHeader(const char* what, const Args& a) {
  std::printf("# %s  (scale=%s, Table-1 configuration)\n", what, ScaleName(a.scale));
}

}  // namespace ndc::benchutil
