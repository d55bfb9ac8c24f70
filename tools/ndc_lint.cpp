// ndc-lint — standalone legality/structure linter for the NDC compiler.
//
// Builds every workload (or a named one), runs the compiler pipeline in
// every mode (or a named one), and audits the annotated program with the
// independent verifier (src/verify): IR structural validation,
// access-movement legality re-derivation and parallel-loop race detection.
// The lint set is the 20 paper stand-ins. --sarif=FILE writes every finding
// of the run as one SARIF 2.1.0 log.
//
// Exit status: 0 when no error-level finding was produced (warnings and
// notes are reported but tolerated; pass --fail-on=warning to tighten),
// 1 otherwise, 2 on usage errors.
//
// Usage:
//   ndc-lint [--scale=test|small|full] [--mode=MODE|all] [--workload=NAME]
//            [--json] [--quiet] [--verbose] [--fail-on=error|warning]
//            [--max-lead=N] [--control-register=MASK] [--sarif=FILE]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "compiler/pipeline.hpp"
#include "json/json.hpp"
#include "verify/sarif.hpp"
#include "verify/verify.hpp"
#include "workloads/workloads.hpp"

namespace {

using ndc::compiler::Mode;

struct LintArgs {
  ndc::workloads::Scale scale = ndc::workloads::Scale::kTest;
  std::string workload;  ///< empty = all 20
  std::string mode = "all";
  bool json = false;
  bool quiet = false;
  bool verbose = false;
  bool fail_on_warning = false;
  std::string sarif_path;     ///< write a SARIF 2.1.0 log here (empty = off)
  ndc::ir::Int max_lead = 64;
  int control_register = ndc::arch::kAllLocs;
};

void PrintUsage(std::FILE* out) {
  std::fprintf(out,
               "usage: ndc-lint [--scale=test|small|full] [--mode=MODE|all]\n"
               "                [--workload=NAME] [--json] [--quiet] [--verbose]\n"
               "                [--fail-on=error|warning] [--max-lead=N]\n"
               "                [--control-register=MASK] [--sarif=FILE]\n"
               "modes: baseline algorithm-1 algorithm-2 coarse-grain all\n");
}

bool ParseArgs(int argc, char** argv, LintArgs* a) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      PrintUsage(stdout);
      std::exit(0);
    } else if (std::strcmp(arg, "--scale=test") == 0) {
      a->scale = ndc::workloads::Scale::kTest;
    } else if (std::strcmp(arg, "--scale=small") == 0) {
      a->scale = ndc::workloads::Scale::kSmall;
    } else if (std::strcmp(arg, "--scale=full") == 0) {
      a->scale = ndc::workloads::Scale::kFull;
    } else if (std::strncmp(arg, "--workload=", 11) == 0) {
      a->workload = arg + 11;
    } else if (std::strncmp(arg, "--mode=", 7) == 0) {
      a->mode = arg + 7;
    } else if (std::strcmp(arg, "--json") == 0) {
      a->json = true;
    } else if (std::strcmp(arg, "--quiet") == 0 || std::strcmp(arg, "-q") == 0) {
      a->quiet = true;
    } else if (std::strcmp(arg, "--verbose") == 0 || std::strcmp(arg, "-v") == 0) {
      a->verbose = true;
    } else if (std::strncmp(arg, "--sarif=", 8) == 0) {
      a->sarif_path = arg + 8;
    } else if (std::strcmp(arg, "--fail-on=warning") == 0) {
      a->fail_on_warning = true;
    } else if (std::strcmp(arg, "--fail-on=error") == 0) {
      a->fail_on_warning = false;
    } else if (std::strncmp(arg, "--max-lead=", 11) == 0) {
      a->max_lead = std::atoll(arg + 11);
    } else if (std::strncmp(arg, "--control-register=", 19) == 0) {
      a->control_register = std::atoi(arg + 19);
    } else {
      std::fprintf(stderr, "ndc-lint: unknown argument '%s'\n", arg);
      PrintUsage(stderr);
      return false;
    }
  }
  return true;
}

std::vector<Mode> SelectModes(const std::string& name) {
  const std::vector<Mode> all = {Mode::kBaseline, Mode::kAlgorithm1, Mode::kAlgorithm2,
                                 Mode::kCoarseGrain};
  if (name == "all") return all;
  // Accept the canonical name and the hyphen-less spelling ("algorithm1").
  auto dehyphen = [](const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c != '-') out.push_back(c);
    }
    return out;
  };
  for (Mode m : all) {
    std::string canon = ndc::compiler::ModeName(m);
    if (name == canon || dehyphen(name) == dehyphen(canon)) return {m};
  }
  return {};
}

}  // namespace

int main(int argc, char** argv) {
  LintArgs args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  std::vector<Mode> modes = SelectModes(args.mode);
  if (modes.empty()) {
    std::fprintf(stderr,
                 "ndc-lint: unknown mode '%s' (valid: baseline algorithm-1 "
                 "algorithm-2 coarse-grain all)\n",
                 args.mode.c_str());
    return 2;
  }

  ndc::arch::ArchConfig cfg;
  cfg.control_register = static_cast<std::uint8_t>(args.control_register);
  ndc::compiler::ArchDescription ad(cfg);

  int total_errors = 0, total_warnings = 0, total_notes = 0, runs = 0;
  ndc::json::Value json_runs = ndc::json::Value::Array();
  ndc::verify::Report sarif_report;  // accumulated across every run
  for (const std::string& name : ndc::workloads::BenchmarkNames()) {
    if (!args.workload.empty() && name != args.workload) continue;
    for (Mode mode : modes) {
      ndc::ir::Program prog = ndc::workloads::BuildWorkload(name, args.scale);
      ndc::compiler::CompileOptions opt;
      opt.mode = mode;
      opt.max_lead = args.max_lead;
      opt.control_register = static_cast<std::uint8_t>(args.control_register);
      opt.verify_after = false;  // we run the verifier ourselves below
      ndc::compiler::Compile(prog, ad, opt);

      ndc::verify::VerifyOptions vo;
      vo.max_lead = opt.max_lead;
      vo.control_register = opt.control_register;
      ndc::verify::Report rep = ndc::verify::VerifyProgram(prog, vo);

      ++runs;
      total_errors += rep.ErrorCount();
      total_warnings += rep.WarningCount();
      total_notes += rep.Count(ndc::verify::Severity::kNote);
      if (!args.sarif_path.empty()) {
        for (ndc::verify::Diagnostic d : rep.diags) {
          d.message = name + "[" + ndc::compiler::ModeName(mode) + "]: " + d.message;
          sarif_report.Add(std::move(d));
        }
      }
      if (args.json) {
        using ndc::json::Value;
        json_runs.arr.push_back(Value::Object(
            {{"workload", Value::Str(name)},
             {"mode", Value::Str(ndc::compiler::ModeName(mode))},
             {"errors", Value::Int(static_cast<std::uint64_t>(rep.ErrorCount()))},
             {"warnings", Value::Int(static_cast<std::uint64_t>(rep.WarningCount()))},
             {"diagnostics", rep.ToJson()}}));
      } else {
        if (!args.quiet || rep.ErrorCount() > 0) {
          std::printf("%-12s %-12s  %d error(s), %d warning(s), %d note(s)\n",
                      name.c_str(), ndc::compiler::ModeName(mode), rep.ErrorCount(),
                      rep.WarningCount(), rep.Count(ndc::verify::Severity::kNote));
        }
        // Errors always print; warnings/notes only with --verbose.
        for (const ndc::verify::Diagnostic& d : rep.diags) {
          if (d.severity == ndc::verify::Severity::kError || args.verbose) {
            std::printf("  %s\n", d.ToString().c_str());
          }
        }
      }
    }
  }
  if (args.json) {
    std::printf("%s\n", ndc::json::Dump(json_runs).c_str());
  } else {
    std::printf("ndc-lint: %d run(s), %d error(s), %d warning(s), %d note(s)\n", runs,
                total_errors, total_warnings, total_notes);
  }
  if (!args.sarif_path.empty()) {
    std::string sarif = ndc::verify::ToSarif(sarif_report);
    std::FILE* f = std::fopen(args.sarif_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "ndc-lint: cannot write '%s'\n", args.sarif_path.c_str());
      return 2;
    }
    std::fwrite(sarif.data(), 1, sarif.size(), f);
    std::fclose(f);
  }
  if (runs == 0) {
    std::fprintf(stderr, "ndc-lint: nothing matched workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  if (total_errors > 0) return 1;
  if (args.fail_on_warning && total_warnings > 0) return 1;
  return 0;
}
