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
// Run with --help for the flags.

#include <cstdio>
#include <string>
#include <vector>

#include "cli.hpp"
#include "compiler/pipeline.hpp"
#include "harness/cell.hpp"
#include "json/json.hpp"
#include "verify/sarif.hpp"
#include "workloads/workloads.hpp"

int main(int argc, char** argv) {
  using ndc::compiler::Mode;
  ndc::workloads::Scale scale = ndc::workloads::Scale::kTest;
  std::string workload;    // "" = all 20
  std::string sarif_path;  // "" = no SARIF log
  std::string mode_name = "all", fail_on = "error";
  bool as_json = false, quiet = false, verbose = false;
  ndc::ir::Int max_lead = 64;
  std::uint8_t control_register = ndc::arch::kAllLocs;
  std::vector<std::string> mode_names;
  for (const auto& [mode, name] : ndc::compiler::kModeNames) mode_names.emplace_back(name);
  mode_names.emplace_back("all");

  ndc::cli::Parser cli("ndc-lint");
  cli.Choice("scale", &scale, ndc::harness::kScaleNames, "workload input size (default test)")
      .Choice("mode", &mode_name, mode_names, "compiler mode to lint (default all)")
      .Choice("workload", &workload, ndc::workloads::BenchmarkNames(), "lint one workload only")
      .Switch("json", &as_json, "print the runs as one JSON array")
      .Switch("quiet", &quiet, "print only runs with errors", 'q')
      .Switch("verbose", &verbose, "print warnings and notes too", 'v')
      .Choice("fail-on", &fail_on, {"error", "warning"},
              "lowest severity that fails the run (default error)")
      .Unsigned("max-lead", &max_lead, "cap on access movement in iterations (default 64)")
      .Unsigned("control-register", &control_register,
                "enabled NDC locations, a bit mask (default 15: all)", 0, ndc::arch::kAllLocs)
      .String("sarif", &sarif_path, "FILE", "write every finding as a SARIF 2.1.0 log");
  cli.Parse(argc, argv);
  std::vector<Mode> modes;
  for (const auto& [mode, name] : ndc::compiler::kModeNames) {
    if (mode_name == "all" || mode_name == name) modes.push_back(mode);
  }

  ndc::arch::ArchConfig cfg;
  cfg.control_register = control_register;
  ndc::compiler::ArchDescription ad(cfg);

  int total_errors = 0, total_warnings = 0, total_notes = 0, runs = 0;
  ndc::json::Value json_runs = ndc::json::Value::Array();
  ndc::verify::Report sarif_report;  // accumulated across every run
  for (const std::string& name : ndc::workloads::BenchmarkNames()) {
    if (!workload.empty() && name != workload) continue;
    for (Mode mode : modes) {
      ndc::ir::Program prog = ndc::workloads::BuildWorkload(name, scale);
      ndc::compiler::CompileOptions opt;
      opt.mode = mode;
      opt.max_lead = max_lead;
      opt.control_register = control_register;
      ndc::verify::Report rep = ndc::compiler::Compile(prog, ad, opt).verify;

      ++runs;
      total_errors += rep.ErrorCount();
      total_warnings += rep.WarningCount();
      total_notes += rep.Count(ndc::verify::Severity::kNote);
      if (as_json) {
        using ndc::json::Value;
        json_runs.arr.push_back(Value::Object(
            {{"workload", Value::Str(name)},
             {"mode", Value::Str(ndc::compiler::ModeName(mode))},
             {"errors", Value::Int(static_cast<std::uint64_t>(rep.ErrorCount()))},
             {"warnings", Value::Int(static_cast<std::uint64_t>(rep.WarningCount()))},
             {"diagnostics", rep.ToJson()}}));
      } else {
        if (!quiet || rep.ErrorCount() > 0) {
          std::printf("%-12s %-12s  %d error(s), %d warning(s), %d note(s)\n",
                      name.c_str(), ndc::compiler::ModeName(mode), rep.ErrorCount(),
                      rep.WarningCount(), rep.Count(ndc::verify::Severity::kNote));
        }
        // Errors always print; warnings/notes only with --verbose.
        for (const ndc::verify::Diagnostic& d : rep.diags) {
          if (d.severity == ndc::verify::Severity::kError || verbose) {
            std::printf("  %s\n", d.ToString().c_str());
          }
        }
      }
      if (!sarif_path.empty()) {
        for (ndc::verify::Diagnostic& d : rep.diags) {
          d.message = name + "[" + ndc::compiler::ModeName(mode) + "]: " + d.message;
        }
        sarif_report.Merge(rep);
      }
    }
  }
  if (as_json) {
    std::printf("%s\n", ndc::json::Dump(json_runs).c_str());
  } else {
    std::printf("ndc-lint: %d run(s), %d error(s), %d warning(s), %d note(s)\n", runs,
                total_errors, total_warnings, total_notes);
  }
  if (!sarif_path.empty()) {
    std::string sarif = ndc::verify::ToSarif(sarif_report);
    std::FILE* f = std::fopen(sarif_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "ndc-lint: cannot write '%s'\n", sarif_path.c_str());
      return 2;
    }
    std::fwrite(sarif.data(), 1, sarif.size(), f);
    std::fclose(f);
  }
  if (total_errors > 0) return 1;
  if (fail_on == "warning" && total_warnings > 0) return 1;
  return 0;
}
