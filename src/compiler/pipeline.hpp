#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>

#include "compiler/arch_desc.hpp"
#include "ir/program.hpp"
#include "verify/diagnostics.hpp"

namespace ndc::compiler {

/// Which NDC pass to run after parallelization/locality (Figure 7).
enum class Mode {
  kBaseline,    ///< no NDC annotations (original program)
  kAlgorithm1,  ///< computation restructuring (Section 5.2)
  kAlgorithm2,  ///< reuse-aware restructuring (Section 5.3)
  kCoarseGrain, ///< whole-nest mapping ablation (Section 5.4, last paragraph)
};

/// The name of each mode: ModeName prints it, ndc-lint parses it.
inline constexpr std::pair<Mode, const char*> kModeNames[] = {
    {Mode::kBaseline, "baseline"},
    {Mode::kAlgorithm1, "algorithm-1"},
    {Mode::kAlgorithm2, "algorithm-2"},
    {Mode::kCoarseGrain, "coarse-grain"},
};

inline const char* ModeName(Mode m) {
  for (const auto& [mode, name] : kModeNames) {
    if (mode == m) return name;
  }
  return "?";
}

struct CompileOptions {
  Mode mode = Mode::kAlgorithm1;
  bool allow_reroute = true; ///< NoC signature co-selection (Section 5.2.1)
  std::uint8_t control_register = arch::kAllLocs;  ///< target NDC locations
  ir::Int max_lead = 64;     ///< cap on access movement (iterations)
};

/// What the compiler did (for reports, tests, and Figure 15).
struct CompileReport {
  std::uint64_t chains = 0;            ///< use-use chains examined
  std::uint64_t planned = 0;           ///< chains annotated for NDC
  std::uint64_t reuse_skips = 0;       ///< chains skipped by Algorithm 2's gate
  std::uint64_t legality_failures = 0; ///< movements rejected by dependences
  std::uint64_t gating_failures = 0;   ///< rejected by CME / feasibility
  std::array<std::uint64_t, arch::kNumLocs> planned_at_loc{};
  /// Findings of the independent verifier (src/verify), which every
  /// Compile runs over the annotated program with the options' limits: a
  /// pipeline bug that emits an unsafe access movement is a correctness
  /// error everywhere, not just in tests.
  verify::Report verify;
};

/// Runs the selected NDC pass over the program in place (annotating
/// statements), mirroring
/// Algorithm 1 / Algorithm 2 of the paper.
CompileReport Compile(ir::Program& prog, const ArchDescription& ad, const CompileOptions& opt);

}  // namespace ndc::compiler
