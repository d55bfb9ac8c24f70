#pragma once

#include <vector>

#include "arch/config.hpp"
#include "arch/trace.hpp"
#include "ir/program.hpp"

namespace ndc::compiler {

/// Result of lowering a program to per-core instruction traces.
struct CodegenResult {
  std::vector<arch::Trace> traces;   ///< one per core
  std::uint64_t total_instrs = 0;
  std::uint64_t precomputes = 0;
};

/// Which core executes iteration `iter` of `nest`: the outermost loop is
/// block-distributed over `num_cores` cores (the parallelization step of
/// Figure 7 runs before the NDC algorithms and is preserved by them).
int CoreForIteration(const ir::LoopNest& nest, const ir::IntVec& iter, int num_cores);

/// Lowers a (possibly NDC-annotated) program to per-core traces:
///  - each core's iterations execute in original (lexicographic) order;
///  - NDC-annotated statements emit their operand loads shifted by the
///    planned iteration leads (the access movements of Figures 8-9) and a
///    `pre-compute` instruction placed right after the second access;
///  - all other statements lower to load/compute/store with explicit
///    dependence indices; computations with two memory operands are marked
///    as NDC candidates (for the hardware-policy studies of Section 4).
/// Lowering allocates only per (core, nest) — iteration lists, dependence
/// tables and each trace reserved once from a counted bound — never per
/// iteration or per emitted instruction; the CME gate above builds one
/// predictor per nest and allocates nothing per prediction.
CodegenResult Lower(const ir::Program& prog, int num_cores,
                    const arch::ArchConfig* cfg = nullptr);

}  // namespace ndc::compiler
