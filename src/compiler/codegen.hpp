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

/// The outermost-loop values [begin, end) that one core executes.
struct OuterBlock {
  ir::Int begin = 0;
  ir::Int end = 0;
};

/// Core `core`'s block of `nest`'s outermost iterations: the outermost loop
/// is block-distributed over `num_cores` cores in chunks of
/// ceil(span / num_cores), so the last non-empty block may be shorter (the
/// parallelization step of Figure 7 runs before the NDC algorithms and is
/// preserved by them). A depth-0 nest's one iteration goes to core 0.
OuterBlock CoreBlock(const ir::LoopNest& nest, int core, int num_cores);

/// Which core executes iteration `iter` of `nest`: the core whose
/// CoreBlock holds iter[0].
int CoreForIteration(const ir::LoopNest& nest, const ir::IntVec& iter, int num_cores);

/// Lowers a (possibly NDC-annotated) program to per-core traces:
///  - each core's iterations execute in original (lexicographic) order;
///  - NDC-annotated statements emit their operand loads shifted by the
///    planned iteration leads (the access movements of Figures 8-9) and a
///    `pre-compute` instruction placed right after the second access;
///  - all other statements lower to load/compute/store with explicit
///    dependence indices; computations with two memory operands are marked
///    as NDC candidates (for the hardware-policy studies of Section 4).
/// It first plans every nest (each operand's address rules with its arrays
/// and index values looked up, whether any statement has a lead, the CME
/// gate, the iterations per core), then writes each core's trace from start
/// to finish by walking that core's CoreBlock of each nest. A nest with no
/// lead emits in place, one iteration at a time; a nest with a lead
/// counting-sorts its emissions by slot over the core's block.
/// Allocation, never per iteration or emitted instruction: per nest, its
/// statement plans and per-core counts, plus a CME predictor where a
/// statement is annotated (it allocates nothing per prediction); per core,
/// its trace, reserved once from the counted bound; and for nests with a
/// lead, the block's iteration list, emission lists and dependence tables,
/// reused across cores and nests and grown only when a block needs more.
CodegenResult Lower(const ir::Program& prog, int num_cores,
                    const arch::ArchConfig* cfg = nullptr);

}  // namespace ndc::compiler
