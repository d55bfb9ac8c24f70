#pragma once

#include <cstdint>
#include <set>
#include <vector>

#include "analysis/reuse.hpp"
#include "ir/program.hpp"
#include "mem/cache.hpp"

namespace ndc::analysis {

/// Cache geometry seen by the estimator.
struct CacheSpec {
  std::uint64_t size_bytes = 32 * 1024;
  std::uint64_t line_bytes = 64;
  std::uint64_t ways = 2;

  std::uint64_t Lines() const { return size_bytes / line_bytes; }
  std::uint64_t Sets() const { return Lines() / ways; }

  static CacheSpec From(const mem::CacheParams& p) {
    return {p.size_bytes, p.line_bytes, p.ways};
  }
};

/// Which operand of a statement an estimate refers to.
enum class OperandSel : int { kRhs0 = 0, kRhs1 = 1, kLhs = 2 };

const ir::Operand& SelectOperand(const ir::Stmt& stmt, OperandSel sel);

/// Compile-time cache hit/miss estimator in the spirit of Cache Miss
/// Equations [Ghosh et al., TOPLAS'99] (Section 5.2): reuse vectors from
/// compiler reuse analysis, cold misses from iteration-space boundaries,
/// capacity misses from reuse-distance vs cache size, and conflict misses
/// from linear-Diophantine interference between references mapping to the
/// same cache sets. Imperfect by design at compile time — coherence misses
/// and cross-thread interleavings are not modeled (the paper reports the
/// same limitation) — and handles non-affine (indirect) references
/// pessimistically.
///
/// Predictions reuse one scratch iteration vector and the miss
/// probabilities one sample set, taken on first use, so a predictor serves
/// one thread at a time (every caller builds its own per nest).
class CmePredictor {
 public:
  /// `warm_arrays`: arrays already streamed by earlier nests of the same
  /// program — their lines may still be cached, so boundary ("cold-face")
  /// accesses are predicted warm when the per-core footprint fits.
  CmePredictor(const ir::Program& prog, const ir::LoopNest& nest, CacheSpec l1, CacheSpec l2,
               int num_cores, std::set<int> warm_arrays = {});

  /// Per-dynamic-access prediction: will this operand access miss L1 at
  /// iteration `iter`?
  bool PredictMissL1(int stmt_idx, OperandSel sel, const ir::IntVec& iter) const;

  /// Per-dynamic-access L2 prediction, *conditional on an L1 miss*.
  bool PredictMissL2(int stmt_idx, OperandSel sel, const ir::IntVec& iter) const;

  /// Expected miss ratios for a reference (sampled over the iteration
  /// space) — the gating inputs of Algorithm 1.
  double MissProbL1(int stmt_idx, OperandSel sel) const;
  double MissProbL2(int stmt_idx, OperandSel sel) const;

 private:
  struct RefState {
    bool memory = false;
    bool indirect = false;
    ReuseInfo reuse_l1;
    bool fits_l1 = false;
    bool fits_l2 = false;
    int array = -1;
    ir::OperandAddr addr;  ///< the reference's address rules
    double lines_per_core = 0.0;  ///< per-core footprint of this reference
    /// Another load earlier in program order touches the same cache line at
    /// the same iteration (e.g. x(2g) and x(2g+1)): always an L1 hit.
    bool same_line_partner = false;
  };

  const RefState& StateFor(int stmt_idx, OperandSel sel) const;
  bool PredictMissLevel(int stmt_idx, OperandSel sel, const ir::IntVec& iter,
                        bool level2) const;
  double SampleMissProb(int stmt_idx, OperandSel sel, bool level2) const;

  std::uint64_t ReuseSpanIters(const ir::IntVec& delta) const;
  double ConflictPressure(const ir::Operand& op, std::uint64_t span,
                          const CacheSpec& spec) const;

  const ir::Program* prog_;
  const ir::LoopNest* nest_;
  CacheSpec l1_, l2_;
  int num_cores_;
  std::set<int> warm_arrays_;
  std::vector<ir::Int> avg_trips_;  // average trip count per loop level
  double footprint_lines_per_iter_ = 0.0;
  std::vector<std::array<RefState, 3>> states_;  // per stmt x {rhs0, rhs1, lhs}
  /// PredictMissLevel's reuse-source iteration, reused so that a
  /// prediction allocates nothing.
  mutable ir::IntVec prev_;
  /// The miss-probability sample iterations, taken on first use.
  mutable std::vector<ir::IntVec> samples_;
};

}  // namespace ndc::analysis
