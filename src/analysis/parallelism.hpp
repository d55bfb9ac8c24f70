#pragma once

#include <string>
#include <vector>

#include "analysis/dependence.hpp"
#include "ir/program.hpp"

namespace ndc::analysis {

/// Parallelism classification of one loop level (the lattice of
/// DESIGN.md §11, least conservative first):
///   kDoall ⊏ kDoacross ⊏ kUnknown
/// kDoall may still carry *proof obligations* (LevelClass::privatization /
/// reduction_stmts): the level is parallel provided the runtime privatizes
/// those arrays or combines those reductions.
enum class LevelKind { kDoall, kDoacross, kUnknown };

const char* LevelKindName(LevelKind k);

/// One recognized reduction: statement `stmt` accumulates into `array`
/// through commutative `op` (its lhs and one rhs are the identical affine
/// reference, and no other statement touches the array).
struct Reduction {
  int stmt = 0;        ///< body index of the accumulating statement
  int array = -1;
  arch::Op op = arch::Op::kAdd;
};

/// Classification of one loop level.
struct LevelClass {
  LevelKind kind = LevelKind::kUnknown;
  /// kDoacross: the minimum distance carried at this level over all
  /// undischarged dependences (the synchronization pipeline depth a
  /// DOACROSS execution would need).
  ir::Int min_distance = 0;
  /// kDoacross: a carried dependence achieving min_distance — the concrete
  /// witness printed by the P4xx verify pass. Valid iff witness_valid.
  bool witness_valid = false;
  Dependence witness;
  /// Arrays whose carried dependences at this level are discharged only by
  /// privatization (each shard needs a private copy).
  std::vector<int> privatization;
  /// Body indices of reduction statements whose self-dependence is carried
  /// at this level (each shard needs a private accumulator + a combine).
  std::vector<int> reduction_stmts;

  /// Proven parallel with no obligations: sharding this level across cores
  /// is race-free as-is (no privatization, no reduction combine needed).
  bool Proven() const {
    return kind == LevelKind::kDoall && privatization.empty() && reduction_stmts.empty();
  }
};

/// Whole-nest classification: per-level verdicts plus the evidence the
/// proof engine used (recognized reductions, privatizable arrays, unknowns
/// that survived disjointness refinement).
struct Classification {
  std::vector<LevelClass> levels;       ///< one per loop level
  std::vector<int> privatizable;        ///< arrays with covered reads (see §11)
  std::vector<Reduction> reductions;
  std::vector<int> unknown_arrays;      ///< unanalyzable after refinement (sorted, unique)
  int refuted_pairs = 0;                ///< unknown ref pairs refuted by disjointness
  bool has_unknown = false;             ///< any array still unanalyzable

  const LevelClass& level(int l) const { return levels[static_cast<std::size_t>(l)]; }

  /// One line per level (lint table / debugging).
  std::string ToString() const;
};

/// Classifies every level of `nest`:
///  1. runs exact dependence analysis (analysis/dependence.hpp);
///  2. refines unknown pairs with the array-section disjointness test —
///     a DawnCC-style pointer-range check over linearized affine footprints
///     (interval overlap, then stride-residue);
///  3. recognizes reduction statements and privatizable arrays;
///  4. classifies each level L: kDoall when no undischarged dependence has
///     its first nonzero distance component at L, kDoacross (with minimum
///     carried distance and a witness) otherwise, kUnknown when an
///     unanalyzable reference pair survives refinement.
Classification ClassifyNest(const ir::Program& prog, const ir::LoopNest& nest);

/// Array-section disjointness for two affine references to the *same*
/// array: true when the element sets they touch over the whole iteration
/// space of `nest` provably never intersect. Two tests, either suffices:
///  - interval: the linearized footprints [min,max] do not overlap;
///  - stride residue: both footprints are contained in arithmetic
///    progressions of a common modulus g with different residues.
/// Conservative: false means "may overlap".
bool SectionsDisjoint(const ir::Program& prog, const ir::LoopNest& nest,
                      const ir::AffineAccess& a, const ir::AffineAccess& b);

}  // namespace ndc::analysis
