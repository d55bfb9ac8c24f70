#pragma once

#include <vector>

#include "ir/program.hpp"

namespace ndc::analysis {

/// One data dependence between two statement references of a loop nest.
/// `distance` is the iteration-vector difference (sink iteration minus
/// source iteration); it is lexicographically non-negative when known.
struct Dependence {
  int from_stmt = 0;  ///< body index of the source statement
  int to_stmt = 0;    ///< body index of the sink statement
  int array = -1;
  bool distance_known = false;
  ir::IntVec distance;  ///< valid iff distance_known
  bool is_flow = false;  ///< write -> read (true) vs anti/output
};

/// Which operand slot of a statement a reference came from.
enum class RefSlot : int { kLhs = 0, kRhs0 = 1, kRhs1 = 2 };

/// One reference pair the analysis could not resolve: either an indirect
/// reference is involved (never refutable statically) or the affine pair
/// escaped both the uniform solve and the GCD-independence test. Recorded so
/// RefinedUnknownArrays can retry the pair with a stronger test
/// (array-section disjointness) and discharge the unknown.
struct UnknownRefPair {
  int from_stmt = 0;
  int to_stmt = 0;
  int array = -1;
  RefSlot from_slot = RefSlot::kLhs;
  RefSlot to_slot = RefSlot::kLhs;
  bool indirect = false;  ///< involves an indirect reference
};

/// All dependences of a nest, plus a conservative flag when non-affine or
/// shape-mismatched references force us to assume unknown dependences.
struct DependenceSet {
  std::vector<Dependence> deps;
  bool has_unknown = false;          ///< any unknown dependence (blocks transforms)
  std::vector<int> unknown_arrays;   ///< arrays with unanalyzable dependences
  std::vector<UnknownRefPair> unknown_pairs;  ///< the pairs behind unknown_arrays

  /// The dependence matrix D (Section 5.2.1): columns are the known,
  /// lexicographically positive distance vectors.
  ir::IntMat DependenceMatrix(int depth) const;

  /// True if hoisting a read of `array` earlier by `lead` iterations (in
  /// lexicographic linearized order of the innermost loop) cannot cross a
  /// write: there is no flow dependence into `array` whose carried distance
  /// is positive but small enough to be violated. Conservative.
  bool ReadHoistIsSafe(int array, ir::Int lead_linear, ir::Int inner_trip) const;
};

/// Classic pairwise dependence analysis over affine references (uniform
/// distance via exact integer solve; GCD-style existence for the rest).
/// Indirect references produce `has_unknown`.
DependenceSet AnalyzeDependences(const ir::Program& prog, const ir::LoopNest& nest);

/// Array-section disjointness for two affine references to the *same*
/// array: true when the element sets they touch over the whole iteration
/// space of `nest` provably never intersect. Two tests, either suffices:
///  - interval: the linearized footprints [min,max] do not overlap;
///  - stride residue: both footprints are contained in arithmetic
///    progressions of a common modulus g with different residues.
/// Conservative: false means "may overlap".
bool SectionsDisjoint(const ir::Program& prog, const ir::LoopNest& nest,
                      const ir::AffineAccess& a, const ir::AffineAccess& b);

/// The arrays of `deps.unknown_pairs` that stay unanalyzable after each
/// affine pair is retried with SectionsDisjoint (a DawnCC-style
/// pointer-range check). An array leaves the set only when every pair that
/// put it there is refuted; indirect pairs are never refuted. Sorted,
/// unique.
std::vector<int> RefinedUnknownArrays(const ir::Program& prog, const ir::LoopNest& nest,
                                      const DependenceSet& deps);

/// Smallest lexicographically-positive integer kernel vector of F among the
/// unit vectors and pairwise differences (used for self-temporal reuse).
/// Returns false if none found.
bool SmallestKernelVector(const ir::IntMat& F, int depth, ir::IntVec* out);

/// Average trip count per loop level (exact for rectangular loops, midpoint
/// approximation for triangular bounds).
std::vector<ir::Int> AvgTrips(const ir::LoopNest& nest);

/// Solves F * delta = rhs for the iteration-distance delta, requiring
/// |delta_k| < trips[k] (the only solutions realizable inside the iteration
/// space). Handles two shapes exactly:
///  - square F with full rank: unique integer solve;
///  - flattened 1-row F (row-major linearized subscripts): bounded
///    delinearization (unique when the coefficient/trip structure nests).
/// Returns false when no bounded solution exists or it is ambiguous.
bool SolveUniformDistance(const ir::IntMat& F, const std::vector<ir::Int>& trips,
                          const ir::IntVec& rhs, ir::IntVec* delta);

}  // namespace ndc::analysis
