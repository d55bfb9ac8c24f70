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

/// All dependences of a nest, plus the arrays whose non-affine or
/// unresolvable references force us to assume unknown dependences.
struct DependenceSet {
  std::vector<Dependence> deps;
  std::vector<int> unknown_arrays;  ///< arrays with unanalyzable dependences; sorted, unique

  /// True if hoisting a read of `array` earlier by `lead` iterations (in
  /// lexicographic linearized order of the innermost loop) cannot cross a
  /// write: there is no flow dependence into `array` whose carried distance
  /// is positive but small enough to be violated. Conservative.
  bool ReadHoistIsSafe(int array, ir::Int lead_linear, ir::Int inner_trip) const;
};

/// Classic pairwise dependence analysis over affine references (uniform
/// distance via exact integer solve; GCD-style existence for the rest).
/// Indirect references put their array in `unknown_arrays`.
DependenceSet AnalyzeDependences(const ir::Program& prog, const ir::LoopNest& nest);

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
