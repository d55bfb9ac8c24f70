#include "analysis/dependence.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace ndc::analysis {
namespace {

struct Ref {
  int stmt = 0;
  const ir::Operand* op = nullptr;
  bool is_write = false;
};

std::vector<Ref> CollectRefs(const ir::LoopNest& nest) {
  std::vector<Ref> refs;
  for (int s = 0; s < static_cast<int>(nest.body.size()); ++s) {
    const ir::Stmt& st = nest.body[static_cast<std::size_t>(s)];
    if (st.lhs.IsMemory()) refs.push_back({s, &st.lhs, true});
    if (st.rhs0.IsMemory()) refs.push_back({s, &st.rhs0, false});
    if (st.rhs1.IsMemory()) refs.push_back({s, &st.rhs1, false});
  }
  return refs;
}

int RefArray(const Ref& r) {
  return r.op->kind == ir::Operand::Kind::kIndirect ? r.op->target_array
                                                    : r.op->access.array;
}

// GCD existence test per subscript dimension: does F1*I1 + f1 == F2*I2 + f2
// admit any integer solution? (Necessary condition only.)
bool GcdMayDepend(const ir::AffineAccess& a, const ir::AffineAccess& b) {
  for (int d = 0; d < a.F.rows(); ++d) {
    ir::Int g = 0;
    for (int c = 0; c < a.F.cols(); ++c) g = std::gcd(g, std::abs(a.F.at(d, c)));
    for (int c = 0; c < b.F.cols(); ++c) g = std::gcd(g, std::abs(b.F.at(d, c)));
    ir::Int diff = std::abs(a.f[static_cast<std::size_t>(d)] - b.f[static_cast<std::size_t>(d)]);
    if (g == 0) {
      if (diff != 0) return false;
    } else if (diff % g != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace

bool SmallestKernelVector(const ir::IntMat& F, int depth, ir::IntVec* out) {
  // Try unit vectors from innermost outwards (smallest lex-positive first),
  // then differences e_i - e_j.
  for (int k = depth - 1; k >= 0; --k) {
    ir::IntVec e(static_cast<std::size_t>(depth), 0);
    e[static_cast<std::size_t>(k)] = 1;
    if (ir::IsZero(F.Apply(e))) {
      *out = e;
      return true;
    }
  }
  for (int i = 0; i < depth; ++i) {
    for (int j = 0; j < depth; ++j) {
      if (i == j) continue;
      for (ir::Int sign : {-1, 1}) {
        ir::IntVec e(static_cast<std::size_t>(depth), 0);
        e[static_cast<std::size_t>(i)] = 1;
        e[static_cast<std::size_t>(j)] = sign;
        if (!ir::LexPositive(e)) continue;
        if (ir::IsZero(F.Apply(e))) {
          *out = e;
          return true;
        }
      }
    }
  }
  return false;
}

std::vector<ir::Int> AvgTrips(const ir::LoopNest& nest) {
  std::vector<ir::Int> trips;
  trips.reserve(static_cast<std::size_t>(nest.depth()));
  for (int d = 0; d < nest.depth(); ++d) {
    const ir::Loop& l = nest.loops[static_cast<std::size_t>(d)];
    ir::Int lo = l.lo, hi = l.hi;
    if (l.hi_dep >= 0) {
      const ir::Loop& outer = nest.loops[static_cast<std::size_t>(l.hi_dep)];
      hi += l.hi_coef * ((outer.lo + outer.hi) / 2);
    }
    if (l.lo_dep >= 0) {
      const ir::Loop& outer = nest.loops[static_cast<std::size_t>(l.lo_dep)];
      lo += l.lo_coef * ((outer.lo + outer.hi) / 2);
    }
    trips.push_back(std::max<ir::Int>(1, hi - lo + 1));
  }
  return trips;
}

namespace {

// Recursive bounded search for a 1-row linearized subscript: find all delta
// with sum(c_k * delta_k) == d and |delta_k| < trips[k], visiting levels in
// decreasing |coefficient| order. Stops early once two solutions are found.
void DelinearizeRec(const std::vector<std::pair<ir::Int, int>>& order,
                    const std::vector<ir::Int>& trips, std::size_t level, ir::Int d,
                    ir::IntVec& cur, std::vector<ir::IntVec>& found) {
  if (found.size() >= 2) return;
  if (level == order.size()) {
    if (d == 0) found.push_back(cur);
    return;
  }
  auto [c, k] = order[level];
  ir::Int trip = trips[static_cast<std::size_t>(k)];
  if (c == 0) {
    // Coefficient zero: the loop does not affect the subscript; the only
    // canonical distance choice is 0 (other values give families).
    cur[static_cast<std::size_t>(k)] = 0;
    DelinearizeRec(order, trips, level + 1, d, cur, found);
    return;
  }
  ir::Int q = d / c;
  for (ir::Int cand = q - 1; cand <= q + 1; ++cand) {
    if (std::llabs(cand) >= trip) continue;
    cur[static_cast<std::size_t>(k)] = cand;
    DelinearizeRec(order, trips, level + 1, d - c * cand, cur, found);
  }
  cur[static_cast<std::size_t>(k)] = 0;
}

}  // namespace

bool SolveUniformDistance(const ir::IntMat& F, const std::vector<ir::Int>& trips,
                          const ir::IntVec& rhs, ir::IntVec* delta) {
  int depth = F.cols();
  if (F.rows() == depth && F.Rank() == depth) {
    return F.SolveInteger(rhs, delta);
  }
  if (F.rows() == 1) {
    std::vector<std::pair<ir::Int, int>> order;
    for (int k = 0; k < depth; ++k) order.push_back({F.at(0, k), k});
    std::sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
      return std::llabs(a.first) > std::llabs(b.first);
    });
    ir::IntVec cur(static_cast<std::size_t>(depth), 0);
    std::vector<ir::IntVec> found;
    DelinearizeRec(order, trips, 0, rhs[0], cur, found);
    if (found.size() != 1) return false;
    *delta = found[0];
    return true;
  }
  return false;
}

DependenceSet AnalyzeDependences(const ir::Program& prog, const ir::LoopNest& nest) {
  (void)prog;
  DependenceSet out;
  int depth = nest.depth();
  std::vector<Ref> refs = CollectRefs(nest);
  auto note_unknown = [&out](const Ref& src) { out.unknown_arrays.push_back(RefArray(src)); };
  for (std::size_t i = 0; i < refs.size(); ++i) {
    for (std::size_t j = 0; j < refs.size(); ++j) {
      const Ref& src = refs[i];
      const Ref& dst = refs[j];
      if (!src.is_write && !dst.is_write) continue;  // read-read is not a dependence
      if (RefArray(src) != RefArray(dst)) continue;
      if (i == j) {
        // A single write reference conflicts with itself only through a
        // nontrivial kernel (same element written at two iterations).
        if (src.op->kind == ir::Operand::Kind::kAffine) {
          ir::IntVec k;
          if (SmallestKernelVector(src.op->access.F, depth, &k)) {
            out.deps.push_back({src.stmt, dst.stmt, RefArray(src), true, k, false});
          }
        } else if (src.op->kind == ir::Operand::Kind::kIndirect) {
          note_unknown(src);
        }
        continue;
      }
      // Indirect references: conservative unknown dependence.
      if (src.op->kind == ir::Operand::Kind::kIndirect ||
          dst.op->kind == ir::Operand::Kind::kIndirect) {
        note_unknown(src);
        continue;
      }
      const ir::AffineAccess& fa = src.op->access;
      const ir::AffineAccess& fb = dst.op->access;
      if (fa.F == fb.F) {
        // Uniform dependence: access_a(I) == access_b(I + d); solve
        // F * d = f_a - f_b for the bounded iteration distance.
        ir::IntVec rhs = ir::VecSub(fa.f, fb.f);
        ir::IntVec d;
        if (!SolveUniformDistance(fa.F, AvgTrips(nest), rhs, &d)) {
          // No bounded solution: independent only if the subscripts can
          // never coincide. For a square full-rank F the solver already ran
          // the exact integer solve, so failure proves independence. For a
          // rank-deficient / flattened F the failure may mean "ambiguous" or
          // "unbounded" — SolveInteger zeroes free variables and so misses
          // solutions (e.g. F=(24,1), rhs=1 has solution (0,1) but the
          // pivot 24 does not divide 1); the per-row gcd condition is the
          // sound existence test there.
          bool square_exact = fa.F.rows() == fa.F.cols() && fa.F.Rank() == fa.F.cols();
          if (!square_exact && GcdMayDepend(fa, fb)) {
            note_unknown(src);
          }
          continue;
        }
        if (ir::IsZero(d)) {
          // Loop-independent: ordered by body position.
          if (src.stmt == dst.stmt) continue;
          out.deps.push_back({std::min(src.stmt, dst.stmt), std::max(src.stmt, dst.stmt),
                              RefArray(src), true, d, src.is_write});
          continue;
        }
        if (!ir::LexPositive(d)) continue;  // the mirrored pair records it
        out.deps.push_back({src.stmt, dst.stmt, RefArray(src), true, d, src.is_write});
      } else {
        if (GcdMayDepend(fa, fb)) {
          note_unknown(src);
        }
      }
    }
  }
  // Deduplicate identical entries.
  std::sort(out.deps.begin(), out.deps.end(), [](const Dependence& a, const Dependence& b) {
    if (a.from_stmt != b.from_stmt) return a.from_stmt < b.from_stmt;
    if (a.to_stmt != b.to_stmt) return a.to_stmt < b.to_stmt;
    if (a.array != b.array) return a.array < b.array;
    return ir::LexCompare(a.distance, b.distance) < 0;
  });
  out.deps.erase(std::unique(out.deps.begin(), out.deps.end(),
                             [](const Dependence& a, const Dependence& b) {
                               return a.from_stmt == b.from_stmt && a.to_stmt == b.to_stmt &&
                                      a.array == b.array && a.distance == b.distance;
                             }),
                 out.deps.end());
  std::sort(out.unknown_arrays.begin(), out.unknown_arrays.end());
  out.unknown_arrays.erase(std::unique(out.unknown_arrays.begin(), out.unknown_arrays.end()),
                           out.unknown_arrays.end());
  return out;
}

bool DependenceSet::ReadHoistIsSafe(int array, ir::Int lead_linear, ir::Int inner_trip) const {
  if (lead_linear == 0) return true;
  if (std::find(unknown_arrays.begin(), unknown_arrays.end(), array) != unknown_arrays.end()) {
    return false;
  }
  for (const Dependence& d : deps) {
    if (d.array != array) continue;
    if (!d.distance_known) return false;
    // Linearize the carried distance using the innermost trip count as an
    // approximation of iterations-per-outer-step.
    ir::Int lin = 0;
    for (std::size_t k = 0; k < d.distance.size(); ++k) {
      lin = lin * inner_trip + d.distance[k];
    }
    if (lin > 0 && lin <= std::llabs(lead_linear)) return false;
  }
  return true;
}

}  // namespace ndc::analysis
