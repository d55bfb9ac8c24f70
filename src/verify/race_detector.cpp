#include "verify/race_detector.hpp"

#include <algorithm>
#include <set>
#include <sstream>

#include "analysis/dependence.hpp"
#include "analysis/parallelism.hpp"

namespace ndc::verify {

void DetectRaces(const ir::Program& prog, const VerifyOptions& opts, Report* report) {
  (void)opts;
  for (int n = 0; n < static_cast<int>(prog.nests.size()); ++n) {
    const ir::LoopNest& nest = prog.nests[static_cast<std::size_t>(n)];
    if (nest.depth() == 0 || nest.body.empty()) continue;
    analysis::Classification cls = analysis::ClassifyNest(prog, nest);

    // Unknown dependences: the classifier has already retried every
    // unresolved pair with the array-section disjointness test, so arrays
    // whose conflicts are provably disjoint never reach this list — the
    // R302 warnings below are residual, not heuristic.
    for (int a : cls.unknown_arrays) {
      std::string name = a >= 0 && a < static_cast<int>(prog.arrays.size())
                             ? prog.array(a).name
                             : std::to_string(a);
      report->Add(Severity::kWarning, Code::kParallelUnknownDependence,
                  "array " + name +
                      " has unanalyzable (indirect or non-uniform) dependences in a "
                      "block-distributed nest — cross-core ordering is not guaranteed",
                  n, -1, 0, a);
    }
    // Carried dependences on the block-distributed (outermost) dimension.
    // Reported even when the nest also has unknown references: a known
    // carried distance is concrete race evidence regardless.
    // A dependence the classifier discharges into an obligation is a race
    // unless the nest's annotation actually accepts that obligation — the
    // code generator privatizes/combines only what the annotation promises.
    const bool red_ok = nest.parallel.level == 0 && nest.parallel.reduction_ok;
    const bool priv_ok = nest.parallel.level == 0 && nest.parallel.privatized_ok;
    std::set<int> priv_set(cls.privatizable.begin(), cls.privatizable.end());
    std::set<std::pair<int, int>> red_set;  // (stmt, array)
    for (const analysis::Reduction& r : cls.reductions) red_set.insert({r.stmt, r.array});

    analysis::DependenceSet deps = analysis::AnalyzeDependences(prog, nest);
    std::set<std::pair<int, int>> reported;  // (array, from_stmt) dedup
    for (const analysis::Dependence& d : deps.deps) {
      if (!d.distance_known || d.distance.empty() || d.distance[0] == 0) continue;
      if (red_ok && d.from_stmt == d.to_stmt &&
          red_set.count({d.from_stmt, d.array}) != 0) {
        continue;  // private accumulator + combine make this safe
      }
      if (priv_ok && priv_set.count(d.array) != 0) {
        continue;  // per-shard private copy kills the carried dependence
      }
      if (!reported.insert({d.array, d.from_stmt}).second) continue;
      std::ostringstream os;
      os << "dependence with outer-loop distance " << d.distance[0]
         << " is carried by the parallel (block-distributed) dimension; iterations on "
            "different cores execute it unordered";
      report->Add(Severity::kWarning, Code::kParallelCarriedDependence, os.str(), n,
                  d.from_stmt, 0, d.array);
    }
  }
}

}  // namespace ndc::verify
