#include "verify/race_detector.hpp"

#include <set>
#include <sstream>

#include "analysis/dependence.hpp"

namespace ndc::verify {

void DetectRaces(const ir::Program& prog, const VerifyOptions& opts, Report* report) {
  (void)opts;
  for (int n = 0; n < static_cast<int>(prog.nests.size()); ++n) {
    const ir::LoopNest& nest = prog.nests[static_cast<std::size_t>(n)];
    if (nest.depth() == 0 || nest.body.empty()) continue;
    analysis::DependenceSet deps = analysis::AnalyzeDependences(prog, nest);

    // Unknown dependences: one warning per array (the set is sorted, unique).
    for (int a : deps.unknown_arrays) {
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
    std::set<std::pair<int, int>> reported;  // (array, from_stmt) dedup
    for (const analysis::Dependence& d : deps.deps) {
      if (!d.distance_known || d.distance.empty() || d.distance[0] == 0) continue;
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
