#include "verify/parallelism_check.hpp"

#include <sstream>

#include "analysis/parallelism.hpp"

namespace ndc::verify {
namespace {

std::string ArrayName(const ir::Program& prog, int a) {
  return a >= 0 && a < static_cast<int>(prog.arrays.size()) ? prog.array(a).name
                                                            : std::to_string(a);
}

std::string DistStr(const ir::IntVec& d) {
  std::ostringstream os;
  os << "(";
  for (std::size_t i = 0; i < d.size(); ++i) os << (i ? "," : "") << d[i];
  os << ")";
  return os.str();
}

}  // namespace

void CheckParallelism(const ir::Program& prog, const VerifyOptions& opts,
                      Report* report) {
  (void)opts;
  for (int n = 0; n < static_cast<int>(prog.nests.size()); ++n) {
    const ir::LoopNest& nest = prog.nests[static_cast<std::size_t>(n)];
    const ir::ParallelAnnotation& ann = nest.parallel;
    if (ann.level < 0) continue;  // not annotated parallel
    if (ann.level >= nest.depth()) {
      std::ostringstream os;
      os << "parallel annotation names level " << ann.level << " but the nest has depth "
         << nest.depth();
      report->Add(Severity::kError, Code::kAnnotationBadLevel, os.str(), n);
      continue;
    }
    analysis::Classification cls = analysis::ClassifyNest(prog, nest);
    if (cls.has_unknown) {
      std::ostringstream os;
      os << "annotated-parallel nest has unanalyzable references (arrays:";
      for (int a : cls.unknown_arrays) os << " " << ArrayName(prog, a);
      os << ") that survive disjointness refinement; the annotation is unprovable";
      report->Add(Severity::kError, Code::kAnnotatedUnknownDeps, os.str(), n, -1, 0,
                  cls.unknown_arrays.empty() ? -1 : cls.unknown_arrays.front());
      continue;
    }
    const analysis::LevelClass& lc = cls.level(ann.level);
    if (lc.kind == analysis::LevelKind::kDoacross && lc.witness_valid) {
      const analysis::Dependence& w = lc.witness;
      std::ostringstream os;
      os << "level " << ann.level << " annotated parallel but carries a "
         << (w.is_flow ? "flow" : "anti/output") << " dependence S" << w.from_stmt
         << "->S" << w.to_stmt << " on " << ArrayName(prog, w.array)
         << " with distance " << DistStr(w.distance) << " (min carried distance "
         << lc.min_distance << ")";
      report->Add(Severity::kError,
                  w.is_flow ? Code::kAnnotatedCarriedFlow : Code::kAnnotatedCarriedAntiOutput,
                  os.str(), n, w.from_stmt, 0, w.array);
      continue;
    }
    // DOALL at the annotated level: audit the proof obligations.
    if (!lc.reduction_stmts.empty() && !ann.reduction_ok) {
      std::ostringstream os;
      os << "level " << ann.level << " is DOALL only under a reduction combine (stmt";
      for (int s : lc.reduction_stmts) os << " " << s;
      os << ") but the annotation does not accept reductions";
      report->Add(Severity::kError, Code::kAnnotationNeedsReduction, os.str(), n,
                  lc.reduction_stmts.front());
    }
    if (!lc.privatization.empty() && !ann.privatized_ok) {
      std::ostringstream os;
      os << "level " << ann.level << " is DOALL only if arrays {";
      for (std::size_t i = 0; i < lc.privatization.size(); ++i) {
        os << (i ? "," : "") << ArrayName(prog, lc.privatization[i]);
      }
      os << "} are privatized but the annotation does not accept privatization";
      report->Add(Severity::kError, Code::kAnnotationNeedsPrivatization, os.str(), n, -1,
                  0, lc.privatization.front());
    }
    if ((ann.reduction_ok && lc.reduction_stmts.empty()) ||
        (ann.privatized_ok && lc.privatization.empty())) {
      std::ostringstream os;
      os << "annotation on level " << ann.level << " accepts";
      if (ann.reduction_ok && lc.reduction_stmts.empty()) os << " reduction";
      if (ann.privatized_ok && lc.privatization.empty()) os << " privatization";
      os << " obligations the proof does not need";
      report->Add(Severity::kNote, Code::kAnnotationUnusedObligation, os.str(), n);
    }
  }
}

}  // namespace ndc::verify
