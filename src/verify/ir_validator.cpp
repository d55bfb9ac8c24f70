#include "verify/ir_validator.hpp"

#include <cstdlib>
#include <set>
#include <sstream>

namespace ndc::verify {
namespace {

/// Closed integer interval, used to propagate iterator and subscript ranges
/// over the (possibly triangular) iteration box.
struct Interval {
  ir::Int lo = 0;
  ir::Int hi = 0;
};

Interval Scale(Interval v, ir::Int c) {
  if (c >= 0) return {c * v.lo, c * v.hi};
  return {c * v.hi, c * v.lo};
}

/// Per-level iterator ranges. Bounds that depend on an outer iterator are
/// widened over that iterator's full range, so the result is exact for
/// rectangular nests and a superset for triangular ones.
std::vector<Interval> IteratorRanges(const ir::LoopNest& nest, Report* report, int nest_idx) {
  std::vector<Interval> iv;
  iv.reserve(static_cast<std::size_t>(nest.depth()));
  for (int l = 0; l < nest.depth(); ++l) {
    const ir::Loop& loop = nest.loops[static_cast<std::size_t>(l)];
    Interval lo{loop.lo, loop.lo};
    Interval hi{loop.hi, loop.hi};
    for (auto [dep, coef, bound] : {std::tuple{loop.lo_dep, loop.lo_coef, &lo},
                                    std::tuple{loop.hi_dep, loop.hi_coef, &hi}}) {
      if (dep < 0) continue;
      if (dep >= l) {
        report->Add(Severity::kError, Code::kBadLoopBound,
                    "loop bound depends on iterator " + std::to_string(dep) +
                        ", which is not an enclosing level of loop " + std::to_string(l),
                    nest_idx);
        continue;
      }
      Interval d = Scale(iv[static_cast<std::size_t>(dep)], coef);
      bound->lo += d.lo;
      bound->hi += d.hi;
    }
    Interval range{lo.lo, hi.hi};
    if (range.lo > range.hi) {
      report->Add(Severity::kWarning, Code::kBadLoopBound,
                  "loop " + std::to_string(l) + " is statically empty", nest_idx);
      range.hi = range.lo;
    }
    iv.push_back(range);
  }
  return iv;
}

struct OperandContext {
  const ir::Program* prog;
  const std::vector<Interval>* iters;
  int nest;
  int stmt;
  std::uint32_t stmt_id;
  const char* role;  ///< "lhs" / "rhs0" / "rhs1"
};

bool ValidArray(const ir::Program& prog, int id) {
  return id >= 0 && id < static_cast<int>(prog.arrays.size());
}

/// Checks one affine access (F, f) against `arr` over the iterator box.
void CheckAccessBounds(const OperandContext& cx, const ir::AffineAccess& acc,
                       const ir::Array& arr, Report* report) {
  for (int d = 0; d < acc.F.rows(); ++d) {
    Interval sub{acc.f[static_cast<std::size_t>(d)], acc.f[static_cast<std::size_t>(d)]};
    for (int c = 0; c < acc.F.cols(); ++c) {
      Interval t = Scale((*cx.iters)[static_cast<std::size_t>(c)], acc.F.at(d, c));
      sub.lo += t.lo;
      sub.hi += t.hi;
    }
    ir::Int dim = arr.dims[static_cast<std::size_t>(d)];
    std::ostringstream range;
    range << cx.role << " subscript " << d << " of " << arr.name << " spans [" << sub.lo
          << ", " << sub.hi << "] but the dimension is " << dim;
    if (sub.hi < 0 || sub.lo >= dim) {
      report->Add(Severity::kError, Code::kSubscriptNeverInBounds,
                  range.str() + " — the access can never resolve", cx.nest, cx.stmt,
                  cx.stmt_id, arr.id);
    } else if (sub.lo < 0 || sub.hi >= dim) {
      report->Add(Severity::kWarning, Code::kSubscriptOutOfBounds,
                  range.str() + " — boundary iterations are skipped", cx.nest, cx.stmt,
                  cx.stmt_id, arr.id);
    }
  }
}

void CheckOperand(const OperandContext& cx, const ir::Operand& op,
                  std::set<int>* reported_index_arrays, Report* report) {
  if (!op.IsMemory()) {
    if (op.target_array >= 0) {
      report->Add(Severity::kWarning, Code::kBadOperandKind,
                  std::string(cx.role) + " is not an indirect access but carries a "
                  "target array",
                  cx.nest, cx.stmt, cx.stmt_id, op.target_array);
    }
    return;
  }
  const ir::Program& prog = *cx.prog;
  if (!ValidArray(prog, op.access.array)) {
    report->Add(Severity::kError, Code::kBadArrayRef,
                std::string(cx.role) + " references array id " +
                    std::to_string(op.access.array) + " out of " +
                    std::to_string(prog.arrays.size()),
                cx.nest, cx.stmt, cx.stmt_id, op.access.array);
    return;
  }
  const ir::Array& arr = prog.array(op.access.array);
  int rank = static_cast<int>(arr.dims.size());
  int depth = static_cast<int>(cx.iters->size());
  if (op.access.F.rows() != rank || static_cast<int>(op.access.f.size()) != rank ||
      op.access.F.cols() != depth) {
    std::ostringstream os;
    os << cx.role << " access shape F=" << op.access.F.rows() << "x" << op.access.F.cols()
       << ", |f|=" << op.access.f.size() << " does not match array rank " << rank
       << " and nest depth " << depth;
    report->Add(Severity::kError, Code::kShapeMismatch, os.str(), cx.nest, cx.stmt,
                cx.stmt_id, arr.id);
    return;
  }
  CheckAccessBounds(cx, op.access, arr, report);

  if (op.kind != ir::Operand::Kind::kIndirect) return;
  if (!ValidArray(prog, op.target_array)) {
    report->Add(Severity::kError, Code::kBadArrayRef,
                std::string(cx.role) + " indirect target array id " +
                    std::to_string(op.target_array) + " is invalid",
                cx.nest, cx.stmt, cx.stmt_id, op.target_array);
    return;
  }
  auto it = prog.index_data.find(op.access.array);
  if (it == prog.index_data.end()) {
    report->Add(Severity::kWarning, Code::kMissingIndexData,
                "index array " + arr.name +
                    " has no contents; every indirect access through it is skipped",
                cx.nest, cx.stmt, cx.stmt_id, arr.id);
    return;
  }
  if (static_cast<ir::Int>(it->second.size()) < arr.NumElems()) {
    report->Add(Severity::kWarning, Code::kMissingIndexData,
                "index array " + arr.name + " holds " + std::to_string(it->second.size()) +
                    " values for " + std::to_string(arr.NumElems()) + " elements",
                cx.nest, cx.stmt, cx.stmt_id, arr.id);
  }
  // Range-check the index contents once per (index array, target) pair.
  if (reported_index_arrays->insert(op.access.array).second) {
    const ir::Array& tgt = prog.array(op.target_array);
    ir::Int out = 0;
    for (ir::Int v : it->second) out += v < 0 || v >= tgt.NumElems();
    if (out > 0) {
      report->Add(Severity::kWarning, Code::kIndexValueOutOfRange,
                  std::to_string(out) + " of " + std::to_string(it->second.size()) +
                      " entries of index array " + arr.name + " fall outside " + tgt.name,
                  cx.nest, cx.stmt, cx.stmt_id, arr.id);
    }
  }
}

void CheckNdcAnnotation(const OperandContext& cx, const ir::Stmt& st,
                        const VerifyOptions& opts, Report* report) {
  if (!st.ndc.offload) return;
  if (!st.rhs0.IsMemory() || !st.rhs1.IsMemory()) {
    report->Add(Severity::kError, Code::kOffloadNeedsTwoLoads,
                "NDC annotation on a statement without two memory operands", cx.nest,
                cx.stmt, cx.stmt_id);
  }
  for (auto [lead, name] : {std::pair{st.ndc.lead0, "lead0"}, std::pair{st.ndc.lead1, "lead1"}}) {
    if (std::llabs(lead) > opts.max_lead) {
      report->Add(Severity::kError, Code::kLeadExceedsMax,
                  std::string(name) + " = " + std::to_string(lead) +
                      " exceeds max_lead = " + std::to_string(opts.max_lead),
                  cx.nest, cx.stmt, cx.stmt_id);
    }
  }
  int loc = static_cast<int>(st.ndc.planned);
  if (loc < 0 || loc >= arch::kNumLocs) {
    report->Add(Severity::kError, Code::kLocNotEnabled,
                "planned NDC location " + std::to_string(loc) + " is not a valid component",
                cx.nest, cx.stmt, cx.stmt_id);
  } else if (!(opts.control_register & arch::LocBit(st.ndc.planned))) {
    report->Add(Severity::kError, Code::kLocNotEnabled,
                std::string("planned NDC location '") + arch::LocName(st.ndc.planned) +
                    "' is masked off by the control register",
                cx.nest, cx.stmt, cx.stmt_id);
  }
}

}  // namespace

void ValidateIr(const ir::Program& prog, const VerifyOptions& opts, Report* report) {
  for (const ir::Array& arr : prog.arrays) {
    if (arr.dims.empty()) {
      report->Add(Severity::kError, Code::kShapeMismatch,
                  "array " + arr.name + " has rank 0", -1, -1, 0, arr.id);
      continue;
    }
    for (ir::Int d : arr.dims) {
      if (d <= 0) {
        report->Add(Severity::kError, Code::kShapeMismatch,
                    "array " + arr.name + " has a non-positive dimension", -1, -1, 0,
                    arr.id);
        break;
      }
    }
  }

  for (int n = 0; n < static_cast<int>(prog.nests.size()); ++n) {
    const ir::LoopNest& nest = prog.nests[static_cast<std::size_t>(n)];
    if (nest.body.empty()) {
      report->Add(Severity::kNote, Code::kEmptyNest, "nest has no statements", n);
      continue;
    }
    if (nest.depth() == 0) {
      report->Add(Severity::kError, Code::kEmptyNest,
                  "nest has statements but no loops — the code generator cannot "
                  "distribute it",
                  n);
      continue;
    }
    std::vector<Interval> iters = IteratorRanges(nest, report, n);

    std::set<std::uint32_t> ids;
    std::set<int> reported_index_arrays;
    for (int s = 0; s < static_cast<int>(nest.body.size()); ++s) {
      const ir::Stmt& st = nest.body[static_cast<std::size_t>(s)];
      if (st.id != 0 && !ids.insert(st.id).second) {
        report->Add(Severity::kWarning, Code::kDuplicateStmtId,
                    "statement id S" + std::to_string(st.id) +
                        " appears twice in one nest body",
                    n, s, st.id);
      }
      OperandContext cx{&prog, &iters, n, s, st.id, ""};
      cx.role = "lhs";
      CheckOperand(cx, st.lhs, &reported_index_arrays, report);
      cx.role = "rhs0";
      CheckOperand(cx, st.rhs0, &reported_index_arrays, report);
      cx.role = "rhs1";
      CheckOperand(cx, st.rhs1, &reported_index_arrays, report);
      CheckNdcAnnotation(cx, st, opts, report);
    }
  }
}

}  // namespace ndc::verify
