#include "analysis/cme.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>

namespace ndc::analysis {

const ir::Operand& SelectOperand(const ir::Stmt& stmt, OperandSel sel) {
  switch (sel) {
    case OperandSel::kRhs0: return stmt.rhs0;
    case OperandSel::kRhs1: return stmt.rhs1;
    case OperandSel::kLhs: return stmt.lhs;
  }
  return stmt.rhs0;
}

CmePredictor::CmePredictor(const ir::Program& prog, const ir::LoopNest& nest, CacheSpec l1,
                           CacheSpec l2, int num_cores, std::set<int> warm_arrays)
    : prog_(&prog),
      nest_(&nest),
      l1_(l1),
      l2_(l2),
      num_cores_(std::max(1, num_cores)),
      warm_arrays_(std::move(warm_arrays)) {
  int depth = nest.depth();
  // Average trip counts (exact for rectangular, averaged for triangular).
  avg_trips_.assign(static_cast<std::size_t>(depth), 1);
  for (int d = 0; d < depth; ++d) {
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
    avg_trips_[static_cast<std::size_t>(d)] = std::max<ir::Int>(1, hi - lo + 1);
  }

  // Nest-wide footprint (distinct lines touched per iteration).
  double fp = 0.0;
  for (const ir::Stmt& s : nest.body) {
    for (const ir::Operand* op : {&s.rhs0, &s.rhs1, &s.lhs}) {
      if (!op->IsMemory()) continue;
      if (op->kind == ir::Operand::Kind::kIndirect) {
        fp += 1.0;  // effectively a new line every access
        continue;
      }
      const ir::Array& arr = prog.array(op->access.array);
      int inner = depth - 1;
      ir::Int elem_stride = 0;
      // Flattened element stride of one innermost step.
      ir::Int row_size = 1;
      for (int d = arr.dims.size() >= 1 ? static_cast<int>(arr.dims.size()) - 1 : 0; d >= 0;
           --d) {
        elem_stride += op->access.F.at(d, inner) * row_size;
        row_size *= arr.dims[static_cast<std::size_t>(d)];
      }
      double bytes = static_cast<double>(std::llabs(elem_stride)) * arr.elem_bytes;
      fp += std::min(1.0, bytes / static_cast<double>(l1.line_bytes));
      if (bytes == 0) fp += 1.0 / static_cast<double>(avg_trips_.back());
    }
  }
  footprint_lines_per_iter_ = std::max(fp, 1e-6);

  // Per-reference classification.
  states_.resize(nest.body.size());
  for (std::size_t si = 0; si < nest.body.size(); ++si) {
    const ir::Stmt& s = nest.body[si];
    std::array<const ir::Operand*, 3> ops = {&s.rhs0, &s.rhs1, &s.lhs};
    for (int o = 0; o < 3; ++o) {
      RefState& st = states_[si][static_cast<std::size_t>(o)];
      const ir::Operand& op = *ops[static_cast<std::size_t>(o)];
      st.memory = op.IsMemory();
      if (!st.memory) continue;
      st.indirect = op.kind == ir::Operand::Kind::kIndirect;
      st.array = st.indirect ? op.target_array : op.access.array;
      st.addr = prog.Prepare(op);
      if (st.indirect) continue;
      {
        const ir::Array& arr = prog.array(op.access.array);
        int inner = depth - 1;
        ir::Int elem_stride = 0, row = 1;
        for (int d2 = static_cast<int>(arr.dims.size()) - 1; d2 >= 0; --d2) {
          elem_stride += op.access.F.at(d2, inner) * row;
          row *= arr.dims[static_cast<std::size_t>(d2)];
        }
        double bytes = static_cast<double>(std::llabs(elem_stride)) * arr.elem_bytes;
        double per_iter = std::min(1.0, std::max(bytes, 1.0) / static_cast<double>(l1.line_bytes));
        double iters_per_core = 1.0;
        for (ir::Int t : avg_trips_) iters_per_core *= static_cast<double>(t);
        iters_per_core /= static_cast<double>(num_cores_);
        st.lines_per_core = per_iter * iters_per_core;
      }
      // Same-line partner: an earlier load with the same access function
      // whose offset lands on the same line fills the line first.
      for (std::size_t sj = 0; sj <= si && !st.same_line_partner; ++sj) {
        const ir::Stmt& s2 = nest.body[sj];
        int o_limit = sj == si ? o : 2;
        std::array<const ir::Operand*, 2> loads = {&s2.rhs0, &s2.rhs1};
        for (int o2 = 0; o2 < std::min(o_limit, 2); ++o2) {
          const ir::Operand& q = *loads[static_cast<std::size_t>(o2)];
          if (q.kind != ir::Operand::Kind::kAffine) continue;
          if (q.access.array != op.access.array || !(q.access.F == op.access.F)) continue;
          ir::Int diff = std::llabs(q.access.f[0] - op.access.f[0]) *
                         prog.array(op.access.array).elem_bytes;
          if (diff < static_cast<ir::Int>(l1.line_bytes)) st.same_line_partner = true;
        }
      }
      st.reuse_l1 = AnalyzeReuse(prog, nest, op, l1.line_bytes);
      if (!st.reuse_l1.has_vector) continue;
      std::uint64_t span = ReuseSpanIters(st.reuse_l1.reuse_vector);
      double rd = static_cast<double>(span) * footprint_lines_per_iter_;
      double conflicts1 = ConflictPressure(op, span, l1_);
      // L1 is private: the reuse distance is what this core touches.
      st.fits_l1 = rd <= 0.75 * static_cast<double>(l1_.Lines()) &&
                   rd / static_cast<double>(l1_.Sets()) + conflicts1 <
                       static_cast<double>(l1_.ways);
      // The L2 is shared: all cores' working sets compete, and lines are
      // spread over all banks.
      double l2_lines_eff =
          static_cast<double>(l2_.Lines()) * static_cast<double>(num_cores_) /
          static_cast<double>(num_cores_);  // one bank per node, one core per node
      double rd_l2 = rd * static_cast<double>(num_cores_);  // all threads stream together
      double conflicts2 = ConflictPressure(op, span, l2_);
      st.fits_l2 = rd_l2 <= 0.75 * l2_lines_eff * static_cast<double>(num_cores_) &&
                   conflicts2 < static_cast<double>(l2_.ways);
    }
  }
}

std::uint64_t CmePredictor::ReuseSpanIters(const ir::IntVec& delta) const {
  // Iterations between I and I + delta in lexicographic order.
  std::uint64_t span = 0;
  std::uint64_t inner_product = 1;
  for (int d = static_cast<int>(delta.size()) - 1; d >= 0; --d) {
    span += static_cast<std::uint64_t>(std::llabs(delta[static_cast<std::size_t>(d)])) *
            inner_product;
    inner_product *= static_cast<std::uint64_t>(avg_trips_[static_cast<std::size_t>(d)]);
  }
  return std::max<std::uint64_t>(span, 1);
}

double CmePredictor::ConflictPressure(const ir::Operand& op, std::uint64_t span,
                                      const CacheSpec& spec) const {
  // Diophantine interference: for each other affine reference q, count how
  // often r and q map to the same set during the reuse window. Addresses
  // along the innermost loop are linear: addr(i) = alpha*i + beta.
  if (op.kind != ir::Operand::Kind::kAffine) return 0.0;
  int depth = nest_->depth();
  int inner = depth - 1;
  auto line_coeffs = [&](const ir::Operand& o, ir::Int* alpha, ir::Int* beta) {
    const ir::Array& arr = prog_->array(o.access.array);
    ir::Int stride = 0, base = 0, row = 1;
    for (int d = static_cast<int>(arr.dims.size()) - 1; d >= 0; --d) {
      stride += o.access.F.at(d, inner) * row;
      base += o.access.f[static_cast<std::size_t>(d)] * row;
      row *= arr.dims[static_cast<std::size_t>(d)];
    }
    *alpha = stride * arr.elem_bytes;
    *beta = static_cast<ir::Int>(arr.base) + base * arr.elem_bytes;
  };
  ir::Int ar, br;
  line_coeffs(op, &ar, &br);
  auto set_stride = static_cast<ir::Int>(spec.Sets() * spec.line_bytes);
  double pressure = 0.0;
  for (const ir::Stmt& s : nest_->body) {
    // Stores are write-through/no-allocate (they do not occupy ways), so
    // only loads interfere.
    for (const ir::Operand* o : {&s.rhs0, &s.rhs1}) {
      if (o == &op || o->kind != ir::Operand::Kind::kAffine) continue;
      ir::Int aq, bq;
      line_coeffs(*o, &aq, &bq);
      // Expected same-set collisions per iteration of the reuse window:
      // solutions of (ar-aq)*t ≡ (bq-br) (mod set_stride) have density
      // g/set_stride when solvable (g = gcd), 0 otherwise.
      ir::Int a = ar - aq, m = set_stride;
      a = ((a % m) + m) % m;
      ir::Int bdiff = (((bq - br) % m) + m) % m;
      ir::Int g = std::gcd(a == 0 ? m : a, m);
      if (bdiff % g == 0) {
        pressure += static_cast<double>(g) / static_cast<double>(m) *
                    static_cast<double>(std::min<std::uint64_t>(span, 1u << 20));
      }
    }
  }
  return pressure;
}

const CmePredictor::RefState& CmePredictor::StateFor(int stmt_idx, OperandSel sel) const {
  return states_[static_cast<std::size_t>(stmt_idx)][static_cast<std::size_t>(sel)];
}

bool CmePredictor::PredictMissLevel(int stmt_idx, OperandSel sel, const ir::IntVec& iter,
                                    bool level2) const {
  const RefState& st = StateFor(stmt_idx, sel);
  if (!st.memory) return false;
  if (st.indirect) return true;  // pessimistic for non-affine references
  if (st.same_line_partner) return false;  // partner load fills the line
  if (!st.reuse_l1.has_vector) {
    // A pure stream (no reuse within the nest) is all cold misses — unless
    // an earlier nest already brought the array in and it fits the cache.
    const CacheSpec& sp = level2 ? l2_ : l1_;
    double cap = 0.75 * static_cast<double>(sp.Lines());
    if (level2) cap *= static_cast<double>(num_cores_);  // all banks
    return !(warm_arrays_.count(st.array) != 0 && st.lines_per_core <= cap);
  }
  // Cold-face test: did the reuse-source iteration exist?
  ir::IntVec& prev = prev_;
  prev.resize(iter.size());
  for (std::size_t d = 0; d < iter.size(); ++d) prev[d] = iter[d] - st.reuse_l1.reuse_vector[d];
  for (int d = 0; d < nest_->depth(); ++d) {
    if (prev[static_cast<std::size_t>(d)] < nest_->LoEffective(d, prev) ||
        prev[static_cast<std::size_t>(d)] > nest_->HiEffective(d, prev)) {
      // Cold face — unless an earlier nest already streamed this array and
      // the per-core footprint fits the cache (cross-nest warm data).
      const CacheSpec& sp = level2 ? l2_ : l1_;
      double cap = 0.75 * static_cast<double>(sp.Lines());
      if (level2) cap *= static_cast<double>(num_cores_);  // all banks
      if (warm_arrays_.count(st.array) != 0 && st.lines_per_core <= cap) return false;
      return true;  // cold miss
    }
  }
  // Spatial reuse must stay on the same line.
  auto cur_addr = st.addr.Resolve(iter);
  auto prev_addr = st.addr.Resolve(prev);
  const CacheSpec& spec = level2 ? l2_ : l1_;
  if (cur_addr && prev_addr &&
      (*cur_addr / spec.line_bytes) != (*prev_addr / spec.line_bytes)) {
    // The previous access of the reuse chain touched a different line; for
    // group reuse the partner's offset difference may still land on the
    // same line, which we approximate by the own-reference test.
    if (!st.reuse_l1.self_temporal && !st.reuse_l1.group) return true;
  }
  return level2 ? !st.fits_l2 : !st.fits_l1;
}

bool CmePredictor::PredictMissL1(int stmt_idx, OperandSel sel, const ir::IntVec& iter) const {
  return PredictMissLevel(stmt_idx, sel, iter, /*level2=*/false);
}

bool CmePredictor::PredictMissL2(int stmt_idx, OperandSel sel, const ir::IntVec& iter) const {
  return PredictMissLevel(stmt_idx, sel, iter, /*level2=*/true);
}

double CmePredictor::SampleMissProb(int stmt_idx, OperandSel sel, bool level2) const {
  // The nest's sample iterations, taken once for every reference and level
  // (an empty nest takes none, at the cost of an empty walk per call).
  if (samples_.empty()) samples_ = nest_->SampleIterations(256);
  if (samples_.empty()) return 1.0;
  int misses = 0;
  for (const ir::IntVec& it : samples_) {
    if (PredictMissLevel(stmt_idx, sel, it, level2)) ++misses;
  }
  return static_cast<double>(misses) / static_cast<double>(samples_.size());
}

double CmePredictor::MissProbL1(int stmt_idx, OperandSel sel) const {
  return SampleMissProb(stmt_idx, sel, false);
}

double CmePredictor::MissProbL2(int stmt_idx, OperandSel sel) const {
  return SampleMissProb(stmt_idx, sel, true);
}

}  // namespace ndc::analysis
