#include "ir/program.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>

namespace ndc::ir {

sim::Addr Array::AddrOf(const IntVec& subscript) const {
  assert(subscript.size() == dims.size());
  Int idx = 0;
  for (std::size_t d = 0; d < dims.size(); ++d) {
    assert(subscript[d] >= 0 && subscript[d] < dims[d]);
    idx = idx * dims[d] + subscript[d];
  }
  return base + static_cast<sim::Addr>(idx) * static_cast<sim::Addr>(elem_bytes);
}

Int LoopNest::LoEffective(int level, const IntVec& iter) const {
  const Loop& l = loops[static_cast<std::size_t>(level)];
  Int lo = l.lo;
  if (l.lo_dep >= 0) lo += l.lo_coef * iter[static_cast<std::size_t>(l.lo_dep)];
  return lo;
}

Int LoopNest::HiEffective(int level, const IntVec& iter) const {
  const Loop& l = loops[static_cast<std::size_t>(level)];
  Int hi = l.hi;
  if (l.hi_dep >= 0) hi += l.hi_coef * iter[static_cast<std::size_t>(l.hi_dep)];
  return hi;
}

Int LoopNest::NumIterationsInOuterRange(Int begin, Int end, IntVec& iter) const {
  if (depth() <= 1) {
    if (depth() == 0) return begin <= 0 && 0 < end ? 1 : 0;
    return std::max<Int>(0, end - begin);
  }
  const int inner = depth() - 1;
  Int n = 0;
  auto add_inner_trip = [&](const IntVec& it) {
    n += std::max<Int>(0, HiEffective(inner, it) - LoEffective(inner, it) + 1);
  };
  iter.assign(static_cast<std::size_t>(depth()), 0);
  for (Int v = begin; v < end; ++v) {
    iter[0] = v;
    ForEachIterationFrom(1, inner, iter, add_inner_trip);
  }
  return n;
}

Int LoopNest::NumIterations() const {
  if (depth() == 0) return 1;
  IntVec iter;
  return NumIterationsInOuterRange(loops.front().lo, loops.front().hi + 1, iter);
}

std::vector<IntVec> LoopNest::SampleIterations(Int want) const {
  const Int step = std::max<Int>(1, NumIterations() / std::max<Int>(1, want)) | 1;
  std::vector<IntVec> out;
  Int n = 0;
  ForEachIteration([&](const IntVec& iter) {
    if (n++ % step == 0) out.push_back(iter);
  });
  return out;
}

int Program::AddArray(const std::string& aname, std::vector<Int> dims, int elem_bytes) {
  Array a;
  a.id = static_cast<int>(arrays.size());
  a.name = aname;
  a.dims = std::move(dims);
  a.elem_bytes = elem_bytes;
  sim::Addr base = 0x10000;  // keep away from address 0
  if (!arrays.empty()) {
    const Array& prev = arrays.back();
    base = prev.base + static_cast<sim::Addr>(prev.NumElems()) *
                           static_cast<sim::Addr>(prev.elem_bytes);
  }
  a.base = (base + 4095) & ~sim::Addr{4095};  // page align
  arrays.push_back(std::move(a));
  return arrays.back().id;
}

std::uint32_t Program::NextStmtId() { return next_stmt_id_++; }

OperandAddr Program::Prepare(const Operand& op) const {
  OperandAddr a;
  if (!op.IsMemory()) return a;
  const Array& arr = array(op.access.array);
  a.kind_ = op.kind;
  a.coef_ = op.access.F.data();
  a.off_ = op.access.f.data();
  a.extent_ = arr.dims.data();
  a.rows_ = op.access.F.rows();
  a.cols_ = op.access.F.cols();
  a.base_ = arr.base;
  a.elem_bytes_ = static_cast<sim::Addr>(arr.elem_bytes);
  if (op.kind == Operand::Kind::kIndirect) {
    if (auto it = index_data.find(op.access.array); it != index_data.end()) {
      a.values_ = it->second.data();
      a.num_values_ = static_cast<Int>(it->second.size());
    }
    const Array& tgt = array(op.target_array);
    a.target_base_ = tgt.base;
    a.target_elem_bytes_ = static_cast<sim::Addr>(tgt.elem_bytes);
    a.target_elems_ = tgt.NumElems();
  }
  return a;
}

namespace {
std::string OperandString(const Program& p, const Operand& op) {
  switch (op.kind) {
    case Operand::Kind::kNone: return "_";
    case Operand::Kind::kScalar: return "reg";
    case Operand::Kind::kAffine:
      return p.array(op.access.array).name + "(F=" + op.access.F.ToString() + ")";
    case Operand::Kind::kIndirect:
      return p.array(op.target_array).name + "[" + p.array(op.access.array).name + "(...)]";
  }
  return "?";
}
}  // namespace

std::string Program::ToString() const {
  std::ostringstream os;
  os << "program " << name << ": " << arrays.size() << " arrays, " << nests.size()
     << " nests\n";
  for (std::size_t n = 0; n < nests.size(); ++n) {
    const LoopNest& nest = nests[n];
    os << "  nest " << n << " depth=" << nest.depth() << "\n";
    for (const Stmt& s : nest.body) {
      os << "    S" << s.id << ": " << OperandString(*this, s.lhs) << " = "
         << OperandString(*this, s.rhs0) << " " << arch::OpName(s.op) << " "
         << OperandString(*this, s.rhs1);
      if (s.ndc.offload) {
        os << "   [NDC @" << arch::LocName(s.ndc.planned) << " timeout=" << s.ndc.timeout
           << " leads=(" << s.ndc.lead0 << "," << s.ndc.lead1 << ")]";
      }
      os << "\n";
    }
  }
  return os.str();
}

}  // namespace ndc::ir
