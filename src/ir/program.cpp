#include "ir/program.hpp"

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

Int LoopNest::NumIterations() const {
  Int n = 0;
  ForEachIteration([&](const IntVec&) { ++n; });
  return n;
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

std::optional<sim::Addr> Program::ResolveAddr(const Operand& op, const IntVec& iter) const {
  if (!op.IsMemory()) return std::nullopt;
  const Array& idx_arr = array(op.access.array);
  std::optional<Int> flat = op.access.ElementIndex(idx_arr, iter);
  if (!flat.has_value()) return std::nullopt;
  if (op.kind == Operand::Kind::kAffine) {
    return idx_arr.base +
           static_cast<sim::Addr>(*flat) * static_cast<sim::Addr>(idx_arr.elem_bytes);
  }
  // Indirect: read the index value, then address the target array (1-D).
  auto it = index_data.find(op.access.array);
  if (it == index_data.end()) return std::nullopt;
  if (*flat >= static_cast<Int>(it->second.size())) return std::nullopt;
  Int target_idx = it->second[static_cast<std::size_t>(*flat)];
  const Array& tgt = array(op.target_array);
  if (target_idx < 0 || target_idx >= tgt.NumElems()) return std::nullopt;
  return tgt.base +
         static_cast<sim::Addr>(target_idx) * static_cast<sim::Addr>(tgt.elem_bytes);
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
