#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "arch/trace.hpp"
#include "ir/matrix.hpp"
#include "sim/types.hpp"

namespace ndc::ir {

/// An array in the simulated address space (row-major layout).
struct Array {
  int id = 0;
  std::string name;
  std::vector<Int> dims;  ///< extent per dimension
  sim::Addr base = 0;     ///< byte base address
  int elem_bytes = 8;

  Int NumElems() const {
    Int n = 1;
    for (Int d : dims) n *= d;
    return n;
  }

  /// Byte address of element `subscript` (must be in bounds).
  sim::Addr AddrOf(const IntVec& subscript) const;
};

/// The subscript rule every operand address goes through: the row-major
/// element index of the subscripts coef * iter + off (`rows` subscripts over
/// `cols` loop levels, `coef` row-major) in an array of the given extents,
/// or nullopt when any subscript is out of bounds. Evaluates the subscripts
/// row by row, so it never allocates.
inline std::optional<Int> FlatElementIndex(const Int* coef, const Int* off, const Int* extent,
                                           int rows, int cols, const IntVec& iter) {
  Int idx = 0;
  for (int d = 0; d < rows; ++d) {
    Int s = 0;
    for (int c = 0; c < cols; ++c) s += coef[d * cols + c] * iter[static_cast<std::size_t>(c)];
    s += off[d];
    if (s < 0 || s >= extent[d]) return std::nullopt;
    idx = idx * extent[d] + s;
  }
  return idx;
}

/// An affine array access X(F*I + f) where I is the iteration vector.
struct AffineAccess {
  int array = -1;
  IntMat F;   ///< dims(X) x depth
  IntVec f;   ///< dims(X) offsets
};

/// One operand (or store target) of a statement.
struct Operand {
  enum class Kind {
    kNone,      ///< absent (unary ops / register accumulation)
    kAffine,    ///< X(F*I + f)
    kIndirect,  ///< X[ idx(F*I + f) ] — one level of indirection
    kScalar,    ///< a register value (no memory access)
  };
  Kind kind = Kind::kNone;
  AffineAccess access;    ///< kAffine: the access; kIndirect: the *index* access
  int target_array = -1;  ///< kIndirect: the indirectly addressed array

  bool IsMemory() const { return kind == Kind::kAffine || kind == Kind::kIndirect; }

  static Operand Affine(AffineAccess a) {
    Operand o;
    o.kind = Kind::kAffine;
    o.access = std::move(a);
    return o;
  }
  static Operand Indirect(AffineAccess index_access, int target) {
    Operand o;
    o.kind = Kind::kIndirect;
    o.access = std::move(index_access);
    o.target_array = target;
    return o;
  }
};

/// An operand's address rules with every lookup done once: the subscript
/// function and extents of the array it indexes (for an indirect operand,
/// the index array), and for an indirect operand the index values and the
/// target array. Program::Prepare builds it, and Program::ResolveAddr is
/// Prepare(op).Resolve(iter), so both apply one set of bounds and
/// indirection rules. It points into the program, which must outlive it and
/// stay unchanged.
class OperandAddr {
 public:
  /// A non-memory operand: Resolve always gives nullopt.
  OperandAddr() = default;

  bool IsMemory() const { return kind_ == Operand::Kind::kAffine || indirect(); }
  bool indirect() const { return kind_ == Operand::Kind::kIndirect; }

  /// Byte address the operand accesses at iteration `iter`, or nullopt for a
  /// non-memory operand, an out-of-bounds subscript, an index array without
  /// values, or an index value outside the target array. For an indirect
  /// operand that resolves, `*index_addr` (when given) receives the address
  /// of the index element read.
  std::optional<sim::Addr> Resolve(const IntVec& iter, sim::Addr* index_addr = nullptr) const {
    if (!IsMemory()) return std::nullopt;
    std::optional<Int> flat = FlatElementIndex(coef_, off_, extent_, rows_, cols_, iter);
    if (!flat.has_value()) return std::nullopt;
    const sim::Addr addr = base_ + static_cast<sim::Addr>(*flat) * elem_bytes_;
    if (!indirect()) return addr;
    // Indirect: read the index value, then address the target array (1-D).
    if (*flat >= num_values_) return std::nullopt;
    const Int target_idx = values_[*flat];
    if (target_idx < 0 || target_idx >= target_elems_) return std::nullopt;
    if (index_addr != nullptr) *index_addr = addr;
    return target_base_ + static_cast<sim::Addr>(target_idx) * target_elem_bytes_;
  }

 private:
  friend struct Program;

  Operand::Kind kind_ = Operand::Kind::kNone;
  // The affine part, over the accessed array (affine) or the index array.
  const Int* coef_ = nullptr;
  const Int* off_ = nullptr;
  const Int* extent_ = nullptr;
  int rows_ = 0;
  int cols_ = 0;
  sim::Addr base_ = 0;
  sim::Addr elem_bytes_ = 0;
  // Indirect only: the index values (none when the program has no data for
  // the index array) and the 1-D target array.
  const Int* values_ = nullptr;
  Int num_values_ = 0;
  sim::Addr target_base_ = 0;
  sim::Addr target_elem_bytes_ = 0;
  Int target_elems_ = 0;
};

/// NDC offload annotation attached to a statement by the compiler
/// (Algorithms 1 and 2). `lead0`/`lead1` are the access movements of
/// Figures 8-9 expressed as iteration leads: a positive lead means the
/// operand's load is issued that many iterations *before* the computation's
/// iteration (the access was hoisted), a negative lead that many after.
struct NdcAnnotation {
  bool offload = false;
  arch::Loc planned = arch::Loc::kCacheCtrl;
  sim::Cycle timeout = 0;
  Int lead0 = 0;
  Int lead1 = 0;

  friend bool operator==(const NdcAnnotation&, const NdcAnnotation&) = default;
};

/// A statement `lhs = rhs0 op rhs1`, executed at every iteration of its
/// loop nest. `id` is the static statement id (used as PC and NDC site id).
struct Stmt {
  std::uint32_t id = 0;
  Operand lhs;  ///< kNone/kScalar => no store emitted
  arch::Op op = arch::Op::kAdd;
  Operand rhs0;
  Operand rhs1;
  NdcAnnotation ndc;
};

/// One loop of a nest. Bounds are inclusive and may depend linearly on a
/// single outer iterator (triangular nests, e.g. LU / Cholesky):
///   lo_effective = lo + lo_coef * I[lo_dep]   (when lo_dep >= 0)
///   hi_effective = hi + hi_coef * I[hi_dep]   (when hi_dep >= 0)
struct Loop {
  Int lo = 0;
  Int hi = 0;
  int lo_dep = -1;
  Int lo_coef = 0;
  int hi_dep = -1;
  Int hi_coef = 0;
};

/// A (perfect) loop nest with a statement body. The outermost loop is the
/// parallel loop: its iterations are block-distributed across cores by the
/// code generator.
struct LoopNest {
  std::vector<Loop> loops;
  std::vector<Stmt> body;

  int depth() const { return static_cast<int>(loops.size()); }

  Int LoEffective(int level, const IntVec& iter) const;
  Int HiEffective(int level, const IntVec& iter) const;

  /// Calls fn(I) for every iteration in original program order (which is
  /// lexicographic order of I). A depth-0 nest has one, empty, iteration.
  template <typename Fn>
  void ForEachIteration(Fn&& fn) const {
    IntVec iter(static_cast<std::size_t>(depth()), 0);
    ForEachIterationFrom(0, depth(), iter, fn);
  }

  /// Calls fn(I) for every iteration whose outermost value lies in
  /// [begin, end), in program order, through the caller's scratch vector
  /// `iter`. With ForEachIteration this assumes each loop's bounds depend
  /// only on enclosing levels (the IR validator's rule). A depth-0 nest's one
  /// iteration has outermost value 0.
  template <typename Fn>
  void ForEachIterationInOuterRange(Int begin, Int end, IntVec& iter, Fn&& fn) const {
    iter.assign(static_cast<std::size_t>(depth()), 0);
    if (depth() == 0) {
      if (begin <= 0 && 0 < end) fn(static_cast<const IntVec&>(iter));
      return;
    }
    for (Int v = begin; v < end; ++v) {
      iter[0] = v;
      ForEachIterationFrom(1, depth(), iter, fn);
    }
  }

  /// Number of iterations whose outermost value lies in [begin, end). Walks
  /// every level but the innermost, whose trip count it adds, through the
  /// caller's scratch vector `iter`.
  Int NumIterationsInOuterRange(Int begin, Int end, IntVec& iter) const;

  /// Total iteration count.
  Int NumIterations() const;

  /// Evenly spaced sample iterations for compile-time estimates: every
  /// step-th iteration in program order from the first, with step =
  /// max(1, NumIterations() / want) | 1 odd, so that samples do not alias
  /// with power-of-two cache-line or bank periods.
  std::vector<IntVec> SampleIterations(Int want) const;

 private:
  // Walks levels [level, stop) in order and calls fn at each point of them.
  template <typename Fn>
  void ForEachIterationFrom(int level, int stop, IntVec& iter, Fn& fn) const {
    if (level == stop) {
      fn(static_cast<const IntVec&>(iter));
      return;
    }
    const Int hi = HiEffective(level, iter);
    for (Int v = LoEffective(level, iter); v <= hi; ++v) {
      iter[static_cast<std::size_t>(level)] = v;
      ForEachIterationFrom(level + 1, stop, iter, fn);
    }
  }
};

/// A whole program: arrays, index-array contents for indirect accesses, and
/// a sequence of loop nests.
struct Program {
  std::string name;
  std::vector<Array> arrays;
  std::vector<LoopNest> nests;
  /// Values of index arrays (array id -> flattened contents), used by the
  /// code generator to resolve indirect accesses.
  std::unordered_map<int, std::vector<Int>> index_data;

  /// Registers a new array laid out after all existing ones (page aligned).
  int AddArray(const std::string& name, std::vector<Int> dims, int elem_bytes = 8);

  const Array& array(int id) const { return arrays[static_cast<std::size_t>(id)]; }

  /// Fresh statement id.
  std::uint32_t NextStmtId();

  /// `op`'s address rules with its arrays and index values looked up, to
  /// resolve many iterations without a lookup per address.
  OperandAddr Prepare(const Operand& op) const;

  /// Byte address accessed by an operand at iteration `iter` (resolving
  /// indirection through index_data): Prepare(op).Resolve(iter). Returns
  /// nullopt for non-memory operands or out-of-bounds subscripts.
  std::optional<sim::Addr> ResolveAddr(const Operand& op, const IntVec& iter) const {
    return Prepare(op).Resolve(iter);
  }

  std::string ToString() const;

 private:
  std::uint32_t next_stmt_id_ = 1;
};

}  // namespace ndc::ir
