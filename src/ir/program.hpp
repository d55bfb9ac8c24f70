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

/// An affine array access X(F*I + f) where I is the iteration vector.
struct AffineAccess {
  int array = -1;
  IntMat F;   ///< dims(X) x depth
  IntVec f;   ///< dims(X) offsets

  IntVec Subscript(const IntVec& iter) const { return VecAdd(F.Apply(iter), f); }

  /// Row-major element index of Subscript(iter) in `arr` (the accessed
  /// array), or nullopt when any subscript is out of bounds. Evaluates the
  /// subscripts row by row, so it never allocates.
  std::optional<Int> ElementIndex(const Array& arr, const IntVec& iter) const {
    Int idx = 0;
    for (int d = 0; d < F.rows(); ++d) {
      Int s = 0;
      for (int c = 0; c < F.cols(); ++c) s += F.at(d, c) * iter[static_cast<std::size_t>(c)];
      s += f[static_cast<std::size_t>(d)];
      const Int extent = arr.dims[static_cast<std::size_t>(d)];
      if (s < 0 || s >= extent) return std::nullopt;
      idx = idx * extent + s;
    }
    return idx;
  }
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

  static Operand None() { return {}; }
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
  static Operand Scalar() {
    Operand o;
    o.kind = Kind::kScalar;
    return o;
  }
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
    ForEachIterationFrom(0, iter, fn);
  }

  /// Total iteration count.
  Int NumIterations() const;

 private:
  template <typename Fn>
  void ForEachIterationFrom(int level, IntVec& iter, Fn& fn) const {
    if (level == depth()) {
      fn(static_cast<const IntVec&>(iter));
      return;
    }
    const Int hi = HiEffective(level, iter);
    for (Int v = LoEffective(level, iter); v <= hi; ++v) {
      iter[static_cast<std::size_t>(level)] = v;
      ForEachIterationFrom(level + 1, iter, fn);
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

  /// Byte address accessed by an operand at iteration `iter` (resolving
  /// indirection through index_data). Returns nullopt for non-memory
  /// operands or out-of-bounds subscripts.
  std::optional<sim::Addr> ResolveAddr(const Operand& op, const IntVec& iter) const;

  std::string ToString() const;

 private:
  std::uint32_t next_stmt_id_ = 1;
};

}  // namespace ndc::ir
