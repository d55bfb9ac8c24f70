// Tests for the IR: integer matrix kit, loop nests, arrays, address
// resolution (affine and indirect), and iteration enumeration.

#include <gtest/gtest.h>

#include "ir/matrix.hpp"
#include "ir/program.hpp"
#include "sim/rng.hpp"
#include "test_support.hpp"

namespace ndc::ir {
namespace {

TEST(IntMat, ApplyMatchesHandComputation) {
  IntMat m(2, 3, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(m.Apply({1, 0, 1}), (IntVec{4, 10}));
}

TEST(IntMat, SolveIntegerSquare) {
  IntMat m(2, 2, {1, 1, 0, 1});
  IntVec x;
  ASSERT_TRUE(m.SolveInteger({5, 2}, &x));
  EXPECT_EQ(x, (IntVec{3, 2}));
}

TEST(IntMat, SolveIntegerDetectsNonIntegral) {
  IntMat m(1, 1, {2});
  IntVec x;
  EXPECT_FALSE(m.SolveInteger({3}, &x));
  ASSERT_TRUE(m.SolveInteger({4}, &x));
  EXPECT_EQ(x, (IntVec{2}));
}

TEST(IntMat, SolveIntegerInconsistent) {
  IntMat m(2, 1, {1, 1});
  IntVec x;
  EXPECT_FALSE(m.SolveInteger({1, 2}, &x));
}

TEST(IntMat, RankComputation) {
  EXPECT_EQ(IntMat(3, 3, {1, 0, 0, 0, 1, 0, 0, 0, 1}).Rank(), 3);
  IntMat flat(1, 3, {5, 1, 0});
  EXPECT_EQ(flat.Rank(), 1);
  IntMat dep(2, 2, {1, 2, 2, 4});
  EXPECT_EQ(dep.Rank(), 1);
}

TEST(LexOrder, CompareAndPositive) {
  EXPECT_LT(LexCompare({0, 1}, {1, -5}), 0);
  EXPECT_EQ(LexCompare({2, 3}, {2, 3}), 0);
  EXPECT_TRUE(LexPositive({0, 0, 1}));
  EXPECT_FALSE(LexPositive({0, -1, 5}));
  EXPECT_FALSE(LexPositive({0, 0, 0}));
  EXPECT_TRUE(IsZero({0, 0}));
  EXPECT_FALSE(IsZero({0, 1}));
}

TEST(Array, RowMajorAddressing) {
  Program p;
  int a = p.AddArray("A", {4, 8});
  const Array& arr = p.array(a);
  EXPECT_EQ(arr.AddrOf({0, 0}), arr.base);
  EXPECT_EQ(arr.AddrOf({0, 1}) - arr.base, 8u);
  EXPECT_EQ(arr.AddrOf({1, 0}) - arr.base, 64u);
  EXPECT_EQ(arr.NumElems(), 32);
}

TEST(Array, PageAlignedAllocation) {
  Program p;
  p.AddArray("A", {3});
  int b = p.AddArray("B", {5});
  EXPECT_EQ(p.array(b).base % 4096, 0u);
  EXPECT_GT(p.array(b).base, p.array(0).base);
}

TEST(LoopNest, RectangularEnumeration) {
  LoopNest nest;
  nest.loops = {{0, 2, -1, 0, -1, 0}, {0, 3, -1, 0, -1, 0}};
  std::vector<IntVec> seen;
  nest.ForEachIteration([&](const IntVec& i) { seen.push_back(i); });
  EXPECT_EQ(seen.size(), 12u);
  EXPECT_EQ(seen.front(), (IntVec{0, 0}));
  EXPECT_EQ(seen.back(), (IntVec{2, 3}));
  // Lexicographic order.
  for (std::size_t i = 1; i < seen.size(); ++i) {
    EXPECT_LT(LexCompare(seen[i - 1], seen[i]), 0);
  }
  EXPECT_EQ(nest.NumIterations(), 12);
}

TEST(LoopNest, TriangularBounds) {
  // i in [0,3], j in [0, i]: 1+2+3+4 = 10 iterations.
  LoopNest nest;
  nest.loops = {{0, 3, -1, 0, -1, 0}, {0, 0, -1, 0, 0, 1}};
  EXPECT_EQ(nest.NumIterations(), 10);
  nest.ForEachIteration([&](const IntVec& i) { EXPECT_LE(i[1], i[0]); });
}

TEST(LoopNest, DependentLowerBound) {
  // k in [0,1], i in [k+1, 4]: trips 4 + 3 = 7.
  LoopNest nest;
  nest.loops = {{0, 1, -1, 0, -1, 0}, {1, 4, 0, 1, -1, 0}};
  EXPECT_EQ(nest.NumIterations(), 7);
  nest.ForEachIteration([&](const IntVec& i) { EXPECT_GT(i[1], i[0]); });
}

TEST(LoopNest, EmptyRangeHasNoIterations) {
  // An inner range with hi < lo yields nothing, whatever the outer range.
  LoopNest inner_empty;
  inner_empty.loops = {{0, 2, -1, 0, -1, 0}, {3, 1, -1, 0, -1, 0}};
  int calls = 0;
  inner_empty.ForEachIteration([&](const IntVec&) { ++calls; });
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(inner_empty.NumIterations(), 0);
  // So does an empty outer range.
  LoopNest outer_empty;
  outer_empty.loops = {{5, 4, -1, 0, -1, 0}, {0, 3, -1, 0, -1, 0}};
  EXPECT_EQ(outer_empty.NumIterations(), 0);
  // A bound-dependent inner range can be empty for some outer values only:
  // i in [0,3], j in [i, 1] runs (0,0) (0,1) (1,1).
  LoopNest partly_empty;
  partly_empty.loops = {{0, 3, -1, 0, -1, 0}, {0, 1, 0, 1, -1, 0}};
  std::vector<IntVec> seen;
  partly_empty.ForEachIteration([&](const IntVec& i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<IntVec>{{0, 0}, {0, 1}, {1, 1}}));
}

TEST(LoopNest, DepthZeroNestHasOneEmptyIteration) {
  LoopNest nest;
  std::vector<IntVec> seen;
  nest.ForEachIteration([&](const IntVec& i) { seen.push_back(i); });
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_TRUE(seen[0].empty());
  EXPECT_EQ(nest.NumIterations(), 1);
}

TEST(Program, ResolveAffineAddr) {
  Program p;
  int a = p.AddArray("A", {100});
  AffineAccess acc;
  acc.array = a;
  acc.F = IntMat(1, 2, {10, 1});
  acc.f = {3};
  Operand op = Operand::Affine(acc);
  auto addr = p.ResolveAddr(op, {2, 4});
  ASSERT_TRUE(addr.has_value());
  EXPECT_EQ(*addr, p.array(a).base + 27 * 8);
}

TEST(Program, ResolveOutOfBoundsIsNull) {
  Program p;
  int a = p.AddArray("A", {10});
  AffineAccess acc;
  acc.array = a;
  acc.F = IntMat(1, 1, {1});
  acc.f = {0};
  Operand op = Operand::Affine(acc);
  EXPECT_TRUE(p.ResolveAddr(op, {9}).has_value());
  EXPECT_FALSE(p.ResolveAddr(op, {10}).has_value());
  EXPECT_FALSE(p.ResolveAddr(op, {-1}).has_value());
}

TEST(Program, ResolveIndirectAddr) {
  Program p;
  int idx = p.AddArray("idx", {4});
  int tgt = p.AddArray("T", {100});
  p.index_data[idx] = {7, 3, 99, 0};
  AffineAccess acc;
  acc.array = idx;
  acc.F = IntMat(1, 1, {1});
  acc.f = {0};
  Operand op = Operand::Indirect(acc, tgt);
  auto addr = p.ResolveAddr(op, {2});
  ASSERT_TRUE(addr.has_value());
  EXPECT_EQ(*addr, p.array(tgt).base + 99 * 8);
}

TEST(Program, ResolveIndirectOutOfRangeIsNull) {
  Program p;
  int idx = p.AddArray("idx", {2});
  int tgt = p.AddArray("T", {10});
  p.index_data[idx] = {15, 3};  // 15 is out of T's range
  AffineAccess acc;
  acc.array = idx;
  acc.F = IntMat(1, 1, {1});
  acc.f = {0};
  Operand op = Operand::Indirect(acc, tgt);
  EXPECT_FALSE(p.ResolveAddr(op, {0}).has_value());
  EXPECT_TRUE(p.ResolveAddr(op, {1}).has_value());
}

// Seeded property: the allocation-free ResolveAddr agrees with the
// reference Array::AddrOf(F * iter + f) for random 1-4-D affine
// and indirect accesses, and gives nullopt exactly when a subscript, the
// index data or the target index is out of range.
TEST(Program, ResolveAddrMatchesSubscriptReference) {
  sim::Rng rng(20211017);
  int in_bounds = 0;
  int out_of_bounds = 0;
  for (int trial = 0; trial < 400; ++trial) {
    Program p;
    const int rank = 1 + static_cast<int>(rng.NextBelow(4));
    const int depth = 1 + static_cast<int>(rng.NextBelow(4));
    std::vector<Int> dims;
    for (int d = 0; d < rank; ++d) dims.push_back(rng.NextInRange(1, 6));
    const int arr = p.AddArray("X", dims);
    const int tgt = p.AddArray("T", {rng.NextInRange(1, 40)});
    AffineAccess acc;
    acc.array = arr;
    acc.F = IntMat(rank, depth);
    for (int r = 0; r < rank; ++r) {
      for (int c = 0; c < depth; ++c) acc.F.at(r, c) = rng.NextInRange(-1, 1);
      acc.f.push_back(rng.NextInRange(-1, 5));
    }
    const bool indirect = rng.NextBool(0.5);
    if (indirect) {
      // Index values run past the target array; the data is sometimes
      // shorter than the index array.
      const Int n = p.array(arr).NumElems() - (rng.NextBool(0.2) ? 1 : 0);
      std::vector<Int>& data = p.index_data[arr];
      for (Int k = 0; k < n; ++k) {
        data.push_back(rng.NextInRange(-2, p.array(tgt).NumElems() + 2));
      }
    }
    const Operand op = indirect ? Operand::Indirect(acc, tgt) : Operand::Affine(acc);
    for (int sample = 0; sample < 8; ++sample) {
      IntVec iter;
      for (int c = 0; c < depth; ++c) iter.push_back(rng.NextInRange(-1, 4));
      const IntVec sub = VecAdd(acc.F.Apply(iter), acc.f);
      bool ok = true;
      for (int d = 0; d < rank; ++d) ok &= sub[d] >= 0 && sub[d] < dims[d];
      std::optional<sim::Addr> want;
      if (ok && !indirect) {
        want = p.array(arr).AddrOf(sub);
      } else if (ok) {
        const Array& x = p.array(arr);
        const auto flat = static_cast<std::size_t>((x.AddrOf(sub) - x.base) / 8);
        const std::vector<Int>& data = p.index_data.at(arr);
        const Array& t = p.array(tgt);
        if (flat < data.size() && data[flat] >= 0 && data[flat] < t.NumElems()) {
          want = t.AddrOf({data[flat]});
        }
      }
      EXPECT_EQ(p.ResolveAddr(op, iter), want) << "trial " << trial << " sample " << sample;
      ++(want.has_value() ? in_bounds : out_of_bounds);
    }
  }
  // Both outcomes are well represented.
  EXPECT_GT(in_bounds, 200);
  EXPECT_GT(out_of_bounds, 200);
}

TEST(Program, NonMemoryOperandsResolveToNull) {
  Program p;
  EXPECT_FALSE(p.ResolveAddr(Operand{}, {}).has_value());
  EXPECT_FALSE(p.ResolveAddr(ScalarOperand(), {}).has_value());
}

TEST(Program, StmtIdsAreUnique) {
  Program p;
  EXPECT_NE(p.NextStmtId(), p.NextStmtId());
}

TEST(Program, PrinterMentionsNdcAnnotation) {
  Program p;
  int a = p.AddArray("A", {10});
  LoopNest nest;
  nest.loops = {{0, 4, -1, 0, -1, 0}};
  Stmt s;
  s.id = p.NextStmtId();
  AffineAccess acc;
  acc.array = a;
  acc.F = IntMat(1, 1, {1});
  acc.f = {0};
  s.rhs0 = Operand::Affine(acc);
  s.rhs1 = Operand::Affine(acc);
  s.ndc.offload = true;
  s.ndc.planned = arch::Loc::kMemBank;
  nest.body.push_back(s);
  p.nests.push_back(nest);
  EXPECT_NE(p.ToString().find("NDC @memory"), std::string::npos);
}

}  // namespace
}  // namespace ndc::ir
