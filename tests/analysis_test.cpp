// Tests for the compiler analyses: dependence analysis (uniform distances,
// bounded delinearization, hoist legality),
// reuse analysis, use-use chains, and the Cache Miss Equations estimator.

#include <gtest/gtest.h>

#include "analysis/cme.hpp"
#include "analysis/dependence.hpp"
#include "analysis/reuse.hpp"
#include "analysis/use_use.hpp"
#include "ir/program.hpp"
#include "sim/rng.hpp"
#include "test_support.hpp"

namespace ndc::analysis {
namespace {

using ir::AffineAccess;
using ir::Int;
using ir::IntMat;
using ir::IntVec;
using ir::LoopNest;
using ir::Operand;
using ir::Program;
using ir::Stmt;

// --- helpers --------------------------------------------------------------

Operand Aff(int array, IntVec coefs, Int off) {
  AffineAccess a;
  a.array = array;
  a.F = IntMat(1, static_cast<int>(coefs.size()));
  for (int c = 0; c < a.F.cols(); ++c) a.F.at(0, c) = coefs[static_cast<std::size_t>(c)];
  a.f = {off};
  return Operand::Affine(a);
}

struct TestNest {
  Program p;
  LoopNest* nest;
  int arr;

  TestNest(Int n0, Int n1, Int elems = 100000) {
    arr = p.AddArray("A", {elems});
    LoopNest ln;
    ln.loops = {{0, n0 - 1, -1, 0, -1, 0}, {0, n1 - 1, -1, 0, -1, 0}};
    p.nests.push_back(ln);
    nest = &p.nests.back();
  }

  Stmt& Add(Operand lhs, Operand r0, Operand r1) {
    Stmt s;
    s.id = p.NextStmtId();
    s.lhs = std::move(lhs);
    s.rhs0 = std::move(r0);
    s.rhs1 = std::move(r1);
    nest->body.push_back(std::move(s));
    return nest->body.back();
  }
};

// --- SolveUniformDistance (delinearization) --------------------------------

TEST(Delinearize, RowMajorUnique) {
  // F = [64, 1], trips (32, 64): distance d = 64*a + b, |b| < 64.
  // Trip counts (32, 32) with inner coefficient 64: |delta1| <= 31 keeps the
  // decomposition unique.
  IntMat f(1, 2, {64, 1});
  IntVec d;
  ASSERT_TRUE(SolveUniformDistance(f, {32, 32}, {64 + 3}, &d));
  EXPECT_EQ(d, (IntVec{1, 3}));
  ASSERT_TRUE(SolveUniformDistance(f, {32, 32}, {-5}, &d));
  EXPECT_EQ(d, (IntVec{0, -5}));
  ASSERT_TRUE(SolveUniformDistance(f, {32, 32}, {63}, &d));
  EXPECT_EQ(d, (IntVec{1, -1}));  // 64 - 1, the unique bounded decomposition
}

TEST(Delinearize, RejectsAmbiguous) {
  // F = [2, 2]: d=2 has solutions (1,0) and (0,1) within bounds.
  IntMat f(1, 2, {2, 2});
  IntVec d;
  EXPECT_FALSE(SolveUniformDistance(f, {10, 10}, {2}, &d));
}

TEST(Delinearize, RejectsOutOfBounds) {
  IntMat f(1, 2, {64, 1});
  IntVec d;
  // d = 40*64: delta0 = 40 exceeds the trip count 32.
  EXPECT_FALSE(SolveUniformDistance(f, {32, 32}, {40 * 64}, &d));
}

TEST(Delinearize, AmbiguousWhenInnerRangeCoversCoefficient) {
  // With trip1 = 64 and coefficient 64, d = 67 decomposes as (1,3) and
  // (2,-61): the solver must refuse rather than guess.
  IntMat f(1, 2, {64, 1});
  IntVec d;
  EXPECT_FALSE(SolveUniformDistance(f, {32, 64}, {67}, &d));
}

TEST(Delinearize, SquareFullRankUsesExactSolve) {
  IntMat f(2, 2, {1, 0, 0, 1});
  IntVec d;
  ASSERT_TRUE(SolveUniformDistance(f, {10, 10}, {3, -2}, &d));
  EXPECT_EQ(d, (IntVec{3, -2}));
}

// Property: delinearization agrees with brute force over a 2-level space.
TEST(Delinearize, MatchesBruteForceProperty) {
  sim::Rng rng(9);
  for (int trial = 0; trial < 200; ++trial) {
    Int c1 = rng.NextInRange(4, 40);
    IntMat f(1, 2, {c1, 1});
    Int t0 = rng.NextInRange(2, 12), t1 = c1;  // nested structure
    Int d0 = rng.NextInRange(-(t0 - 1), t0 - 1);
    Int d1 = rng.NextInRange(-(t1 - 1), t1 - 1);
    Int rhs = c1 * d0 + d1;
    // Count bounded solutions by brute force.
    int solutions = 0;
    IntVec expect;
    for (Int a = -(t0 - 1); a <= t0 - 1; ++a) {
      for (Int b = -(t1 - 1); b <= t1 - 1; ++b) {
        if (c1 * a + b == rhs) {
          ++solutions;
          expect = {a, b};
        }
      }
    }
    IntVec got;
    bool ok = SolveUniformDistance(f, {t0, t1}, {rhs}, &got);
    if (solutions == 1) {
      ASSERT_TRUE(ok) << "c1=" << c1 << " rhs=" << rhs;
      EXPECT_EQ(got, expect);
    } else {
      EXPECT_FALSE(ok);
    }
  }
}

TEST(Delinearize, ZeroCoefficientLoopIsPinnedToZero) {
  // F = [64, 0]: the inner loop never moves the subscript. The solver must
  // canonicalize its distance to 0 (any other value names the same solution
  // family) and still produce a unique answer for the outer component.
  IntMat f(1, 2, {64, 0});
  IntVec d;
  ASSERT_TRUE(SolveUniformDistance(f, {32, 32}, {128}, &d));
  EXPECT_EQ(d, (IntVec{2, 0}));
  // A residue the coefficients cannot reach has no solution at all.
  EXPECT_FALSE(SolveUniformDistance(f, {32, 32}, {130}, &d));
}

TEST(Delinearize, DeltaExactlyAtTripBoundaryIsRejected) {
  // F = [8, 1], trips (4, 8): |delta_k| must stay strictly below the trip
  // count. rhs = 31 = 8*3 + 7 is the largest representable distance;
  // rhs = 32 would need delta = (4,0) or (3,8), both at the boundary.
  IntMat f(1, 2, {8, 1});
  IntVec d;
  ASSERT_TRUE(SolveUniformDistance(f, {4, 8}, {31}, &d));
  EXPECT_EQ(d, (IntVec{3, 7}));
  EXPECT_FALSE(SolveUniformDistance(f, {4, 8}, {32}, &d));
  EXPECT_FALSE(SolveUniformDistance(f, {4, 8}, {-32}, &d));
}

TEST(Delinearize, TriangularBoundsFeedMidpointTrips) {
  // Inner bound j <= i over i in [0,7]: AvgTrips evaluates the dependent
  // bound at the outer midpoint (i=3), giving trips (8, 4). Distances legal
  // under the midpoint trip solve; distances needing the full rectangular
  // range do not.
  LoopNest nest;
  nest.loops = {{0, 7, -1, 0, -1, 0}, {0, 0, -1, 0, 0, 1}};
  std::vector<Int> trips = AvgTrips(nest);
  ASSERT_EQ(trips, (std::vector<Int>{8, 4}));
  IntMat f(1, 2, {8, 1});
  IntVec d;
  ASSERT_TRUE(SolveUniformDistance(f, trips, {3}, &d));
  EXPECT_EQ(d, (IntVec{0, 3}));
  // |delta1| = 4 is representable in the full 8-wide inner range but not
  // under the conservative midpoint trip of 4.
  EXPECT_FALSE(SolveUniformDistance(f, trips, {4}, &d));
}

// --- kernel vectors ---------------------------------------------------------

TEST(KernelVector, UnitVectorForDroppedLoop) {
  IntMat f(1, 2, {1, 0});  // subscript ignores the inner loop
  IntVec k;
  ASSERT_TRUE(SmallestKernelVector(f, 2, &k));
  EXPECT_EQ(k, (IntVec{0, 1}));
}

TEST(KernelVector, DifferenceVector) {
  IntMat f(1, 2, {1, -1});  // diagonal access: (i+1, j+1) same element
  IntVec k;
  ASSERT_TRUE(SmallestKernelVector(f, 2, &k));
  EXPECT_EQ(f.Apply(k), (IntVec{0}));
  EXPECT_TRUE(ir::LexPositive(k));
}

TEST(KernelVector, NoneForInjectiveAccess) {
  IntMat f(1, 2, {100, 1});
  IntVec k;
  EXPECT_FALSE(SmallestKernelVector(f, 2, &k));
}

// --- dependence analysis ----------------------------------------------------

TEST(Dependence, StencilFlowDistance) {
  // x(i,j) writes M*i + j + M+1; reads offsets 1 and M: distances (1,0),(0,1)
  Int M = 34;
  TestNest t(32, 32, M * M + 2 * M);
  t.Add(Aff(t.arr, {M, 1}, M + 1), Aff(t.arr, {M, 1}, 1), Aff(t.arr, {M, 1}, M));
  DependenceSet deps = AnalyzeDependences(t.p, *t.nest);
  ASSERT_FALSE(deps.deps.empty());
  bool have_10 = false, have_01 = false;
  for (const Dependence& d : deps.deps) {
    if (!d.distance_known) continue;
    if (d.distance == IntVec{1, 0}) have_10 = true;
    if (d.distance == IntVec{0, 1}) have_01 = true;
  }
  EXPECT_TRUE(have_10);
  EXPECT_TRUE(have_01);
}

TEST(Dependence, IndependentArraysProduceNothing) {
  TestNest t(8, 8);
  int b = t.p.AddArray("B", {10000});
  int c = t.p.AddArray("C", {10000});
  t.Add(Aff(c, {8, 1}, 0), Aff(t.arr, {8, 1}, 0), Aff(b, {8, 1}, 0));
  DependenceSet deps = AnalyzeDependences(t.p, *t.nest);
  EXPECT_TRUE(deps.deps.empty());
  EXPECT_TRUE(deps.unknown_arrays.empty());
}

TEST(Dependence, IndirectMarksArrayUnknown) {
  TestNest t(8, 8);
  int idx = t.p.AddArray("idx", {64});
  int tgt = t.p.AddArray("T", {100});
  t.p.index_data[idx] = std::vector<Int>(64, 1);
  AffineAccess ia;
  ia.array = idx;
  ia.F = IntMat(1, 2, {8, 1});
  ia.f = {0};
  // write through indirection + read of the same target array
  t.Add(Operand::Indirect(ia, tgt), Aff(tgt, {8, 1}, 0), Aff(t.arr, {8, 1}, 0));
  DependenceSet deps = AnalyzeDependences(t.p, *t.nest);
  // Several unresolved pairs touch T; it is listed once.
  EXPECT_EQ(deps.unknown_arrays, std::vector<int>{tgt});
  EXPECT_FALSE(deps.ReadHoistIsSafe(tgt, 4, 8));
  // The unrelated array A is still hoistable.
  EXPECT_TRUE(deps.ReadHoistIsSafe(t.arr, 4, 8));
}

TEST(Dependence, ReadHoistBlockedByShortDistance) {
  Int M = 34;
  TestNest t(32, 32, M * M + 2 * M);
  t.Add(Aff(t.arr, {M, 1}, M + 1), Aff(t.arr, {M, 1}, 1), Aff(t.arr, {M, 1}, M));
  DependenceSet deps = AnalyzeDependences(t.p, *t.nest);
  // Distance (0,1) linearizes to 1: any hoist crosses it.
  EXPECT_FALSE(deps.ReadHoistIsSafe(t.arr, 2, 32));
  EXPECT_TRUE(deps.ReadHoistIsSafe(t.arr, 0, 32));
}

TEST(Dependence, ReadOnlyArrayAlwaysHoistable) {
  TestNest t(16, 16);
  int b = t.p.AddArray("B", {10000});
  t.Add(Aff(b, {16, 1}, 0), Aff(t.arr, {16, 1}, 0), Aff(t.arr, {16, 1}, 7));
  DependenceSet deps = AnalyzeDependences(t.p, *t.nest);
  EXPECT_TRUE(deps.ReadHoistIsSafe(t.arr, 100, 16));
}

// --- reuse analysis ---------------------------------------------------------

TEST(Reuse, SelfTemporalWhenLoopDropped) {
  TestNest t(8, 8);
  t.Add(Operand{}, Aff(t.arr, {1, 0}, 0), Aff(t.arr, {8, 1}, 0));
  const Stmt& s = t.nest->body[0];
  ReuseInfo r = AnalyzeReuse(t.p, *t.nest, s.rhs0, 64);
  EXPECT_TRUE(r.self_temporal);
  ReuseInfo r2 = AnalyzeReuse(t.p, *t.nest, s.rhs1, 64);
  EXPECT_FALSE(r2.self_temporal);
}

TEST(Reuse, SelfSpatialForDenseStride) {
  TestNest t(8, 8);
  t.Add(Operand{}, Aff(t.arr, {8, 1}, 0), Aff(t.arr, {64, 8}, 0));
  const Stmt& s = t.nest->body[0];
  EXPECT_TRUE(AnalyzeReuse(t.p, *t.nest, s.rhs0, 64).self_spatial);
  // 8-element (64-byte) stride: a new line every access.
  EXPECT_FALSE(AnalyzeReuse(t.p, *t.nest, s.rhs1, 64).self_spatial);
}

TEST(Reuse, GroupReuseBetweenOffsetRefs) {
  Int M = 34;
  TestNest t(32, 32, 4 * M * M);
  t.Add(Operand{}, Aff(t.arr, {M, 1}, M), Aff(t.arr, {M, 1}, 1));
  const Stmt& s = t.nest->body[0];
  ReuseInfo r = AnalyzeReuse(t.p, *t.nest, s.rhs0, 64);
  EXPECT_TRUE(r.group);
}

TEST(Reuse, CountFutureReusesDirectional) {
  // The swim pattern: p(+M) in S1 is re-touched by p(+1) one outer iteration
  // later (future); p(+1) in S2's reuse source is in the past.
  Int M = 34;
  TestNest t(32, 32, 4 * M * M);
  int u = t.p.AddArray("u", {10000});
  int v = t.p.AddArray("v", {10000});
  t.Add(Aff(u, {32, 1}, 0), Aff(t.arr, {M, 1}, M), Aff(u, {32, 1}, 100));
  t.Add(Aff(v, {32, 1}, 0), Aff(t.arr, {M, 1}, 1), Aff(v, {32, 1}, 100));
  const Stmt& s1 = t.nest->body[0];
  const Stmt& s2 = t.nest->body[1];
  EXPECT_GT(CountFutureReuses(t.p, *t.nest, s1, s1.rhs0), 0);
  EXPECT_EQ(CountFutureReuses(t.p, *t.nest, s2, s2.rhs0), 0);
}

TEST(Reuse, IndirectOperandsReportZero) {
  TestNest t(8, 8);
  int idx = t.p.AddArray("idx", {64});
  int tgt = t.p.AddArray("T", {100});
  AffineAccess ia;
  ia.array = idx;
  ia.F = IntMat(1, 2, {8, 1});
  ia.f = {0};
  t.Add(Operand{}, Operand::Indirect(ia, tgt), Aff(t.arr, {8, 1}, 0));
  const Stmt& s = t.nest->body[0];
  EXPECT_EQ(CountFutureReuses(t.p, *t.nest, s, s.rhs0), 0);
}

// --- use-use chains ---------------------------------------------------------

TEST(UseUse, OnlyTwoMemoryOperandStatements) {
  TestNest t(4, 4);
  t.Add(Operand{}, Aff(t.arr, {4, 1}, 0), Aff(t.arr, {4, 1}, 1));  // chain
  t.Add(Operand{}, Aff(t.arr, {4, 1}, 0), ir::ScalarOperand());  // not a chain
  t.Add(Operand{}, ir::ScalarOperand(), ir::ScalarOperand());    // not a chain
  auto chains = ExtractUseUseChains(*t.nest);
  ASSERT_EQ(chains.size(), 1u);
  EXPECT_EQ(chains[0].stmt_idx, 0);
}

// --- CME --------------------------------------------------------------------

TEST(Cme, ColdFaceAndStreamPrediction) {
  // 64-byte-strided stream (no reuse): every access misses.
  TestNest t(16, 16, 100000);
  t.Add(Operand{}, Aff(t.arr, {16 * 8, 8}, 0), Aff(t.arr, {16 * 8, 8}, 4));
  CmePredictor cme(t.p, *t.nest, CacheSpec{}, CacheSpec{512 * 1024, 256, 64}, 25);
  EXPECT_GT(cme.MissProbL1(0, OperandSel::kRhs0), 0.9);
}

TEST(Cme, DenseStrideMostlyHits) {
  TestNest t(16, 64, 100000);
  int b = t.p.AddArray("B", {100000});
  t.Add(Operand{}, Aff(t.arr, {64, 1}, 0), Aff(b, {64, 1}, 0));
  CmePredictor cme(t.p, *t.nest, CacheSpec{}, CacheSpec{512 * 1024, 256, 64}, 25);
  // 8-byte stride: roughly 1 miss per 8 accesses.
  EXPECT_LT(cme.MissProbL1(0, OperandSel::kRhs0), 0.4);
}

TEST(Cme, SameLinePartnerPredictsHit) {
  TestNest t(16, 16, 100000);
  // Two operands 8 bytes apart: the second rides the first's line fill.
  t.Add(Operand{}, Aff(t.arr, {16 * 8, 8}, 0), Aff(t.arr, {16 * 8, 8}, 1));
  CmePredictor cme(t.p, *t.nest, CacheSpec{}, CacheSpec{512 * 1024, 256, 64}, 25);
  EXPECT_GT(cme.MissProbL1(0, OperandSel::kRhs0), 0.9);
  EXPECT_LT(cme.MissProbL1(0, OperandSel::kRhs1), 0.1);
}

TEST(Cme, IndirectIsPessimistic) {
  TestNest t(8, 8);
  int idx = t.p.AddArray("idx", {64});
  int tgt = t.p.AddArray("T", {100});
  t.p.index_data[idx] = std::vector<Int>(64, 5);
  AffineAccess ia;
  ia.array = idx;
  ia.F = IntMat(1, 2, {8, 1});
  ia.f = {0};
  t.Add(Operand{}, Operand::Indirect(ia, tgt), Aff(t.arr, {8, 1}, 0));
  CmePredictor cme(t.p, *t.nest, CacheSpec{}, CacheSpec{512 * 1024, 256, 64}, 25);
  EXPECT_DOUBLE_EQ(cme.MissProbL1(0, OperandSel::kRhs0), 1.0);
}

TEST(Cme, WarmArraysSuppressColdMisses) {
  TestNest t(4, 64, 100000);
  t.Add(Operand{}, Aff(t.arr, {64, 1}, 0), Aff(t.arr, {64, 1}, 1));
  CmePredictor cold(t.p, *t.nest, CacheSpec{}, CacheSpec{512 * 1024, 256, 64}, 25);
  CmePredictor warm(t.p, *t.nest, CacheSpec{}, CacheSpec{512 * 1024, 256, 64}, 25,
                    {t.arr});
  EXPECT_LE(warm.MissProbL1(0, OperandSel::kRhs0), cold.MissProbL1(0, OperandSel::kRhs0));
}

}  // namespace
}  // namespace ndc::analysis
