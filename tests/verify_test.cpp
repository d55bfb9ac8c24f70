// Tests for the diagnostics subsystem (src/verify): the structured
// diagnostics engine, the IR validator, the legality auditor (which must
// flag deliberately injected unsafe leads), the
// parallel-loop race detector, and the audit every Compile() runs.

#include <gtest/gtest.h>

#include <map>

#include "compiler/pipeline.hpp"
#include "json_parse.hpp"
#include "verify/sarif.hpp"
#include "verify/verify.hpp"
#include "workloads/workloads.hpp"
#include "test_support.hpp"

namespace ndc::verify {
namespace {

using ir::Int;
using ir::IntMat;
using ir::IntVec;
using ir::Operand;

// --- helpers -------------------------------------------------------------

// A clean depth-2 program: B(i,j) = A(i,j) + A(i,j) over [0,n) x [0,n).
ir::Program CleanProgram(Int n = 8) {
  ir::Program p;
  p.name = "clean";
  int a = p.AddArray("A", {n, n});
  int b = p.AddArray("B", {n, n});
  ir::LoopNest nest;
  nest.loops = {{0, n - 1, -1, 0, -1, 0}, {0, n - 1, -1, 0, -1, 0}};
  ir::Stmt st;
  st.id = p.NextStmtId();
  ir::AffineAccess acc;
  acc.array = a;
  acc.F = IntMat(2, 2, {1, 0, 0, 1});
  acc.f = {0, 0};
  st.rhs0 = Operand::Affine(acc);
  st.rhs1 = Operand::Affine(acc);
  ir::AffineAccess out = acc;
  out.array = b;
  st.lhs = Operand::Affine(out);
  nest.body.push_back(st);
  p.nests.push_back(std::move(nest));
  return p;
}

// A program with a flow dependence of distance (0,1) on A:
//   A(i, j+1) = A(i, j) + B(i, j)   for j in [0, n-2]
ir::Program FlowDepProgram(Int n = 8) {
  ir::Program p;
  p.name = "flowdep";
  int a = p.AddArray("A", {n, n});
  int b = p.AddArray("B", {n, n});
  ir::LoopNest nest;
  nest.loops = {{0, n - 1, -1, 0, -1, 0}, {0, n - 2, -1, 0, -1, 0}};
  ir::Stmt st;
  st.id = p.NextStmtId();
  ir::AffineAccess rd;
  rd.array = a;
  rd.F = IntMat(2, 2, {1, 0, 0, 1});
  rd.f = {0, 0};
  ir::AffineAccess rd2 = rd;
  rd2.array = b;
  ir::AffineAccess wr = rd;
  wr.f = {0, 1};
  st.rhs0 = Operand::Affine(rd);
  st.rhs1 = Operand::Affine(rd2);
  st.lhs = Operand::Affine(wr);
  nest.body.push_back(st);
  p.nests.push_back(std::move(nest));
  return p;
}

// A 1-row (linearized) affine operand c0*i + c1*j + off of a depth-2 nest.
Operand Lin(int array, Int c0, Int c1, Int off) {
  ir::AffineAccess a;
  a.array = array;
  a.F = IntMat(1, 2, {c0, c1});
  a.f = {off};
  return Operand::Affine(a);
}

// Appends the nest lhs = rhs0 + rhs1 over [0,n0) x [0,n1).
void AddLinearNest(ir::Program* p, Int n0, Int n1, Operand lhs, Operand rhs0, Operand rhs1) {
  ir::LoopNest nest;
  nest.loops = {{0, n0 - 1, -1, 0, -1, 0}, {0, n1 - 1, -1, 0, -1, 0}};
  ir::Stmt st;
  st.id = p->NextStmtId();
  st.lhs = std::move(lhs);
  st.rhs0 = std::move(rhs0);
  st.rhs1 = std::move(rhs1);
  nest.body.push_back(std::move(st));
  p->nests.push_back(std::move(nest));
}

int CountCode(const Report& r, Code c) {
  int n = 0;
  for (const Diagnostic& d : r.diags) n += d.code == c;
  return n;
}

// --- diagnostics engine --------------------------------------------------

TEST(Diagnostics, CountsAndCleanliness) {
  Report r;
  EXPECT_EQ(r.ErrorCount(), 0);
  r.Add(Severity::kNote, Code::kEmptyNest, "n");
  r.Add(Severity::kWarning, Code::kSubscriptOutOfBounds, "w");
  EXPECT_EQ(r.ErrorCount(), 0);
  r.Add(Severity::kError, Code::kUnsafeLead, "e");
  EXPECT_EQ(r.ErrorCount(), 1);
  EXPECT_EQ(r.WarningCount(), 1);
  EXPECT_EQ(r.Count(Severity::kNote), 1);
}

TEST(Diagnostics, TextRenderingCarriesLocationAndCode) {
  Report r;
  r.Add(Severity::kError, Code::kUnsafeLead, "bad lead", 3, 1, 42, 7);
  std::string text = r.ToText();
  EXPECT_NE(text.find("error"), std::string::npos);
  EXPECT_NE(text.find("L203"), std::string::npos);  // legality codes render as L2xx
  EXPECT_NE(text.find("unsafe-lead"), std::string::npos);
  EXPECT_NE(text.find("nest 3"), std::string::npos);
  EXPECT_NE(text.find("stmt 1"), std::string::npos);
  EXPECT_NE(text.find("S42"), std::string::npos);
  EXPECT_NE(text.find("array 7"), std::string::npos);
  EXPECT_NE(text.find("bad lead"), std::string::npos);
}

// `obj[key]`, failing the test (and yielding null) when the key is absent.
const json::Value& Member(const json::Value& obj, const char* key) {
  static const json::Value kMissing;
  const json::Value* v = Find(obj, key);
  if (v == nullptr) ADD_FAILURE() << "missing key " << key;
  return v != nullptr ? *v : kMissing;
}

TEST(Diagnostics, JsonRenderingIsWellFormed) {
  Report r;
  EXPECT_EQ(json::Dump(r.ToJson()), "[]");
  const std::string msg = "quote \" and \\ backslash\rcr";
  r.Add(Severity::kWarning, Code::kSubscriptOutOfBounds, msg, 0, 2, 9, 1);
  r.Add(Severity::kError, Code::kUnsafeLead, "second", 1);
  std::string js = json::Dump(r.ToJson());
  json::Value v;
  std::string err;
  ASSERT_TRUE(json::Parse(js, &v, &err)) << err << "\n" << js;
  ASSERT_TRUE(IsArray(v));
  ASSERT_EQ(v.arr.size(), 2u);  // one object per finding, in report order
  const json::Value& a = v.arr[0];
  EXPECT_EQ(Member(a, "severity").str, "warning");
  EXPECT_EQ(AsU64(Member(a, "code")), 105u);
  EXPECT_EQ(Member(a, "name").str, "subscript-out-of-bounds");
  EXPECT_EQ(AsDouble(Member(a, "nest")), 0.0);
  EXPECT_EQ(AsDouble(Member(a, "stmt")), 2.0);
  EXPECT_EQ(AsU64(Member(a, "stmt_id")), 9u);
  EXPECT_EQ(AsDouble(Member(a, "array")), 1.0);
  EXPECT_EQ(Member(a, "message").str, msg);
  const json::Value& b = v.arr[1];
  EXPECT_EQ(Member(b, "severity").str, "error");
  EXPECT_EQ(AsU64(Member(b, "code")), 203u);
  EXPECT_EQ(AsDouble(Member(b, "nest")), 1.0);
  EXPECT_EQ(AsDouble(Member(b, "stmt")), -1.0);  // "none" stays -1
  EXPECT_EQ(Member(b, "message").str, "second");
  EXPECT_NE(js.find("\\\""), std::string::npos);   // escaped quote
  EXPECT_NE(js.find("\\\\"), std::string::npos);   // escaped backslash
  EXPECT_NE(js.find("backslash\\rcr"), std::string::npos);  // named \r escape
  EXPECT_EQ(js.find('\r'), std::string::npos);
}

TEST(Diagnostics, MergeConcatenates) {
  Report a, b;
  a.Add(Severity::kError, Code::kUnsafeLead, "x");
  b.Add(Severity::kWarning, Code::kEmptyNest, "y");
  a.Merge(b);
  EXPECT_EQ(a.diags.size(), 2u);
}

// --- IR validator --------------------------------------------------------

TEST(Validator, CleanProgramHasNoFindings) {
  ir::Program p = CleanProgram();
  Report r = VerifyProgram(p);
  EXPECT_EQ(r.ErrorCount(), 0) << r.ToText();
  EXPECT_EQ(r.diags.size(), 0u) << r.ToText();
}

TEST(Validator, FlagsInvalidArrayId) {
  ir::Program p = CleanProgram();
  p.nests[0].body[0].rhs0.access.array = 99;
  Report r = VerifyProgram(p);
  EXPECT_GE(CountCode(r, Code::kBadArrayRef), 1) << r.ToText();
  EXPECT_GT(r.ErrorCount(), 0);
}

TEST(Validator, FlagsShapeMismatch) {
  ir::Program p = CleanProgram();
  // F with the wrong number of columns for a depth-2 nest.
  p.nests[0].body[0].rhs0.access.F = IntMat(2, 3, {1, 0, 0, 0, 1, 0});
  Report r = VerifyProgram(p);
  EXPECT_GE(CountCode(r, Code::kShapeMismatch), 1) << r.ToText();
  EXPECT_GT(r.ErrorCount(), 0);
}

TEST(Validator, BoundaryOverrunIsAWarningNotAnError) {
  ir::Program p = CleanProgram(8);
  // A(i, j+1): j+1 reaches 8 on an 8-wide array — skipped at runtime.
  p.nests[0].body[0].rhs0.access.f = {0, 1};
  Report r = VerifyProgram(p);
  EXPECT_EQ(CountCode(r, Code::kSubscriptOutOfBounds), 1) << r.ToText();
  EXPECT_EQ(r.ErrorCount(), 0);
}

TEST(Validator, NeverInBoundsIsAnError) {
  ir::Program p = CleanProgram(8);
  // A(i, j+100) can never resolve on an 8-wide array.
  p.nests[0].body[0].rhs0.access.f = {0, 100};
  Report r = VerifyProgram(p);
  EXPECT_GE(CountCode(r, Code::kSubscriptNeverInBounds), 1) << r.ToText();
  EXPECT_GT(r.ErrorCount(), 0);
}

TEST(Validator, TriangularBoundsAreHandled) {
  // j in [0, i]: A(i, j) stays in bounds; no findings beyond the (real)
  // kernel-style self-dependence warnings must appear.
  ir::Program p;
  Int n = 6;
  int a = p.AddArray("A", {n, n});
  ir::LoopNest nest;
  nest.loops = {{0, n - 1, -1, 0, -1, 0}, {0, 0, -1, 0, 0, 1}};
  ir::Stmt st;
  st.id = p.NextStmtId();
  ir::AffineAccess acc;
  acc.array = a;
  acc.F = IntMat(2, 2, {1, 0, 0, 1});
  acc.f = {0, 0};
  st.rhs0 = Operand::Affine(acc);
  st.rhs1 = Operand::Affine(acc);
  nest.body.push_back(st);
  p.nests.push_back(std::move(nest));
  Report r = VerifyProgram(p);
  EXPECT_EQ(CountCode(r, Code::kSubscriptOutOfBounds), 0) << r.ToText();
  EXPECT_EQ(CountCode(r, Code::kSubscriptNeverInBounds), 0) << r.ToText();
}

TEST(Validator, FlagsBadLoopBoundDependence) {
  ir::Program p = CleanProgram();
  p.nests[0].loops[0].hi_dep = 1;  // outer bound depending on inner iterator
  p.nests[0].loops[0].hi_coef = 1;
  Report r = VerifyProgram(p);
  EXPECT_GE(CountCode(r, Code::kBadLoopBound), 1) << r.ToText();
  EXPECT_GT(r.ErrorCount(), 0);
}

TEST(Validator, FlagsLeadBeyondMaxLead) {
  ir::Program p = CleanProgram();
  ir::Stmt& st = p.nests[0].body[0];
  st.ndc.offload = true;
  st.ndc.lead1 = 65;  // default max_lead is 64
  Report r = VerifyProgram(p);
  EXPECT_GE(CountCode(r, Code::kLeadExceedsMax), 1) << r.ToText();
  EXPECT_GT(r.ErrorCount(), 0);
}

TEST(Validator, FlagsMaskedOffPlannedLocation) {
  ir::Program p = CleanProgram();
  ir::Stmt& st = p.nests[0].body[0];
  st.ndc.offload = true;
  st.ndc.planned = arch::Loc::kMemBank;
  VerifyOptions opts;
  opts.control_register = arch::LocBit(arch::Loc::kCacheCtrl);  // cache only
  Report r = VerifyProgram(p, opts);
  EXPECT_GE(CountCode(r, Code::kLocNotEnabled), 1) << r.ToText();
  EXPECT_GT(r.ErrorCount(), 0);
}

TEST(Validator, FlagsOffloadWithoutTwoMemoryOperands) {
  ir::Program p = CleanProgram();
  ir::Stmt& st = p.nests[0].body[0];
  st.rhs1 = ir::ScalarOperand();
  st.ndc.offload = true;
  Report r = VerifyProgram(p);
  EXPECT_GE(CountCode(r, Code::kOffloadNeedsTwoLoads), 1) << r.ToText();
  EXPECT_GT(r.ErrorCount(), 0);
}

TEST(Validator, FlagsMissingIndexData) {
  ir::Program p = CleanProgram();
  int idx = p.AddArray("idx", {8});
  ir::AffineAccess ia;
  ia.array = idx;
  ia.F = IntMat(1, 2, {1, 0});
  ia.f = {0};
  p.nests[0].body[0].rhs1 = Operand::Indirect(ia, 0);
  // No p.index_data[idx] registered.
  Report r = VerifyProgram(p);
  EXPECT_GE(CountCode(r, Code::kMissingIndexData), 1) << r.ToText();
}

TEST(Validator, FlagsIndexValuesOutsideTargetArray) {
  ir::Program p = CleanProgram();
  int idx = p.AddArray("idx", {8});
  ir::AffineAccess ia;
  ia.array = idx;
  ia.F = IntMat(1, 2, {1, 0});
  ia.f = {0};
  p.nests[0].body[0].rhs1 = Operand::Indirect(ia, 0);
  p.index_data[idx] = {0, 1, 2, 3, 999999, 5, 6, 7};  // one wild entry
  Report r = VerifyProgram(p);
  EXPECT_GE(CountCode(r, Code::kIndexValueOutOfRange), 1) << r.ToText();
}

TEST(Validator, FlagsStatementsWithoutLoops) {
  ir::Program p = CleanProgram();
  ir::LoopNest empty;
  empty.body.push_back(p.nests[0].body[0]);
  p.nests.push_back(std::move(empty));
  Report r = VerifyProgram(p);
  EXPECT_GE(CountCode(r, Code::kEmptyNest), 1) << r.ToText();
  EXPECT_GT(r.ErrorCount(), 0);
}

TEST(Validator, FlagsDuplicateStatementIdsWithinOneBody) {
  ir::Program p = CleanProgram();
  p.nests[0].body.push_back(p.nests[0].body[0]);  // same id twice
  Report r = VerifyProgram(p);
  EXPECT_GE(CountCode(r, Code::kDuplicateStmtId), 1) << r.ToText();
}

// --- legality auditor (acceptance: must catch injected bugs) -------------

TEST(LegalityAudit, FlagsDeliberatelyUnsafeLead) {
  // The read A(i,j) is one iteration behind the write A(i,j+1): hoisting it
  // by a lead that crosses the flow dependence is unsafe.
  ir::Program p = FlowDepProgram();
  ir::Stmt& st = p.nests[0].body[0];
  st.ndc.offload = true;
  st.ndc.planned = arch::Loc::kCacheCtrl;
  st.ndc.lead0 = 4;  // rhs0 reads A; distance linearizes to 1 <= 4
  Report r = VerifyProgram(p);
  EXPECT_GE(CountCode(r, Code::kUnsafeLead), 1) << r.ToText();
  EXPECT_GT(r.ErrorCount(), 0);
}

TEST(LegalityAudit, AcceptsSafeLeadOnUnrelatedArray) {
  // rhs1 reads B, which nothing writes: any in-range lead is safe.
  ir::Program p = FlowDepProgram();
  ir::Stmt& st = p.nests[0].body[0];
  st.ndc.offload = true;
  st.ndc.planned = arch::Loc::kCacheCtrl;
  st.ndc.lead1 = 4;
  Report r = VerifyProgram(p);
  EXPECT_EQ(CountCode(r, Code::kUnsafeLead), 0) << r.ToText();
  EXPECT_EQ(r.ErrorCount(), 0) << r.ToText();
}

TEST(LegalityAudit, FlagsLeadOnArrayWithUnknownDependences) {
  // An indirect write makes A's dependences unanalyzable; a lead on a read
  // of A can then never be proven safe.
  ir::Program p = CleanProgram();
  int idx = p.AddArray("idx", {8});
  p.index_data[idx] = {0, 1, 2, 3, 4, 5, 6, 7};
  ir::AffineAccess ia;
  ia.array = idx;
  ia.F = IntMat(1, 2, {1, 0});
  ia.f = {0};
  ir::Stmt extra;
  extra.id = p.NextStmtId();
  extra.lhs = Operand::Indirect(ia, 0);  // writes A through idx
  extra.rhs0 = p.nests[0].body[0].rhs0;
  extra.rhs1 = ir::ScalarOperand();
  p.nests[0].body.push_back(extra);
  ir::Stmt& st = p.nests[0].body[0];
  st.ndc.offload = true;
  st.ndc.lead0 = 2;  // reads A, whose deps are now unknown
  Report r = VerifyProgram(p);
  EXPECT_GE(CountCode(r, Code::kLeadOnUnknownArray), 1) << r.ToText();
  EXPECT_GT(r.ErrorCount(), 0);
}

// --- race detector -------------------------------------------------------

TEST(RaceDetector, FlagsOuterCarriedDependence) {
  // A(i+1, j) = A(i, j) + B(i, j): distance (1, 0) is carried by the
  // block-distributed outer loop.
  ir::Program p = FlowDepProgram();
  p.nests[0].body[0].lhs.access.f = {1, 0};
  Report r = VerifyProgram(p);
  EXPECT_GE(CountCode(r, Code::kParallelCarriedDependence), 1) << r.ToText();
  EXPECT_EQ(r.ErrorCount(), 0) << r.ToText();  // races are warnings, not errors
}

TEST(RaceDetector, InnerCarriedDependenceIsNotARace) {
  // Distance (0, 1) stays within one core's iteration block.
  ir::Program p = FlowDepProgram();
  Report r = VerifyProgram(p);
  EXPECT_EQ(CountCode(r, Code::kParallelCarriedDependence), 0) << r.ToText();
}

// x[2i+2j] vs x[2i+2j+2]: the distance is ambiguous ((1,0) and (0,1) both
// fit), so the pair is an unknown dependence on x.
TEST(RaceDetector, AmbiguousOverlappingPairStaysUnknown) {
  ir::Program p;
  int x = p.AddArray("x", {40});
  int a = p.AddArray("a", {40});
  AddLinearNest(&p, 10, 10, Lin(x, 2, 2, 0), Lin(a, 2, 2, 0), Lin(x, 2, 2, 2));
  Report r = VerifyProgram(p);
  ASSERT_GE(CountCode(r, Code::kParallelUnknownDependence), 1) << r.ToText();
  for (const Diagnostic& d : r.diags) {
    if (d.code == Code::kParallelUnknownDependence) {
      EXPECT_EQ(d.array, x);
    }
  }
}

// An indirect write A[idx(8i+j)] is never refutable statically.
TEST(RaceDetector, IndirectReferenceIsAnUnknownDependence) {
  ir::Program p;
  int a = p.AddArray("A", {64});
  int idx = p.AddArray("idx", {64});
  p.index_data[idx] = std::vector<Int>(64, 0);
  ir::AffineAccess ia;
  ia.array = idx;
  ia.F = IntMat(1, 2, {8, 1});
  ia.f = {0};
  AddLinearNest(&p, 8, 8, Operand::Indirect(ia, a), Lin(a, 8, 1, 0), Lin(a, 8, 1, 0));
  Report r = VerifyProgram(p);
  EXPECT_GE(CountCode(r, Code::kParallelUnknownDependence), 1) << r.ToText();
}

// --- report determinism and SARIF export ----------------------------------

TEST(ReportOrdering, SortIsByNestStmtCode) {
  Report r;
  r.Add(Severity::kWarning, Code::kParallelCarriedDependence, "b", 2, 1);
  r.Add(Severity::kError, Code::kBadArrayRef, "a", 0, 3);
  r.Add(Severity::kError, Code::kShapeMismatch, "c", 0, 1);
  r.Add(Severity::kError, Code::kBadArrayRef, "d", 0, 1);
  r.Sort();
  ASSERT_EQ(r.diags.size(), 4u);
  EXPECT_EQ(r.diags[0].message, "d");  // nest 0, stmt 1, code 101
  EXPECT_EQ(r.diags[1].message, "c");  // nest 0, stmt 1, code 102
  EXPECT_EQ(r.diags[2].message, "a");  // nest 0, stmt 3
  EXPECT_EQ(r.diags[3].message, "b");  // nest 2
}

TEST(ReportOrdering, VerifyProgramOutputIsByteStable) {
  ir::Program p1 = FlowDepProgram();
  p1.nests[0].body[0].lhs.access.f = {1, 0};
  ir::Program p2 = FlowDepProgram();
  p2.nests[0].body[0].lhs.access.f = {1, 0};
  EXPECT_EQ(VerifyProgram(p1).ToText(), VerifyProgram(p2).ToText());
}

// The one run of a SARIF log, after checking the log's envelope.
const json::Value& SarifRun(const json::Value& log) {
  static const json::Value kMissing;
  EXPECT_EQ(Member(log, "version").str, "2.1.0");
  const json::Value& runs = Member(log, "runs");
  EXPECT_TRUE(IsArray(runs) && runs.arr.size() == 1u);
  return runs.arr.empty() ? kMissing : runs.arr[0];
}

TEST(Sarif, EmptyReportIsAValidSkeleton) {
  Report r;
  std::string s = ToSarif(r);
  json::Value log;
  std::string err;
  ASSERT_TRUE(json::Parse(s, &log, &err)) << err << "\n" << s;
  const json::Value& run = SarifRun(log);
  const json::Value& results = Member(run, "results");
  EXPECT_TRUE(IsArray(results));
  EXPECT_TRUE(results.arr.empty());
  const json::Value& rules = Member(Member(Member(run, "tool"), "driver"), "rules");
  EXPECT_TRUE(IsArray(rules));
  EXPECT_TRUE(rules.arr.empty());
}

TEST(Sarif, FindingsCarryRuleIdsLevelsAndEscapedText) {
  Report r;
  r.Add(Severity::kWarning, Code::kParallelCarriedDependence, "carried", 0, 0);
  r.Add(Severity::kError, Code::kUnsafeLead, "dist \"(1,0)\"", 2, 1, 0, 3);
  std::string s = ToSarif(r);
  json::Value log;
  std::string err;
  ASSERT_TRUE(json::Parse(s, &log, &err)) << err << "\n" << s;
  const json::Value& run = SarifRun(log);
  const json::Value& results = Member(run, "results");
  ASSERT_TRUE(IsArray(results));
  ASSERT_EQ(results.arr.size(), 2u);  // in report order
  const json::Value& carried = results.arr[0];
  EXPECT_EQ(Member(carried, "ruleId").str, "R301");
  EXPECT_EQ(Member(carried, "level").str, "warning");
  const json::Value& unsafe = results.arr[1];
  EXPECT_EQ(Member(unsafe, "ruleId").str, "L203");
  EXPECT_EQ(Member(unsafe, "level").str, "error");
  EXPECT_EQ(Member(Member(unsafe, "message"), "text").str, "dist \"(1,0)\"");
  EXPECT_NE(s.find("dist \\\"(1,0)\\\""), std::string::npos) << s;
  const json::Value& locations = Member(unsafe, "locations");
  ASSERT_TRUE(IsArray(locations) && !locations.arr.empty());
  const json::Value& logical = Member(locations.arr[0], "logicalLocations");
  ASSERT_TRUE(IsArray(logical) && !logical.arr.empty());
  EXPECT_EQ(Member(logical.arr[0], "fullyQualifiedName").str, "nest2/stmt1");
  // Rules are listed once per distinct code, ordered by numeric code, and
  // each result points at its rule.
  const json::Value& rules = Member(Member(Member(run, "tool"), "driver"), "rules");
  ASSERT_TRUE(IsArray(rules));
  ASSERT_EQ(rules.arr.size(), 2u);
  EXPECT_EQ(Member(rules.arr[0], "id").str, "L203");
  EXPECT_EQ(Member(rules.arr[0], "name").str, "unsafe-lead");
  EXPECT_EQ(Member(rules.arr[1], "id").str, "R301");
  EXPECT_EQ(AsU64(Member(unsafe, "ruleIndex")), 0u);
  EXPECT_EQ(AsU64(Member(carried, "ruleIndex")), 1u);
}

TEST(Sarif, RoundTripsControlCharactersAndMultiByteRunes) {
  // One message exercising every escape class: quote, backslash, newline,
  // tab, carriage return, backspace, form feed, a bare control byte, and a
  // multi-byte UTF-8 rune (U+2192 RIGHTWARDS ARROW). The exporter's output
  // must parse as JSON and decode back to the exact original bytes — in
  // particular the rune's three bytes must pass through unescaped.
  const std::string msg =
      "dist \"x\" a\\b\nnl\ttab\rcr\bbs\fff \x01 S0\xE2\x86\x92S1";
  Report rep;
  rep.Add(Severity::kError, Code::kUnsafeLead, msg, 1, 2);
  std::string s = ToSarif(rep);

  json::Value log;
  std::string err;
  ASSERT_TRUE(json::Parse(s, &log, &err)) << err << "\n" << s;
  const json::Value& results = Member(SarifRun(log), "results");
  ASSERT_TRUE(IsArray(results) && !results.arr.empty());
  EXPECT_EQ(Member(Member(results.arr[0], "message"), "text").str, msg);  // byte-identical
  EXPECT_EQ(Member(results.arr[0], "ruleId").str, "L203");
  EXPECT_NE(s.find("\xE2\x86\x92"), std::string::npos);  // rune stayed raw
  EXPECT_EQ(s.find('\r'), std::string::npos);  // no raw control bytes leak
  EXPECT_EQ(s.find('\x01'), std::string::npos);
}

// --- pipeline integration ------------------------------------------------

// Pins the linter's findings on the 20 benchmarks at test scale: no errors
// in any mode, two carried-dependence races (R301) on each of the four
// benchmarks whose outer loop carries one, two unanalyzable arrays (R302) on
// lu, and nothing else. ndc-lint reports the same 32 R301 + 8 R302.
TEST(VerifyAfterCompile, ShippedPipelineIsCleanOnAllModes) {
  const std::map<std::string, std::pair<int, int>> expected = {  // {R301, R302}
      {"applu", {2, 0}}, {"lu", {2, 2}}, {"ocean", {2, 0}}, {"smith.wa", {2, 0}}};
  arch::ArchConfig cfg;
  compiler::ArchDescription ad(cfg);
  int r301 = 0, r302 = 0;
  for (const std::string& name : workloads::BenchmarkNames()) {
    auto it = expected.find(name);
    std::pair<int, int> want = it == expected.end() ? std::pair<int, int>{0, 0} : it->second;
    for (compiler::Mode mode :
         {compiler::Mode::kBaseline, compiler::Mode::kAlgorithm1,
          compiler::Mode::kAlgorithm2, compiler::Mode::kCoarseGrain}) {
      ir::Program prog = workloads::BuildWorkload(name, workloads::Scale::kTest);
      compiler::CompileOptions opt;
      opt.mode = mode;
      compiler::CompileReport rep = compiler::Compile(prog, ad, opt);
      const Report& v = rep.verify;
      std::string where = name + " " + compiler::ModeName(mode) + "\n" + v.ToText();
      EXPECT_EQ(v.ErrorCount(), 0) << where;
      EXPECT_EQ(CountCode(v, Code::kParallelCarriedDependence), want.first) << where;
      EXPECT_EQ(CountCode(v, Code::kParallelUnknownDependence), want.second) << where;
      EXPECT_EQ(v.WarningCount(), want.first + want.second) << where;
      r301 += CountCode(v, Code::kParallelCarriedDependence);
      r302 += CountCode(v, Code::kParallelUnknownDependence);
    }
  }
  EXPECT_EQ(r301, 32);
  EXPECT_EQ(r302, 8);
}

TEST(VerifyAfterCompile, AuditHonorsRestrictedControlRegister) {
  // Compile with a cache-only control register: every planned location must
  // respect the mask, and the auditor (given the same mask) must agree.
  arch::ArchConfig cfg;
  compiler::ArchDescription ad(cfg);
  ir::Program prog = workloads::BuildWorkload("swim", workloads::Scale::kTest);
  compiler::CompileOptions opt;
  opt.mode = compiler::Mode::kAlgorithm1;
  opt.control_register = arch::LocBit(arch::Loc::kCacheCtrl);
  compiler::CompileReport rep = compiler::Compile(prog, ad, opt);
  EXPECT_EQ(rep.verify.ErrorCount(), 0) << rep.verify.ToText();
}

}  // namespace
}  // namespace ndc::verify
