// src/json unit tests: the serializer, the escaper's classes, the strict
// number and \u grammar of the tests' parser (tests/json_parse.hpp), and
// the two emitters that live in binaries (ndc-lint --json, the
// bench_substrate report), which are run and their output parsed back.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "json_parse.hpp"

namespace ndc::json {
namespace {

TEST(Json, DumpIsDeterministicAndParsesBack) {
  Value v = Value::Object();
  v.obj["b"] = Value::Int(42);
  v.obj["a"] = Value::Str("x\"y\n");
  v.obj["c"] = Value::Array();
  v.obj["c"].arr.push_back(Bool(true));
  v.obj["c"].arr.push_back(Value::Double(1.5));
  v.obj["c"].arr.push_back(Value());

  std::string s = Dump(v);
  EXPECT_EQ(s, "{\"a\":\"x\\\"y\\n\",\"b\":42,\"c\":[true,1.5,null]}");

  Value back;
  ASSERT_TRUE(Parse(s, &back));
  EXPECT_EQ(Dump(back), s);
}

TEST(Json, RejectsMalformedInput) {
  Value v;
  EXPECT_FALSE(Parse("{\"a\":}", &v));
  EXPECT_FALSE(Parse("[1,2", &v));
  EXPECT_FALSE(Parse("{} trailing", &v));
  EXPECT_FALSE(Parse("", &v));
}

TEST(Json, RoundTripsLargeIntegersExactly) {
  Value v = Value::Int(18446744073709551615ull);
  Value back;
  ASSERT_TRUE(Parse(Dump(v), &back));
  EXPECT_EQ(AsU64(back), 18446744073709551615ull);
}

// Every escape class Dump knows: quote, backslash, the five named
// control escapes, a bare control byte (\u0001, and 0x1f at the top of the
// range) and a multi-byte UTF-8 rune (U+2192), which must stay raw.
TEST(Json, EveryEscapeClassRoundTripsByteForByte) {
  const std::string s = "q\" b\\ \b \f \n \r \t \x01 \x1f S0\xE2\x86\x92S1";
  std::string text = Dump(Value::Str(s));
  EXPECT_EQ(text, "\"q\\\" b\\\\ \\b \\f \\n \\r \\t \\u0001 \\u001f S0\xE2\x86\x92S1\"");
  Value back;
  std::string err;
  ASSERT_TRUE(Parse(text, &back, &err)) << err;
  EXPECT_EQ(back.str, s);
}

TEST(Json, SignedWritesNegativeIntegersWithoutAFraction) {
  EXPECT_EQ(Dump(Value::Signed(-1)), "-1");
  EXPECT_EQ(Dump(Value::Signed(7)), "7");
  EXPECT_EQ(Value::Signed(7).kind, Value::Kind::kInt);
  Value back;
  ASSERT_TRUE(Parse("-1", &back));
  EXPECT_EQ(AsDouble(back), -1.0);
}

TEST(Json, AcceptsEveryNumberForm) {
  Value v;
  ASSERT_TRUE(Parse("[0,-0,12,-3.25,1e3,1E+2,2.5e-1]", &v));
  ASSERT_EQ(v.arr.size(), 7u);
  EXPECT_EQ(v.arr[2].kind, Value::Kind::kInt);
  EXPECT_EQ(AsU64(v.arr[2]), 12u);
  EXPECT_EQ(AsDouble(v.arr[3]), -3.25);
  EXPECT_EQ(AsDouble(v.arr[4]), 1000.0);
  EXPECT_EQ(AsDouble(v.arr[5]), 100.0);
  EXPECT_EQ(AsDouble(v.arr[6]), 0.25);
}

TEST(Json, RejectsASignWithoutDigits) {
  Value v;
  EXPECT_FALSE(Parse("[-]", &v));
}

TEST(Json, RejectsASignInsideANumber) {
  Value v;
  EXPECT_FALSE(Parse("[1-2]", &v));
}

TEST(Json, RejectsTwoDecimalPoints) {
  Value v;
  EXPECT_FALSE(Parse("[1.2.3]", &v));
}

TEST(Json, RejectsAnExponentWithoutDigits) {
  Value v;
  EXPECT_FALSE(Parse("[1e]", &v));
}

TEST(Json, RejectsAnIntegerPast64Bits) {
  Value v;
  EXPECT_FALSE(Parse("[99999999999999999999]", &v));
  EXPECT_TRUE(Parse("[18446744073709551615]", &v));
}

TEST(Json, RejectsAUnicodeEscapeAbove7f) {
  Value v;
  EXPECT_FALSE(Parse("\"\\u2192\"", &v));
  EXPECT_FALSE(Parse("\"\\u0080\"", &v));
  ASSERT_TRUE(Parse("\"\\u007f\"", &v));
  EXPECT_EQ(v.str, "\x7f");
}

// --------------------------------------------------- emitters in binaries ---

// Runs `cmd` and returns its stdout; `status` gets the exit status.
std::string RunCommand(const std::string& cmd, int* status) {
  std::string out;
  std::FILE* p = popen(cmd.c_str(), "r");
  if (p == nullptr) return out;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), p)) > 0) out.append(buf, n);
  *status = pclose(p);
  return out;
}

TEST(JsonEmitters, LintJsonParses) {
  int status = -1;
  std::string out =
      RunCommand(std::string(NDC_LINT_BIN) + " --scale=test --workload=lu --json", &status);
  EXPECT_EQ(status, 0);  // lu's race findings are warnings
  Value v;
  std::string err;
  ASSERT_TRUE(Parse(out, &v, &err)) << err << "\n" << out;
  ASSERT_TRUE(IsArray(v));
  ASSERT_EQ(v.arr.size(), 4u);  // one run per compiler mode
  std::uint64_t warnings = 0;
  for (const Value& run : v.arr) {
    ASSERT_TRUE(IsObject(run));
    EXPECT_EQ(Find(run, "workload")->str, "lu");
    EXPECT_EQ(AsU64(*Find(run, "errors")), 0u);
    const Value* diags = Find(run, "diagnostics");
    ASSERT_TRUE(diags != nullptr && IsArray(*diags));
    EXPECT_EQ(diags->arr.size(), AsU64(*Find(run, "warnings")));
    for (const Value& d : diags->arr) {
      EXPECT_EQ(Find(d, "severity")->str, "warning");
      EXPECT_NE(Find(d, "message"), nullptr);
    }
    warnings += AsU64(*Find(run, "warnings"));
  }
  EXPECT_EQ(warnings, 16u);  // 4 modes x (2 R301 + 2 R302)
}

TEST(JsonEmitters, BenchSubstrateReportParses) {
  const std::string path = testing::TempDir() + "/json-test-bench-substrate.json";
  std::remove(path.c_str());
  int status = -1;
  RunCommand(std::string(NDC_BENCH_SUBSTRATE_BIN) + " --events=20000 --out=" + path, &status);
  ASSERT_EQ(status, 0);
  std::ifstream f(path);
  std::stringstream text;
  text << f.rdbuf();
  Value v;
  std::string err;
  ASSERT_TRUE(Parse(text.str(), &v, &err)) << err;
  EXPECT_EQ(Find(v, "benchmark")->str, "bench_substrate");
  EXPECT_EQ(AsU64(*Find(v, "events_target")), 20000u);
  EXPECT_GT(AsDouble(*Find(v, "speedup_vs_legacy")), 0.0);
  const Value* benches = Find(v, "benches");
  ASSERT_TRUE(benches != nullptr && IsArray(*benches));
  ASSERT_EQ(benches->arr.size(), 9u);
  EXPECT_EQ(Find(benches->arr[0], "name")->str, "calendar_chain");
  for (const Value& row : benches->arr) {
    for (const char* key : {"name", "events", "seconds", "events_per_sec", "ns_per_event",
                            "allocs", "allocs_per_event"}) {
      EXPECT_NE(Find(row, key), nullptr) << key;
    }
    bool machine = Find(row, "name")->str.rfind("machine_", 0) == 0;
    EXPECT_EQ(Find(row, "run_state_bytes_per_instr") != nullptr, machine);
    EXPECT_EQ(Find(row, "trace_bytes_per_instr") != nullptr, machine);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ndc::json
