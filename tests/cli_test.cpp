// The command-line flag parser shared by the tools (tools/cli): every flag
// kind, the error for each kind of bad argument, --help, and the spellings
// the tools accept through the enum name tables.

#include "cli.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "compiler/pipeline.hpp"
#include "harness/cell.hpp"
#include "metrics/profile.hpp"

namespace {

using ndc::cli::Parser;

enum class Color { kRed, kGreen, kBlue };
constexpr std::pair<Color, const char*> kColorNames[] = {
    {Color::kRed, "Red"}, {Color::kGreen, "Light-Green"}, {Color::kBlue, "Blue(5%)"},
    {Color::kGreen, "lg"}};

struct Targets {
  bool quiet = false;
  std::string out = "default.json";
  std::vector<std::string> figures;
  std::uint64_t seed = 7;
  int jobs = 1;
  std::uint8_t mask = 15;
  Color color = Color::kRed;
  std::string mode = "fast";
};

Parser MakeParser(Targets* t) {
  Parser p("tool");
  p.Switch("quiet", &t->quiet, "print less", 'q')
      .String("out", &t->out, "FILE", "output file")
      .Strings("figure", &t->figures, "NAME", "figure to run (repeatable)")
      .Unsigned("seed", &t->seed, "seed")
      .Unsigned("jobs", &t->jobs, "worker threads", 1)
      .Unsigned("mask", &t->mask, "location mask", 0, 15)
      .Choice("color", &t->color, kColorNames, "color")
      .Choice("mode", &t->mode, {"fast", "slow-path"}, "mode");
  return p;
}

struct Case {
  std::vector<std::string> args;
  std::string error;  ///< expected Read() error; "" = accepted
};

TEST(Cli, EveryFlagKindAcceptsOrRejectsItsValues) {
  const Case cases[] = {
      // switch
      {{"--quiet"}, ""},
      {{"-q"}, ""},
      {{"--quiet=1"}, "--quiet takes no value"},
      // string
      {{"--out=a.json"}, ""},
      {{"--out="}, ""},
      {{"--out"}, "--out expects a value (--out=FILE)"},
      // repeated string
      {{"--figure=a", "--figure=b"}, ""},
      // bounded unsigned
      {{"--seed=0"}, ""},
      {{"--seed=18446744073709551615"}, ""},
      {{"--seed=18446744073709551616"},
       "--seed expects a non-negative integer, got '18446744073709551616'"},
      {{"--seed=-1"}, "--seed expects a non-negative integer, got '-1'"},
      {{"--seed=+3"}, "--seed expects a non-negative integer, got '+3'"},
      {{"--seed= 3"}, "--seed expects a non-negative integer, got ' 3'"},
      {{"--seed=12abc"}, "--seed expects a non-negative integer, got '12abc'"},
      {{"--seed="}, "--seed expects a non-negative integer, got ''"},
      {{"--seed"}, "--seed expects a value (--seed=N)"},
      {{"--jobs=2147483647"}, ""},
      {{"--jobs=0"}, "--jobs expects a positive integer, got '0'"},
      {{"--jobs=2147483648"}, "--jobs expects a positive integer, got '2147483648'"},
      {{"--mask=0"}, ""},
      {{"--mask=15"}, ""},
      {{"--mask=16"}, "--mask expects an integer in [0, 15], got '16'"},
      {{"--mask=300"}, "--mask expects an integer in [0, 15], got '300'"},
      // choice from an enum name table: case and punctuation are ignored
      {{"--color=Red"}, ""},
      {{"--color=lightgreen"}, ""},
      {{"--color=BLUE5"}, ""},
      {{"--color=lg"}, ""},
      {{"--color=purple"},
       "unknown color 'purple' (--color expects Red|Light-Green|Blue(5%)|lg)"},
      {{"--color"}, "--color expects a value (--color=NAME)"},
      // choice from a list of names
      {{"--mode=slowpath"}, ""},
      {{"--mode=medium"}, "unknown mode 'medium' (--mode expects fast|slow-path)"},
      // not a flag of this tool
      {{"--frobnicate"}, "unknown argument '--frobnicate'"},
      {{"--frobnicate=1"}, "unknown argument '--frobnicate=1'"},
      {{"-x"}, "unknown argument '-x'"},
      {{"positional"}, "unknown argument 'positional'"},
      {{"--"}, "unknown argument '--'"},
      // the first error stops the parse
      {{"--jobs=0", "--frobnicate"}, "--jobs expects a positive integer, got '0'"},
  };
  for (const Case& c : cases) {
    Targets t;
    bool help = false;
    EXPECT_EQ(MakeParser(&t).Read(c.args, &help), c.error) << c.args.front();
    EXPECT_FALSE(help);
  }
}

TEST(Cli, AcceptedValuesReachTheirTargets) {
  Targets t;
  bool help = false;
  ASSERT_EQ(MakeParser(&t).Read({"-q", "--out=x.json", "--figure=a", "--figure=b", "--seed=42",
                                 "--jobs=3", "--mask=5", "--color=blue(5%)", "--mode=SLOW-PATH"},
                                &help),
            "");
  EXPECT_TRUE(t.quiet);
  EXPECT_EQ(t.out, "x.json");
  EXPECT_EQ(t.figures, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(t.seed, 42u);
  EXPECT_EQ(t.jobs, 3);
  EXPECT_EQ(t.mask, 5);
  EXPECT_EQ(t.color, Color::kBlue);
  EXPECT_EQ(t.mode, "slow-path");  // the name as listed, not as typed

  Targets alias;
  ASSERT_EQ(MakeParser(&alias).Read({"--color=lg", "--out=a", "--out=b"}, &help), "");
  EXPECT_EQ(alias.color, Color::kGreen);
  EXPECT_EQ(alias.out, "b");  // the last one wins

  Targets untouched;
  ASSERT_EQ(MakeParser(&untouched).Read({}, &help), "");
  EXPECT_FALSE(help);
  EXPECT_EQ(untouched.out, "default.json");
  EXPECT_EQ(untouched.seed, 7u);
}

TEST(Cli, HelpStopsTheParseAndUsageListsEveryFlag) {
  Targets t;
  Parser p = MakeParser(&t);
  bool help = false;
  EXPECT_EQ(p.Read({"--help"}, &help), "");
  EXPECT_TRUE(help);
  help = false;
  EXPECT_EQ(p.Read({"--seed=1", "-h", "--frobnicate"}, &help), "");
  EXPECT_TRUE(help);
  std::string usage = p.Usage();
  EXPECT_EQ(usage.rfind("usage: tool [flags]\n", 0), 0u) << usage;
  for (const char* row : {"-q, --quiet", "--out=FILE", "--figure=NAME", "--seed=N", "--jobs=N",
                          "--mask=N", "--color=NAME", "Red Light-Green Blue(5%) lg",
                          "--mode=fast|slow-path", "-h, --help"}) {
    EXPECT_NE(usage.find(row), std::string::npos) << row << "\n" << usage;
  }
}

TEST(CliDeathTest, ParseExitsZeroOnHelpAndTwoOnAnError) {
  Targets t;
  Parser p = MakeParser(&t);
  char prog[] = "tool", help[] = "--help", bad[] = "--mask=16";
  char* help_argv[] = {prog, help};
  char* bad_argv[] = {prog, bad};
  EXPECT_EXIT(p.Parse(2, help_argv), testing::ExitedWithCode(0), "");
  EXPECT_EXIT(p.Parse(2, bad_argv), testing::ExitedWithCode(2),
              "tool: --mask expects an integer in \\[0, 15\\], got '16'\nusage: tool");
  EXPECT_EXIT(p.Fail("--workload is required"), testing::ExitedWithCode(2),
              "tool: --workload is required");
}

// Every spelling the tools accepted before they shared this parser:
// ndc-trace's scheme aliases and case-insensitive display names, and
// ndc-lint's hyphen-less mode names.
TEST(Cli, EnumNameTablesAcceptTheToolSpellings) {
  bool help = false;
  using ndc::metrics::Scheme;
  const std::pair<const char*, Scheme> schemes[] = {
      {"baseline", Scheme::kBaseline},     {"default", Scheme::kDefault},
      {"oracle", Scheme::kOracle},         {"wait5", Scheme::kWait5},
      {"wait10", Scheme::kWait10},         {"wait25", Scheme::kWait25},
      {"wait50", Scheme::kWait50},         {"lastwait", Scheme::kLastWait},
      {"markov", Scheme::kMarkov},         {"algorithm1", Scheme::kAlgorithm1},
      {"alg1", Scheme::kAlgorithm1},       {"algorithm2", Scheme::kAlgorithm2},
      {"alg2", Scheme::kAlgorithm2},       {"Algorithm-1", Scheme::kAlgorithm1},
      {"Wait(5%)", Scheme::kWait5},        {"LastWait", Scheme::kLastWait},
  };
  for (const auto& [spelling, want] : schemes) {
    Scheme got = Scheme::kBaseline;
    Parser p("t");
    p.Choice("scheme", &got, ndc::metrics::kSchemeNames, "");
    ASSERT_EQ(p.Read({std::string("--scheme=") + spelling}, &help), "") << spelling;
    EXPECT_EQ(got, want) << spelling;
  }

  using ndc::compiler::Mode;
  const std::pair<const char*, Mode> modes[] = {
      {"baseline", Mode::kBaseline},        {"algorithm-1", Mode::kAlgorithm1},
      {"algorithm1", Mode::kAlgorithm1},    {"algorithm-2", Mode::kAlgorithm2},
      {"algorithm2", Mode::kAlgorithm2},    {"coarse-grain", Mode::kCoarseGrain},
      {"coarsegrain", Mode::kCoarseGrain},
  };
  for (const auto& [spelling, want] : modes) {
    Mode got = Mode::kBaseline;
    Parser p("t");
    p.Choice("mode", &got, ndc::compiler::kModeNames, "");
    ASSERT_EQ(p.Read({std::string("--mode=") + spelling}, &help), "") << spelling;
    EXPECT_EQ(got, want) << spelling;
  }

  for (const auto& [scale, name] : ndc::harness::kScaleNames) {
    ndc::workloads::Scale got = ndc::workloads::Scale::kSmall;
    Parser p("t");
    p.Choice("scale", &got, ndc::harness::kScaleNames, "");
    ASSERT_EQ(p.Read({std::string("--scale=") + name}, &help), "") << name;
    EXPECT_EQ(got, scale);
    EXPECT_STREQ(ndc::harness::ScaleName(scale), name);
  }
}

}  // namespace
