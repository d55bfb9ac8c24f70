// Request-conservation tests: the checker's invariants on hand-built counter
// snapshots, and the invariant itself after every Figure-4 scheme run on
// every benchmark.

#include <gtest/gtest.h>

#include <string>

#include "fault/conservation.hpp"
#include "test_support.hpp"
#include "workloads/workloads.hpp"

namespace ndc::fault {
namespace {

TEST(Conservation, HealthyCountersPass) {
  ConservationInputs in;
  in.offloads = 10;
  in.ndc_success = 4;
  in.fallbacks = 6;
  in.packets_sent = 100;
  in.packets_delivered = 95;
  in.packets_squashed = 5;
  in.mc_reads = 50;
  in.mc_reads_done = 50;
  EXPECT_TRUE(CheckConservation(in).ok);
}

TEST(Conservation, EachLostRequestIsNamed) {
  ConservationInputs in;
  in.offloads = 10;
  in.ndc_success = 4;
  in.fallbacks = 5;        // one offload vanished
  in.cores_incomplete = 2; // two cores never finished
  in.mc_reads = 50;
  in.mc_reads_done = 49;   // one read lost
  ConservationReport rep = CheckConservation(in);
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.violations.size(), 3u);
  EXPECT_NE(rep.ToString().find("offloads"), std::string::npos);
}

// Every scheme of Figure 4, plus the baseline it is normalized to, loses no
// request: each offload resolves, each packet lands, each read completes.
// (harness::RunScheme also throws on a violation; this names the run.)
class ConservationPerBenchmark : public ::testing::TestWithParam<std::string> {};

TEST_P(ConservationPerBenchmark, HoldsAfterEveryFig04SchemeRun) {
  using metrics::Scheme;
  const std::string& name = GetParam();
  auto profile = harness::MakeProfile(harness::TestCell(name, Scheme::kOracle), true);
  for (Scheme s : {Scheme::kBaseline, Scheme::kDefault, Scheme::kOracle, Scheme::kWait5,
                   Scheme::kWait10, Scheme::kWait25, Scheme::kWait50, Scheme::kLastWait,
                   Scheme::kMarkov, Scheme::kAlgorithm1, Scheme::kAlgorithm2}) {
    metrics::SchemeResult r = harness::RunScheme(harness::TestCell(name, s), *profile);
    const ConservationInputs& in = r.run.conservation;
    ConservationReport rep = CheckConservation(in);
    EXPECT_TRUE(rep.ok) << name << " " << metrics::SchemeName(s) << "\n" << rep.ToString();
    EXPECT_GT(in.packets_sent, 0u) << name << " " << metrics::SchemeName(s);
    EXPECT_EQ(in.offloads, r.run.offloads) << name << " " << metrics::SchemeName(s);
  }
}

INSTANTIATE_TEST_SUITE_P(All, ConservationPerBenchmark,
                         ::testing::ValuesIn(workloads::BenchmarkNames()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n) {
                             if (c == '.') c = '_';
                           }
                           return n;
                         });

}  // namespace
}  // namespace ndc::fault
