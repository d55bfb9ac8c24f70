// Tests for the 20 benchmark stand-ins: they build at every scale, resolve
// every address in bounds, scale monotonically, are deterministic, and fit
// in Figure 17's smallest L2 at small scale.

#include <gtest/gtest.h>

#include "arch/config.hpp"
#include "compiler/codegen.hpp"
#include "mem/cache.hpp"
#include "workloads/workloads.hpp"

namespace ndc::workloads {
namespace {

TEST(Registry, TwentyBenchmarksInPaperOrder) {
  auto names = BenchmarkNames();
  ASSERT_EQ(names.size(), 20u);
  EXPECT_EQ(names.front(), "md");
  EXPECT_EQ(names[9], "smith.wa");
  EXPECT_EQ(names.back(), "water");
}

TEST(Registry, InfoHasSuitesAndPatterns) {
  for (const WorkloadInfo& w : AllWorkloads()) {
    EXPECT_TRUE(w.suite == "SPEC OMP" || w.suite == "SPLASH-2") << w.name;
    EXPECT_FALSE(w.pattern.empty());
  }
}

TEST(Build, UnknownNameThrows) {
  EXPECT_THROW(BuildWorkload("nosuch", Scale::kTest), std::invalid_argument);
}

class PerBenchmark : public ::testing::TestWithParam<std::string> {};

TEST_P(PerBenchmark, BuildsAtTestScale) {
  ir::Program p = BuildWorkload(GetParam(), Scale::kTest);
  EXPECT_FALSE(p.nests.empty());
  EXPECT_GE(p.arrays.size(), 2u);
  for (const ir::LoopNest& nest : p.nests) {
    EXPECT_FALSE(nest.body.empty());
    EXPECT_GT(nest.NumIterations(), 0);
  }
}

TEST_P(PerBenchmark, AllAddressesResolveInBounds) {
  ir::Program p = BuildWorkload(GetParam(), Scale::kTest);
  for (const ir::LoopNest& nest : p.nests) {
    nest.ForEachIteration([&](const ir::IntVec& iter) {
      for (const ir::Stmt& s : nest.body) {
        for (const ir::Operand* op : {&s.rhs0, &s.rhs1, &s.lhs}) {
          if (!op->IsMemory()) continue;
          auto addr = p.ResolveAddr(*op, iter);
          ASSERT_TRUE(addr.has_value())
              << GetParam() << " stmt " << s.id << " iter0=" << iter[0];
        }
      }
    });
  }
}

TEST_P(PerBenchmark, ScalesGrowMonotonically) {
  ir::Program small = BuildWorkload(GetParam(), Scale::kTest);
  ir::Program big = BuildWorkload(GetParam(), Scale::kSmall);
  ir::Int si = 0, bi = 0;
  for (const auto& n : small.nests) si += n.NumIterations();
  for (const auto& n : big.nests) bi += n.NumIterations();
  EXPECT_GT(bi, si);
}

TEST_P(PerBenchmark, DeterministicForSameSeed) {
  ir::Program a = BuildWorkload(GetParam(), Scale::kTest, 3);
  ir::Program b = BuildWorkload(GetParam(), Scale::kTest, 3);
  ASSERT_EQ(a.index_data.size(), b.index_data.size());
  for (const auto& [id, data] : a.index_data) {
    EXPECT_EQ(data, b.index_data.at(id)) << GetParam();
  }
}

TEST_P(PerBenchmark, DifferentSeedsChangeIndexData) {
  ir::Program a = BuildWorkload(GetParam(), Scale::kTest, 1);
  ir::Program b = BuildWorkload(GetParam(), Scale::kTest, 2);
  bool any_indirect = !a.index_data.empty();
  if (!any_indirect) GTEST_SKIP() << "no index arrays in " << GetParam();
  bool differs = false;
  for (const auto& [id, data] : a.index_data) {
    if (data != b.index_data.at(id)) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST_P(PerBenchmark, LowersToNonEmptyTraces) {
  ir::Program p = BuildWorkload(GetParam(), Scale::kTest);
  compiler::CodegenResult r = compiler::Lower(p, 25);
  EXPECT_GT(r.total_instrs, 100u);
  int active = 0;
  for (const auto& t : r.traces) active += !t.empty();
  EXPECT_GE(active, 10) << "most cores should have work";  // bwaves has a 12-trip outer loop at test scale
}

INSTANTIATE_TEST_SUITE_P(All, PerBenchmark, ::testing::ValuesIn(BenchmarkNames()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n) {
                             if (c == '.') c = '_';
                           }
                           return n;
                         });

// Figure 17's L2 rows rest on this. At small scale every benchmark's
// distinct L2 lines fit in the smallest L2 the figure runs (256 KB banks, x25),
// and filling each line into its home bank never evicts one. So the L2 rows
// cannot differ from the default configuration: capacity is not tested.
TEST(Workloads, FootprintAgainstL2) {
  arch::ArchConfig cfg;
  cfg.l2.size_bytes = 256 * 1024;
  const mem::AddressMap amap = cfg.MakeAddressMap();
  const std::uint64_t capacity_lines =
      cfg.l2.size_bytes / cfg.l2.line_bytes * static_cast<std::uint64_t>(cfg.num_nodes());
  for (const std::string& name : BenchmarkNames()) {
    ir::Program p = BuildWorkload(name, Scale::kSmall);
    std::vector<mem::Cache> banks(static_cast<std::size_t>(cfg.num_nodes()), mem::Cache(cfg.l2));
    std::uint64_t lines = 0;
    std::uint64_t evictions = 0;
    for (const arch::Trace& t : compiler::Lower(p, cfg.num_nodes(), &cfg).traces) {
      for (const arch::Instr& in : t) {
        if (in.kind() != arch::Instr::Kind::kLoad && in.kind() != arch::Instr::Kind::kStore) {
          continue;
        }
        mem::Cache& bank = banks[static_cast<std::size_t>(amap.HomeBank(in.addr()))];
        lines += !bank.Contains(in.addr());
        evictions += bank.Fill(in.addr()).has_value();
      }
    }
    EXPECT_LT(lines, capacity_lines) << name;
    EXPECT_EQ(evictions, 0u) << name;
  }
}

}  // namespace
}  // namespace ndc::workloads
