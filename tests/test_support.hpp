#pragma once

// Helpers shared by the test binaries: the cell most tests run, a
// field-by-field comparison of two runs, a look into a machine's caches,
// and the scalar operand the IR tests build.

#include <gtest/gtest.h>

#include <string>

#include "harness/cell.hpp"
#include "ndc/machine.hpp"

namespace ndc::runtime {

/// Where a machine's run left the operand lines: the caches a test checks
/// after Run (a meeting squashes its responses before they fill them).
struct MachinePeer {
  /// True if core `n`'s L1 holds the line of `addr`.
  static bool InL1(const Machine& m, sim::NodeId n, sim::Addr addr) {
    return m.l1_[static_cast<std::size_t>(n)]->Contains(addr);
  }
  /// True if the L2 bank at `addr`'s home node holds its line.
  static bool InL2(const Machine& m, sim::Addr addr) {
    return m.l2_[static_cast<std::size_t>(m.amap_.HomeBank(addr))]->Contains(addr);
  }
};

}  // namespace ndc::runtime

namespace ndc::ir {

/// A register operand (no memory access), which no shipped workload has.
inline Operand ScalarOperand() {
  Operand o;
  o.kind = Operand::Kind::kScalar;
  return o;
}

}  // namespace ndc::ir

namespace ndc::harness {

/// One workload and scheme on the Table-1 configuration, at test scale
/// unless given.
inline CellSpec TestCell(const std::string& workload, metrics::Scheme scheme,
                         workloads::Scale scale = workloads::Scale::kTest) {
  CellSpec c;
  c.workload = workload;
  c.scale = scale;
  c.scheme = scheme;
  return c;
}

/// RunScheme against a profile of the cell's own
/// (MakeProfile(spec, spec.NeedsObserve())), with `ob` (when non-null)
/// attached to the measured run.
inline metrics::SchemeResult RunSchemeAlone(const CellSpec& spec,
                                            obs::Observability* ob = nullptr) {
  return RunScheme(spec, *MakeProfile(spec, spec.NeedsObserve()), ob);
}

/// Every field of two runs but their observation records.
inline void ExpectSameRun(const runtime::RunResult& a, const runtime::RunResult& b,
                          const std::string& what) {
  EXPECT_EQ(a.makespan, b.makespan) << what;
  EXPECT_EQ(a.events, b.events) << what;
  EXPECT_EQ(a.l1_hits, b.l1_hits) << what;
  EXPECT_EQ(a.l1_misses, b.l1_misses) << what;
  EXPECT_EQ(a.l2_hits, b.l2_hits) << what;
  EXPECT_EQ(a.l2_misses, b.l2_misses) << what;
  EXPECT_EQ(a.candidates, b.candidates) << what;
  EXPECT_EQ(a.local_l1_skips, b.local_l1_skips) << what;
  EXPECT_EQ(a.offloads, b.offloads) << what;
  EXPECT_EQ(a.ndc_success, b.ndc_success) << what;
  EXPECT_EQ(a.fallbacks, b.fallbacks) << what;
  EXPECT_EQ(a.ndc_at_loc, b.ndc_at_loc) << what;
  EXPECT_EQ(a.stats.all(), b.stats.all()) << what;
  EXPECT_EQ(a.conservation, b.conservation) << what;
}

}  // namespace ndc::harness
