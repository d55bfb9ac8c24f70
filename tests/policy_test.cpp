// Tests for the hardware-side waiting policies (Section 4.4) and the
// observation-record metrics: arrival windows, breakeven points, and the
// decision logic of Default / Wait(x%) / Last-Wait / Markov / Oracle.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "ndc/policy.hpp"
#include "ndc/record.hpp"

namespace ndc::runtime {
namespace {

constexpr std::uint8_t kAll = arch::kAllLocs;

TEST(LocObsTest, WindowSemantics) {
  LocObs o;
  o.feasible = true;
  EXPECT_EQ(o.Window(), sim::kNeverCycle);  // nobody arrived
  o.t_a = 100;
  EXPECT_EQ(o.Window(), sim::kNeverCycle);  // partner missing
  o.t_b = 140;
  EXPECT_EQ(o.Window(), 40u);
  EXPECT_EQ(o.FirstArrival(), 100u);
  o.meet_ok = false;  // evicted before the partner arrived
  EXPECT_EQ(o.Window(), sim::kNeverCycle);
  o.meet_ok = true;
  o.feasible = false;
  EXPECT_EQ(o.Window(), sim::kNeverCycle);
}

TEST(BreakevenTest, MatchesDefinition) {
  InstanceRecord rec;
  rec.conv_done = 200;
  LocObs& o = rec.at(Loc::kCacheCtrl);
  o.feasible = true;
  o.t_a = 100;
  o.t_b = 120;
  // breakeven = conv - (first + op + ret) = 200 - (100 + 1 + 9) = 90
  EXPECT_EQ(BreakevenPoint(rec, Loc::kCacheCtrl, 1, 9), 90u);
  // NDC never profitable when the base already exceeds conventional.
  rec.conv_done = 105;
  EXPECT_EQ(BreakevenPoint(rec, Loc::kCacheCtrl, 1, 9), 0u);
}

TEST(ReturnLatency, GrowsWithDistance) {
  noc::Mesh mesh(5, 5);
  noc::NetworkParams np;
  sim::Cycle near = noc::ResultReturnLatency(mesh, np, 0, 1);
  sim::Cycle far = noc::ResultReturnLatency(mesh, np, 0, 24);
  EXPECT_LT(near, far);
  EXPECT_EQ(noc::ResultReturnLatency(mesh, np, 3, 3), np.router_pipeline);
}

TEST(FutureReuse, DetectsLaterLineAccess) {
  arch::Trace t;
  t.push_back(arch::MakeLoad(0x1000));                       // 0
  t.push_back(arch::MakeLoad(0x2000));                       // 1
  t.push_back(arch::MakeCompute(arch::Op::kAdd, 0, 1, true));  // 2
  t.push_back(arch::MakeLoad(0x1020));                       // 3: same 64B line as A
  auto reused = ComputeFutureReuse(t, 64);
  EXPECT_TRUE(reused[2]);
  // At 16-byte granularity 0x1020 is a different "line": no reuse.
  auto fine = ComputeFutureReuse(t, 16);
  EXPECT_FALSE(fine[2]);
}

TEST(FutureReuse, NoReuseWhenAccessIsBefore) {
  arch::Trace t;
  t.push_back(arch::MakeLoad(0x1000));
  t.push_back(arch::MakeLoad(0x1008));  // same line, but BEFORE the site
  t.push_back(arch::MakeLoad(0x2000));
  t.push_back(arch::MakeCompute(arch::Op::kAdd, 1, 2, true));
  auto reused = ComputeFutureReuse(t, 64);
  EXPECT_FALSE(reused[3]);
}

TEST(TrialOrder, FirstFeasibleRespectsPathOrder) {
  Loc out;
  ASSERT_TRUE(FirstFeasibleLoc(kAll, kAll, &out));
  EXPECT_EQ(out, Loc::kLinkBuffer);
  ASSERT_TRUE(FirstFeasibleLoc(
      static_cast<std::uint8_t>(arch::LocBit(Loc::kMemCtrl) | arch::LocBit(Loc::kMemBank)),
      kAll, &out));
  EXPECT_EQ(out, Loc::kMemCtrl);
  EXPECT_FALSE(FirstFeasibleLoc(0, kAll, &out));
  // Control register masks feasibility.
  EXPECT_FALSE(FirstFeasibleLoc(arch::LocBit(Loc::kCacheCtrl),
                                arch::LocBit(Loc::kMemBank), &out));
}

TEST(AlwaysWait, OffloadsWithHugeTimeout) {
  arch::ArchConfig cfg;
  AlwaysWaitPolicy p(cfg);
  Decision d = p.Decide(0, 0, 0, 0, 0, kAll);
  EXPECT_TRUE(d.offload);
  EXPECT_EQ(d.timeout, cfg.default_timeout);
  EXPECT_FALSE(p.Decide(0, 0, 0, 0, 0, 0).offload);
}

TEST(FractionWait, UsesProfiledWindow) {
  arch::ArchConfig cfg;
  RunRecord profile;
  InstanceRecord& rec = profile.Append(3, 17);
  rec.at(Loc::kLinkBuffer).feasible = true;
  rec.at(Loc::kLinkBuffer).t_a = 100;
  rec.at(Loc::kLinkBuffer).t_b = 300;  // window 200
  FractionWaitPolicy p(cfg, profile, 0.25);
  Decision d = p.Decide(3, 17, 0, 0, 0, arch::LocBit(Loc::kLinkBuffer));
  ASSERT_TRUE(d.offload);
  EXPECT_EQ(d.timeout, 50u);
  // Unknown instance: falls back to 25% of the 500-cycle cap.
  Decision d2 = p.Decide(3, 99, 0, 0, 0, arch::LocBit(Loc::kLinkBuffer));
  EXPECT_EQ(d2.timeout, 125u);
}

TEST(LastWait, LearnsFromObservedWindows) {
  arch::ArchConfig cfg;
  LastWaitPolicy p(cfg);
  Decision d = p.Decide(1, 0, 7, 0, 0, kAll);
  EXPECT_EQ(d.timeout, 50u);  // cold guess
  p.ObserveWindow(1, 7, 120);
  EXPECT_EQ(p.Decide(1, 0, 7, 0, 0, kAll).timeout, 120u);
  // A "never" observation disables offloading for that PC.
  p.ObserveWindow(1, 7, sim::kNeverCycle);
  EXPECT_FALSE(p.Decide(1, 0, 7, 0, 0, kAll).offload);
  // Other PCs are unaffected.
  EXPECT_TRUE(p.Decide(1, 0, 8, 0, 0, kAll).offload);
}

TEST(Markov, PredictsFromTransitions) {
  arch::ArchConfig cfg;
  MarkovWaitPolicy p(cfg);
  // Train a strong 20->100 alternation on PC 5.
  for (int i = 0; i < 10; ++i) {
    p.ObserveWindow(0, 5, 15);   // bucket <=20
    p.ObserveWindow(0, 5, 80);   // bucket <=100
  }
  // Last observation was bucket <=100; the trained row says next is <=20.
  Decision d = p.Decide(0, 0, 5, 0, 0, kAll);
  ASSERT_TRUE(d.offload);
  EXPECT_EQ(d.timeout, 20u);
}

TEST(OracleTest, AcceptsOnlyWithinBreakeven) {
  arch::ArchConfig cfg;
  RunRecord profile;
  InstanceRecord& rec = profile.Append(2, 10);
  rec.conv_done = 400;
  LocObs& o = rec.at(Loc::kCacheCtrl);
  o.feasible = true;
  o.node = 2;  // same node: minimal return latency
  o.t_a = 100;
  o.t_b = 150;  // window 50, breakeven = 400-(100+1+3)=296
  OraclePolicy p(cfg, profile);
  Decision d = p.Decide(2, 10, 0, 0, 0, arch::LocBit(Loc::kCacheCtrl));
  ASSERT_TRUE(d.offload);
  EXPECT_EQ(d.loc, Loc::kCacheCtrl);
  EXPECT_GT(d.timeout, 50u);  // waits until the breakeven point

  // Window beyond breakeven (window 299 > breakeven 296): conventional.
  o.t_b = 399;
  EXPECT_FALSE(p.Decide(2, 10, 0, 0, 0, arch::LocBit(Loc::kCacheCtrl)).offload);
}

TEST(OracleTest, ReuseGateFavorsLocality) {
  arch::ArchConfig cfg;
  RunRecord profile;
  InstanceRecord& rec = profile.Append(0, 1);
  rec.conv_done = 500;
  rec.operand_reused_later = true;
  LocObs& o = rec.at(Loc::kLinkBuffer);
  o.feasible = true;
  o.node = 0;
  o.t_a = 10;
  o.t_b = 20;
  OraclePolicy p(cfg, profile);
  EXPECT_FALSE(p.Decide(0, 1, 0, 0, 0, kAll).offload);
  // The same instance without the later reuse offloads.
  rec.operand_reused_later = false;
  EXPECT_TRUE(p.Decide(0, 1, 0, 0, 0, kAll).offload);
}

TEST(OracleTest, L2LineReuseGatesMemorySideOnly) {
  arch::ArchConfig cfg;
  RunRecord profile;
  InstanceRecord& rec = profile.Append(0, 1);
  rec.conv_done = 500;
  rec.operand_reused_later = false;
  rec.operand_reused_later_l2 = true;  // 256B-line reuse only
  for (Loc l : {Loc::kMemCtrl, Loc::kLinkBuffer}) {
    LocObs& o = rec.at(l);
    o.feasible = true;
    o.node = 0;
    o.t_a = 10;
    o.t_b = 20;
  }
  OraclePolicy p(cfg, profile);
  Decision d = p.Decide(0, 1, 0, 0, 0, arch::LocBit(Loc::kMemCtrl));
  EXPECT_FALSE(d.offload);  // memory-side squashes the L2 fill
  Decision d2 = p.Decide(0, 1, 0, 0, 0, arch::LocBit(Loc::kLinkBuffer));
  EXPECT_TRUE(d2.offload);  // link meet leaves L2 intact
}

TEST(RunRecordTest, SortOrdersByCoreThenSlot) {
  // Records arrive in candidate order, which interleaves cores and need not
  // follow slot order; Sort() leaves them ordered by (core, compute_idx).
  RunRecord profile;
  const std::pair<NodeId, std::uint32_t> appended[] = {{3, 9}, {0, 40}, {3, 2}, {1, 7},
                                                       {0, 5}, {24, 0}, {1, 6}};
  for (const auto& [core, idx] : appended) profile.Append(core, idx).pc = idx * 10;
  profile.Sort();
  std::vector<std::pair<NodeId, std::uint32_t>> order;
  profile.ForEach([&](const InstanceRecord& rec) {
    EXPECT_EQ(rec.pc, rec.compute_idx * 10);  // each record moved whole
    order.push_back({rec.core, rec.compute_idx});
  });
  EXPECT_EQ(order, (std::vector<std::pair<NodeId, std::uint32_t>>{
                       {0, 5}, {0, 40}, {1, 6}, {1, 7}, {3, 2}, {3, 9}, {24, 0}}));
  ASSERT_NE(profile.Find(1, 7), nullptr);
  EXPECT_EQ(profile.Find(1, 7)->pc, 70u);
  EXPECT_EQ(profile.Find(1, 8), nullptr);
  EXPECT_EQ(profile.Find(2, 7), nullptr);
}

TEST(OracleTest, UnknownInstanceStaysConventional) {
  arch::ArchConfig cfg;
  RunRecord profile;
  OraclePolicy p(cfg, profile);
  EXPECT_FALSE(p.Decide(0, 123, 0, 0, 0, kAll).offload);
}

}  // namespace
}  // namespace ndc::runtime
