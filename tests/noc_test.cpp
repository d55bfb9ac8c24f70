// Tests for mesh geometry, routing, route signatures, the route table's
// max-overlap signature selection (verified against the brute-force
// reference in route_reference.hpp), and the network timing model including
// hold/release/squash used by link-buffer NDC.

#include <gtest/gtest.h>

#include <set>
#include <span>
#include <vector>

#include "noc/geometry.hpp"
#include "noc/network.hpp"
#include "noc/routing.hpp"
#include "noc/signature.hpp"
#include "route_reference.hpp"
#include "sim/event_queue.hpp"

namespace ndc::noc {
namespace {

using namespace reference;

TEST(Mesh, NodeCoordRoundTrip) {
  Mesh m(5, 5);
  for (sim::NodeId n = 0; n < m.num_nodes(); ++n) {
    EXPECT_EQ(m.NodeAt(m.CoordOf(n)), n);
  }
}

TEST(Mesh, LinkEndpoints) {
  Mesh m(5, 5);
  sim::LinkId east = m.LinkFrom(0, Dir::East);
  EXPECT_EQ(m.LinkSource(east), 0);
  // The one-hop routes to the east and south neighbours take these links.
  EXPECT_EQ(XyRoute(m, 0, 1), Route{east});
  sim::LinkId south = m.LinkFrom(0, Dir::South);
  EXPECT_EQ(XyRoute(m, 0, 5), Route{south});
}

TEST(Mesh, ManhattanDistance) {
  Mesh m(5, 5);
  EXPECT_EQ(m.Distance(0, 24), 8);
  EXPECT_EQ(m.Distance(0, 0), 0);
  EXPECT_EQ(m.Distance(m.NodeAt({1, 1}), m.NodeAt({3, 4})), 5);
}

TEST(Routing, XyRouteIsMinimalAndValid) {
  Mesh m(5, 5);
  for (sim::NodeId s = 0; s < m.num_nodes(); ++s) {
    for (sim::NodeId d = 0; d < m.num_nodes(); ++d) {
      Route r = XyRoute(m, s, d);
      EXPECT_TRUE(IsMinimalRoute(m, r, s, d)) << s << "->" << d;
    }
  }
}

TEST(Routing, XyRouteGoesXFirst) {
  Mesh m(5, 5);
  Route r = XyRoute(m, m.NodeAt({0, 0}), m.NodeAt({2, 2}));
  const Route want{m.LinkFrom(m.NodeAt({0, 0}), Dir::East),
                   m.LinkFrom(m.NodeAt({1, 0}), Dir::East),
                   m.LinkFrom(m.NodeAt({2, 0}), Dir::South),
                   m.LinkFrom(m.NodeAt({2, 1}), Dir::South)};
  EXPECT_EQ(r, want);
}

TEST(Routing, EnumerationCountsBinomially) {
  Mesh m(5, 5);
  // dx=2, dy=2 -> C(4,2) = 6 minimal routes.
  auto routes = EnumerateMinimalRoutes(m, m.NodeAt({0, 0}), m.NodeAt({2, 2}));
  EXPECT_EQ(routes.size(), 6u);
  for (const Route& r : routes) {
    EXPECT_TRUE(IsMinimalRoute(m, r, m.NodeAt({0, 0}), m.NodeAt({2, 2})));
  }
  // All distinct.
  std::set<Route> uniq(routes.begin(), routes.end());
  EXPECT_EQ(uniq.size(), routes.size());
}

TEST(Routing, StaircaseRouteRespectsPivots) {
  Mesh m(6, 6);
  sim::NodeId s = m.NodeAt({0, 0});
  sim::NodeId d = m.NodeAt({3, 3});
  for (int px = 0; px <= 3; ++px) {
    for (int py = 0; py <= 3; ++py) {
      EXPECT_TRUE(IsMinimalRoute(m, StaircaseRoute(m, s, d, px, py), s, d));
    }
  }
}

TEST(Signature, RoundTripAndOps) {
  Signature s;
  s.Set(3);
  s.Set(100);
  s.Set(255);
  EXPECT_TRUE(s.Test(3));
  EXPECT_FALSE(s.Test(4));
  EXPECT_EQ(s.Popcount(), 3);
  EXPECT_EQ(s.Links(), (std::vector<sim::LinkId>{3, 100, 255}));
  Signature t;
  t.Set(100);
  t.Set(7);
  Signature inter = s.Intersect(t);
  EXPECT_EQ(inter.Popcount(), 1);
  EXPECT_TRUE(inter.Test(100));
}

TEST(Signature, FromRouteMatchesLinks) {
  Mesh m(5, 5);
  Route r = XyRoute(m, 0, 24);
  Signature s = Signature::FromRoute(r);
  EXPECT_EQ(s.Popcount(), static_cast<int>(r.size()));
  for (sim::LinkId l : r) EXPECT_TRUE(s.Test(l));
}

// Paper Figure 11: two accesses whose default routes do not intersect can be
// rerouted (minimal paths) to share links.
TEST(MaxOverlap, BeatsOrMatchesDefaultXy) {
  Mesh m(6, 6);
  sim::NodeId a_src = m.NodeAt({0, 1}), a_dst = m.NodeAt({4, 4});
  sim::NodeId b_src = m.NodeAt({1, 0}), b_dst = m.NodeAt({4, 5});
  Signature xy_a = Signature::FromRoute(XyRoute(m, a_src, a_dst));
  Signature xy_b = Signature::FromRoute(XyRoute(m, b_src, b_dst));
  int xy_overlap = xy_a.Intersect(xy_b).Popcount();
  RouteTable table(m);
  EXPECT_EQ(table.XyPair(a_src, a_dst, b_src, b_dst).shared_links, xy_overlap);
  RouteIdPair best = table.MaxOverlapPair(a_src, a_dst, b_src, b_dst);
  EXPECT_GE(best.shared_links, xy_overlap);
  EXPECT_GT(best.shared_links, 0);
  EXPECT_TRUE(IsMinimalRoute(m, RouteOf(table, best.a), a_src, a_dst));
  EXPECT_TRUE(IsMinimalRoute(m, RouteOf(table, best.b), b_src, b_dst));
}

// Property sweep: the route table's staircase search matches exhaustive
// search.
struct OverlapCase {
  int ax1, ay1, ax2, ay2;
  int bx1, by1, bx2, by2;
};

class MaxOverlapProperty : public ::testing::TestWithParam<OverlapCase> {};

TEST_P(MaxOverlapProperty, MatchesBruteForce) {
  Mesh m(5, 5);
  const OverlapCase& c = GetParam();
  sim::NodeId as = m.NodeAt({c.ax1, c.ay1}), ad = m.NodeAt({c.ax2, c.ay2});
  sim::NodeId bs = m.NodeAt({c.bx1, c.by1}), bd = m.NodeAt({c.bx2, c.by2});
  RouteTable table(m);
  RouteIdPair fast = table.MaxOverlapPair(as, ad, bs, bd);
  RoutePair brute = MaxOverlapRoutesBruteForce(m, as, ad, bs, bd);
  EXPECT_EQ(fast.shared_links, brute.shared_links);
  EXPECT_TRUE(IsMinimalRoute(m, RouteOf(table, fast.a), as, ad));
  EXPECT_TRUE(IsMinimalRoute(m, RouteOf(table, fast.b), bs, bd));
}

INSTANTIATE_TEST_SUITE_P(
    Cases, MaxOverlapProperty,
    ::testing::Values(OverlapCase{0, 0, 4, 4, 0, 1, 4, 3},   // same quadrant
                      OverlapCase{0, 0, 4, 4, 4, 4, 0, 0},   // opposite directions
                      OverlapCase{0, 0, 2, 2, 2, 2, 4, 4},   // touching corners
                      OverlapCase{0, 2, 4, 2, 2, 0, 2, 4},   // crossing
                      OverlapCase{1, 1, 3, 3, 1, 1, 3, 3},   // identical endpoints
                      OverlapCase{0, 0, 0, 4, 4, 0, 4, 4},   // parallel columns
                      OverlapCase{0, 0, 4, 0, 0, 1, 4, 1},   // parallel rows
                      OverlapCase{2, 0, 2, 4, 0, 2, 4, 2},   // plus sign
                      OverlapCase{0, 0, 3, 2, 1, 0, 3, 4},   // partial overlap
                      OverlapCase{3, 3, 0, 0, 4, 4, 1, 1},   // both decreasing
                      OverlapCase{0, 4, 4, 0, 0, 3, 4, 1},   // anti-diagonal
                      OverlapCase{2, 2, 2, 2, 1, 1, 3, 3})); // degenerate single node

TEST(RouteTable, XyRoutesMatchXyRouteOnEveryPair) {
  for (Mesh m : {Mesh(5, 5), Mesh(8, 8)}) {
    RouteTable table(m);
    int n = m.num_nodes();
    EXPECT_EQ(table.size(), static_cast<std::size_t>(n * n));
    for (sim::NodeId s = 0; s < n; ++s) {
      for (sim::NodeId d = 0; d < n; ++d) {
        std::span<const sim::LinkId> links = table.Links(table.Xy(s, d));
        EXPECT_EQ(Route(links.begin(), links.end()), XyRoute(m, s, d))
            << m.width() << "x" << m.height() << " " << s << "->" << d;
      }
    }
  }
}

TEST(RouteTable, OverlapPairIsMaxOverlapRoutesOnEveryQuad) {
  // Link for link and in order, not just the same overlap count: the chosen
  // links set packet timing. One table answers every quad, so candidates
  // interned for earlier quads are reused by later ones.
  Mesh m(4, 4);
  RouteTable table(m);
  int n = m.num_nodes();
  for (sim::NodeId as = 0; as < n; ++as) {
    for (sim::NodeId ad = 0; ad < n; ++ad) {
      for (sim::NodeId bs = 0; bs < n; ++bs) {
        for (sim::NodeId bd = 0; bd < n; ++bd) {
          RoutePair want = MaxOverlapRoutes(m, as, ad, bs, bd);
          RouteIdPair got = table.MaxOverlapPair(as, ad, bs, bd);
          ASSERT_EQ(RouteOf(table, got.a), want.a)
              << as << "->" << ad << " / " << bs << "->" << bd;
          ASSERT_EQ(RouteOf(table, got.b), want.b)
              << as << "->" << ad << " / " << bs << "->" << bd;
          ASSERT_EQ(got.shared, want.shared);
          ASSERT_EQ(got.shared_links, want.shared_links);
        }
      }
    }
  }
}

TEST(Network, UncontendedLatencyMatchesFormula) {
  sim::EventQueue eq;
  Mesh m(5, 5);
  Network net(m, eq);
  // 8-byte control packet over 4 hops: 4 * (3 + 1) = 16 cycles + final
  // router pipeline at delivery.
  Packet p;
  p.src = 0;
  p.dst = 4;
  p.size_bytes = 8;
  sim::Cycle delivered = 0;
  net.Send(p, [&](const Packet&, sim::Cycle) { delivered = eq.now(); });
  eq.RunUntilEmpty();
  EXPECT_EQ(delivered, 4u * (3 + 1) + 3);
}

TEST(Network, SerializationScalesWithSize) {
  sim::EventQueue eq;
  Mesh m(5, 5);
  Network net(m, eq);
  Packet p;
  p.src = 0;
  p.dst = 1;  // one hop
  p.size_bytes = 64;  // 4 flits on 16B links
  sim::Cycle delivered = 0;
  net.Send(p, [&](const Packet&, sim::Cycle) { delivered = eq.now(); });
  eq.RunUntilEmpty();
  EXPECT_EQ(delivered, (3 + 4) + 3u);
}

TEST(Network, ContentionDelaysSecondPacket) {
  sim::EventQueue eq;
  Mesh m(5, 5);
  Network net(m, eq);
  sim::Cycle t1 = 0, t2 = 0;
  Packet a, b;
  a.src = b.src = 0;
  a.dst = b.dst = 1;
  a.size_bytes = b.size_bytes = 64;
  net.Send(a, [&](const Packet&, sim::Cycle) { t1 = eq.now(); });
  net.Send(b, [&](const Packet&, sim::Cycle) { t2 = eq.now(); });
  eq.RunUntilEmpty();
  EXPECT_GT(t2, t1);
  EXPECT_EQ(t2 - t1, 4u);  // one 64B serialization behind
  EXPECT_GT(net.stats().Get("noc.contention_cycles"), 0u);
}

TEST(Network, LocalDeliveryPaysRouterPipeline) {
  sim::EventQueue eq;
  Mesh m(5, 5);
  Network net(m, eq);
  Packet p;
  p.src = p.dst = 7;
  sim::Cycle delivered = 0;
  net.Send(p, [&](const Packet&, sim::Cycle) { delivered = eq.now(); });
  eq.RunUntilEmpty();
  EXPECT_EQ(delivered, 3u);
}

TEST(Network, HoldAndReleaseResumesJourney) {
  sim::EventQueue eq;
  Mesh m(5, 5);
  Network net(m, eq);
  std::uint64_t held_id = 0;
  int holds = 0;
  net.set_hop_hook([&](Packet& p, sim::LinkId, sim::Cycle) {
    if (p.hop == 1 && holds == 0) {
      ++holds;
      held_id = p.id;
      return HopAction::kHold;
    }
    return HopAction::kContinue;
  });
  Packet p;
  p.src = 0;
  p.dst = 3;
  p.size_bytes = 8;
  sim::Cycle delivered = 0;
  net.Send(p, [&](const Packet&, sim::Cycle) { delivered = eq.now(); });
  // Let it run until held, then release 100 cycles later.
  eq.RunUntilEmpty(50);
  ASSERT_TRUE(net.IsHeld(held_id));
  eq.ScheduleAt(100, [&] { net.Release(held_id); });
  eq.RunUntilEmpty();
  EXPECT_FALSE(net.IsHeld(held_id));
  EXPECT_GT(delivered, 100u);
}

TEST(Network, SquashConsumesPacket) {
  sim::EventQueue eq;
  Mesh m(5, 5);
  Network net(m, eq);
  std::uint64_t held_id = 0;
  net.set_hop_hook([&](Packet& p, sim::LinkId, sim::Cycle) {
    held_id = p.id;
    return HopAction::kHold;
  });
  Packet p;
  p.src = 0;
  p.dst = 3;
  bool delivered = false;
  net.Send(p, [&](const Packet&, sim::Cycle) { delivered = true; });
  eq.RunUntilEmpty();
  net.Squash(held_id);
  eq.RunUntilEmpty();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(net.stats().Get("noc.squashes"), 1u);
}

TEST(Network, DeliverHookReceivesPayloadUnchangedAcrossHops) {
  sim::EventQueue eq;
  Mesh m(5, 5);
  Network net(m, eq);
  std::vector<Packet> got;
  net.set_deliver_hook([&](const Packet& p) { got.push_back(p); });
  const sim::Payload sent{3, 7, 42, 0xDEAD40};
  Packet p;
  p.src = 0;
  p.dst = 24;  // 8 hops
  p.tag = 99;
  p.kind = 4;
  p.obs_token = 5;
  p.payload = sent;
  // A second packet first takes the pooled flight, so the payload must not
  // leak across reuse either.
  Packet q;
  q.src = 1;
  q.dst = 2;
  q.payload = sim::Payload{9, 9, 9, 9};
  net.Send(q);
  eq.RunUntilEmpty();
  net.Send(p);
  eq.RunUntilEmpty();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[1].payload, sent);
  EXPECT_EQ(got[1].tag, 99u);
  EXPECT_EQ(got[1].kind, 4);
  EXPECT_EQ(got[1].obs_token, 5u);
  EXPECT_EQ(got[1].hop, 8u);
  EXPECT_EQ(net.delivered_count(), 2u);
}

TEST(Network, OwnDeliverFnTakesPrecedenceOverHook) {
  sim::EventQueue eq;
  Mesh m(5, 5);
  Network net(m, eq);
  int hooked = 0, own = 0;
  net.set_deliver_hook([&](const Packet&) { ++hooked; });
  Packet p;
  p.src = 0;
  p.dst = 6;
  net.Send(p, [&](const Packet&, sim::Cycle) { ++own; });
  net.Send(p);
  eq.RunUntilEmpty();
  EXPECT_EQ(own, 1);
  EXPECT_EQ(hooked, 1);
}

}  // namespace
}  // namespace ndc::noc
