// Randomized property tests across substrates: network delivery, route
// overlap optimality on random endpoint pairs, address-map partitioning,
// and architecture-config invariants.

#include <gtest/gtest.h>

#include <set>

#include "arch/config.hpp"
#include "mem/address_map.hpp"
#include "noc/network.hpp"
#include "noc/routing.hpp"
#include "route_reference.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"

namespace ndc {
namespace {

TEST(NetworkProperty, RandomTrafficDeliversExactlyOnce) {
  sim::Rng rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    sim::EventQueue eq;
    noc::Mesh mesh(5, 5);
    noc::Network net(mesh, eq);
    int delivered = 0;
    const int kPackets = 200;
    for (int i = 0; i < kPackets; ++i) {
      noc::Packet p;
      p.src = static_cast<sim::NodeId>(rng.NextBelow(25));
      p.dst = static_cast<sim::NodeId>(rng.NextBelow(25));
      p.size_bytes = rng.NextBool(0.5) ? 8 : 64;
      net.Send(p, [&](const noc::Packet&, sim::Cycle) { ++delivered; });
    }
    eq.RunUntilEmpty();
    EXPECT_EQ(delivered, kPackets);
    EXPECT_EQ(net.stats().Get("noc.packets"), static_cast<std::uint64_t>(kPackets));
  }
}

TEST(NetworkProperty, DeliveryRespectsManhattanLowerBound) {
  sim::Rng rng(7);
  sim::EventQueue eq;
  noc::Mesh mesh(6, 6);
  noc::Network net(mesh, eq);
  for (int i = 0; i < 100; ++i) {
    noc::Packet p;
    p.src = static_cast<sim::NodeId>(rng.NextBelow(36));
    p.dst = static_cast<sim::NodeId>(rng.NextBelow(36));
    p.size_bytes = 8;
    int hops = mesh.Distance(p.src, p.dst);
    sim::Cycle sent = eq.now();
    net.Send(p, [&, hops, sent](const noc::Packet&, sim::Cycle) {
      EXPECT_GE(eq.now() - sent, static_cast<sim::Cycle>(hops) * 4);
    });
    eq.RunUntilEmpty();
  }
}

TEST(RoutingProperty, RandomOverlapMatchesBruteForce) {
  sim::Rng rng(31);
  noc::Mesh mesh(4, 4);  // keep brute force cheap
  noc::RouteTable table(mesh);
  for (int trial = 0; trial < 60; ++trial) {
    auto a_src = static_cast<sim::NodeId>(rng.NextBelow(16));
    auto a_dst = static_cast<sim::NodeId>(rng.NextBelow(16));
    auto b_src = static_cast<sim::NodeId>(rng.NextBelow(16));
    auto b_dst = static_cast<sim::NodeId>(rng.NextBelow(16));
    noc::RouteIdPair fast = table.MaxOverlapPair(a_src, a_dst, b_src, b_dst);
    noc::reference::RoutePair brute =
        noc::reference::MaxOverlapRoutesBruteForce(mesh, a_src, a_dst, b_src, b_dst);
    EXPECT_EQ(fast.shared_links, brute.shared_links)
        << a_src << "->" << a_dst << " vs " << b_src << "->" << b_dst;
    EXPECT_TRUE(noc::reference::IsMinimalRoute(mesh, noc::reference::RouteOf(table, fast.a),
                                               a_src, a_dst));
    EXPECT_TRUE(noc::reference::IsMinimalRoute(mesh, noc::reference::RouteOf(table, fast.b),
                                               b_src, b_dst));
    EXPECT_EQ(fast.shared.Popcount(), fast.shared_links);
  }
}

TEST(AddressMapProperty, EveryAddressHasExactlyOneHomeAndMc) {
  mem::AddressMap amap;
  sim::Rng rng(12);
  for (int i = 0; i < 2000; ++i) {
    sim::Addr a = rng.NextBelow(1ull << 30);
    sim::NodeId home = amap.HomeBank(a);
    EXPECT_GE(home, 0);
    EXPECT_LT(home, amap.num_nodes);
    sim::McId mc = amap.Mc(a);
    EXPECT_GE(mc, 0);
    EXPECT_LT(mc, amap.num_mcs);
    EXPECT_GE(amap.DramBank(a), 0);
    EXPECT_LT(amap.DramBank(a), amap.banks_per_mc);
    // Addresses on the same L2 line share a home; on the same page share an MC.
    EXPECT_EQ(amap.HomeBank(a), amap.HomeBank(a | 0xFF));
    EXPECT_EQ(amap.Mc(a), amap.Mc(a | 0xFFF));
  }
}

TEST(AddressMapProperty, LinesSpreadOverAllBanks) {
  mem::AddressMap amap;
  std::set<sim::NodeId> homes;
  std::set<sim::McId> mcs;
  for (sim::Addr a = 0; a < 256ull * 200; a += 256) homes.insert(amap.HomeBank(a));
  for (sim::Addr a = 0; a < 4096ull * 64; a += 4096) mcs.insert(amap.Mc(a));
  EXPECT_EQ(homes.size(), 25u);
  EXPECT_EQ(mcs.size(), 4u);
}

TEST(ArchConfigTest, Table1Defaults) {
  arch::ArchConfig cfg;
  EXPECT_EQ(cfg.num_nodes(), 25);
  EXPECT_EQ(cfg.issue_width, 2);
  EXPECT_EQ(cfg.l1.size_bytes, 32u * 1024);
  EXPECT_EQ(cfg.l1.line_bytes, 64u);
  EXPECT_EQ(cfg.l1.ways, 2u);
  EXPECT_EQ(cfg.l2.size_bytes, 512u * 1024);
  EXPECT_EQ(cfg.l2.line_bytes, 256u);
  EXPECT_EQ(cfg.l2.ways, 64u);
  EXPECT_EQ(cfg.noc.router_pipeline, 3u);
  EXPECT_EQ(cfg.noc.link_bytes, 16);
  EXPECT_EQ(cfg.num_mcs, 4);
  EXPECT_EQ(cfg.control_register, arch::kAllLocs);
}

TEST(ArchConfigTest, McNodesAreDistinctCorners) {
  arch::ArchConfig cfg;
  auto nodes = cfg.McNodes();
  ASSERT_EQ(nodes.size(), 4u);
  std::set<sim::NodeId> uniq(nodes.begin(), nodes.end());
  EXPECT_EQ(uniq.size(), 4u);
  noc::Mesh mesh(5, 5);
  for (sim::NodeId n : nodes) {
    noc::Coord c = mesh.CoordOf(n);
    EXPECT_TRUE((c.x == 0 || c.x == 4) && (c.y == 0 || c.y == 4));
  }
}

TEST(ArchConfigTest, AddressMapMatchesCacheGeometry) {
  arch::ArchConfig cfg;
  mem::AddressMap amap = cfg.MakeAddressMap();
  EXPECT_EQ(amap.l2_line_bytes, cfg.l2.line_bytes);
  EXPECT_EQ(amap.num_nodes, cfg.num_nodes());
  EXPECT_EQ(amap.num_mcs, cfg.num_mcs);
}

TEST(ArchConfigTest, LocBitsAreDistinct) {
  std::set<std::uint8_t> bits;
  for (int l = 0; l < arch::kNumLocs; ++l) {
    bits.insert(arch::LocBit(static_cast<arch::Loc>(l)));
  }
  EXPECT_EQ(bits.size(), 4u);
  EXPECT_EQ(arch::LocBit(arch::Loc::kLinkBuffer) | arch::LocBit(arch::Loc::kCacheCtrl) |
                arch::LocBit(arch::Loc::kMemCtrl) | arch::LocBit(arch::Loc::kMemBank),
            arch::kAllLocs);
}

TEST(ArchConfigTest, LocNamesMatchPaperTerms) {
  EXPECT_STREQ(arch::LocName(arch::Loc::kLinkBuffer), "network");
  EXPECT_STREQ(arch::LocName(arch::Loc::kCacheCtrl), "cache");
  EXPECT_STREQ(arch::LocName(arch::Loc::kMemCtrl), "MC");
  EXPECT_STREQ(arch::LocName(arch::Loc::kMemBank), "memory");
}

}  // namespace
}  // namespace ndc
