#pragma once

// The reference model the route-planning tests check noc::RouteTable
// against: every minimal route of a pair, enumerated exhaustively; the pair
// of routes with the most shared links, found by brute force; and the
// staircase search as first written, whose choice the table must match
// link for link. Small meshes only: a pair has C(dx + dy, dx) minimal
// routes.

#include <algorithm>
#include <cassert>
#include <span>
#include <vector>

#include "noc/geometry.hpp"
#include "noc/routing.hpp"
#include "noc/signature.hpp"

namespace ndc::noc::reference {

/// Two routes chosen together and the links they share (S_a ∩ S_b).
struct RoutePair {
  Route a;
  Route b;
  Signature shared;
  int shared_links = 0;
};

/// The links of `id` in `table`, as a route.
inline Route RouteOf(const RouteTable& table, RouteId id) {
  std::span<const sim::LinkId> links = table.Links(id);
  return Route(links.begin(), links.end());
}

inline void EnumerateRec(const Mesh& mesh, Coord cur, Coord dst, Route& prefix,
                         std::vector<Route>& out) {
  if (cur.x == dst.x && cur.y == dst.y) {
    out.push_back(prefix);
    return;
  }
  if (cur.x != dst.x) {
    Dir d = dst.x > cur.x ? Dir::East : Dir::West;
    prefix.push_back(mesh.LinkFrom(mesh.NodeAt(cur), d));
    EnumerateRec(mesh, Mesh::Neighbor(cur, d), dst, prefix, out);
    prefix.pop_back();
  }
  if (cur.y != dst.y) {
    Dir d = dst.y > cur.y ? Dir::South : Dir::North;
    prefix.push_back(mesh.LinkFrom(mesh.NodeAt(cur), d));
    EnumerateRec(mesh, Mesh::Neighbor(cur, d), dst, prefix, out);
    prefix.pop_back();
  }
}

/// Every minimal route from src to dst, x-steps before y-steps at each
/// branch.
inline std::vector<Route> EnumerateMinimalRoutes(const Mesh& mesh, sim::NodeId src,
                                                 sim::NodeId dst) {
  std::vector<Route> out;
  Route prefix;
  EnumerateRec(mesh, mesh.CoordOf(src), mesh.CoordOf(dst), prefix, out);
  return out;
}

inline std::vector<Signature> SignaturesOf(const std::vector<Route>& routes) {
  std::vector<Signature> sigs;
  sigs.reserve(routes.size());
  for (const Route& r : routes) sigs.push_back(Signature::FromRoute(r));
  return sigs;
}

/// The first pair, in enumeration order, with the most shared links among
/// all minimal routes of both accesses.
inline RoutePair MaxOverlapRoutesBruteForce(const Mesh& mesh, sim::NodeId a_src,
                                            sim::NodeId a_dst, sim::NodeId b_src,
                                            sim::NodeId b_dst) {
  std::vector<Route> as = EnumerateMinimalRoutes(mesh, a_src, a_dst);
  std::vector<Route> bs = EnumerateMinimalRoutes(mesh, b_src, b_dst);
  std::vector<Signature> sa = SignaturesOf(as), sb = SignaturesOf(bs);
  RoutePair best;
  best.shared_links = -1;
  for (std::size_t i = 0; i < as.size(); ++i) {
    for (std::size_t j = 0; j < bs.size(); ++j) {
      Signature inter = sa[i].Intersect(sb[j]);
      if (inter.Popcount() > best.shared_links) {
        best = RoutePair{as[i], bs[j], inter, inter.Popcount()};
      }
    }
  }
  return best;
}

/// The minimal route that travels in x to column `pivot_x`, then in y to
/// row `pivot_y`, then finishes x then y. Both pivots must lie within the
/// bounding box of src..dst.
inline Route StaircaseRoute(const Mesh& mesh, sim::NodeId src, sim::NodeId dst, int pivot_x,
                            int pivot_y) {
  Coord cur = mesh.CoordOf(src);
  Coord d = mesh.CoordOf(dst);
  assert(pivot_x >= std::min(cur.x, d.x) && pivot_x <= std::max(cur.x, d.x));
  assert(pivot_y >= std::min(cur.y, d.y) && pivot_y <= std::max(cur.y, d.y));
  Route r;
  auto run_x = [&](int tx) {
    while (cur.x != tx) {
      Dir dir = tx > cur.x ? Dir::East : Dir::West;
      r.push_back(mesh.LinkFrom(mesh.NodeAt(cur), dir));
      cur = Mesh::Neighbor(cur, dir);
    }
  };
  auto run_y = [&](int ty) {
    while (cur.y != ty) {
      Dir dir = ty > cur.y ? Dir::South : Dir::North;
      r.push_back(mesh.LinkFrom(mesh.NodeAt(cur), dir));
      cur = Mesh::Neighbor(cur, dir);
    }
  };
  run_x(pivot_x);
  run_y(pivot_y);
  run_x(d.x);
  run_y(d.y);
  return r;
}

/// The staircase search as first written, returning routes as link
/// vectors: every pivot's route, sorted and deduplicated, then the first
/// pair with the most shared links. RouteTable::MaxOverlapPair must choose
/// this pair link for link.
inline RoutePair MaxOverlapRoutes(const Mesh& m, sim::NodeId as, sim::NodeId ad,
                                  sim::NodeId bs, sim::NodeId bd) {
  auto candidates = [&](sim::NodeId s, sim::NodeId d) {
    Coord cs = m.CoordOf(s), cd = m.CoordOf(d);
    std::vector<Route> out;
    for (int px = std::min(cs.x, cd.x); px <= std::max(cs.x, cd.x); ++px) {
      for (int py = std::min(cs.y, cd.y); py <= std::max(cs.y, cd.y); ++py) {
        out.push_back(StaircaseRoute(m, s, d, px, py));
      }
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  };
  RoutePair best;
  best.shared_links = -1;
  for (const Route& ra : candidates(as, ad)) {
    for (const Route& rb : candidates(bs, bd)) {
      Signature inter = Signature::FromRoute(ra).Intersect(Signature::FromRoute(rb));
      if (inter.Popcount() > best.shared_links) best = RoutePair{ra, rb, inter, inter.Popcount()};
    }
  }
  return best;
}

/// The direction link `l` leaves its source in (LinkId = node * 4 + dir).
inline Dir LinkDir(sim::LinkId l) { return static_cast<Dir>(l % 4); }

/// True if `route` is a valid route: consecutive links connect, it starts
/// at src and ends at dst.
inline bool IsValidRoute(const Mesh& mesh, const Route& route, sim::NodeId src,
                         sim::NodeId dst) {
  sim::NodeId cur = src;
  for (sim::LinkId l : route) {
    if (mesh.LinkSource(l) != cur) return false;
    Coord next = Mesh::Neighbor(mesh.CoordOf(cur), LinkDir(l));
    if (!mesh.Contains(next)) return false;
    cur = mesh.NodeAt(next);
  }
  return cur == dst;
}

/// True if `route` is valid and has minimal (Manhattan) length.
inline bool IsMinimalRoute(const Mesh& mesh, const Route& route, sim::NodeId src,
                           sim::NodeId dst) {
  return IsValidRoute(mesh, route, src, dst) &&
         static_cast<int>(route.size()) == mesh.Distance(src, dst);
}

}  // namespace ndc::noc::reference
