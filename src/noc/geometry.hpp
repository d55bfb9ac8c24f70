#pragma once

#include <cassert>
#include <cstdlib>

#include "sim/types.hpp"

namespace ndc::noc {

using sim::LinkId;
using sim::NodeId;

/// A position on the 2D mesh.
struct Coord {
  int x = 0;
  int y = 0;
};

/// Link direction leaving a router.
enum class Dir : int { East = 0, West = 1, North = 2, South = 3 };

/// 2D mesh geometry: node/coordinate mapping and directional link ids.
///
/// Every node owns four outgoing link slots (E/W/N/S); links leaving the
/// mesh edge simply never appear in any route. LinkId = node * 4 + dir.
class Mesh {
 public:
  Mesh(int width, int height) : w_(width), h_(height) {
    assert(width > 0 && height > 0);
  }

  int width() const { return w_; }
  int height() const { return h_; }
  int num_nodes() const { return w_ * h_; }
  int num_link_slots() const { return num_nodes() * 4; }

  NodeId NodeAt(Coord c) const {
    assert(Contains(c));
    return static_cast<NodeId>(c.y * w_ + c.x);
  }
  Coord CoordOf(NodeId n) const {
    assert(n >= 0 && n < num_nodes());
    return Coord{static_cast<int>(n % w_), static_cast<int>(n / w_)};
  }
  bool Contains(Coord c) const { return c.x >= 0 && c.x < w_ && c.y >= 0 && c.y < h_; }

  /// The outgoing link of `from` in direction `d`. Must stay on the mesh.
  LinkId LinkFrom(NodeId from, Dir d) const {
    assert(Contains(Neighbor(CoordOf(from), d)));
    return static_cast<LinkId>(from * 4 + static_cast<int>(d));
  }

  /// Source node of a link.
  NodeId LinkSource(LinkId l) const { return static_cast<NodeId>(l / 4); }
  Dir LinkDir(LinkId l) const { return static_cast<Dir>(l % 4); }

  /// Destination node of a link.
  NodeId LinkDest(LinkId l) const {
    return NodeAt(Neighbor(CoordOf(LinkSource(l)), LinkDir(l)));
  }

  static Coord Neighbor(Coord c, Dir d) {
    switch (d) {
      case Dir::East: return {c.x + 1, c.y};
      case Dir::West: return {c.x - 1, c.y};
      case Dir::North: return {c.x, c.y - 1};
      case Dir::South: return {c.x, c.y + 1};
    }
    return c;
  }

  /// Manhattan distance in hops.
  int Distance(NodeId a, NodeId b) const {
    Coord ca = CoordOf(a), cb = CoordOf(b);
    return std::abs(ca.x - cb.x) + std::abs(ca.y - cb.y);
  }

 private:
  int w_;
  int h_;
};

}  // namespace ndc::noc
