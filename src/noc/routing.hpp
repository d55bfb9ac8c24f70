#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "noc/geometry.hpp"
#include "noc/signature.hpp"

namespace ndc::noc {

/// A route is the ordered list of directional links traversed from source
/// to destination. Empty when src == dst.
using Route = std::vector<sim::LinkId>;

/// Deterministic dimension-ordered routes (the mesh's default is X-Y,
/// per Table 1).
Route XyRoute(const Mesh& mesh, sim::NodeId src, sim::NodeId dst);
Route YxRoute(const Mesh& mesh, sim::NodeId src, sim::NodeId dst);

/// A minimal "staircase" route that travels in x until column `pivot_x`,
/// then in y until row `pivot_y`, then finishes x then y. `pivot_x` /
/// `pivot_y` must lie within the bounding box of src..dst; the result is
/// always a minimal route.
Route StaircaseRoute(const Mesh& mesh, sim::NodeId src, sim::NodeId dst, int pivot_x,
                     int pivot_y);

/// Every minimal route from src to dst (there are C(dx+dy, dx) of them).
/// Intended for tests and exhaustive searches on small meshes.
std::vector<Route> EnumerateMinimalRoutes(const Mesh& mesh, sim::NodeId src, sim::NodeId dst);

/// Result of the signature co-selection of Section 5.2.1 (challenge 3):
/// minimal routes for two independent accesses chosen to maximize
/// popcount(S_a ∩ S_b), i.e. the number of physical links the two accesses
/// share (each shared link is an NDC opportunity at its router).
struct RoutePair {
  Route a;
  Route b;
  Signature shared;  // S_a ∩ S_b
  int shared_links = 0;
};

/// Chooses minimal routes for (a_src -> a_dst) and (b_src -> b_dst)
/// maximizing the number of common links. Uses the closed-form staircase
/// construction (exact for monotone minimal paths; verified against
/// exhaustive enumeration in tests).
RoutePair MaxOverlapRoutes(const Mesh& mesh, sim::NodeId a_src, sim::NodeId a_dst,
                           sim::NodeId b_src, sim::NodeId b_dst);

/// Identifies a route stored in a RouteTable.
using RouteId = std::uint32_t;

/// The route id a packet carries when it takes the mesh's default X-Y route
/// from its src to its dst.
inline constexpr RouteId kXyRoute = ~RouteId{0};

/// MaxOverlapRoutes' result as plain data: the chosen routes by id.
struct RouteIdPair {
  RouteId a = 0;
  RouteId b = 0;
  Signature shared;  // S_a ∩ S_b
  int shared_links = 0;
};

/// Every route one mesh's packets take, in flat storage and addressed by
/// RouteId, so packets and planned NDC instances carry a 4-byte id instead
/// of a link vector.
///
/// The X-Y route of every (src, dst) pair is built at construction: its id
/// is src * num_nodes + dst. The staircase candidates of a pair (the route
/// family MaxOverlapRoutes searches) are added, with their signatures, the
/// first time an overlap query names that pair, and kept for the table's
/// lifetime. Adding routes moves the link storage, so a span from Links()
/// is valid only until the next MaxOverlapPair call. Not thread-safe: each
/// Network owns its own table.
class RouteTable {
 public:
  explicit RouteTable(const Mesh& mesh);

  /// Number of routes stored (X-Y routes plus interned candidates).
  std::size_t size() const { return begin_.size() - 1; }

  RouteId Xy(sim::NodeId src, sim::NodeId dst) const {
    return static_cast<RouteId>(src * mesh_.num_nodes() + dst);
  }

  /// The links of route `id`, from source to destination.
  std::span<const sim::LinkId> Links(RouteId id) const {
    return {links_.data() + begin_[id], begin_[id + 1] - begin_[id]};
  }

  /// The X-Y routes of both accesses and the links they share.
  RouteIdPair XyPair(sim::NodeId a_src, sim::NodeId a_dst, sim::NodeId b_src,
                     sim::NodeId b_dst) const;

  /// The pair MaxOverlapRoutes chooses for the same arguments (the same
  /// routes link for link, not just the same overlap count), as ids.
  RouteIdPair MaxOverlapPair(sim::NodeId a_src, sim::NodeId a_dst, sim::NodeId b_src,
                             sim::NodeId b_dst);

 private:
  /// A pair's candidates: cand_ids_/cand_sigs_[first, first + count).
  struct Candidates {
    std::uint32_t first = 0;
    std::uint32_t count = 0;  ///< 0 until first used (a pair has >= 1)
  };

  Candidates CandidatesOf(sim::NodeId src, sim::NodeId dst);
  RouteId Add(std::span<const sim::LinkId> links);

  Mesh mesh_;
  std::vector<sim::LinkId> links_;    ///< every route's links, back to back
  std::vector<std::uint32_t> begin_;  ///< route id -> offset in links_ (+ end)
  std::vector<Candidates> cands_;     ///< per (src, dst) pair
  std::vector<RouteId> cand_ids_;
  std::vector<Signature> cand_sigs_;
};

/// Exhaustive-search reference implementation of MaxOverlapRoutes (small
/// meshes only; O(#paths^2)).
RoutePair MaxOverlapRoutesBruteForce(const Mesh& mesh, sim::NodeId a_src, sim::NodeId a_dst,
                                     sim::NodeId b_src, sim::NodeId b_dst);

/// True if `route` is a valid route: consecutive links connect, starts at
/// src, ends at dst.
bool IsValidRoute(const Mesh& mesh, const Route& route, sim::NodeId src, sim::NodeId dst);

/// True if `route` has minimal (Manhattan) length.
bool IsMinimalRoute(const Mesh& mesh, const Route& route, sim::NodeId src, sim::NodeId dst);

}  // namespace ndc::noc
