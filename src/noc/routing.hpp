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

/// The mesh's default dimension-ordered route (X then Y, per Table 1).
Route XyRoute(const Mesh& mesh, sim::NodeId src, sim::NodeId dst);

/// Identifies a route stored in a RouteTable.
using RouteId = std::uint32_t;

/// The route id a packet carries when it takes the mesh's default X-Y route
/// from its src to its dst.
inline constexpr RouteId kXyRoute = ~RouteId{0};

/// Two routes chosen together, by id, and the links they share: the
/// signature co-selection of Section 5.2.1 (challenge 3) picks minimal
/// routes for two independent accesses that maximize popcount(S_a ∩ S_b),
/// and each shared link is an NDC opportunity at its router.
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
/// is src * num_nodes + dst. The staircase candidates of a pair (every
/// "x-run / y-run / x-run / y-run" minimal route, which includes X-Y and
/// Y-X) are added, with their signatures, the first time an overlap query
/// names that pair, and kept for the table's lifetime. Adding routes moves
/// the link storage, so a span from Links() is valid only until the next
/// MaxOverlapPair call. Not thread-safe: each Network and each
/// compiler::Compile call owns its own table.
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

  /// Minimal routes for (a_src -> a_dst) and (b_src -> b_dst) that share
  /// the most links: the first such pair in sorted candidate order. The
  /// staircase family is exact for monotone minimal paths (tests check it
  /// against exhaustive enumeration), and the choice is deterministic link
  /// for link, because the chosen links set packet timing.
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

}  // namespace ndc::noc
