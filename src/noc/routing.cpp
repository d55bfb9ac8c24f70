#include "noc/routing.hpp"

#include <algorithm>

namespace ndc::noc {
namespace {

// Appends the links of a straight x-run from `cur` to column `tx`.
void AppendXRun(const Mesh& mesh, Coord& cur, int tx, Route& out) {
  while (cur.x != tx) {
    Dir d = tx > cur.x ? Dir::East : Dir::West;
    out.push_back(mesh.LinkFrom(mesh.NodeAt(cur), d));
    cur = Mesh::Neighbor(cur, d);
  }
}

// Appends the links of a straight y-run from `cur` to row `ty`.
void AppendYRun(const Mesh& mesh, Coord& cur, int ty, Route& out) {
  while (cur.y != ty) {
    Dir d = ty > cur.y ? Dir::South : Dir::North;
    out.push_back(mesh.LinkFrom(mesh.NodeAt(cur), d));
    cur = Mesh::Neighbor(cur, d);
  }
}

// Appends the X-Y route from src to dst.
void AppendXy(const Mesh& mesh, sim::NodeId src, sim::NodeId dst, Route& out) {
  Coord cur = mesh.CoordOf(src);
  Coord d = mesh.CoordOf(dst);
  AppendXRun(mesh, cur, d.x, out);
  AppendYRun(mesh, cur, d.y, out);
}

// Appends the staircase route s -> (pivot_x) -> (pivot_y) -> d: x-run,
// y-run, x-run, y-run. With pivots inside the bounding box of s..d it is a
// minimal route.
void AppendStaircase(const Mesh& mesh, Coord s, Coord d, int pivot_x, int pivot_y,
                     Route& out) {
  Coord cur = s;
  AppendXRun(mesh, cur, pivot_x, out);
  AppendYRun(mesh, cur, pivot_y, out);
  AppendXRun(mesh, cur, d.x, out);
  AppendYRun(mesh, cur, d.y, out);
}

// All single/double-pivot staircase routes for one src/dst pair. This family
// contains XY, YX, and every "x-run / y-run / x-run / y-run" shape, which is
// sufficient to realize the maximum link overlap with another monotone path
// (the shared links of two monotone paths always form a staircase that both
// paths can adopt; verified against brute force in tests).
//
// The distinct candidates are appended to `out` back to back in ascending
// lexicographic order. Every minimal route of a pair has Distance(src, dst)
// links, so candidate k spans out[base + k * len, base + (k + 1) * len).
// Returns the number of candidates.
std::size_t AppendCandidates(const Mesh& mesh, sim::NodeId src, sim::NodeId dst,
                             std::vector<sim::LinkId>& out) {
  Coord s = mesh.CoordOf(src);
  Coord d = mesh.CoordOf(dst);
  int x_lo = std::min(s.x, d.x), x_hi = std::max(s.x, d.x);
  int y_lo = std::min(s.y, d.y), y_hi = std::max(s.y, d.y);
  const std::size_t len = static_cast<std::size_t>(mesh.Distance(src, dst));
  const std::size_t count = static_cast<std::size_t>((x_hi - x_lo + 1) * (y_hi - y_lo + 1));
  const std::size_t base = out.size();
  out.reserve(base + count * len);
  for (int px = x_lo; px <= x_hi; ++px) {
    for (int py = y_lo; py <= y_hi; ++py) AppendStaircase(mesh, s, d, px, py, out);
  }
  auto block = [&](std::size_t k) {
    return out.begin() + static_cast<std::ptrdiff_t>(base + k * len);
  };
  auto less = [&](std::size_t i, std::size_t j) {
    return std::lexicographical_compare(block(i), block(i + 1), block(j), block(j + 1));
  };
  // Insertion sort of the fixed-length blocks (a pair has at most
  // width * height candidates), then drop adjacent duplicates: degenerate
  // pivots collapse to the same route.
  for (std::size_t i = 1; i < count; ++i) {
    for (std::size_t j = i; j > 0 && less(j, j - 1); --j) {
      std::swap_ranges(block(j), block(j + 1), block(j - 1));
    }
  }
  std::size_t kept = 0;
  for (std::size_t k = 0; k < count; ++k) {
    if (kept > 0 && std::equal(block(k), block(k + 1), block(kept - 1))) continue;
    if (kept != k) std::copy(block(k), block(k + 1), block(kept));
    ++kept;
  }
  out.resize(base + kept * len);
  return kept;
}

// The first pair (in candidate order) with the most shared links: strict `>`
// keeps the earliest of equally good pairs.
struct Best {
  std::size_t a = 0;
  std::size_t b = 0;
  Signature shared;
  int shared_links = -1;
};

Best BestOf(std::span<const Signature> as, std::span<const Signature> bs) {
  Best best;
  for (std::size_t i = 0; i < as.size(); ++i) {
    for (std::size_t j = 0; j < bs.size(); ++j) {
      Signature inter = as[i].Intersect(bs[j]);
      int n = inter.Popcount();
      if (n > best.shared_links) best = Best{i, j, inter, n};
    }
  }
  return best;
}

}  // namespace

Route XyRoute(const Mesh& mesh, sim::NodeId src, sim::NodeId dst) {
  Route r;
  AppendXy(mesh, src, dst, r);
  return r;
}

RouteTable::RouteTable(const Mesh& mesh) : mesh_(mesh) {
  const std::size_t n = static_cast<std::size_t>(mesh_.num_nodes());
  begin_.reserve(n * n + 1);
  begin_.push_back(0);
  for (sim::NodeId src = 0; src < mesh_.num_nodes(); ++src) {
    for (sim::NodeId dst = 0; dst < mesh_.num_nodes(); ++dst) {
      AppendXy(mesh_, src, dst, links_);
      begin_.push_back(static_cast<std::uint32_t>(links_.size()));
    }
  }
  cands_.resize(n * n);
}

RouteId RouteTable::Add(std::span<const sim::LinkId> links) {
  links_.insert(links_.end(), links.begin(), links.end());
  begin_.push_back(static_cast<std::uint32_t>(links_.size()));
  return static_cast<RouteId>(begin_.size() - 2);
}

RouteTable::Candidates RouteTable::CandidatesOf(sim::NodeId src, sim::NodeId dst) {
  Candidates& c = cands_[static_cast<std::size_t>(Xy(src, dst))];
  if (c.count != 0) return c;
  std::vector<sim::LinkId> links;
  std::size_t count = AppendCandidates(mesh_, src, dst, links);
  std::size_t len = static_cast<std::size_t>(mesh_.Distance(src, dst));
  c.first = static_cast<std::uint32_t>(cand_ids_.size());
  c.count = static_cast<std::uint32_t>(count);
  std::span<const sim::LinkId> all(links);
  for (std::size_t k = 0; k < count; ++k) {
    std::span<const sim::LinkId> route = all.subspan(k * len, len);
    cand_ids_.push_back(Add(route));
    cand_sigs_.push_back(Signature::FromRoute(route));
  }
  return c;
}

RouteIdPair RouteTable::XyPair(sim::NodeId a_src, sim::NodeId a_dst, sim::NodeId b_src,
                               sim::NodeId b_dst) const {
  RouteIdPair p;
  p.a = Xy(a_src, a_dst);
  p.b = Xy(b_src, b_dst);
  p.shared = Signature::FromRoute(Links(p.a)).Intersect(Signature::FromRoute(Links(p.b)));
  p.shared_links = p.shared.Popcount();
  return p;
}

RouteIdPair RouteTable::MaxOverlapPair(sim::NodeId a_src, sim::NodeId a_dst, sim::NodeId b_src,
                                       sim::NodeId b_dst) {
  Candidates ca = CandidatesOf(a_src, a_dst);
  Candidates cb = CandidatesOf(b_src, b_dst);
  std::span<const Signature> sigs(cand_sigs_);
  Best best = BestOf(sigs.subspan(ca.first, ca.count), sigs.subspan(cb.first, cb.count));
  return RouteIdPair{cand_ids_[ca.first + best.a], cand_ids_[cb.first + best.b], best.shared,
                     best.shared_links};
}

}  // namespace ndc::noc
