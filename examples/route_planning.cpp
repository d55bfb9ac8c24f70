// Example: NoC route-signature co-selection (Section 5.2.1, Figure 11).
//
// Two data accesses from different sources to different L2 banks may not
// share any link under default X-Y routing; choosing among minimal routes
// ("signatures") can create common links — each one an opportunity to
// perform the computation in a link router.
//
//   $ ./examples/route_planning

#include <cstdio>
#include <span>

#include "noc/geometry.hpp"
#include "noc/routing.hpp"
#include "noc/signature.hpp"

using namespace ndc;

namespace {

void DrawRoutes(const noc::Mesh& mesh, std::span<const sim::LinkId> a,
                std::span<const sim::LinkId> b) {
  // ASCII mesh: mark links used by A (a), B (b), both (*).
  noc::Signature sa = noc::Signature::FromRoute(a);
  noc::Signature sb = noc::Signature::FromRoute(b);
  for (int y = 0; y < mesh.height(); ++y) {
    // Node row with horizontal links.
    for (int x = 0; x < mesh.width(); ++x) {
      std::printf("o");
      if (x + 1 < mesh.width()) {
        sim::NodeId n = mesh.NodeAt({x, y});
        sim::NodeId e = mesh.NodeAt({x + 1, y});
        bool ua = sa.Test(mesh.LinkFrom(n, noc::Dir::East)) ||
                  sa.Test(mesh.LinkFrom(e, noc::Dir::West));
        bool ub = sb.Test(mesh.LinkFrom(n, noc::Dir::East)) ||
                  sb.Test(mesh.LinkFrom(e, noc::Dir::West));
        std::printf("%s", ua && ub ? "***" : ua ? "aaa" : ub ? "bbb" : "---");
      }
    }
    std::printf("\n");
    if (y + 1 < mesh.height()) {
      for (int x = 0; x < mesh.width(); ++x) {
        sim::NodeId n = mesh.NodeAt({x, y});
        sim::NodeId s = mesh.NodeAt({x, y + 1});
        bool ua = sa.Test(mesh.LinkFrom(n, noc::Dir::South)) ||
                  sa.Test(mesh.LinkFrom(s, noc::Dir::North));
        bool ub = sb.Test(mesh.LinkFrom(n, noc::Dir::South)) ||
                  sb.Test(mesh.LinkFrom(s, noc::Dir::North));
        std::printf("%s   ", ua && ub ? "*" : ua ? "a" : ub ? "b" : "|");
      }
      std::printf("\n");
    }
  }
}

}  // namespace

int main() {
  noc::Mesh mesh(6, 6);
  // Figure-11-style scenario: two accesses whose default routes miss each
  // other entirely.
  sim::NodeId a_src = mesh.NodeAt({0, 1}), a_dst = mesh.NodeAt({4, 4});
  sim::NodeId b_src = mesh.NodeAt({1, 0}), b_dst = mesh.NodeAt({4, 5});

  // The route table the simulated network uses: every X-Y route, plus the
  // minimal-route candidates of each pair an overlap query names.
  noc::RouteTable routes(mesh);
  noc::RouteIdPair xy = routes.XyPair(a_src, a_dst, b_src, b_dst);
  std::printf("== default X-Y routing: %d common links ==\n", xy.shared_links);
  DrawRoutes(mesh, routes.Links(xy.a), routes.Links(xy.b));

  noc::RouteIdPair best = routes.MaxOverlapPair(a_src, a_dst, b_src, b_dst);
  std::printf("\n== signature co-selection: %d common links (each one an NDC "
              "opportunity) ==\n",
              best.shared_links);
  DrawRoutes(mesh, routes.Links(best.a), routes.Links(best.b));

  std::printf("\nshared signature S_a ∩ S_b = %s\n", best.shared.ToString().c_str());
  std::printf("Both routes remain minimal: |A| = %zu, |B| = %zu hops.\n",
              routes.Links(best.a).size(), routes.Links(best.b).size());
  return 0;
}
