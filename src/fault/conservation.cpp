#include "fault/conservation.hpp"

#include <sstream>

namespace ndc::fault {
namespace {

void Require(ConservationReport& r, bool ok, const std::string& what) {
  if (ok) return;
  r.ok = false;
  r.violations.push_back(what);
}

std::string Eq(const char* lhs, std::uint64_t a, const char* rhs, std::uint64_t b) {
  std::ostringstream os;
  os << lhs << " (" << a << ") != " << rhs << " (" << b << ")";
  return os.str();
}

}  // namespace

std::string ConservationReport::ToString() const {
  if (ok) return "conservation: ok";
  std::ostringstream os;
  os << "conservation: " << violations.size() << " violation(s)";
  for (const std::string& v : violations) os << "\n  " << v;
  return os.str();
}

ConservationReport CheckConservation(const ConservationInputs& in) {
  ConservationReport r;
  Require(r, in.offloads == in.ndc_success + in.fallbacks,
          Eq("offloads", in.offloads, "ndc_success + fallbacks",
             in.ndc_success + in.fallbacks));
  Require(r, in.cores_incomplete == 0,
          "cores_incomplete (" + std::to_string(in.cores_incomplete) + ") != 0");
  Require(r, in.packets_sent == in.packets_delivered + in.packets_squashed,
          Eq("packets_sent", in.packets_sent, "delivered + squashed",
             in.packets_delivered + in.packets_squashed));
  Require(r, in.mc_reads == in.mc_reads_done,
          Eq("mc_reads", in.mc_reads, "mc_reads_done", in.mc_reads_done));
  return r;
}

}  // namespace ndc::fault
