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
  Require(r, in.sync_acquires == in.sync_releases,
          Eq("sync_acquires", in.sync_acquires, "sync_releases", in.sync_releases));
  Require(r, in.sync_barrier_arrivals == in.sync_barrier_departures,
          Eq("sync_barrier_arrivals", in.sync_barrier_arrivals, "sync_barrier_departures",
             in.sync_barrier_departures));
  Require(r, in.sync_atomics_issued == in.sync_atomics_completed,
          Eq("sync_atomics_issued", in.sync_atomics_issued, "sync_atomics_completed",
             in.sync_atomics_completed));
  return r;
}

}  // namespace ndc::fault
