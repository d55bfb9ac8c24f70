#pragma once

// Request-conservation invariant: no request is ever lost. Every issued
// unit of work must be accounted for as completed or fallen back to the host
// core — never silently vanished. The checker is a pure function over
// counter snapshots; the NDC layer gathers the snapshot (src/fault cannot
// depend on src/ndc), metrics::Experiment records it after every measured
// run, and tests assert it.

#include <cstdint>
#include <string>
#include <vector>

namespace ndc::fault {

/// Counter snapshot taken after a run drains. All values are end-of-run
/// totals; the invariants below must hold exactly.
struct ConservationInputs {
  // Offload accounting (NDC machine).
  std::uint64_t offloads = 0;          ///< offloads issued
  std::uint64_t ndc_success = 0;       ///< offloads that computed near data
  std::uint64_t fallbacks = 0;         ///< offloads degraded to the host core
  // Core accounting.
  std::uint64_t cores_incomplete = 0;  ///< cores still waiting at end of run
  // NoC accounting.
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t packets_squashed = 0;  ///< consumed by an NDC computation
  // Memory-controller accounting.
  std::uint64_t mc_reads = 0;
  std::uint64_t mc_reads_done = 0;

  friend bool operator==(const ConservationInputs&, const ConservationInputs&) = default;
};

/// Result of a conservation check: ok iff every invariant held; violations
/// lists each failed invariant in human-readable form.
struct ConservationReport {
  bool ok = true;
  std::vector<std::string> violations;

  std::string ToString() const;
};

/// Checks:
///   offloads       == ndc_success + fallbacks        (every offload resolves)
///   cores_incomplete == 0                            (every core finishes)
///   packets_sent   == delivered + squashed           (every packet lands)
///   mc_reads       == mc_reads_done                  (every read completes)
ConservationReport CheckConservation(const ConservationInputs& in);

}  // namespace ndc::fault
