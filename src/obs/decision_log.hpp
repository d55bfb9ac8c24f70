#pragma once

// NDC decision audit log. Records every offload decision the runtime makes
// for a candidate instruction pair — why it was (or was not) offloaded, and
// how an offloaded pair ultimately resolved. The completeness contract
// (asserted by tests) is: every candidate the machine counts appears exactly
// once, and every entry ends with a terminal outcome — offloads resolve to
// success or a specific fallback reason, non-offloads resolve to
// kConventional at record time. The log is how you answer "the oracle
// offloaded 4,112 pairs; where did the other 900 candidates go?" without
// reverse-engineering counter arithmetic.

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hpp"

namespace ndc::obs {

/// Why the runtime did / did not offload a candidate pair.
enum class DecisionKind : std::uint8_t {
  kLocalL1Skip = 0,    ///< both operands L1-resident; offload pointless
  kDeclined,           ///< policy said no (baseline / predictor negative)
  kPlanInfeasible,     ///< no legal meeting point for the operand pair
  kOpRestricted,       ///< operation not supported at the planned location
  kOffloadTableFull,   ///< core-side offload table had no free entry
  kOffload,            ///< offloaded; outcome pending until resolution
};
inline constexpr int kNumDecisionKinds = 6;

/// How an entry terminally resolved.
enum class Outcome : std::uint8_t {
  kConventional = 0,         ///< executed on-core (any non-offload kind)
  kNdcSuccess,               ///< operands met; computed near data
  kFallbackTimeout,          ///< wait window expired
  kFallbackPartnerDone,      ///< partner operand already consumed/delivered
  kFallbackServiceTableFull, ///< no service-table entry at the meeting point
  kFallbackNeverMet,         ///< run ended before the operands met
  kUnresolved,               ///< not yet resolved (transient; none at EndRun)
};
inline constexpr int kNumOutcomes = 7;

const char* DecisionKindName(DecisionKind k);
const char* OutcomeName(Outcome o);

struct DecisionEntry {
  std::uint64_t uid = 0;         ///< candidate pair uid (Instance::uid)
  sim::NodeId core = sim::kNoNode;
  std::uint32_t site = 0;        ///< static candidate site index
  DecisionKind kind = DecisionKind::kDeclined;
  std::int8_t planned_loc = -1;  ///< arch::Loc of the plan (-1 = none)
  sim::Cycle decided_at = 0;
  Outcome outcome = Outcome::kUnresolved;
  std::int8_t met_loc = -1;      ///< arch::Loc where operands actually met
  sim::Cycle resolved_at = 0;
};

class DecisionLog {
 public:
  /// Records one candidate decision. Non-offload kinds are terminal and
  /// resolve to kConventional immediately; kOffload stays kUnresolved until
  /// Resolve(). One decision per candidate: a uid is recorded once
  /// (asserted).
  void Record(std::uint64_t uid, sim::NodeId core, std::uint32_t site, DecisionKind kind,
              std::int8_t planned_loc, sim::Cycle now);

  /// Terminally resolves an offloaded entry. First resolution wins; later
  /// calls for the same uid are ignored (an abort can race the catch-all
  /// fallback sweep). Unknown uids are ignored.
  void Resolve(std::uint64_t uid, Outcome outcome, std::int8_t met_loc, sim::Cycle now);

  /// Marks every still-unresolved offload as kFallbackNeverMet.
  void EndRun(sim::Cycle now);

  const std::vector<DecisionEntry>& entries() const { return entries_; }
  /// Entries of kind `k` / with outcome `o`, counted over entries().
  std::uint64_t kind_count(DecisionKind k) const;
  std::uint64_t outcome_count(Outcome o) const;

  /// Human-readable decision / outcome tallies (ndc-trace stdout).
  std::string Summary() const;

  /// One JSON object per entry, newline-delimited (ndc-trace --decisions=).
  std::string ToJsonl() const;

 private:
  std::vector<DecisionEntry> entries_;
  /// Indexed by uid (dense from 1): 1 + the index of its entry in
  /// entries_, or 0 when the uid has none.
  std::vector<std::size_t> entry_of_uid_;
};

}  // namespace ndc::obs
