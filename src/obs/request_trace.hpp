#pragma once

// Request-lifetime tracing. Every (sampled) load carries a token from issue
// to completion; each layer it crosses stamps a lifecycle event. A request's
// per-stage latency breakdown is the sequence of deltas between consecutive
// stamps, so the stage latencies of one request always telescope to exactly
// its end-to-end latency — the invariant the breakdown table is built on
// (and that tests assert).
//
// Stage boundary convention: a Stage names the stamp that ENDS an interval;
// the interval's cost is attributed to that stage. E.g. Stage::kMcIssue is
// stamped when the FR-FCFS scheduler issues the request to a DRAM bank, so
// the "mc.queue" row in the table is (issue stamp − enqueue stamp): pure
// queue residency, excluding DRAM service (see DESIGN.md §9).
//
// Sampling: Begin() admits every `sample_period`-th load (in deterministic
// issue order), starting with the first. Stamping is passive — it never
// schedules events or perturbs simulated time — so a sampled run's records
// are a bit-exact subset of a full run's.

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "sim/types.hpp"

namespace ndc::obs {

/// Lifecycle stamps, in the order a request can encounter them.
enum class Stage : std::uint8_t {
  kIssue = 0,     ///< load issued by the core (interval start; never an end)
  kL1Hit,         ///< hit data ready (terminal for L1 hits)
  kL1Miss,        ///< L1 lookup completed, miss detected
  kReqAtHome,     ///< request arrived at the home L2 bank (NoC request)
  kL2Hit,         ///< L2 lookup completed, hit (bank occupancy included)
  kL2Miss,        ///< L2 lookup completed, miss
  kMcEnqueue,     ///< request arrived at the memory controller queue
  kMcIssue,       ///< FR-FCFS issued the request to its DRAM bank
  kDramReady,     ///< data ready at the controller (DRAM service done)
  kHomeRefill,    ///< response arrived back at the home L2 bank
  kDeliver,       ///< data delivered to the core (terminal)
  kNdcConsumed,   ///< operand consumed by a near-data computation (terminal)
  kUnfinished,    ///< run ended with the request in flight (terminal)
};
inline constexpr int kNumStages = 13;

const char* StageName(Stage s);

struct StageStamp {
  Stage stage;
  sim::Cycle at;
};

struct RequestRecord {
  std::uint64_t token = 0;
  sim::NodeId core = sim::kNoNode;
  std::uint32_t slot = 0;  ///< trace slot of the load
  sim::Addr addr = 0;
  bool finished = false;
  std::vector<StageStamp> stamps;  ///< stamps[0] is always kIssue

  sim::Cycle issue_cycle() const { return stamps.empty() ? 0 : stamps.front().at; }
  sim::Cycle last_cycle() const { return stamps.empty() ? 0 : stamps.back().at; }
  sim::Cycle EndToEnd() const { return last_cycle() - issue_cycle(); }
};

/// Request records one RequestTracer keeps. A sampled load past the cap
/// goes untraced and is counted in overflowed().
inline constexpr std::size_t kMaxTracedRequests = 1u << 20;

/// How much one observed run records. Observability sizes its sink from
/// max_trace_events; the RequestTracer reads sample_period.
struct ObsOptions {
  std::uint64_t sample_period = 1;          ///< trace every Nth load (1 = all)
  std::size_t max_trace_events = 1u << 20;  ///< timeline events kept; excess dropped
};

class RequestTracer {
 public:
  explicit RequestTracer(TraceSink* sink, ObsOptions opt = {}) : sink_(sink), opt_(opt) {
    if (opt_.sample_period == 0) opt_.sample_period = 1;
  }

  /// Admits or skips one load. Returns the nonzero token to thread through
  /// the memory system, or 0 when the load is not sampled. Stamps kIssue.
  std::uint64_t Begin(sim::NodeId core, std::uint32_t slot, sim::Addr addr, sim::Cycle now);

  /// Appends a lifecycle stamp. No-op for token 0 or finished requests.
  void Stamp(std::uint64_t token, Stage stage, sim::Cycle now);

  /// Terminal stamp: aggregates the record's stage deltas and emits its
  /// timeline slices into the sink. Idempotent — later Finish calls on the
  /// same token are ignored (an NDC squash can race a conventional delivery).
  void Finish(std::uint64_t token, Stage final_stage, sim::Cycle now);

  /// Closes every still-open record as Stage::kUnfinished (end of run).
  /// Unfinished records are excluded from the stage aggregates.
  void EndRun(sim::Cycle now);

  // --- introspection ---
  std::uint64_t seen() const { return seen_; }          ///< loads offered
  std::uint64_t traced() const { return records_.size(); }
  std::uint64_t finished() const { return finished_; }
  std::uint64_t unfinished() const { return unfinished_; }
  std::uint64_t overflowed() const { return overflowed_; }  ///< lost to kMaxTracedRequests
  std::uint64_t sample_period() const { return opt_.sample_period; }
  const std::vector<RequestRecord>& records() const { return records_; }

  struct StageAgg {
    std::uint64_t count = 0;   ///< intervals ending in this stage
    std::uint64_t cycles = 0;  ///< summed interval lengths
  };
  /// Aggregate per-stage latencies over finished requests (indexed by Stage).
  const StageAgg* aggregates() const { return agg_; }
  /// Summed end-to-end latency over finished requests. Equals the sum of
  /// all aggregate stage cycles (the telescoping invariant).
  std::uint64_t total_end_to_end() const { return total_e2e_; }

  /// Human-readable per-stage latency table (ndc-trace stdout).
  std::string BreakdownTable() const;

 private:
  RequestRecord* Find(std::uint64_t token) {
    if (token == 0 || token > records_.size()) return nullptr;
    return &records_[static_cast<std::size_t>(token - 1)];
  }

  TraceSink* sink_;
  ObsOptions opt_;
  std::vector<RequestRecord> records_;  ///< token i+1 lives at records_[i]
  std::uint64_t seen_ = 0;
  std::uint64_t finished_ = 0;
  std::uint64_t unfinished_ = 0;
  std::uint64_t overflowed_ = 0;
  StageAgg agg_[kNumStages];
  std::uint64_t total_e2e_ = 0;
};

}  // namespace ndc::obs
