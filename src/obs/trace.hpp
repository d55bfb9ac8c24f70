#pragma once

// Chrome trace_event collection. A TraceSink accumulates timeline events
// ('X' complete slices, 'i' instants) and serializes them as the JSON object
// format ({"traceEvents": [...]}) that chrome://tracing and Perfetto load
// directly. Simulated cycles map 1:1 onto trace microseconds (`ts`/`dur`),
// so one timeline tick in the viewer is one core clock cycle.
//
// Event names are `const char*` and must point at storage that outlives the
// sink (every producer in this repo passes string literals); this keeps the
// per-event cost to a handful of integer stores.

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hpp"

namespace ndc::obs {

/// One Chrome trace_event. Only the fields the viewers require (ph, ts,
/// pid, tid, name) plus a duration, the request token and, on instants, one
/// more numeric arg.
struct TraceEvent {
  char ph = 'X';             ///< 'X' complete slice, 'i' instant
  sim::Cycle ts = 0;         ///< start, simulated cycles
  sim::Cycle dur = 0;        ///< 'X' only
  std::int32_t pid = 1;      ///< one simulated machine per trace
  std::int32_t tid = 0;      ///< mesh node (core) the event belongs to
  const char* name = "";     ///< static string
  std::uint64_t token = 0;   ///< request token (args.token; 0 = omitted)
  const char* arg_name = nullptr;  ///< optional extra arg key ('i' only; static string)
  std::uint64_t arg = 0;           ///< extra arg value
};

class TraceSink {
 public:
  /// `max_events` bounds memory on full-workload runs; events past the cap
  /// are counted in dropped() instead of stored.
  explicit TraceSink(std::size_t max_events = 1u << 20) : max_events_(max_events) {}

  void Complete(const char* name, sim::Cycle ts, sim::Cycle dur, std::int32_t tid,
                std::uint64_t token) {
    Push({'X', ts, dur, 1, tid, name, token});
  }

  void Instant(const char* name, sim::Cycle ts, std::int32_t tid, std::uint64_t token,
               const char* arg_name = nullptr, std::uint64_t arg = 0) {
    Push({'i', ts, 0, 1, tid, name, token, arg_name, arg});
  }

  std::size_t size() const { return events_.size(); }
  std::size_t dropped() const { return dropped_; }

  /// {"traceEvents":[...]} — loadable by chrome://tracing and Perfetto.
  std::string ToJson() const;

  /// Writes ToJson() to `path`; false when the file cannot be written.
  bool WriteFile(const std::string& path) const;

 private:
  void Push(TraceEvent e) {
    if (events_.size() >= max_events_) {
      ++dropped_;
      return;
    }
    events_.push_back(e);
  }

  std::size_t max_events_;
  std::vector<TraceEvent> events_;
  std::size_t dropped_ = 0;
};

}  // namespace ndc::obs
