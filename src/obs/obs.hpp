#pragma once

// Umbrella for the observability subsystem: one Observability object bundles
// the trace sink, request tracer and decision log for a single simulated
// machine. The simulator takes a raw `Observability*` (nullptr = observation
// off, the default); the owner — a tool like ndc-trace, a test, or the
// harness obs-export path — constructs it, runs, then reads the pieces out.
// See DESIGN.md §9.

#include <cstdint>
#include <memory>

#include "obs/decision_log.hpp"
#include "obs/enabled.hpp"
#include "obs/phase.hpp"
#include "obs/request_trace.hpp"
#include "obs/trace.hpp"

namespace ndc::obs {

struct ObsOptions {
  std::uint64_t sample_period = 1;      ///< trace every Nth load
  std::size_t max_trace_events = 1u << 20;
  std::size_t max_requests = 1u << 20;
  bool emit_stage_events = true;
};

/// Per-machine observation bundle. Construction wires the tracer to the
/// sink; the machine under observation stamps through `tracer` /
/// `decisions`.
class Observability {
 public:
  explicit Observability(ObsOptions opt = {})
      : options(opt),
        sink(opt.max_trace_events),
        tracer(&sink, {opt.sample_period, opt.max_requests, opt.emit_stage_events}) {}

  Observability(const Observability&) = delete;
  Observability& operator=(const Observability&) = delete;

  /// Closes out open records and unresolved decisions at end of run.
  void EndRun(sim::Cycle now) {
    tracer.EndRun(now);
    decisions.EndRun(now);
  }

  ObsOptions options;
  TraceSink sink;
  RequestTracer tracer;
  DecisionLog decisions;
};

}  // namespace ndc::obs
