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
#include "obs/request_trace.hpp"
#include "obs/trace.hpp"

namespace ndc::obs {

/// Per-machine observation bundle. Construction wires the tracer to the
/// sink; the machine under observation stamps through `tracer` /
/// `decisions`.
class Observability {
 public:
  explicit Observability(ObsOptions opt = {})
      : sink(opt.max_trace_events), tracer(&sink, opt) {}

  Observability(const Observability&) = delete;
  Observability& operator=(const Observability&) = delete;

  /// Closes out open records and unresolved decisions at end of run.
  void EndRun(sim::Cycle now) {
    tracer.EndRun(now);
    decisions.EndRun(now);
  }

  TraceSink sink;
  RequestTracer tracer;
  DecisionLog decisions;
};

}  // namespace ndc::obs
