#pragma once

// Phase-windowed signal sampler. Instrumented sites (the memory
// controllers, the NoC, the NDC runtime) report additive
// deltas of a small fixed set of utilization signals; the sampler buckets
// each delta into a fixed-width cycle window (window = now / window_cycles)
// so a run's signals become a per-window time series instead of one
// run-level average — phase changes stay visible.
//
// The sampler is passive by construction: it never schedules events, never
// reads the clock itself, and never perturbs simulated time. Sites hand it
// the current cycle they already hold. Disabled (window_cycles == 0, the
// default) it is a branch-and-return; under NDC_OBS=OFF every method
// compiles out entirely. Because each windowed signal is the exact sequence
// of deltas some touched-only counter accumulates, the window sums
// reconcile with the run totals — tests assert this.
//
// See DESIGN.md §9.

#include <cstdint>
#include <vector>

#include "obs/enabled.hpp"
#include "sim/types.hpp"

namespace ndc::obs {

/// The sampled utilization signals. Each maps 1:1 onto a touched-only
/// run counter, so sum-over-windows == run total (asserted in tests):
///   kDramAccess -> mc.reads + mc.writes        (delta 1 per issued access)
///   kMcQueueWait -> mc.queue_wait_cycles       (delta = issue - enqueue)
///   kNocBusy    -> noc.link_busy_cycles        (delta = serialization cycles)
///   kNdcBusy    -> ndc.success * compute_latency (delta per near-data op)
enum class Signal : std::uint8_t {
  kDramAccess = 0,
  kMcQueueWait,
  kNocBusy,
  kNdcBusy,
};
inline constexpr int kNumSignals = 4;

const char* SignalName(Signal s);

class WindowSampler {
 public:
  /// Window width in cycles; 0 disables the sampler (the default). Resets
  /// any previously collected series.
  void Configure(std::uint64_t window_cycles) {
    if constexpr (!kObsEnabled) return;
    window_cycles_ = window_cycles;
    for (auto& s : series_) s.clear();
  }

  bool enabled() const {
    if constexpr (!kObsEnabled) return false;
    return window_cycles_ != 0;
  }

  std::uint64_t window_cycles() const { return window_cycles_; }

  /// Adds `delta` of signal `s` to the window containing cycle `now`.
  /// Hot-path shape: disabled is one predictable branch.
  void Note(Signal s, sim::Cycle now, std::uint64_t delta) {
    if constexpr (!kObsEnabled) return;
    if (window_cycles_ == 0) return;
    NoteSlow(s, now, delta);
  }

  /// Number of windows observed so far (index of the last touched window
  /// + 1, across all signals).
  std::size_t num_windows() const;

  /// Accumulated delta of `s` in window `w` (0 if never touched).
  std::uint64_t At(Signal s, std::size_t w) const;

  /// Sum of all windows of `s` — must equal the matching run counter.
  std::uint64_t Total(Signal s) const;

 private:
  void NoteSlow(Signal s, sim::Cycle now, std::uint64_t delta);

  /// Bounds memory for pathological window widths; deltas past the cap
  /// accumulate into the last window so totals still reconcile.
  static constexpr std::size_t kMaxWindows = 1u << 16;

  std::uint64_t window_cycles_ = 0;
  std::vector<std::uint64_t> series_[kNumSignals];
};

}  // namespace ndc::obs
