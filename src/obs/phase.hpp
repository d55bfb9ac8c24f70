#pragma once

// Host-side phase profiling: wall-clock breakdown of where an experiment
// spends real time (building workloads, lowering traces, compiling plans,
// simulating). Scopes accumulate into a process-global profiler
// so the sweep harness can report a phase table across all worker threads
// without threading a handle through every layer; counters are atomic for
// exactly that reason.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>

namespace ndc::obs {

enum class Phase : std::uint8_t {
  kBuildWorkload = 0,  ///< synthesizing benchmark traces
  kLowerTraces,        ///< lowering traces to machine programs
  kCompile,            ///< compiler passes (plans, policies)
  kSimulate,           ///< cycle-level simulation proper
};
inline constexpr int kNumPhases = 4;

const char* PhaseName(Phase p);

class PhaseProfiler {
 public:
  void Add(Phase p, std::uint64_t ns) {
    slots_[static_cast<int>(p)].ns.fetch_add(ns, std::memory_order_relaxed);
    slots_[static_cast<int>(p)].count.fetch_add(1, std::memory_order_relaxed);
  }

  /// Simulated events retired inside kSimulate scopes (reported by
  /// metrics::Profile::Simulate after each Machine::Run). Together with the
  /// kSimulate wall clock this yields the substrate's end-to-end events/sec.
  void AddSimEvents(std::uint64_t n) {
    sim_events_.fetch_add(n, std::memory_order_relaxed);
  }

  std::uint64_t ns(Phase p) const {
    return slots_[static_cast<int>(p)].ns.load(std::memory_order_relaxed);
  }
  std::uint64_t count(Phase p) const {
    return slots_[static_cast<int>(p)].count.load(std::memory_order_relaxed);
  }

  struct Snapshot {
    std::uint64_t ns[kNumPhases] = {};
    std::uint64_t count[kNumPhases] = {};
    std::uint64_t sim_events = 0;

    /// Per-phase milliseconds since `base`, keyed by phase name; phases with
    /// no delta are omitted. Used for SweepSummary.phase_ms.
    std::map<std::string, std::uint64_t> DeltaMsSince(const Snapshot& base) const;
  };
  Snapshot Take() const {
    Snapshot s;
    for (int i = 0; i < kNumPhases; ++i) {
      s.ns[i] = slots_[i].ns.load(std::memory_order_relaxed);
      s.count[i] = slots_[i].count.load(std::memory_order_relaxed);
    }
    s.sim_events = sim_events_.load(std::memory_order_relaxed);
    return s;
  }

  /// "phase  ms  scopes" table over all phases with activity.
  std::string ToText() const;

 private:
  struct Slot {
    std::atomic<std::uint64_t> ns{0};
    std::atomic<std::uint64_t> count{0};
  };
  Slot slots_[kNumPhases];
  std::atomic<std::uint64_t> sim_events_{0};
};

/// The process-wide profiler every ScopedPhase reports into.
PhaseProfiler& GlobalPhases();

class ScopedPhase {
 public:
  explicit ScopedPhase(Phase p) : phase_(p), start_(std::chrono::steady_clock::now()) {}
  ~ScopedPhase() {
    auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - start_)
                  .count();
    GlobalPhases().Add(phase_, static_cast<std::uint64_t>(ns));
  }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  Phase phase_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace ndc::obs
