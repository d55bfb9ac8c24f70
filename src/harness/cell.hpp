#pragma once

// One sweep cell = one (workload, scheme, scale, configuration) simulation.
// A cell's result depends only on its spec: its runs are measured against a
// metrics::Profile (program, baseline traces, baseline and observation runs)
// that is itself a pure function of the spec's ProfileKey(). RunCell builds
// a private profile; RunSweep shares one profile among all cells with the
// same key. Either way cells can run on any thread in any order and produce
// results byte-identical to a serial run.

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "arch/config.hpp"
#include "fault/schedule.hpp"
#include "harness/json.hpp"
#include "metrics/experiment.hpp"
#include "obs/bottleneck.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "workloads/workloads.hpp"

namespace ndc::harness {

/// Phase-window width (cycles) used by --classify when none is given:
/// coarse enough that test-scale runs still land several windows, fine
/// enough that full-scale phase changes stay visible.
inline constexpr std::uint64_t kDefaultClassifyWindow = 4096;

/// Folded into every cache key. Bump whenever simulator, compiler, or
/// workload-generator semantics change in a way that alters measured
/// numbers: entries keyed with the old version then miss (and are
/// re-measured) instead of silently serving stale results.
inline constexpr const char* kCacheVersion = "ndc-harness-1";

const char* ScaleName(workloads::Scale s);

struct CellSpec {
  std::string workload;
  workloads::Scale scale = workloads::Scale::kSmall;
  std::uint64_t seed = 1;
  metrics::Scheme scheme = metrics::Scheme::kBaseline;
  /// Compile with Mode::kCoarseGrain instead of the scheme's mode
  /// (Section 5.4 mapping-granularity ablation).
  bool coarse_grain = false;
  // Compiled schemes only (forwarded into CompileOptions):
  bool allow_reroute = true;
  std::uint8_t control_register = arch::kAllLocs;
  /// Fully resolved configuration (any figure variant already applied).
  arch::ArchConfig cfg;
  /// Fault schedule the measured run executes under (default: empty =
  /// fault-free). Folded into the cache key only when non-empty, so every
  /// pre-fault cache entry keeps its key.
  fault::FaultSchedule faults;
  /// Simulation-thread count the cell's runs execute with. 1 (the default)
  /// is the sequential engine; >= 2 enables conservative-window sharding on
  /// eligible runs. Folded into the cache key only when != 1 — the sharded
  /// engine is a different same-cycle tie-break schedule, so its numbers
  /// must never be served from (or poison) a sequential cell's cache entry,
  /// while every existing entry keeps its historical key.
  int sim_threads = 1;
  /// Display label for configuration variants ("" = Table-1 defaults).
  /// Deliberately NOT part of the cache key: two figures probing the same
  /// resolved configuration under different labels share one cache entry.
  std::string variant;

  /// Scheme column label ("Oracle", "Algorithm-1", "coarse", ...).
  std::string SchemeLabel() const;

  /// Canonical serialization of every semantically relevant field
  /// (including the full ArchConfig); the cache-key hash input.
  std::string CanonicalString() const;

  /// 16-hex-digit FNV-1a of CanonicalString() + kCacheVersion.
  std::string Key() const;

  /// CanonicalString() with the fields only the measured run reads
  /// (scheme, coarse-grain, reroute, control register, faults) cleared.
  /// Everything the baseline and observation runs depend on stays: workload,
  /// scale, seed, the full ArchConfig and sim_threads. Cells with equal keys
  /// can share one metrics::Profile.
  std::string ProfileKey() const;

  /// Whether the measured run decides from the observation profile (the
  /// Oracle and Wait(x%) policies).
  bool NeedsObserve() const;
};

/// The scalar results of one cell — the subset of runtime::RunResult and
/// compiler::CompileReport every figure renders from, in a form that
/// round-trips through the JSONL cache.
struct CellResult {
  std::uint64_t makespan = 0;
  std::uint64_t baseline_makespan = 0;  ///< same workload/cfg, conventional

  std::uint64_t l1_hits = 0, l1_misses = 0;
  std::uint64_t l2_hits = 0, l2_misses = 0;

  std::uint64_t candidates = 0, local_l1_skips = 0, offloads = 0;
  std::uint64_t ndc_success = 0, fallbacks = 0;
  std::array<std::uint64_t, arch::kNumLocs> ndc_at_loc{};

  // Compiler report (compiled schemes; zero otherwise).
  std::uint64_t chains = 0, planned = 0, reuse_skips = 0;
  std::uint64_t legality_failures = 0, gating_failures = 0, transforms = 0;

  /// Full merged component counters (sim::StatSet contents).
  std::map<std::string, std::uint64_t> stats;

  bool from_cache = false;  ///< set by the sweep engine; not serialized

  /// Recomputed from the two makespans (never serialized, so cached and
  /// fresh cells agree bit-for-bit).
  double ImprovementPct() const;
  double L1MissRate() const;
  double L2MissRate() const;
  std::uint64_t Stat(const std::string& name) const;

  json::Value ToJson() const;
  static bool FromJson(const json::Value& v, CellResult* out);

  bool operator==(const CellResult& o) const;
};

/// The (not yet simulated) profile for `spec`: its workload built at its
/// scale, seed and configuration, with its sim_threads count.
std::shared_ptr<metrics::Profile> MakeProfile(const CellSpec& spec);

/// Executes the cell against `profile`, which must come from MakeProfile of
/// a spec with the same ProfileKey(): the scheme's run, plus the baseline
/// and observation runs if the profile does not hold them yet. Thread-safe
/// with respect to other cells, including cells sharing the profile — the
/// simulator has no global mutable state.
CellResult RunCell(const CellSpec& spec, std::shared_ptr<metrics::Profile> profile);

/// Executes the cell against a private profile of its own.
CellResult RunCell(const CellSpec& spec);

/// Re-simulates the cell with an observation bundle attached and returns a
/// JSON summary: per-stage latency aggregates, request counts, and the NDC
/// decision/outcome tallies. Used by `ndc-sweep --export-obs`. With
/// NDC_OBS=OFF the summary only records that observation is compiled out.
///
/// `classify_window` > 0 additionally enables the phase-window sampler at
/// that width and appends a "classification" object: bottleneck label, the
/// full raw + derived signal vector, the thresholds classified under, and
/// the per-window signal series. 0 (the default) leaves the sampler off and
/// the summary byte-identical to pre-classification output.
json::Value RunCellObsSummary(const CellSpec& spec, std::uint64_t sample_period = 1,
                              std::uint64_t classify_window = 0);

/// Derives the utilization-signal vector of a finished run: fills an
/// obs::MachineShape from `cfg` (normalizing by the directed in-mesh link
/// count, not the edge-padded slot count), reads the touched-only counters
/// out of `stats`, and — when `reg` is non-null — refines the hottest-link
/// utilization from the registry's per-link "noc.link.<i>/busy_cycles"
/// counters.
obs::UtilizationSignals ComputeRunSignals(const sim::StatSet& stats,
                                          std::uint64_t makespan,
                                          const arch::ArchConfig& cfg,
                                          const obs::Registry* reg);

/// Renders the classification report shared by every surface that publishes
/// a label (--export-obs cells, ndc-classify): label + thresholds + raw and
/// derived signals + the sampler's per-window series. Byte-stable: derived
/// fractions are fixed-precision strings, never free-form doubles.
json::Value ClassificationJson(const obs::UtilizationSignals& sig,
                               const obs::WindowSampler& sampler);

/// FNV-1a 64-bit (stable across platforms/runs; used for cache keys).
std::uint64_t Fnv1a(const std::string& s);

}  // namespace ndc::harness
