#pragma once

// One sweep cell = one (workload, scheme, scale, configuration) simulation.
// A cell's result depends only on its spec: its runs are measured against a
// metrics::Profile (program, baseline traces, profile and compiled runs)
// that is itself a pure function of the spec's ProfileKey(). RunScheme is
// the one function that runs a cell's scheme, traced or not; RunCell is
// RunScheme plus the scalar copy the cache and the figures read. RunCell
// builds a private profile; RunSweep shares one profile among all cells
// with the same key. Either way cells can run on any thread in any order
// and produce results byte-identical to a serial run.

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "arch/config.hpp"
#include "compiler/pipeline.hpp"
#include "fault/conservation.hpp"
#include "json/json.hpp"
#include "metrics/profile.hpp"
#include "obs/obs.hpp"
#include "workloads/workloads.hpp"

namespace ndc::harness {

/// Folded into every cache key. Bump whenever simulator, compiler, or
/// workload-generator semantics change in a way that alters measured
/// numbers: entries keyed with the old version then miss (and are
/// re-measured) instead of silently serving stale results.
inline constexpr const char* kCacheVersion = "ndc-harness-3";

/// The name of each input scale: ScaleName prints it, the tools parse it.
inline constexpr std::pair<workloads::Scale, const char*> kScaleNames[] = {
    {workloads::Scale::kTest, "test"},
    {workloads::Scale::kSmall, "small"},
    {workloads::Scale::kFull, "full"},
};

const char* ScaleName(workloads::Scale s);

struct CellSpec {
  std::string workload;
  workloads::Scale scale = workloads::Scale::kSmall;
  std::uint64_t seed = 1;
  metrics::Scheme scheme = metrics::Scheme::kBaseline;
  /// Compile with Mode::kCoarseGrain instead of the scheme's mode
  /// (Section 5.4 mapping-granularity ablation).
  bool coarse_grain = false;
  /// Fully resolved configuration (any figure variant already applied).
  /// Its control register and reroute flag are the NDC hardware the
  /// measured run has; a compiled scheme also compiles for them.
  arch::ArchConfig cfg;
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
  /// (scheme, coarse-grain, and cfg's control register and reroute flag)
  /// reset to their defaults. Everything the baseline and observation runs
  /// depend on stays: workload, scale, seed and the rest of the
  /// ArchConfig. Cells with equal keys can share one metrics::Profile.
  std::string ProfileKey() const;

  /// Whether the measured run decides from the observation profile (the
  /// Oracle and Wait(x%) policies).
  bool NeedsObserve() const;

  /// Whether the cell runs a compiled program (Algorithm 1 or 2, or the
  /// coarse-grain mapping) instead of a hardware policy.
  bool IsCompiled() const;
};

/// The scalar results of one cell — the subset of runtime::RunResult and
/// compiler::CompileReport every figure renders from, in a form that
/// round-trips through the JSONL cache. A scalar counter added here must
/// also be named in kCounterFields (cell.cpp), which drives ToJson,
/// FromJson and operator==.
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
  std::uint64_t legality_failures = 0, gating_failures = 0;
  /// Always 0: the compiler attaches no loop transformations. Kept so cache
  /// entries, CSV exports and the perfbench digest keep their layout.
  std::uint64_t transforms = 0;

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
/// scale, seed and configuration, with the control register and reroute
/// flag at their defaults (ProfileKey). `observe`: some cell run over the
/// profile reads its observation run, which then also serves as its
/// baseline.
std::shared_ptr<metrics::Profile> MakeProfile(const CellSpec& spec, bool observe);

/// Throws std::runtime_error naming the cell (its key, workload and scheme)
/// and the report when `in` violates request conservation
/// (fault::CheckConservation).
void CheckCellConservation(const CellSpec& spec, const fault::ConservationInputs& in);

/// The options a compiled cell (IsCompiled()) compiles with: its mode
/// (coarse-grain, else the scheme's algorithm), and the reroute flag and
/// control register of its cfg.
compiler::CompileOptions CellCompileOptions(const CellSpec& spec);

/// Runs the cell's scheme against `profile`, which must come from
/// MakeProfile of a spec with the same ProfileKey(), with `ob` (when
/// non-null) attached to the measured run. Every measured run and policy
/// is on spec.cfg. A policy scheme simulates the baseline traces under its
/// policy; a compiled scheme compiles a copy of the profile's program
/// (metrics::Profile::Compile) and runs it through
/// metrics::Profile::RunCompiled. Untraced, the Baseline
/// scheme's run is the profile's baseline and a program whose annotations
/// another cell's already had is neither lowered nor simulated again;
/// traced, every scheme simulates its own run. Only the untraced Baseline
/// reads the profile's baseline run, and only the Oracle and Wait(x%) its
/// observation run; each is made on first use. Thread-safe with respect to
/// other cells, including cells sharing the profile — the simulator has no
/// global mutable state. The measured run must conserve requests
/// (CheckCellConservation on run.conservation), else RunScheme throws.
metrics::SchemeResult RunScheme(const CellSpec& spec, metrics::Profile& profile,
                                obs::Observability* ob = nullptr);

/// RunScheme against `profile`, reduced to the cell's scalar results. With
/// `obs_summary` non-null, the measured run is traced (an Observability
/// that keeps no timeline events) and its CellObsSummary is stored there.
CellResult RunCell(const CellSpec& spec, std::shared_ptr<metrics::Profile> profile,
                   json::Value* obs_summary = nullptr);

/// RunCell against a private profile of its own
/// (MakeProfile(spec, spec.NeedsObserve())).
CellResult RunCell(const CellSpec& spec);

/// The JSON summary of the cell's traced measured run, which made
/// `makespan` and recorded into `ob`: per-stage latency aggregates, request
/// counts, and the NDC decision/outcome tallies (`ndc-sweep --export-obs`).
json::Value CellObsSummary(const CellSpec& spec, std::uint64_t makespan,
                           const obs::Observability& ob);

/// FNV-1a 64-bit (stable across platforms/runs; used for cache keys).
std::uint64_t Fnv1a(const std::string& s);

}  // namespace ndc::harness
