#pragma once

// What one benchmark invocation reports: named metrics with units, the
// correctness tally, and a digest of every simulated result. Printed as
// plain lines that run.py turns into the final JSON object.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Median(std::vector<double> v);

/// num / den, or 0 when den is 0.
inline double Ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;  ///< minimum length of the measured phase
  bool trace = false;   ///< per-layer spans, allocation counts and probes
  std::string golden;   ///< fig04 stdout at test scale to compare against
  std::string work_dir; ///< scratch directory for captured output
};

/// Worker threads of the sweep: a fixed part of the workload definition, so
/// the load does not change with the host's core count.
inline constexpr int kSweepJobs = 4;

class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// One unit of work (a run, a cell, the golden table) checked for
  /// correctness; `what` names it when it fails.
  void Attempt(bool ok, const std::string& what);
  /// Folds one simulated result, in canonical text form, into the digest.
  void Digest(const std::string& canonical);
  void Print() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t digest_ = 14695981039346656037ull;  // FNV-1a offset basis
  std::uint64_t digested_ = 0;
};

/// Simulated-model counters summed over a set of runs or cells. Reading them
/// is host-independent: a change that only speeds up the simulator must
/// leave every one of them identical.
struct ModelTotals {
  std::uint64_t makespan = 0;
  std::uint64_t l1_hits = 0, l1_misses = 0;
  std::uint64_t l2_hits = 0, l2_misses = 0;
  std::uint64_t offloads = 0, ndc_success = 0;
  std::map<std::string, std::uint64_t> stats;

  /// Adds one machine run or sweep cell: runtime::RunResult and
  /// harness::CellResult share these field names.
  template <typename Result>
  void Add(const Result& r, const std::map<std::string, std::uint64_t>& run_stats) {
    makespan += r.makespan;
    l1_hits += r.l1_hits;
    l1_misses += r.l1_misses;
    l2_hits += r.l2_hits;
    l2_misses += r.l2_misses;
    offloads += r.offloads;
    ndc_success += r.ndc_success;
    for (const auto& [k, v] : run_stats) stats[k] += v;
  }
  std::uint64_t Stat(const std::string& name) const;
  /// Emits sim.makespan_cycles, ndc.*, core.*, noc.*, l1/l2 and mc.* metrics.
  /// core.issued only when the caller added it (it lives in per-core stats,
  /// not in the merged run counters).
  void Emit(Report& report) const;
};

// Workloads (one file each) and the standalone substrate probes.
void RunSweepFig04(const Options& opt, Report& report);
void RunSimBaseline(const Options& opt, Report& report);
void RunSimOffload(const Options& opt, Report& report);
void RunSubstrateProbes(const Options& opt, Report& report);

}  // namespace perfbench
