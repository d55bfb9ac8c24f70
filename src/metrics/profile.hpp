#pragma once

#include <array>
#include <atomic>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "compiler/pipeline.hpp"
#include "fault/conservation.hpp"
#include "ndc/machine.hpp"
#include "workloads/workloads.hpp"

namespace ndc::metrics {

/// The hardware-side NDC schemes of Figure 4 (plus the compiler modes).
enum class Scheme {
  kBaseline,   ///< conventional execution (the normalization base)
  kDefault,    ///< offload always, wait until the partner arrives
  kOracle,     ///< profile-guided optimal decisions (Section 4.4)
  kWait5,      ///< wait at most 5% of the arrival window
  kWait10,
  kWait25,
  kWait50,
  kLastWait,   ///< last-value arrival-window predictor
  kMarkov,     ///< Markov-chain arrival-window predictor (Section 4.4 text)
  kAlgorithm1, ///< compiler scheme 1 (Section 5.2)
  kAlgorithm2, ///< compiler scheme 2 (Section 5.3)
};

/// The display name of each scheme, then the aliases the tools also accept
/// (they match names ignoring case and punctuation, so "wait5" is
/// "Wait(5%)"). SchemeName prints a scheme's first entry.
inline constexpr std::pair<Scheme, const char*> kSchemeNames[] = {
    {Scheme::kBaseline, "Baseline"},     {Scheme::kDefault, "Default"},
    {Scheme::kOracle, "Oracle"},         {Scheme::kWait5, "Wait(5%)"},
    {Scheme::kWait10, "Wait(10%)"},      {Scheme::kWait25, "Wait(25%)"},
    {Scheme::kWait50, "Wait(50%)"},      {Scheme::kLastWait, "LastWait"},
    {Scheme::kMarkov, "Markov"},         {Scheme::kAlgorithm1, "Algorithm-1"},
    {Scheme::kAlgorithm2, "Algorithm-2"}, {Scheme::kAlgorithm1, "alg1"},
    {Scheme::kAlgorithm2, "alg2"},
};

const char* SchemeName(Scheme s);

/// Everything measured for one (workload, scheme) run.
struct SchemeResult {
  runtime::RunResult run;
  compiler::CompileReport compile_report;  ///< compiler modes only
  /// The run's request-conservation inputs; fault::CheckConservation
  /// reports ok on every result harness::RunScheme returns.
  fault::ConservationInputs conservation;
};

/// How many machine runs a Profile made for the runs over it, and how many
/// runs it took from an earlier identical run instead.
struct RunCounts {
  std::uint64_t machine_runs = 0;
  std::uint64_t runs_reused = 0;
};

/// The untraced state that every scheme run of one workload
/// reuses: the built program, its lowered baseline traces, the baseline
/// and observation runs over those traces, and the policy-free runs of each
/// distinct compiled program. Each piece is computed on first use and never
/// modified afterwards (the baseline and observation runs exactly once even
/// under concurrent callers), so one Profile may back any number of scheme
/// runs (harness::RunScheme) on any threads; harness::RunSweep shares one
/// per profile key.
class Profile {
 public:
  /// `baseline_from_observe`: some run over this profile reads Observe(),
  /// so Baseline() is taken from the observation run instead of simulating
  /// the same traces a second time (the two runs are timing-identical).
  Profile(std::string workload, workloads::Scale scale, arch::ArchConfig cfg,
          std::uint64_t seed = 1, bool baseline_from_observe = false);

  Profile(const Profile&) = delete;
  Profile& operator=(const Profile&) = delete;

  const std::string& workload() const { return workload_; }
  const arch::ArchConfig& cfg() const { return cfg_; }
  /// The workload program as built (copy it before compiling: Compile
  /// mutates its input).
  const ir::Program& program() const { return program_; }

  /// The traces of the original program (baseline schedule).
  const std::vector<arch::Trace>& Traces();
  /// Baseline (conventional) run. Never carries records.
  const runtime::RunResult& Baseline();
  /// The request-conservation inputs the baseline run ended with.
  const fault::ConservationInputs& BaselineConservation() {
    Baseline();
    return baseline_conservation_;
  }
  /// Observation run over the original program (Section 4 quantification).
  /// Timing-identical to the baseline.
  const runtime::RunResult& Observe();
  /// The request-conservation inputs the observation run ended with.
  const fault::ConservationInputs& ObserveConservation() {
    Observe();
    return observe_conservation_;
  }

  /// The policy-free, untraced run of compiled `traces` on `cfg`. The first
  /// call for a given `cfg` and program simulates; later calls return a copy
  /// of that run. The program is recognised by each core's trace length and
  /// a 128-bit hash of its instruction words, so no trace is kept.
  /// `conservation` receives the run's conservation inputs.
  runtime::RunResult RunCompiled(const arch::ArchConfig& cfg,
                                 const std::vector<arch::Trace>& traces,
                                 fault::ConservationInputs* conservation);

  /// Runs made so far by this profile and by the scheme runs over it.
  RunCounts run_counts() const { return {machine_runs_.load(), runs_reused_.load()}; }

  /// Simulates `traces` on `cfg`, counted in run_counts(). The machine
  /// borrows the traces for the run, so nothing is copied. `conservation`,
  /// when non-null, receives the run's request conservation inputs.
  runtime::RunResult Simulate(const arch::ArchConfig& cfg, const std::vector<arch::Trace>& traces,
                              const runtime::MachineOptions& opts,
                              fault::ConservationInputs* conservation = nullptr);

 private:
  /// Each core's trace length and a 128-bit hash of all instruction words.
  struct ProgramDigest {
    std::vector<std::size_t> lengths;
    std::array<std::uint64_t, 2> hash{};
    friend bool operator==(const ProgramDigest&, const ProgramDigest&) = default;
  };
  struct CompiledRun {
    arch::ArchConfig cfg;
    ProgramDigest digest;
    runtime::RunResult run;
    fault::ConservationInputs conservation;
  };
  static ProgramDigest Digest(const std::vector<arch::Trace>& traces);

  std::string workload_;
  arch::ArchConfig cfg_;
  bool baseline_from_observe_;
  ir::Program program_;
  std::once_flag traces_once_, baseline_once_, observe_once_;
  std::vector<arch::Trace> traces_;
  runtime::RunResult baseline_;
  fault::ConservationInputs baseline_conservation_;
  runtime::RunResult observe_;
  fault::ConservationInputs observe_conservation_;
  std::mutex compiled_mu_;
  std::vector<CompiledRun> compiled_;  // guarded by compiled_mu_
  std::atomic<std::uint64_t> machine_runs_{0}, runs_reused_{0};
};

/// Percentage improvement of `t` over baseline `base` (positive = faster,
/// the paper's "performance improvement").
double ImprovementPct(sim::Cycle base, sim::Cycle t);

}  // namespace ndc::metrics
