#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iterator>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "compiler/pipeline.hpp"
#include "ndc/machine.hpp"
#include "obs/obs.hpp"
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
  /// The run, with its request-conservation inputs (run.conservation):
  /// fault::CheckConservation reports ok on every result harness::RunScheme
  /// returns.
  runtime::RunResult run;
  compiler::CompileReport compile_report;  ///< compiler modes only
};

/// The host-side phases a Profile times, in kPhaseNames order.
enum class Phase : std::uint8_t {
  kBuildWorkload,  ///< building the workload program
  kLowerTraces,    ///< lowering the program to its baseline traces
  kCompile,        ///< compiler passes, and lowering the compiled programs
  kSimulate,       ///< cycle-level simulation proper
};
inline constexpr const char* kPhaseNames[] = {"build_workload", "lower_traces", "compile",
                                              "simulate"};

/// What a Profile did for the runs over it: the machine runs it made and
/// the simulated events they retired, the runs it took from an earlier
/// identical run instead, and the host wall clock of each phase.
struct RunCounts {
  std::uint64_t machine_runs = 0;
  std::uint64_t runs_reused = 0;
  std::uint64_t sim_events = 0;
  /// Nanoseconds per Phase; 0 for a phase that did not run.
  std::array<std::uint64_t, std::size(kPhaseNames)> phase_ns{};

  RunCounts& operator+=(const RunCounts& o);
};

/// The untraced state that every scheme run of one workload
/// reuses: the built program, its lowered baseline traces, the baseline
/// and observation runs over those traces, and the policy-free runs of each
/// distinct compiled program. Each piece is computed on first use and never
/// modified afterwards (the baseline and observation runs exactly once even
/// under concurrent callers), so one Profile may back any number of scheme
/// runs (harness::RunScheme) on any threads; harness::RunSweep shares one
/// per profile key. Each piece is timed into its phase of run_counts():
/// the constructor (build_workload), Traces() (lower_traces), Compile() and
/// RunCompiled's lowering (compile), and Simulate() (simulate).
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

  /// Sets `*compiled` to a copy of the workload program as built and
  /// annotates it with compiler::Compile for `cfg` under `opt`; returns
  /// Compile's report.
  compiler::CompileReport Compile(const arch::ArchConfig& cfg, const compiler::CompileOptions& opt,
                                  ir::Program* compiled);

  /// The traces of the original program (baseline schedule).
  const std::vector<arch::Trace>& Traces();
  /// Baseline (conventional) run. Never carries records.
  const runtime::RunResult& Baseline();
  /// Observation run over the original program (Section 4 quantification).
  /// Timing-identical to the baseline.
  const runtime::RunResult& Observe();

  /// The policy-free run of `compiled` (a program Compile() returned) on
  /// `cfg`, lowered under the compile phase.
  /// Untraced (`ob` null), the first call for a given `cfg` and set of
  /// statement annotations lowers and simulates, and later calls return a
  /// copy of that run without lowering: Compile writes nothing but
  /// Stmt::ndc, and lowering is a pure function of the program and `cfg`,
  /// so programs with equal annotations lower to identical traces. Traced,
  /// every call lowers and simulates its own run with `ob` attached.
  runtime::RunResult RunCompiled(const arch::ArchConfig& cfg, const ir::Program& compiled,
                                 obs::Observability* ob = nullptr);

  /// Runs made and phases timed so far by this profile and by the scheme
  /// runs over it.
  RunCounts run_counts() const;

  /// Simulates `traces` on `cfg`, counted in run_counts(). The machine
  /// borrows the traces for the run, so nothing is copied.
  runtime::RunResult Simulate(const arch::ArchConfig& cfg, const std::vector<arch::Trace>& traces,
                              const runtime::MachineOptions& opts);

 private:
  struct CompiledRun {
    arch::ArchConfig cfg;
    std::vector<ir::NdcAnnotation> annotations;  ///< every statement's, in program order
    runtime::RunResult run;
  };

  std::string workload_;
  arch::ArchConfig cfg_;
  bool baseline_from_observe_;
  ir::Program program_;
  std::once_flag traces_once_, baseline_once_, observe_once_;
  std::vector<arch::Trace> traces_;
  runtime::RunResult baseline_;
  runtime::RunResult observe_;
  std::mutex compiled_mu_;
  std::vector<CompiledRun> compiled_;  // guarded by compiled_mu_
  std::atomic<std::uint64_t> machine_runs_{0}, runs_reused_{0}, sim_events_{0};
  std::array<std::atomic<std::uint64_t>, std::size(kPhaseNames)> phase_ns_{};
};

/// Percentage improvement of `t` over baseline `base` (positive = faster,
/// the paper's "performance improvement").
double ImprovementPct(sim::Cycle base, sim::Cycle t);

}  // namespace ndc::metrics
