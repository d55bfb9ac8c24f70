#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "compiler/pipeline.hpp"
#include "fault/fault.hpp"
#include "ndc/machine.hpp"
#include "ndc/policy.hpp"
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

const char* SchemeName(Scheme s);

/// Everything measured for one (workload, scheme) run.
struct SchemeResult {
  Scheme scheme = Scheme::kBaseline;
  runtime::RunResult run;
  double improvement_pct = 0.0;  ///< vs baseline makespan (positive = faster)
  compiler::CompileReport compile_report;  ///< compiler modes only
};

/// The fault-free, untraced state that every scheme run of one workload
/// reuses: the built program, its lowered baseline traces, and the baseline
/// and observation runs over those traces. Each piece is computed on first
/// use, exactly once even under concurrent callers, and is never modified
/// afterwards, so one Profile may back any number of Experiments on any
/// threads (harness::RunSweep shares one per profile key).
class Profile {
 public:
  Profile(std::string workload, workloads::Scale scale, arch::ArchConfig cfg,
          std::uint64_t seed = 1);

  Profile(const Profile&) = delete;
  Profile& operator=(const Profile&) = delete;

  const std::string& workload() const { return workload_; }
  const arch::ArchConfig& cfg() const { return cfg_; }
  /// The workload program as built (copy it before compiling: Compile
  /// mutates its input).
  const ir::Program& program() const { return program_; }

  /// Simulation-thread count of every run over this profile, profile runs
  /// included. Set it before the first Traces()/Baseline()/Observe() call
  /// and before sharing the profile; see runtime::MachineOptions::sim_threads
  /// for what the count changes.
  int sim_threads() const { return sim_threads_; }
  void set_sim_threads(int n) { sim_threads_ = n; }

  /// The traces of the original program (baseline schedule).
  const std::vector<arch::Trace>& Traces();
  /// Baseline (conventional) run.
  const runtime::RunResult& Baseline();
  /// Observation run over the original program (Section 4 quantification).
  /// Timing-identical to the baseline.
  const runtime::RunResult& Observe();

 private:
  std::string workload_;
  arch::ArchConfig cfg_;
  int sim_threads_ = 1;
  ir::Program program_;
  std::once_flag traces_once_, baseline_once_, observe_once_;
  std::vector<arch::Trace> traces_;
  runtime::RunResult baseline_;
  runtime::RunResult observe_;
};

/// A workload prepared for experiments: scheme runs measured against a
/// Profile, so that multiple schemes reuse one baseline and one observation
/// run. Per-run state (observation bundle, faults, the last fault report)
/// belongs to the Experiment, never to the profile.
class Experiment {
 public:
  /// An Experiment over a private profile of its own.
  Experiment(std::string workload, workloads::Scale scale, arch::ArchConfig cfg,
             std::uint64_t seed = 1);
  /// An Experiment over a (possibly shared) profile.
  explicit Experiment(std::shared_ptr<Profile> profile);

  const std::string& workload() const { return profile_->workload(); }
  const arch::ArchConfig& cfg() const { return profile_->cfg(); }

  /// Baseline (conventional) run; computed once per profile.
  const runtime::RunResult& Baseline() { return profile_->Baseline(); }

  /// Observation run over the original program (Section 4 quantification);
  /// computed once per profile. Timing-identical to the baseline.
  const runtime::RunResult& Observe() { return profile_->Observe(); }

  /// Runs one scheme and reports improvement vs the baseline.
  SchemeResult Run(Scheme scheme);

  /// Compiles with `opt` and runs the transformed program.
  SchemeResult RunCompiled(compiler::CompileOptions opt);

  /// The traces of the original program (baseline schedule).
  const std::vector<arch::Trace>& BaselineTraces() { return profile_->Traces(); }

  /// Attaches an observation bundle to subsequent Run()/RunCompiled() calls:
  /// the *measured* scheme run is traced (never the cached baseline/observe
  /// profile runs, except that Run(kBaseline) re-simulates fresh so the
  /// baseline itself can be observed). Null detaches.
  void set_obs(obs::Observability* o) { obs_ = o; }

  /// Attaches a fault schedule to subsequent Run()/RunCompiled() calls.
  /// Mirrors set_obs: only the *measured* scheme run is faulted (the cached
  /// baseline/observe profile runs stay pristine, so improvement numbers
  /// compare a faulted run against the healthy baseline — the degradation
  /// curve's y-axis). Each measured run gets a fresh injector built from the
  /// schedule, so repeated runs are identically faulted. Null (or an empty
  /// schedule) detaches.
  void set_faults(const fault::FaultSchedule* s) { faults_ = s; }

  /// Simulation-thread count for every subsequent run, measured *and*
  /// profile runs: it sets the profile's count, so call it before the first
  /// run. 1 (the default) is the sequential engine. Any n >= 2 is one other
  /// deterministic schedule, identical for every n >= 2, which differs from
  /// n = 1 in same-cycle tie-breaks on eligible runs (see
  /// runtime::MachineOptions::sim_threads and DESIGN.md §14).
  void set_sim_threads(int n) { profile_->set_sim_threads(n); }

  /// Fault report for the most recent faulted measured run.
  bool have_fault_report() const { return have_fault_report_; }
  const fault::ConservationInputs& last_conservation() const { return last_conservation_; }
  const fault::InjectionCounts& last_injections() const { return last_injections_; }

 private:
  /// One measured run: `opts` plus this Experiment's obs bundle, faults and
  /// the profile's thread count.
  runtime::RunResult RunMeasured(const arch::ArchConfig& cfg,
                                 const std::vector<arch::Trace>& traces,
                                 runtime::MachineOptions opts);

  std::shared_ptr<Profile> profile_;
  obs::Observability* obs_ = nullptr;
  const fault::FaultSchedule* faults_ = nullptr;
  bool have_fault_report_ = false;
  fault::ConservationInputs last_conservation_;
  fault::InjectionCounts last_injections_;
};

/// Percentage improvement of `t` over baseline `base` (positive = faster,
/// the paper's "performance improvement").
double ImprovementPct(sim::Cycle base, sim::Cycle t);

/// Formats a markdown-style table row.
std::string FormatRow(const std::vector<std::string>& cells, int width = 11);

}  // namespace ndc::metrics
