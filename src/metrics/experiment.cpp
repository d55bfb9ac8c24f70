#include "metrics/experiment.hpp"

#include <iomanip>
#include <sstream>
#include <utility>

#include "compiler/codegen.hpp"
#include "obs/phase.hpp"

namespace ndc::metrics {

const char* SchemeName(Scheme s) {
  switch (s) {
    case Scheme::kBaseline: return "Baseline";
    case Scheme::kDefault: return "Default";
    case Scheme::kOracle: return "Oracle";
    case Scheme::kWait5: return "Wait(5%)";
    case Scheme::kWait10: return "Wait(10%)";
    case Scheme::kWait25: return "Wait(25%)";
    case Scheme::kWait50: return "Wait(50%)";
    case Scheme::kLastWait: return "LastWait";
    case Scheme::kMarkov: return "Markov";
    case Scheme::kAlgorithm1: return "Algorithm-1";
    case Scheme::kAlgorithm2: return "Algorithm-2";
  }
  return "?";
}

double ImprovementPct(sim::Cycle base, sim::Cycle t) {
  if (base == 0) return 0.0;
  return (static_cast<double>(base) - static_cast<double>(t)) / static_cast<double>(base) *
         100.0;
}

namespace {

/// Simulates `traces` on `cfg`: the one place every run of this module goes
/// through. The machine borrows the traces for the run, so nothing is
/// copied. `conservation`, when non-null, receives the run's request
/// conservation inputs.
runtime::RunResult Simulate(const arch::ArchConfig& cfg, const std::vector<arch::Trace>& traces,
                            const runtime::MachineOptions& opts,
                            fault::ConservationInputs* conservation = nullptr) {
  obs::ScopedPhase phase(obs::Phase::kSimulate);
  runtime::Machine m(cfg, opts);
  m.LoadProgram(traces);
  runtime::RunResult r = m.Run();
  if (conservation != nullptr) *conservation = m.GatherConservation();
  if constexpr (obs::kObsEnabled) obs::GlobalPhases().AddSimEvents(r.events);
  return r;
}

}  // namespace

Profile::Profile(std::string workload, workloads::Scale scale, arch::ArchConfig cfg,
                 std::uint64_t seed)
    : workload_(std::move(workload)), cfg_(cfg) {
  obs::ScopedPhase phase(obs::Phase::kBuildWorkload);
  program_ = workloads::BuildWorkload(workload_, scale, seed);
}

const std::vector<arch::Trace>& Profile::Traces() {
  std::call_once(traces_once_, [this] {
    obs::ScopedPhase phase(obs::Phase::kLowerTraces);
    traces_ = compiler::Lower(program_, cfg_.num_nodes(), &cfg_).traces;
  });
  return traces_;
}

const runtime::RunResult& Profile::Baseline() {
  std::call_once(baseline_once_, [this] {
    baseline_ = Simulate(cfg_, Traces(), {}, &baseline_conservation_);
  });
  return baseline_;
}

const runtime::RunResult& Profile::Observe() {
  std::call_once(observe_once_, [this] {
    runtime::MachineOptions opts;
    opts.observe = true;
    observe_ = Simulate(cfg_, Traces(), opts);
  });
  return observe_;
}

Experiment::Experiment(std::string workload, workloads::Scale scale, arch::ArchConfig cfg,
                       std::uint64_t seed)
    : profile_(std::make_shared<Profile>(std::move(workload), scale, cfg, seed)) {}

Experiment::Experiment(std::shared_ptr<Profile> profile) : profile_(std::move(profile)) {}

runtime::RunResult Experiment::RunMeasured(const arch::ArchConfig& cfg,
                                           const std::vector<arch::Trace>& traces,
                                           runtime::MachineOptions opts) {
  opts.obs = obs_;
  return Simulate(cfg, traces, opts, &last_conservation_);
}

SchemeResult Experiment::Run(Scheme scheme) {
  SchemeResult out;
  out.scheme = scheme;
  const runtime::RunResult& base = Baseline();
  const arch::ArchConfig& cfg = profile_->cfg();

  switch (scheme) {
    case Scheme::kBaseline:
      if (obs_ != nullptr) {
        // The cached baseline carries no observation data; re-simulate so
        // the requested trace/audit reflects this very scheme.
        out.run = RunMeasured(cfg, BaselineTraces(), {});
      } else {
        out.run = base;
        last_conservation_ = profile_->BaselineConservation();
      }
      out.improvement_pct = ImprovementPct(base.makespan, out.run.makespan);
      return out;
    case Scheme::kAlgorithm1: {
      compiler::CompileOptions opt;
      opt.mode = compiler::Mode::kAlgorithm1;
      return RunCompiled(opt);
    }
    case Scheme::kAlgorithm2: {
      compiler::CompileOptions opt;
      opt.mode = compiler::Mode::kAlgorithm2;
      return RunCompiled(opt);
    }
    default:
      break;
  }

  std::unique_ptr<runtime::Policy> policy;
  switch (scheme) {
    case Scheme::kDefault:
      policy = std::make_unique<runtime::AlwaysWaitPolicy>(cfg);
      break;
    case Scheme::kOracle:
      policy = std::make_unique<runtime::OraclePolicy>(cfg, *Observe().records);
      break;
    case Scheme::kWait5:
      policy = std::make_unique<runtime::FractionWaitPolicy>(cfg, *Observe().records, 0.05);
      break;
    case Scheme::kWait10:
      policy = std::make_unique<runtime::FractionWaitPolicy>(cfg, *Observe().records, 0.10);
      break;
    case Scheme::kWait25:
      policy = std::make_unique<runtime::FractionWaitPolicy>(cfg, *Observe().records, 0.25);
      break;
    case Scheme::kWait50:
      policy = std::make_unique<runtime::FractionWaitPolicy>(cfg, *Observe().records, 0.50);
      break;
    case Scheme::kLastWait:
      policy = std::make_unique<runtime::LastWaitPolicy>(cfg);
      break;
    case Scheme::kMarkov:
      policy = std::make_unique<runtime::MarkovWaitPolicy>(cfg);
      break;
    default:
      break;
  }
  runtime::MachineOptions opts;
  opts.policy = policy.get();
  out.run = RunMeasured(cfg, BaselineTraces(), opts);
  out.improvement_pct = ImprovementPct(base.makespan, out.run.makespan);
  return out;
}

SchemeResult Experiment::RunCompiled(compiler::CompileOptions opt) {
  SchemeResult out;
  out.scheme = opt.mode == compiler::Mode::kAlgorithm2 ? Scheme::kAlgorithm2
                                                       : Scheme::kAlgorithm1;
  const runtime::RunResult& base = Baseline();
  // Compile mutates its input program, so copy the profile's build instead
  // of regenerating the workload from scratch.
  ir::Program prog = profile_->program();
  arch::ArchConfig cfg = profile_->cfg();
  cfg.allow_reroute = opt.allow_reroute;
  cfg.control_register = opt.control_register;
  compiler::ArchDescription ad(cfg);
  std::vector<arch::Trace> traces;
  {
    obs::ScopedPhase phase(obs::Phase::kCompile);
    out.compile_report = compiler::Compile(prog, ad, opt);
    traces = compiler::Lower(prog, cfg.num_nodes(), &cfg).traces;
  }
  out.run = RunMeasured(cfg, traces, {});
  out.improvement_pct = ImprovementPct(base.makespan, out.run.makespan);
  return out;
}

std::string FormatRow(const std::vector<std::string>& cells, int width) {
  std::ostringstream os;
  for (const std::string& c : cells) {
    os << "| " << std::setw(width) << c << " ";
  }
  os << "|";
  return os.str();
}

}  // namespace ndc::metrics
