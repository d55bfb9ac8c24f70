#include "metrics/experiment.hpp"

#include <bit>
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

Profile::Profile(std::string workload, workloads::Scale scale, arch::ArchConfig cfg,
                 std::uint64_t seed, bool baseline_from_observe)
    : workload_(std::move(workload)), cfg_(cfg), baseline_from_observe_(baseline_from_observe) {
  obs::ScopedPhase phase(obs::Phase::kBuildWorkload);
  program_ = workloads::BuildWorkload(workload_, scale, seed);
}

runtime::RunResult Profile::Simulate(const arch::ArchConfig& cfg,
                                     const std::vector<arch::Trace>& traces,
                                     const runtime::MachineOptions& opts,
                                     fault::ConservationInputs* conservation) {
  obs::ScopedPhase phase(obs::Phase::kSimulate);
  runtime::Machine m(cfg, opts);
  m.LoadProgram(traces);
  runtime::RunResult r = m.Run();
  if (conservation != nullptr) *conservation = m.GatherConservation();
  ++machine_runs_;
  if constexpr (obs::kObsEnabled) obs::GlobalPhases().AddSimEvents(r.events);
  return r;
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
    if (baseline_from_observe_) {
      // Observe() filled baseline_conservation_ too.
      baseline_ = Observe();
      baseline_.records.reset();
      ++runs_reused_;
    } else {
      baseline_ = Simulate(cfg_, Traces(), {}, &baseline_conservation_);
    }
  });
  return baseline_;
}

const runtime::RunResult& Profile::Observe() {
  std::call_once(observe_once_, [this] {
    runtime::MachineOptions opts;
    opts.observe = true;
    observe_ = Simulate(cfg_, Traces(), opts,
                        baseline_from_observe_ ? &baseline_conservation_ : nullptr);
  });
  return observe_;
}

Profile::ProgramDigest Profile::Digest(const std::vector<arch::Trace>& traces) {
  // splitmix64's finalizer: a bijection, so distinct states stay distinct.
  auto mix = [](std::uint64_t x) {
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  };
  // Two lanes that fold each word in differently.
  ProgramDigest d;
  std::uint64_t h0 = 0xcbf29ce484222325ull, h1 = 0x9e3779b97f4a7c15ull;
  for (const arch::Trace& t : traces) {
    d.lengths.push_back(t.size());
    for (const arch::Instr& in : t) {
      for (std::uint64_t w : in.words()) {
        h0 = mix(h0 ^ w);
        h1 = mix(std::rotl(h1, 29) + w * 0x9e3779b97f4a7c15ull);
      }
    }
  }
  d.hash = {h0, h1};
  return d;
}

runtime::RunResult Profile::RunCompiled(const arch::ArchConfig& cfg,
                                        const std::vector<arch::Trace>& traces,
                                        fault::ConservationInputs* conservation) {
  CompiledRun c{cfg, Digest(traces), {}, {}};
  auto known = [&] {  // call with compiled_mu_ held
    for (const CompiledRun& e : compiled_) {
      if (e.digest == c.digest && e.cfg == c.cfg) return &e;
    }
    return static_cast<const CompiledRun*>(nullptr);
  };
  {
    std::lock_guard<std::mutex> lock(compiled_mu_);
    if (const CompiledRun* e = known()) {
      ++runs_reused_;
      *conservation = e->conservation;
      return e->run;
    }
  }
  // Concurrent callers with the same program may both simulate; their runs
  // are identical, so the one that finishes second is not stored.
  c.run = Simulate(cfg, traces, {}, &c.conservation);
  *conservation = c.conservation;
  runtime::RunResult out = c.run;
  std::lock_guard<std::mutex> lock(compiled_mu_);
  if (known() == nullptr) compiled_.push_back(std::move(c));
  return out;
}

Experiment::Experiment(std::string workload, workloads::Scale scale, arch::ArchConfig cfg,
                       std::uint64_t seed)
    : profile_(std::make_shared<Profile>(std::move(workload), scale, cfg, seed)) {}

Experiment::Experiment(std::shared_ptr<Profile> profile) : profile_(std::move(profile)) {}

runtime::RunResult Experiment::RunMeasured(const arch::ArchConfig& cfg,
                                           const std::vector<arch::Trace>& traces,
                                           runtime::MachineOptions opts) {
  opts.obs = obs_;
  return profile_->Simulate(cfg, traces, opts, &last_conservation_);
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
  out.run = obs_ != nullptr ? RunMeasured(cfg, traces, {})
                            : profile_->RunCompiled(cfg, traces, &last_conservation_);
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
