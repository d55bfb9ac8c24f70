#include "metrics/profile.hpp"

#include <chrono>
#include <utility>

#include "compiler/codegen.hpp"

namespace ndc::metrics {

namespace {

/// Adds the host wall clock of its scope to phase `p` of `phase_ns`.
class PhaseTimer {
 public:
  PhaseTimer(std::array<std::atomic<std::uint64_t>, std::size(kPhaseNames)>& phase_ns, Phase p)
      : ns_(phase_ns[static_cast<std::size_t>(p)]), start_(std::chrono::steady_clock::now()) {}
  ~PhaseTimer() {
    ns_ += static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                          std::chrono::steady_clock::now() - start_)
                                          .count());
  }
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  std::atomic<std::uint64_t>& ns_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace

const char* SchemeName(Scheme s) {
  for (const auto& [scheme, name] : kSchemeNames) {
    if (scheme == s) return name;
  }
  return "?";
}

RunCounts& RunCounts::operator+=(const RunCounts& o) {
  machine_runs += o.machine_runs;
  runs_reused += o.runs_reused;
  sim_events += o.sim_events;
  for (std::size_t i = 0; i < phase_ns.size(); ++i) phase_ns[i] += o.phase_ns[i];
  return *this;
}

double ImprovementPct(sim::Cycle base, sim::Cycle t) {
  if (base == 0) return 0.0;
  return (static_cast<double>(base) - static_cast<double>(t)) / static_cast<double>(base) *
         100.0;
}

Profile::Profile(std::string workload, workloads::Scale scale, arch::ArchConfig cfg,
                 std::uint64_t seed, bool baseline_from_observe)
    : workload_(std::move(workload)), cfg_(cfg), baseline_from_observe_(baseline_from_observe) {
  PhaseTimer timer(phase_ns_, Phase::kBuildWorkload);
  program_ = workloads::BuildWorkload(workload_, scale, seed);
}

runtime::RunResult Profile::Simulate(const arch::ArchConfig& cfg,
                                     const std::vector<arch::Trace>& traces,
                                     const runtime::MachineOptions& opts) {
  PhaseTimer timer(phase_ns_, Phase::kSimulate);
  runtime::Machine m(cfg, opts);
  m.LoadProgram(traces);
  runtime::RunResult r = m.Run();
  ++machine_runs_;
  sim_events_ += r.events;
  return r;
}

RunCounts Profile::run_counts() const {
  RunCounts c{machine_runs_.load(), runs_reused_.load(), sim_events_.load(), {}};
  for (std::size_t i = 0; i < c.phase_ns.size(); ++i) c.phase_ns[i] = phase_ns_[i].load();
  return c;
}

const std::vector<arch::Trace>& Profile::Traces() {
  std::call_once(traces_once_, [this] {
    PhaseTimer timer(phase_ns_, Phase::kLowerTraces);
    traces_ = compiler::Lower(program_, cfg_.num_nodes(), &cfg_).traces;
  });
  return traces_;
}

const runtime::RunResult& Profile::Baseline() {
  std::call_once(baseline_once_, [this] {
    if (baseline_from_observe_) {
      baseline_ = Observe();
      baseline_.records.reset();
      ++runs_reused_;
    } else {
      baseline_ = Simulate(cfg_, Traces(), {});
    }
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

compiler::CompileReport Profile::Compile(const arch::ArchConfig& cfg,
                                         const compiler::CompileOptions& opt,
                                         ir::Program* compiled) {
  *compiled = program_;
  PhaseTimer timer(phase_ns_, Phase::kCompile);
  return compiler::Compile(*compiled, compiler::ArchDescription(cfg), opt);
}

runtime::RunResult Profile::RunCompiled(const arch::ArchConfig& cfg, const ir::Program& compiled,
                                        obs::Observability* ob) {
  auto simulate = [&] {
    std::vector<arch::Trace> traces;
    {
      PhaseTimer timer(phase_ns_, Phase::kCompile);
      traces = compiler::Lower(compiled, cfg.num_nodes(), &cfg).traces;
    }
    runtime::MachineOptions opts;
    opts.obs = ob;
    return Simulate(cfg, traces, opts);
  };
  if (ob != nullptr) return simulate();

  CompiledRun c{cfg, {}, {}};
  for (const ir::LoopNest& nest : compiled.nests) {
    for (const ir::Stmt& st : nest.body) c.annotations.push_back(st.ndc);
  }
  auto known = [&] {  // call with compiled_mu_ held
    for (const CompiledRun& e : compiled_) {
      if (e.annotations == c.annotations && e.cfg == c.cfg) return &e;
    }
    return static_cast<const CompiledRun*>(nullptr);
  };
  {
    std::lock_guard<std::mutex> lock(compiled_mu_);
    if (const CompiledRun* e = known()) {
      ++runs_reused_;
      return e->run;
    }
  }
  // Concurrent callers with the same program may both simulate; their runs
  // are identical, so the one that finishes second is not stored.
  c.run = simulate();
  runtime::RunResult out = c.run;
  std::lock_guard<std::mutex> lock(compiled_mu_);
  if (known() == nullptr) compiled_.push_back(std::move(c));
  return out;
}

}  // namespace ndc::metrics
