#include "metrics/profile.hpp"

#include <utility>

#include "compiler/codegen.hpp"
#include "obs/phase.hpp"

namespace ndc::metrics {

const char* SchemeName(Scheme s) {
  for (const auto& [scheme, name] : kSchemeNames) {
    if (scheme == s) return name;
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
                                     const runtime::MachineOptions& opts) {
  obs::ScopedPhase phase(obs::Phase::kSimulate);
  runtime::Machine m(cfg, opts);
  m.LoadProgram(traces);
  runtime::RunResult r = m.Run();
  ++machine_runs_;
  obs::GlobalPhases().AddSimEvents(r.events);
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

runtime::RunResult Profile::RunCompiled(const arch::ArchConfig& cfg, const ir::Program& compiled,
                                        obs::Observability* ob) {
  auto simulate = [&] {
    std::vector<arch::Trace> traces;
    {
      obs::ScopedPhase phase(obs::Phase::kCompile);
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
