#include "metrics/profile.hpp"

#include <bit>
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
                                     const runtime::MachineOptions& opts,
                                     fault::ConservationInputs* conservation) {
  obs::ScopedPhase phase(obs::Phase::kSimulate);
  runtime::Machine m(cfg, opts);
  m.LoadProgram(traces);
  runtime::RunResult r = m.Run();
  if (conservation != nullptr) *conservation = m.GatherConservation();
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

}  // namespace ndc::metrics
