// Example: plugging a user-defined hardware waiting policy into the
// simulated machine.
//
// The Policy interface (ndc/policy.hpp) decides, per dynamic candidate,
// whether to offload, to which component, and how long the first operand's
// time-out register should run. This example implements a conservative
// "memory-side only" policy: offload only when both operands map to the
// same memory controller, with a short fixed time-out.
//
//   $ ./examples/custom_policy

#include <cstdio>

#include "metrics/profile.hpp"
#include "ndc/machine.hpp"
#include "ndc/policy.hpp"

using namespace ndc;

namespace {

class MemorySideOnlyPolicy final : public runtime::Policy {
 public:
  explicit MemorySideOnlyPolicy(sim::Cycle timeout) : timeout_(timeout) {}

  runtime::Decision Decide(sim::NodeId, std::uint32_t, std::uint32_t, sim::Addr, sim::Addr,
                           std::uint8_t feasible_mask) override {
    runtime::Decision d;
    if (feasible_mask & arch::LocBit(arch::Loc::kMemBank)) {
      d = {true, arch::Loc::kMemBank, timeout_};
    } else if (feasible_mask & arch::LocBit(arch::Loc::kMemCtrl)) {
      d = {true, arch::Loc::kMemCtrl, timeout_};
    }
    return d;
  }

 private:
  sim::Cycle timeout_;
};

}  // namespace

int main() {
  arch::ArchConfig cfg;
  std::printf("== custom policy: offload only when operands share a memory "
              "controller ==\n\n");
  std::printf("%-10s %12s %12s %10s %10s %10s\n", "benchmark", "baseline", "custom",
              "improve", "ndc-done", "fallbacks");
  for (const char* name : {"mgrid", "water", "md", "cholesky"}) {
    metrics::Profile profile(name, workloads::Scale::kTest, cfg);
    const runtime::RunResult& base = profile.Baseline();

    MemorySideOnlyPolicy policy(/*timeout=*/64);
    runtime::MachineOptions opts;
    opts.policy = &policy;
    runtime::Machine m(cfg, opts);
    m.LoadProgram(profile.Traces());
    runtime::RunResult r = m.Run();

    std::printf("%-10s %12llu %12llu %+9.1f%% %10llu %10llu\n", name,
                static_cast<unsigned long long>(base.makespan),
                static_cast<unsigned long long>(r.makespan),
                metrics::ImprovementPct(base.makespan, r.makespan),
                static_cast<unsigned long long>(r.ndc_success),
                static_cast<unsigned long long>(r.fallbacks));
  }
  std::printf("\nThe same interface implements the paper's Default, Wait(x%%), Last-Wait,\n"
              "Markov, and Oracle strategies (src/ndc/policy.hpp).\n");
  return 0;
}
