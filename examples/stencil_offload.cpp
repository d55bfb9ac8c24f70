// Example: the NDC-vs-locality tradeoff on a stencil workload (swim).
//
// Algorithm 1 offloads every use-use chain it can restructure; Algorithm 2
// skips chains whose operands are reused later (Section 5.3). On stencil
// code with group reuse, Algorithm 2 preserves cache locality and wins.
//
//   $ ./examples/stencil_offload [test|small]   (default: small)

#include <cstdio>
#include <cstring>
#include <memory>

#include "harness/cell.hpp"

using namespace ndc;

int main(int argc, char** argv) {
  workloads::Scale scale = workloads::Scale::kSmall;
  if (argc > 1 && std::strcmp(argv[1], "test") == 0) scale = workloads::Scale::kTest;

  harness::CellSpec spec;
  spec.workload = "swim";
  spec.scale = scale;
  std::shared_ptr<metrics::Profile> profile = harness::MakeProfile(spec, false);

  std::printf("== swim stand-in: shallow-water stencils with p-group reuse ==\n\n");
  const runtime::RunResult& base = profile->Baseline();
  std::printf("%-14s %10s %8s %8s %9s %9s %9s\n", "scheme", "cycles", "L1miss", "L2miss",
              "offloads", "ndc-done", "improve");
  std::printf("%-14s %10llu %7.1f%% %7.1f%% %9s %9s %9s\n", "baseline",
              static_cast<unsigned long long>(base.makespan), base.L1MissRate() * 100,
              base.L2MissRate() * 100, "-", "-", "-");

  for (metrics::Scheme s : {metrics::Scheme::kAlgorithm1, metrics::Scheme::kAlgorithm2}) {
    spec.scheme = s;
    metrics::SchemeResult r = harness::RunScheme(spec, *profile);
    std::printf("%-14s %10llu %7.1f%% %7.1f%% %9llu %9llu %+8.1f%%\n", metrics::SchemeName(s),
                static_cast<unsigned long long>(r.run.makespan), r.run.L1MissRate() * 100,
                r.run.L2MissRate() * 100, static_cast<unsigned long long>(r.run.offloads),
                static_cast<unsigned long long>(r.run.ndc_success), r.improvement_pct);
    if (s == metrics::Scheme::kAlgorithm2) {
      std::printf("\nAlgorithm 2 skipped %llu of %llu chains for data-locality reasons\n",
                  static_cast<unsigned long long>(r.compile_report.reuse_skips),
                  static_cast<unsigned long long>(r.compile_report.chains));
    }
  }
  std::printf("\nExpected: Algorithm 2 >= Algorithm 1 here — the stencil's reused\n"
              "operand (p) must stay in the cache, so the reuse-aware pass leaves its\n"
              "chain alone and offloads only the streaming pair.\n");
  return 0;
}
