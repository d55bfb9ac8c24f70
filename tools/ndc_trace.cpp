// ndc-trace — request-lifetime timeline tool for the simulator.
//
// Re-runs one (workload, scheme) cell with the observability bundle
// attached and emits:
//   - a Chrome trace_event JSON timeline (--trace=FILE), loadable directly
//     in Perfetto / chrome://tracing (1 simulated cycle = 1 trace us),
//   - the per-stage latency breakdown table on stdout (whose stage cycles
//     telescope to exactly the summed end-to-end latency),
//   - the NDC decision audit summary (every candidate accounted for), and
//     optionally the full decision log as JSONL (--decisions=FILE),
//   - the host wall clock of each phase the cell's profile ran.
//
// Exit status: 0 on success, 2 on usage errors or an unwritable file.
//
// Run with --help for the flags.

#include <cstdio>
#include <optional>
#include <string>

#include "cli.hpp"
#include "harness/cell.hpp"
#include "obs/obs.hpp"
#include "workloads/workloads.hpp"

int main(int argc, char** argv) {
  ndc::harness::CellSpec spec;
  spec.scale = ndc::workloads::Scale::kTest;
  std::optional<ndc::metrics::Scheme> scheme;
  ndc::obs::ObsOptions oo;
  std::string trace_path, decisions_path;
  ndc::cli::Parser cli("ndc-trace");
  cli.Choice("workload", &spec.workload, ndc::workloads::BenchmarkNames(),
             "benchmark to run (required)")
      .Choice("scheme", &scheme, ndc::metrics::kSchemeNames, "scheme to run (required)")
      .Choice("scale", &spec.scale, ndc::harness::kScaleNames, "workload input size (default test)")
      .Unsigned("seed", &spec.seed, "workload generator seed (default 1)")
      .Unsigned("sample", &oo.sample_period, "trace every Nth load (default 1)", 1)
      .Unsigned("max-events", &oo.max_trace_events, "cap on stored timeline events (default 2^20)")
      .String("trace", &trace_path, "FILE", "write the Chrome trace_event timeline")
      .String("decisions", &decisions_path, "FILE", "write the decision log as JSONL");
  cli.Parse(argc, argv);
  if (spec.workload.empty() || !scheme) cli.Fail("--workload and --scheme are required");
  spec.scheme = *scheme;

  ndc::obs::Observability ob(oo);
  auto profile = ndc::harness::MakeProfile(spec, spec.NeedsObserve());
  ndc::metrics::SchemeResult r = ndc::harness::RunScheme(spec, *profile, &ob);

  std::printf("# ndc-trace: %s / %s (scale=%s, seed=%llu, sample=1/%llu)\n",
              spec.workload.c_str(), spec.SchemeLabel().c_str(),
              ndc::harness::ScaleName(spec.scale), static_cast<unsigned long long>(spec.seed),
              static_cast<unsigned long long>(ob.tracer.sample_period()));
  std::printf("makespan: %llu cycles\n\n", static_cast<unsigned long long>(r.run.makespan));

  std::fputs(ob.tracer.BreakdownTable().c_str(), stdout);
  std::printf("\n");
  std::fputs(ob.decisions.Summary().c_str(), stdout);
  std::printf("\n");
  const ndc::metrics::RunCounts runs = profile->run_counts();
  std::printf("%-16s %10s\n", "phase", "ms");
  for (std::size_t i = 0; i < runs.phase_ns.size(); ++i) {
    if (runs.phase_ns[i] == 0) continue;
    std::printf("%-16s %10.1f\n", ndc::metrics::kPhaseNames[i],
                static_cast<double>(runs.phase_ns[i]) / 1e6);
  }

  if (!trace_path.empty()) {
    if (!ob.sink.WriteFile(trace_path)) {
      std::fprintf(stderr, "ndc-trace: cannot write %s\n", trace_path.c_str());
      return 2;
    }
    std::printf("\ntrace: %zu events (%zu dropped at cap) -> %s\n", ob.sink.size(),
                ob.sink.dropped(), trace_path.c_str());
  }
  if (!decisions_path.empty()) {
    std::FILE* f = std::fopen(decisions_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "ndc-trace: cannot write %s\n", decisions_path.c_str());
      return 2;
    }
    std::string jsonl = ob.decisions.ToJsonl();
    std::fwrite(jsonl.data(), 1, jsonl.size(), f);
    std::fclose(f);
    std::printf("decisions: %zu entries -> %s\n", ob.decisions.entries().size(),
                decisions_path.c_str());
  }
  return 0;
}
