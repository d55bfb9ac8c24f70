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
//   - the host-side phase profile (where wall-clock went).
//
// Exit status: 0 on success, 1 when observability is compiled out
// (NDC_OBS=OFF), 2 on usage errors.
//
// Usage:
//   ndc-trace --workload=NAME --scheme=NAME [--scale=test|small|full]
//             [--seed=N] [--sample=N] [--max-events=N]
//             [--trace=FILE] [--decisions=FILE]

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "compiler/pipeline.hpp"
#include "metrics/experiment.hpp"
#include "obs/obs.hpp"
#include "workloads/workloads.hpp"

namespace {

using ndc::metrics::Scheme;

struct TraceArgs {
  std::string workload;
  std::string scheme_name;
  ndc::workloads::Scale scale = ndc::workloads::Scale::kTest;
  std::uint64_t seed = 1;
  std::uint64_t sample = 1;
  std::size_t max_events = 1u << 20;
  std::string trace_path;
  std::string decisions_path;
};

[[noreturn]] void UsageAndExit() {
  std::fprintf(stderr,
               "usage: ndc-trace --workload=NAME --scheme=NAME\n"
               "         [--scale=test|small|full] [--seed=N] [--sample=N]\n"
               "         [--max-events=N] [--trace=FILE] [--decisions=FILE]\n"
               "schemes: baseline default oracle wait5 wait10 wait25 wait50\n"
               "         lastwait markov algorithm1 algorithm2\n");
  std::exit(2);
}

/// Case-insensitive scheme lookup accepting both the CLI aliases above and
/// the display names ("Algorithm-1", "Wait(5%)").
bool ParseScheme(const std::string& name, Scheme* out) {
  std::string k;
  for (char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c)) != 0) {
      k += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
  }
  static const struct {
    const char* key;
    Scheme scheme;
  } kMap[] = {
      {"baseline", Scheme::kBaseline},   {"default", Scheme::kDefault},
      {"oracle", Scheme::kOracle},       {"wait5", Scheme::kWait5},
      {"wait10", Scheme::kWait10},       {"wait25", Scheme::kWait25},
      {"wait50", Scheme::kWait50},       {"lastwait", Scheme::kLastWait},
      {"markov", Scheme::kMarkov},       {"algorithm1", Scheme::kAlgorithm1},
      {"alg1", Scheme::kAlgorithm1},     {"algorithm2", Scheme::kAlgorithm2},
      {"alg2", Scheme::kAlgorithm2},
  };
  for (const auto& m : kMap) {
    if (k == m.key) {
      *out = m.scheme;
      return true;
    }
  }
  return false;
}

std::uint64_t ParseU64(const char* flag, const char* s) {
  char* end = nullptr;
  unsigned long long v = std::strtoull(s, &end, 10);
  if (end == nullptr || *end != '\0' || s[0] == '\0') {
    std::fprintf(stderr, "ndc-trace: %s expects an integer, got '%s'\n", flag, s);
    UsageAndExit();
  }
  return v;
}

TraceArgs Parse(int argc, char** argv) {
  TraceArgs a;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--workload=", 11) == 0) {
      a.workload = arg + 11;
    } else if (std::strncmp(arg, "--scheme=", 9) == 0) {
      a.scheme_name = arg + 9;
    } else if (std::strcmp(arg, "--scale=test") == 0) {
      a.scale = ndc::workloads::Scale::kTest;
    } else if (std::strcmp(arg, "--scale=small") == 0) {
      a.scale = ndc::workloads::Scale::kSmall;
    } else if (std::strcmp(arg, "--scale=full") == 0) {
      a.scale = ndc::workloads::Scale::kFull;
    } else if (std::strncmp(arg, "--scale=", 8) == 0) {
      std::fprintf(stderr, "ndc-trace: unknown scale '%s' (expected test|small|full)\n",
                   arg + 8);
      UsageAndExit();
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      a.seed = ParseU64("--seed", arg + 7);
    } else if (std::strncmp(arg, "--sample=", 9) == 0) {
      a.sample = ParseU64("--sample", arg + 9);
      if (a.sample == 0) a.sample = 1;
    } else if (std::strncmp(arg, "--max-events=", 13) == 0) {
      a.max_events = static_cast<std::size_t>(ParseU64("--max-events", arg + 13));
    } else if (std::strncmp(arg, "--trace=", 8) == 0) {
      a.trace_path = arg + 8;
    } else if (std::strncmp(arg, "--decisions=", 12) == 0) {
      a.decisions_path = arg + 12;
    } else {
      std::fprintf(stderr, "ndc-trace: unknown argument '%s'\n", arg);
      UsageAndExit();
    }
  }
  if (a.workload.empty() || a.scheme_name.empty()) {
    std::fprintf(stderr, "ndc-trace: --workload and --scheme are required\n");
    UsageAndExit();
  }
  return a;
}

bool KnownWorkload(const std::string& name) {
  for (const std::string& w : ndc::workloads::BenchmarkNames()) {
    if (w == name) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  TraceArgs args = Parse(argc, argv);

  if (!ndc::obs::kObsEnabled) {
    std::fprintf(stderr,
                 "ndc-trace: observability is compiled out (NDC_OBS=OFF); rebuild with "
                 "-DNDC_OBS=ON\n");
    return 1;
  }
  if (!KnownWorkload(args.workload)) {
    std::fprintf(stderr, "ndc-trace: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  Scheme scheme = Scheme::kBaseline;
  if (!ParseScheme(args.scheme_name, &scheme)) {
    std::fprintf(stderr, "ndc-trace: unknown scheme '%s'\n", args.scheme_name.c_str());
    UsageAndExit();
  }

  ndc::obs::ObsOptions oo;
  oo.sample_period = args.sample;
  oo.max_trace_events = args.max_events;
  ndc::obs::Observability ob(oo);

  ndc::metrics::Experiment exp(args.workload, args.scale, ndc::arch::ArchConfig{},
                               args.seed);
  exp.set_obs(&ob);
  ndc::metrics::SchemeResult r;
  if (scheme == Scheme::kAlgorithm1 || scheme == Scheme::kAlgorithm2) {
    ndc::compiler::CompileOptions copt;
    copt.mode = scheme == Scheme::kAlgorithm2 ? ndc::compiler::Mode::kAlgorithm2
                                              : ndc::compiler::Mode::kAlgorithm1;
    r = exp.RunCompiled(copt);
  } else {
    r = exp.Run(scheme);
  }

  std::printf("# ndc-trace: %s / %s (scale=%s, seed=%llu, sample=1/%llu)\n",
              args.workload.c_str(), ndc::metrics::SchemeName(scheme),
              args.scale == ndc::workloads::Scale::kTest    ? "test"
              : args.scale == ndc::workloads::Scale::kSmall ? "small"
                                                            : "full",
              static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(ob.tracer.sample_period()));
  std::printf("makespan: %llu cycles\n\n", static_cast<unsigned long long>(r.run.makespan));

  std::fputs(ob.tracer.BreakdownTable().c_str(), stdout);
  std::printf("\n");
  std::fputs(ob.decisions.Summary().c_str(), stdout);
  std::printf("\n");
  std::fputs(ndc::obs::GlobalPhases().ToText().c_str(), stdout);

  if (!args.trace_path.empty()) {
    if (!ob.sink.WriteFile(args.trace_path)) {
      std::fprintf(stderr, "ndc-trace: cannot write %s\n", args.trace_path.c_str());
      return 2;
    }
    std::printf("\ntrace: %zu events (%zu dropped at cap) -> %s\n", ob.sink.size(),
                ob.sink.dropped(), args.trace_path.c_str());
  }
  if (!args.decisions_path.empty()) {
    std::FILE* f = std::fopen(args.decisions_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "ndc-trace: cannot write %s\n", args.decisions_path.c_str());
      return 2;
    }
    std::string jsonl = ob.decisions.ToJsonl();
    std::fwrite(jsonl.data(), 1, jsonl.size(), f);
    std::fclose(f);
    std::printf("decisions: %zu entries -> %s\n", ob.decisions.entries().size(),
                args.decisions_path.c_str());
  }
  return 0;
}
