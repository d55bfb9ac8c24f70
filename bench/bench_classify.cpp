// bench_classify — bottleneck labels flipping under scaled pressure.
//
// Sweeps the active shard (core) count k over a small set of sharded
// workloads at the Table-1 machine, classifying every run through the
// utilization-attribution layer: as k grows each run lands on whichever
// resource saturates first — the streaming, reduction and halo-stencil
// kernels all drive the MC queues ever deeper (dram-latency, queue
// occupancy climbing toward the full MLP window). Each row prints the label next to the full derived signal vector, so a flip is
// always accompanied by the fractions that caused it; --json writes the
// curve with the complete classification objects (raw counters, thresholds,
// per-window series).
//
// Runs are deterministic: the same (workload, scale, k, window) reproduces
// the same counters, signals, and label bit-for-bit.
//
// With NDC_OBS=OFF there is nothing to sample; the binary prints a note
// and exits 0 so generic bench invocations stay harmless.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "compiler/codegen.hpp"
#include "harness/cell.hpp"
#include "workloads/sharded.hpp"

namespace {

namespace json = ndc::harness::json;

const char* const kClassifyWorkloads[] = {"shard.stream", "shard.reduce", "shard.stencil"};

struct ClassifyBenchArgs {
  ndc::workloads::Scale scale = ndc::workloads::Scale::kSmall;
  std::string only;
  std::vector<int> cores = {1, 2, 4, 8, 16, 25};
  std::uint64_t window = ndc::harness::kDefaultClassifyWindow;
  std::string json_path;
};

[[noreturn]] void UsageAndExit(const char* prog) {
  std::fprintf(stderr,
               "usage: %s [--scale=test|small|full] [--bench=NAME]\n"
               "         [--cores=K1,K2,...] [--window=CYCLES] [--json=FILE|--out=FILE]\n",
               prog);
  std::exit(2);
}

ClassifyBenchArgs Parse(int argc, char** argv) {
  ClassifyBenchArgs a;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--scale=test") == 0) {
      a.scale = ndc::workloads::Scale::kTest;
    } else if (std::strcmp(arg, "--scale=small") == 0) {
      a.scale = ndc::workloads::Scale::kSmall;
    } else if (std::strcmp(arg, "--scale=full") == 0) {
      a.scale = ndc::workloads::Scale::kFull;
    } else if (std::strncmp(arg, "--bench=", 8) == 0) {
      a.only = arg + 8;
    } else if (std::strncmp(arg, "--cores=", 8) == 0) {
      a.cores.clear();
      const char* p = arg + 8;
      while (*p != '\0') {
        char* end = nullptr;
        long v = std::strtol(p, &end, 10);
        if (end == p || v < 1) UsageAndExit(argv[0]);
        a.cores.push_back(static_cast<int>(v));
        p = (*end == ',') ? end + 1 : end;
      }
      if (a.cores.empty()) UsageAndExit(argv[0]);
    } else if (std::strncmp(arg, "--window=", 9) == 0) {
      char* end = nullptr;
      unsigned long long n = std::strtoull(arg + 9, &end, 10);
      if (end == nullptr || *end != '\0' || n == 0) UsageAndExit(argv[0]);
      a.window = n;
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      a.json_path = arg + 7;
    } else if (std::strncmp(arg, "--out=", 6) == 0) {
      // Alias of --json: the BENCH_*.json contract (EXPERIMENTS.md) spells
      // the report path --out=FILE across every bench binary.
      a.json_path = arg + 6;
    } else {
      std::fprintf(stderr, "%s: unknown argument '%s'\n", argv[0], arg);
      UsageAndExit(argv[0]);
    }
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  ClassifyBenchArgs args = Parse(argc, argv);
  if constexpr (!ndc::obs::kObsEnabled) {
    std::printf("bench_classify: observability compiled out (NDC_OBS=OFF); "
                "nothing to classify\n");
    return 0;
  }
  ndc::arch::ArchConfig cfg;

  std::printf("# Bottleneck label vs active shard count  (scale=%s, window=%llu, "
              "%d-node machine)\n",
              ndc::benchutil::ScaleName(args.scale),
              static_cast<unsigned long long>(args.window), cfg.num_nodes());
  std::printf("%-20s %6s %10s %-12s  %s\n", "workload", "cores", "makespan", "label",
              "signals");

  json::Value rows = json::Value::Array();
  for (const char* w : kClassifyWorkloads) {
    if (!args.only.empty() && w != args.only) continue;
    for (int k : args.cores) {
      if (k > cfg.num_nodes()) {
        std::fprintf(stderr, "bench_classify: skipping cores=%d (> %d machine nodes)\n",
                     k, cfg.num_nodes());
        continue;
      }
      ndc::obs::ObsOptions oo;
      oo.sample_period = 1;
      oo.emit_stage_events = false;
      oo.window_cycles = args.window;
      ndc::obs::Observability ob(oo);

      ndc::ir::Program prog = ndc::workloads::BuildShardedWorkload(w, args.scale, k);
      std::vector<ndc::arch::Trace> traces =
          ndc::compiler::Lower(prog, cfg.num_nodes(), &cfg).traces;
      ndc::runtime::MachineOptions mo;
      mo.obs = &ob;
      ndc::runtime::Machine m(cfg, mo);
      m.LoadProgram(std::move(traces));
      ndc::runtime::RunResult r = m.Run();

      ndc::obs::UtilizationSignals sig =
          ndc::harness::ComputeRunSignals(r.stats, r.makespan, cfg, &ob.registry);
      ndc::obs::Label label = ndc::obs::Classify(sig);
      std::printf("%-20s %6d %10llu %-12s  %s\n", w, k,
                  static_cast<unsigned long long>(r.makespan),
                  ndc::obs::LabelName(label), ndc::obs::SignalsToText(sig).c_str());

      json::Value row = json::Value::Object();
      row.obj["workload"] = json::Value::Str(w);
      row.obj["cores"] = json::Value::Int(static_cast<std::uint64_t>(k));
      row.obj["makespan"] = json::Value::Int(r.makespan);
      row.obj["classification"] = ndc::harness::ClassificationJson(sig, ob.sampler);
      rows.arr.push_back(std::move(row));
    }
  }

  if (!args.json_path.empty()) {
    json::Value report = json::Value::Object();
    report.obj["bench"] = json::Value::Str("classify");
    report.obj["scale"] = json::Value::Str(ndc::benchutil::ScaleName(args.scale));
    report.obj["window"] = json::Value::Int(args.window);
    report.obj["machine_nodes"] =
        json::Value::Int(static_cast<std::uint64_t>(cfg.num_nodes()));
    report.obj["rows"] = rows;
    std::ofstream f(args.json_path);
    if (!f) {
      std::fprintf(stderr, "bench_classify: cannot write %s\n", args.json_path.c_str());
      return 2;
    }
    f << json::Dump(report) << "\n";
  }
  std::printf("\na label is never published without its evidence: each row carries the\n"
              "derived utilization fractions the fixed-order threshold tree saw, and\n"
              "their raw counters reconcile with the run's touched-only StatSet.\n");
  return 0;
}
