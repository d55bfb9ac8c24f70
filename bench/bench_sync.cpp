// bench_sync — contention curve of the synchronization subsystem.
//
// Sweeps the active shard (core) count k while the machine stays at the
// Table-1 configuration: k shards of a sync-lowered workload block-
// distribute onto cores 0..k-1, so every added shard adds one more
// contender on the same atomic cell / ticket lock / barrier. For each
// (workload, k) prints makespan plus the two contention signals the
// engines expose — total stall cycles (grant minus issue, the cores'
// view) and queue-wait cycles (service minus arrival, the engines' view)
// — with per-op averages, and optionally writes the full curve as a JSON
// report (--json=FILE).
//
// After every run the request-conservation invariant is checked; it now
// covers the sync engines' issued-vs-granted accounting (atomics, lock
// acquire/release pairing, barrier arrivals vs departures). A violation
// prints the failing identities and exits 1 — contention may serialize a
// run, never lose or double-grant a request.
//
// Runs are deterministic: the same (workload, scale, k) reproduces the
// same makespan, counters, and final atomic-cell values, so every row is
// replayable bit-for-bit.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "compiler/codegen.hpp"
#include "fault/conservation.hpp"
#include "workloads/sharded.hpp"

namespace {

using ndc::fault::CheckConservation;
using ndc::fault::ConservationReport;
namespace json = ndc::harness::json;

const char* const kSyncWorkloads[] = {"shard.reduce.atomic", "shard.reduce.lock",
                                      "shard.stencil.wave"};

struct SyncArgs {
  ndc::workloads::Scale scale = ndc::workloads::Scale::kSmall;
  std::string only;
  std::vector<int> cores = {1, 2, 4, 8, 16, 25};
  std::string json_path;
};

[[noreturn]] void UsageAndExit(const char* prog) {
  std::fprintf(stderr,
               "usage: %s [--scale=test|small|full] [--bench=NAME]\n"
               "         [--cores=K1,K2,...] [--json=FILE|--out=FILE]\n",
               prog);
  std::exit(2);
}

SyncArgs Parse(int argc, char** argv) {
  SyncArgs a;
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

double PerOp(std::uint64_t cycles, std::uint64_t ops) {
  return ops == 0 ? 0.0 : static_cast<double>(cycles) / static_cast<double>(ops);
}

json::Value RowJson(const std::string& workload, int cores,
                    const ndc::runtime::RunResult& r, bool conserved) {
  const ndc::sim::StatSet& st = r.stats;
  json::Value row = json::Value::Object();
  row.obj["workload"] = json::Value::Str(workload);
  row.obj["cores"] = json::Value::Int(static_cast<std::uint64_t>(cores));
  row.obj["makespan"] = json::Value::Int(r.makespan);
  row.obj["events"] = json::Value::Int(r.events);
  json::Value sync = json::Value::Object();
  sync.obj["ops"] = json::Value::Int(st.Get("sync.ops"));
  sync.obj["atomics"] = json::Value::Int(st.Get("sync.atomics_completed"));
  sync.obj["lock_acquires"] = json::Value::Int(st.Get("sync.lock_acquires"));
  sync.obj["barrier_arrivals"] = json::Value::Int(st.Get("sync.barrier_arrivals"));
  sync.obj["posts"] = json::Value::Int(st.Get("sync.posts"));
  sync.obj["waits"] = json::Value::Int(st.Get("sync.waits"));
  sync.obj["stall_cycles"] = json::Value::Int(st.Get("sync.stall_cycles"));
  sync.obj["queue_wait_cycles"] = json::Value::Int(st.Get("sync.queue_wait_cycles"));
  sync.obj["stall_per_op"] =
      json::Value::Double(PerOp(st.Get("sync.stall_cycles"), st.Get("sync.ops")));
  sync.obj["queue_wait_per_op"] =
      json::Value::Double(PerOp(st.Get("sync.queue_wait_cycles"), st.Get("sync.ops")));
  row.obj["sync"] = sync;
  row.obj["conserved"] = json::Value::Bool(conserved);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  SyncArgs args = Parse(argc, argv);
  ndc::arch::ArchConfig cfg;

  std::printf("# Sync contention curve: stall/queue-wait vs active shard count  "
              "(scale=%s, %d-node machine)\n",
              ndc::benchutil::ScaleName(args.scale), cfg.num_nodes());
  std::printf("%-20s %6s %10s %9s %10s %9s %10s %9s  %s\n", "workload", "cores",
              "makespan", "sync.ops", "stall", "stall/op", "qwait", "qwait/op", "ok");

  json::Value rows = json::Value::Array();
  for (const char* w : kSyncWorkloads) {
    if (!args.only.empty() && w != args.only) continue;
    for (int k : args.cores) {
      if (k > cfg.num_nodes()) {
        std::fprintf(stderr, "bench_sync: skipping cores=%d (> %d machine nodes)\n", k,
                     cfg.num_nodes());
        continue;
      }
      ndc::ir::Program prog = ndc::workloads::BuildShardedWorkload(w, args.scale, k);
      std::vector<ndc::arch::Trace> traces =
          ndc::compiler::Lower(prog, cfg.num_nodes(), &cfg).traces;
      ndc::runtime::Machine m(cfg);
      m.LoadProgram(std::move(traces));
      ndc::runtime::RunResult r = m.Run();

      ConservationReport rep = CheckConservation(m.GatherConservation());
      const ndc::sim::StatSet& st = r.stats;
      std::printf("%-20s %6d %10llu %9llu %10llu %9.1f %10llu %9.1f  %s\n", w, k,
                  static_cast<unsigned long long>(r.makespan),
                  static_cast<unsigned long long>(st.Get("sync.ops")),
                  static_cast<unsigned long long>(st.Get("sync.stall_cycles")),
                  PerOp(st.Get("sync.stall_cycles"), st.Get("sync.ops")),
                  static_cast<unsigned long long>(st.Get("sync.queue_wait_cycles")),
                  PerOp(st.Get("sync.queue_wait_cycles"), st.Get("sync.ops")),
                  rep.ok ? "yes" : "NO");
      rows.arr.push_back(RowJson(w, k, r, rep.ok));
      if (!rep.ok) {
        std::fprintf(stderr, "bench_sync: conservation violated (%s, cores=%d):\n%s",
                     w, k, rep.ToString().c_str());
        return 1;
      }
    }
  }

  if (!args.json_path.empty()) {
    json::Value report = json::Value::Object();
    report.obj["bench"] = json::Value::Str("sync");
    report.obj["scale"] = json::Value::Str(ndc::benchutil::ScaleName(args.scale));
    report.obj["machine_nodes"] = json::Value::Int(static_cast<std::uint64_t>(cfg.num_nodes()));
    report.obj["rows"] = rows;
    std::ofstream f(args.json_path);
    if (!f) {
      std::fprintf(stderr, "bench_sync: cannot write %s\n", args.json_path.c_str());
      return 2;
    }
    f << json::Dump(report) << "\n";
  }
  std::printf("\ncontention serializes at the home engine but never loses work: every\n"
              "sync request is eventually granted, every lock acquire pairs with its\n"
              "release, and every barrier arrival departs.\n");
  return 0;
}
