// Substrate throughput benchmark: events/sec, ns/event, and allocs/event
// for the discrete-event core (calendar EventQueue vs the seed binary-heap
// LegacyEventQueue), plus end-to-end MemCtrl and NoC event streams.
//
// Emits a machine-readable JSON report (default BENCH_substrate.json) that
// CI's substrate-perf job checks against two floors:
//   - speedup_vs_legacy >= --min-speedup (calendar vs seed queue, same box)
//   - allocs_per_event ~= 0 on the pure scheduling benches (the hot
//     ScheduleAfter(small delay) path must not touch the heap)
//
// Allocation counts come from an instrumented global operator new/delete
// (alloc_count.cpp), sampled after a warmup pass so one-time pool/bucket
// growth is excluded (steady-state behaviour is what the floor is about).
//
// The report also carries two whole-machine rows: "machine_swim", a full
// sequential Machine run of a fig04 grid workload, and "machine_offload",
// the same run with the NDC engine offloading under the Default
// always-wait policy, so the layer table ends with the ns/event and
// allocs/event of the assembled simulator with and without NDC traffic.
// Both machine rows also report the machine's run state per trace
// instruction (Machine::RunStateBytes over the instruction count) and the
// trace storage per instruction (each trace's capacity times
// sizeof(arch::Instr), so a trace that over-reserves shows), plus the
// largest core window in slots. The swim row also reports the bytes per
// candidate of an observe run's records (an extra run off the clock). All
// are sizes computed from containers, not RSS, so they are the same on
// every host.
// Two last rows time the code generator: "lower_fig04" lowers the 20 fig04
// benchmarks at small scale and "lower_fig04_alg2" lowers them after
// Algorithm-2 compilation (the CME gate runs per pre-compute), with events
// = emitted instructions, so they read ns/instr and allocs/instr.
//
// Run with --help for the flags.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "alloc_count.hpp"
#include "arch/config.hpp"
#include "cli.hpp"
#include "compiler/arch_desc.hpp"
#include "compiler/codegen.hpp"
#include "compiler/pipeline.hpp"
#include "json/json.hpp"
#include "mem/address_map.hpp"
#include "mem/dram.hpp"
#include "mem/memctrl.hpp"
#include "metrics/profile.hpp"
#include "ndc/machine.hpp"
#include "ndc/policy.hpp"
#include "noc/geometry.hpp"
#include "noc/network.hpp"
#include "sim/event_queue.hpp"
#include "sim/legacy_event_queue.hpp"
#include "sim/rng.hpp"
#include "workloads/workloads.hpp"

namespace ndc {
namespace {

using Clock = std::chrono::steady_clock;

struct BenchResult {
  std::string name;
  std::uint64_t events = 0;
  double seconds = 0.0;
  std::uint64_t allocs = 0;
  double run_state_bytes_per_instr = -1;  ///< machine rows only
  double trace_bytes_per_instr = -1;      ///< machine rows only
  double window_slots = -1;               ///< machine rows only: largest core ring
  double record_bytes_per_candidate = -1; ///< machine_swim only: observe-run records

  double events_per_sec() const { return seconds > 0 ? static_cast<double>(events) / seconds : 0; }
  double ns_per_event() const {
    return events > 0 ? seconds * 1e9 / static_cast<double>(events) : 0;
  }
  double allocs_per_event() const {
    return events > 0 ? static_cast<double>(allocs) / static_cast<double>(events) : 0;
  }
};

/// Times `run()` and attributes the executed-event delta and heap
/// allocations inside it to one named result row.
template <typename RunFn, typename ExecutedFn>
BenchResult Measure(const char* name, RunFn&& run, ExecutedFn&& executed) {
  BenchResult r;
  r.name = name;
  std::uint64_t e0 = executed();
  std::uint64_t a0 = bench::AllocCount();
  auto t0 = Clock::now();
  run();
  auto t1 = Clock::now();
  r.events = executed() - e0;
  r.allocs = bench::AllocCount() - a0;
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  return r;
}

// --- Pure scheduling: self-rescheduling chains of small-delay events -------
// This is the simulator's hot path (MemCtrl completions, NoC hops): a small
// callback scheduled a few cycles ahead. The functor is 24 bytes, so the
// calendar queue keeps it in the bucket's inline storage.

template <typename Queue>
struct ChainEvent {
  Queue* q;
  std::uint64_t* remaining;
  sim::Cycle delay;
  void operator()() const {
    if (*remaining == 0) return;
    --*remaining;
    q->ScheduleAfter(delay, ChainEvent{q, remaining, delay});
  }
};

template <typename Queue>
BenchResult ChainBench(const char* name, std::uint64_t events) {
  Queue q;
  std::uint64_t remaining = 0;
  auto seed = [&] {
    for (sim::Cycle c = 0; c < 64; ++c) {
      q.ScheduleAfter(1 + c % 13, ChainEvent<Queue>{&q, &remaining, 1 + c % 13});
    }
  };
  remaining = events / 10;  // warmup: grow buckets/pools off the clock
  seed();
  q.RunUntilEmpty();
  remaining = events;
  seed();
  return Measure(name, [&] { q.RunUntilEmpty(); }, [&] { return q.executed(); });
}

// --- Mixed horizon: mostly near events, 1-in-8 beyond the wheel window -----

struct MixedEvent {
  sim::EventQueue* q;
  std::uint64_t* remaining;
  sim::Rng* rng;
  void operator()() const {
    if (*remaining == 0) return;
    --*remaining;
    sim::Cycle d = (rng->Next() & 7) == 0 ? 5000 + rng->NextBelow(20000)
                                          : 1 + rng->NextBelow(32);
    q->ScheduleAfter(d, MixedEvent{q, remaining, rng});
  }
};

BenchResult MixedBench(std::uint64_t events) {
  sim::EventQueue q;
  sim::Rng rng(2021);
  std::uint64_t remaining = 0;
  auto seed = [&] {
    for (sim::Cycle c = 0; c < 64; ++c) {
      q.ScheduleAfter(1 + c % 17, MixedEvent{&q, &remaining, &rng});
    }
  };
  remaining = events / 10;
  seed();
  q.RunUntilEmpty();
  remaining = events;
  seed();
  return Measure("calendar_mixed_horizon", [&] { q.RunUntilEmpty(); },
                 [&] { return q.executed(); });
}

// --- End-to-end component streams ------------------------------------------

// Each stream's callback captures one pointer, which std::function stores
// inline, so the rows count the component's own allocations, not the
// bench's.

/// Closed loop of random reads: each completion enqueues another one,
/// keeping every bank queue busy (the FR-FCFS pick always has material to
/// scan).
struct McStream {
  mem::MemCtrl* mc;
  sim::Rng rng;
  std::uint64_t remaining = 0, next_tag = 1;

  void Enqueue() {
    mc->EnqueueRead(next_tag++, rng.NextBelow(1u << 28) * 64, [this](std::uint64_t, sim::Cycle) {
      if (remaining == 0) return;
      --remaining;
      Enqueue();
    });
  }
};

BenchResult MemCtrlBench(std::uint64_t requests) {
  mem::AddressMap amap;
  mem::DramParams dram;
  sim::EventQueue eq;
  mem::MemCtrl mc(0, amap, dram, eq);
  McStream stream{&mc, sim::Rng(7)};
  auto seed = [&] {
    for (int i = 0; i < 128; ++i) stream.Enqueue();
  };
  stream.remaining = requests / 10;
  seed();
  eq.RunUntilEmpty();
  stream.remaining = requests;
  seed();
  return Measure("memctrl_stream", [&] { eq.RunUntilEmpty(); },
                 [&] { return eq.executed(); });
}

/// Closed loop of random packets: each delivery injects a new one.
struct NocStream {
  noc::Network* net;
  sim::Rng rng;
  std::uint64_t remaining = 0;

  /// Seed packets are 8 bytes; the loop's packets draw a random size.
  void Inject(bool random_size) {
    noc::Packet p;
    p.src = static_cast<sim::NodeId>(rng.NextBelow(25));
    p.dst = static_cast<sim::NodeId>(rng.NextBelow(25));
    if (random_size) p.size_bytes = 8 + static_cast<int>(rng.NextBelow(4)) * 8;
    net->Send(std::move(p), [this](const noc::Packet&, sim::Cycle) {
      if (remaining == 0) return;
      --remaining;
      Inject(/*random_size=*/true);
    });
  }
};

BenchResult NocBench(std::uint64_t packets) {
  sim::EventQueue eq;
  noc::Mesh mesh(5, 5);
  noc::Network net(mesh, eq);
  NocStream stream{&net, sim::Rng(13)};
  auto seed = [&] {
    for (int i = 0; i < 64; ++i) stream.Inject(/*random_size=*/false);
  };
  stream.remaining = packets / 10;
  seed();
  eq.RunUntilEmpty();
  stream.remaining = packets;
  seed();
  return Measure("noc_stream", [&] { eq.RunUntilEmpty(); }, [&] { return eq.executed(); });
}

// --- Whole machine ----------------------------------------------------------
// One full machine run of the swim stencil (a fig04 grid workload) at small
// scale over freshly built traces; workload build + lowering stay off the
// clock. With `offload`, the NDC engine offloads every feasible candidate
// under the Default always-wait policy (holds, waits, planned routes).

BenchResult MachineBench(const char* name, bool offload) {
  arch::ArchConfig cfg;
  metrics::Profile profile("swim", workloads::Scale::kSmall, cfg, 1);
  const std::vector<arch::Trace>& traces = profile.Traces();
  runtime::AlwaysWaitPolicy policy(cfg);
  runtime::MachineOptions opts;
  if (offload) opts.policy = &policy;
  runtime::Machine m(cfg, opts);
  m.LoadProgram(traces);
  std::uint64_t events = 0;
  BenchResult r = Measure(name, [&] { events = m.Run().events; }, [&] { return events; });
  std::size_t instrs = 0;
  std::size_t trace_bytes = 0;
  for (const arch::Trace& t : traces) {
    instrs += t.size();
    trace_bytes += t.capacity() * sizeof(arch::Instr);
  }
  r.run_state_bytes_per_instr =
      static_cast<double>(m.RunStateBytes()) / static_cast<double>(instrs);
  r.trace_bytes_per_instr = static_cast<double>(trace_bytes) / static_cast<double>(instrs);
  std::size_t window = 0;
  for (int n = 0; n < cfg.num_nodes(); ++n) window = std::max(window, m.core(n).window_slots());
  r.window_slots = static_cast<double>(window);
  if (!offload) {
    runtime::MachineOptions observe;
    observe.observe = true;
    runtime::Machine om(cfg, observe);
    om.LoadProgram(traces);
    std::shared_ptr<runtime::RunRecord> records = om.Run().records;
    r.record_bytes_per_candidate = static_cast<double>(records->Bytes()) /
                                   static_cast<double>(records->TotalInstances());
  }
  return r;
}

// --- Code generation ---------------------------------------------------------
// compiler::Lower over the 20 fig04 benchmarks at small scale; workload
// build (and, with `algorithm2`, Algorithm-2 compilation) stays off the
// clock. Lowering allocates per (core, nest), never per instruction, so
// allocs/instr stays near zero; the Algorithm-2 row also runs the CME gate
// once per pre-compute.

BenchResult LowerBench(const char* name, bool algorithm2) {
  arch::ArchConfig cfg;
  compiler::ArchDescription ad(cfg);
  compiler::CompileOptions opt;
  opt.mode = compiler::Mode::kAlgorithm2;
  std::vector<ir::Program> programs;
  for (const std::string& bench : workloads::BenchmarkNames()) {
    programs.push_back(workloads::BuildWorkload(bench, workloads::Scale::kSmall, 1));
    if (algorithm2) compiler::Compile(programs.back(), ad, opt);
  }
  std::uint64_t instrs = 0;
  return Measure(
      name,
      [&] {
        for (const ir::Program& p : programs) {
          instrs += compiler::Lower(p, cfg.num_nodes(), &cfg).total_instrs;
        }
      },
      [&] { return instrs; });
}

// ---------------------------------------------------------------------------

void WriteJson(const std::string& path, const std::vector<BenchResult>& rows,
               double speedup, std::uint64_t events_target) {
  using json::Value;
  Value benches = Value::Array();
  for (const BenchResult& r : rows) {
    Value row = Value::Object({{"name", Value::Str(r.name)},
                               {"events", Value::Int(r.events)},
                               {"seconds", Value::Double(r.seconds)},
                               {"events_per_sec", Value::Double(r.events_per_sec())},
                               {"ns_per_event", Value::Double(r.ns_per_event())},
                               {"allocs", Value::Int(r.allocs)},
                               {"allocs_per_event", Value::Double(r.allocs_per_event())}});
    if (r.run_state_bytes_per_instr >= 0) {
      row.obj["run_state_bytes_per_instr"] = Value::Double(r.run_state_bytes_per_instr);
      row.obj["trace_bytes_per_instr"] = Value::Double(r.trace_bytes_per_instr);
      row.obj["window_slots"] = Value::Double(r.window_slots);
    }
    if (r.record_bytes_per_candidate >= 0) {
      row.obj["record_bytes_per_candidate"] = Value::Double(r.record_bytes_per_candidate);
    }
    benches.arr.push_back(std::move(row));
  }
  Value report = Value::Object({{"benchmark", Value::Str("bench_substrate")},
                                {"events_target", Value::Int(events_target)},
                                {"speedup_vs_legacy", Value::Double(speedup)},
                                {"benches", std::move(benches)}});
  std::ofstream f(path);
  f << json::Dump(report) << "\n";
  if (!f) {
    std::fprintf(stderr, "bench_substrate: cannot write %s\n", path.c_str());
    std::exit(1);
  }
}

int Main(int argc, char** argv) {
  std::uint64_t events = 2'000'000;
  std::string out = "BENCH_substrate.json";
  cli::Parser("bench_substrate")
      .Unsigned("events", &events, "events per queue row; the MC and NoC rows run N/4 and N/8", 1)
      .String("out", &out, "FILE", "write the JSON report here (default BENCH_substrate.json)")
      .Parse(argc, argv);

  std::vector<BenchResult> rows;
  rows.push_back(ChainBench<sim::EventQueue>("calendar_chain", events));
  rows.push_back(ChainBench<sim::LegacyEventQueue>("legacy_chain", events));
  rows.push_back(MixedBench(events));
  rows.push_back(MemCtrlBench(events / 4));
  rows.push_back(NocBench(events / 8));

  double speedup = rows[1].events_per_sec() > 0
                       ? rows[0].events_per_sec() / rows[1].events_per_sec()
                       : 0.0;

  MachineBench("machine_swim_warmup", false);  // page-in + pool growth
  rows.push_back(MachineBench("machine_swim", false));
  rows.push_back(MachineBench("machine_offload", true));
  rows.push_back(LowerBench("lower_fig04", false));
  rows.push_back(LowerBench("lower_fig04_alg2", true));

  std::printf("# bench_substrate  (events=%llu)\n",
              static_cast<unsigned long long>(events));
  std::printf("%-24s %14s %12s %12s %16s\n", "bench", "events", "Mev/s", "ns/event",
              "allocs/event");
  for (const BenchResult& r : rows) {
    std::printf("%-24s %14llu %12.2f %12.2f %16.6f\n", r.name.c_str(),
                static_cast<unsigned long long>(r.events), r.events_per_sec() / 1e6,
                r.ns_per_event(), r.allocs_per_event());
  }
  for (const BenchResult& r : rows) {
    if (r.run_state_bytes_per_instr >= 0) {
      std::printf("%-24s %.2f run-state bytes/instr, %.2f trace bytes/instr, %.0f-slot window\n",
                  r.name.c_str(), r.run_state_bytes_per_instr, r.trace_bytes_per_instr,
                  r.window_slots);
    }
    if (r.record_bytes_per_candidate >= 0) {
      std::printf("%-24s %.2f observe-record bytes/candidate\n", r.name.c_str(),
                  r.record_bytes_per_candidate);
    }
  }
  std::printf("speedup_vs_legacy = %.2fx\n", speedup);
  WriteJson(out, rows, speedup, events);
  return 0;
}

}  // namespace
}  // namespace ndc

int main(int argc, char** argv) { return ndc::Main(argc, argv); }
