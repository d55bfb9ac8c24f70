// sim_baseline and sim_offload: one thread drives runtime::Machine directly
// over the 20 Figure-4 benchmarks at small scale, with the harness and the
// metrics::Experiment layer bypassed.
//
//  - Set-up builds each workload, lowers it, and for sim_offload compiles it
//    with Algorithm 2 and lowers the result. It is repeated and its median
//    reported, so work moved into set-up shows.
//  - A measured pass runs every machine once: for sim_baseline a plain run
//    per benchmark (candidates detected, nothing offloaded); for sim_offload
//    a Default always-wait run on the baseline traces plus a run of the
//    Algorithm-2 traces. Passes repeat until the measured phase has lasted
//    --seconds.
//  - Every run must conserve requests and reproduce the first pass exactly.

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "alloc_count.hpp"
#include "compiler/codegen.hpp"
#include "compiler/pipeline.hpp"
#include "fault/conservation.hpp"
#include "ndc/machine.hpp"
#include "ndc/policy.hpp"
#include "report.hpp"
#include "workloads/workloads.hpp"

namespace perfbench {
namespace {

using namespace ndc;

constexpr int kSetupRepeats = 5;
// Untraced passes run at least this often (about 20 s on a 4-vCPU Xeon),
// so each machine run's median spans the host's slower speed swings.
constexpr std::size_t kMinPassesBaseline = 7;
constexpr std::size_t kMinPassesOffload = 3;

/// One benchmark's set-up output.
struct Prepared {
  std::string name;
  arch::ArchConfig cfg;
  std::vector<arch::Trace> traces;
  arch::ArchConfig alg2_cfg;             // sim_offload only
  std::vector<arch::Trace> alg2_traces;  // sim_offload only
};

/// Host time per set-up layer, plus what set-up produced.
struct SetupCost {
  double total_s = 0, lower_s = 0, compile_s = 0;
  std::uint64_t instrs = 0, chains = 0, planned = 0;
};

std::vector<Prepared> Setup(std::uint64_t seed, bool offload, SetupCost* cost) {
  std::vector<Prepared> out;
  auto start = Clock::now();
  for (const std::string& name : workloads::BenchmarkNames()) {
    Prepared p;
    p.name = name;
    ir::Program prog = workloads::BuildWorkload(name, workloads::Scale::kSmall, seed);
    auto t = Clock::now();
    compiler::CodegenResult low = compiler::Lower(prog, p.cfg.num_nodes(), &p.cfg);
    cost->lower_s += SecondsSince(t);
    cost->instrs += low.total_instrs;
    p.traces = std::move(low.traces);

    if (offload) {
      // The configuration metrics::Experiment::RunCompiled simulates with.
      compiler::CompileOptions copt;
      copt.mode = compiler::Mode::kAlgorithm2;
      p.alg2_cfg = p.cfg;
      p.alg2_cfg.allow_reroute = copt.allow_reroute;
      p.alg2_cfg.control_register = copt.control_register;
      compiler::ArchDescription ad(p.alg2_cfg);
      t = Clock::now();
      compiler::CompileReport rep = compiler::Compile(prog, ad, copt);
      cost->compile_s += SecondsSince(t);
      cost->chains += rep.chains;
      cost->planned += rep.planned;

      t = Clock::now();
      compiler::CodegenResult low2 = compiler::Lower(prog, p.alg2_cfg.num_nodes(), &p.alg2_cfg);
      cost->lower_s += SecondsSince(t);
      cost->instrs += low2.total_instrs;
      p.alg2_traces = std::move(low2.traces);
    }
    out.push_back(std::move(p));
  }
  cost->total_s = SecondsSince(start);
  return out;
}

/// One machine run of a pass.
struct Job {
  std::string label;
  const arch::ArchConfig* cfg;
  const std::vector<arch::Trace>* traces;
  bool default_policy;
};

std::vector<Job> MakeJobs(const std::vector<Prepared>& prepared, bool offload) {
  std::vector<Job> jobs;
  for (const Prepared& p : prepared) {
    if (!offload) {
      jobs.push_back({p.name + "/baseline", &p.cfg, &p.traces, false});
    } else {
      jobs.push_back({p.name + "/Default", &p.cfg, &p.traces, true});
      jobs.push_back({p.name + "/Algorithm-2", &p.alg2_cfg, &p.alg2_traces, false});
    }
  }
  return jobs;
}

struct PassResult {
  std::vector<double> job_s;  // host seconds per job, set-up of its machine included
  // Traced passes only:
  double load_s = 0, run_s = 0;
  std::uint64_t run_allocs = 0;
  std::uint64_t core_issued = 0;  // not part of RunResult.stats
  std::vector<runtime::RunResult> runs;
  std::vector<bool> conserved;
};

PassResult RunPass(const std::vector<Job>& jobs, bool traced) {
  PassResult pass;
  SetAllocCounting(traced);
  for (const Job& job : jobs) {
    auto t0 = Clock::now();
    std::unique_ptr<runtime::Policy> policy;
    if (job.default_policy) policy = std::make_unique<runtime::AlwaysWaitPolicy>(*job.cfg);
    runtime::MachineOptions mopts;
    mopts.policy = policy.get();
    runtime::Machine m(*job.cfg, mopts);
    m.LoadProgram(*job.traces);
    if (traced) {
      Clock::time_point t1 = Clock::now();
      std::uint64_t a0 = ThreadAllocs();
      pass.runs.push_back(m.Run());
      pass.run_allocs += ThreadAllocs() - a0;
      pass.load_s += std::chrono::duration<double>(t1 - t0).count();
      pass.run_s += SecondsSince(t1);
      for (int n = 0; n < job.cfg->num_nodes(); ++n) {
        pass.core_issued += m.core(static_cast<sim::NodeId>(n)).stats().Get("core.issued");
      }
    } else {
      pass.runs.push_back(m.Run());
    }
    pass.conserved.push_back(fault::CheckConservation(m.GatherConservation()).ok);
    pass.job_s.push_back(SecondsSince(t0));
  }
  SetAllocCounting(false);
  return pass;
}

/// Host seconds of one pass, robust to bursts of host noise: the sum over
/// jobs of each job's median time across passes.
double PassSeconds(const std::vector<PassResult>& passes) {
  double total = 0;
  for (std::size_t j = 0; j < passes.front().job_s.size(); ++j) {
    std::vector<double> t;
    for (const PassResult& p : passes) t.push_back(p.job_s[j]);
    total += Median(t);
  }
  return total;
}

/// Every simulated output of a run, in a fixed text form.
std::string Canonical(const std::string& label, const runtime::RunResult& r) {
  std::ostringstream os;
  os << label << " makespan=" << r.makespan << " events=" << r.events << " l1=" << r.l1_hits
     << '/' << r.l1_misses << " l2=" << r.l2_hits << '/' << r.l2_misses
     << " cand=" << r.candidates << " skips=" << r.local_l1_skips << " off=" << r.offloads
     << " ok=" << r.ndc_success << " fb=" << r.fallbacks << " at=";
  for (std::uint64_t v : r.ndc_at_loc) os << v << ',';
  for (const auto& [k, v] : r.stats.all()) os << ' ' << k << '=' << v;
  return os.str();
}

void RunSimWorkload(const Options& opt, Report& report, bool offload) {
  std::vector<double> setup_total, setup_lower, setup_compile;
  SetupCost cost;
  std::vector<Prepared> prepared;
  for (int i = 0; i < kSetupRepeats; ++i) {
    cost = SetupCost{};
    prepared.clear();  // one set of traces alive at a time keeps peak RSS honest
    prepared = Setup(opt.seed, offload, &cost);
    setup_total.push_back(cost.total_s);
    setup_lower.push_back(cost.lower_s);
    setup_compile.push_back(cost.compile_s);
  }
  std::vector<Job> jobs = MakeJobs(prepared, offload);

  // Measured phase. A traced invocation first repeats the untraced passes
  // for half its time, as the reference for the tracing overhead.
  std::vector<PassResult> untraced, traced;
  double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
  auto start = Clock::now();
  std::size_t min_passes = opt.trace ? 1 : offload ? kMinPassesOffload : kMinPassesBaseline;
  while (untraced.size() < min_passes || SecondsSince(start) < budget) {
    untraced.push_back(RunPass(jobs, false));
  }
  if (opt.trace) {
    start = Clock::now();
    while (traced.empty() || SecondsSince(start) < budget) traced.push_back(RunPass(jobs, true));
  }

  // Correctness: conservation in every run, and every pass identical to the
  // first one.
  const PassResult& first = untraced.front();
  std::vector<std::string> canon;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    canon.push_back(Canonical(jobs[j].label, first.runs[j]));
    report.Digest(canon.back());
  }
  auto check = [&](const PassResult& pass, std::size_t index) {
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      bool same = Canonical(jobs[j].label, pass.runs[j]) == canon[j];
      report.Attempt(pass.conserved[j] && same,
                     jobs[j].label + " (pass " + std::to_string(index) + "): " +
                         (pass.conserved[j] ? "differs from the first pass"
                                            : "request conservation violated"));
    }
  };
  std::size_t index = 0;
  for (const PassResult& p : untraced) check(p, index++);
  for (const PassResult& p : traced) check(p, index++);

  double wall_s = PassSeconds(untraced);
  report.Metric("wall_s", wall_s, "s");
  report.Metric("setup_s", Median(setup_total), "s");
  if (!opt.trace) return;

  // Per-layer metrics from the traced passes.
  std::vector<double> load, run;
  for (const PassResult& p : traced) {
    load.push_back(p.load_s);
    run.push_back(p.run_s);
  }
  std::uint64_t events = 0;
  ModelTotals totals;
  for (const runtime::RunResult& r : first.runs) {
    events += r.events;
    totals.Add(r, r.stats.all());
  }
  totals.stats["core.issued"] = traced.front().core_issued;
  double run_s = Median(run);
  report.Metric("trace.overhead_s", PassSeconds(traced) - wall_s, "s");
  report.Metric("codegen.lower_s", Median(setup_lower), "s");
  report.Metric("codegen.instrs", static_cast<double>(cost.instrs), "count");
  if (offload) {
    report.Metric("compiler.compile_s", Median(setup_compile), "s");
    report.Metric("compiler.planned_frac", Ratio(cost.planned, cost.chains), "frac");
  }
  report.Metric("machine.load_s", Median(load), "s");
  report.Metric("machine.run_s", run_s, "s");
  report.Metric("sim.events", static_cast<double>(events), "count");
  report.Metric("sim.ns_per_event", run_s * 1e9 / static_cast<double>(events), "ns");
  report.Metric("sim.allocs_per_event",
                static_cast<double>(traced.front().run_allocs) / static_cast<double>(events),
                "allocs/event");
  totals.Emit(report);
  if (!offload) RunSubstrateProbes(opt, report);
}

}  // namespace

void RunSimBaseline(const Options& opt, Report& report) { RunSimWorkload(opt, report, false); }

void RunSimOffload(const Options& opt, Report& report) { RunSimWorkload(opt, report, true); }

}  // namespace perfbench
