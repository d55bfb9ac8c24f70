// sweep_fig04: harness::RunSweep over the Figure-4 grid (20 benchmarks x 10
// schemes = 200 cells) at small scale, result cache off, kSweepJobs workers
// in a closed loop. Sweeps repeat until the measured phase has lasted
// --seconds; one sweep outlasts the default 10 s.
//
// A traced invocation then runs the same 200 cells once more through the
// benchmark's own closed loop of harness::RunCell calls, one span per cell,
// which gives the per-cell times the sweep engine does not expose.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness/cell.hpp"
#include "harness/sweep.hpp"
#include "report.hpp"
#include "sim/stats.hpp"
#include "workloads/workloads.hpp"

namespace perfbench {
namespace {

using namespace ndc;
using metrics::Scheme;

constexpr int kSetupRepeats = 51;  // one build is ~20 us; a median of many is steady

const Scheme kFig04Schemes[] = {Scheme::kDefault,   Scheme::kOracle,  Scheme::kWait5,
                                Scheme::kWait10,    Scheme::kWait25,  Scheme::kWait50,
                                Scheme::kLastWait,  Scheme::kMarkov,  Scheme::kAlgorithm1,
                                Scheme::kAlgorithm2};
constexpr std::size_t kNumSchemes = std::size(kFig04Schemes);

/// Geomean improvements the paper reports for Figure 4 (GEM5, real SPEC OMP
/// and SPLASH-2 binaries), for the schemes it gives a single number for.
struct PaperValue {
  Scheme scheme;
  double pct;
};
const PaperValue kPaperFig04[] = {{Scheme::kDefault, -16.7},   {Scheme::kOracle, 29.3},
                                  {Scheme::kLastWait, -4.3},   {Scheme::kAlgorithm1, 22.5},
                                  {Scheme::kAlgorithm2, 25.2}};

harness::SweepSpec Fig04Spec(std::uint64_t seed) {
  harness::SweepSpec spec;
  spec.figure = "fig04";
  for (const std::string& w : workloads::BenchmarkNames()) {
    for (Scheme s : kFig04Schemes) {
      harness::CellSpec c;
      c.workload = w;
      c.scale = workloads::Scale::kSmall;
      c.seed = seed;
      c.scheme = s;
      spec.cells.push_back(c);
    }
  }
  return spec;
}

std::size_t SchemeIndex(Scheme s) {
  return static_cast<std::size_t>(std::find(std::begin(kFig04Schemes), std::end(kFig04Schemes), s) -
                                  std::begin(kFig04Schemes));
}

std::string Canonical(const harness::CellSpec& c, const harness::CellResult& r) {
  std::ostringstream os;
  os << c.workload << '/' << metrics::SchemeName(c.scheme) << " makespan=" << r.makespan
     << " base=" << r.baseline_makespan << " l1=" << r.l1_hits << '/' << r.l1_misses
     << " l2=" << r.l2_hits << '/' << r.l2_misses << " cand=" << r.candidates
     << " skips=" << r.local_l1_skips << " off=" << r.offloads << " ok=" << r.ndc_success
     << " fb=" << r.fallbacks << " at=";
  for (std::uint64_t v : r.ndc_at_loc) os << v << ',';
  os << " chains=" << r.chains << " planned=" << r.planned << " skips=" << r.reuse_skips
     << " legal=" << r.legality_failures << " gate=" << r.gating_failures
     << " xf=" << r.transforms;
  for (const auto& [k, v] : r.stats) os << ' ' << k << '=' << v;
  return os.str();
}

/// Benchmarks where the Oracle improves less than the best online policy
/// running the same original code.
int OracleLosses(const std::vector<harness::CellResult>& cells) {
  const Scheme online[] = {Scheme::kDefault, Scheme::kWait5,    Scheme::kWait10, Scheme::kWait25,
                           Scheme::kWait50,  Scheme::kLastWait, Scheme::kMarkov};
  int losses = 0;
  for (std::size_t base = 0; base < cells.size(); base += kNumSchemes) {
    double best = -1e300;
    for (Scheme s : online) best = std::max(best, cells[base + SchemeIndex(s)].ImprovementPct());
    if (cells[base + SchemeIndex(Scheme::kOracle)].ImprovementPct() < best) ++losses;
  }
  return losses;
}

/// Mean absolute gap (percentage points) between this sweep's geomean
/// improvements and the paper's, computed as the fig04 table computes them.
double PaperGapPp(const std::vector<harness::CellResult>& cells) {
  double gap = 0;
  for (const PaperValue& pv : kPaperFig04) {
    std::vector<double> ratios;
    for (std::size_t base = 0; base < cells.size(); base += kNumSchemes) {
      const harness::CellResult& r = cells[base + SchemeIndex(pv.scheme)];
      ratios.push_back(static_cast<double>(r.baseline_makespan) /
                       static_cast<double>(std::max<std::uint64_t>(1, r.makespan)));
    }
    double geomean_pct = (1.0 - 1.0 / sim::GeometricMean(ratios)) * 100.0;
    gap += std::fabs(geomean_pct - pv.pct);
  }
  return gap / static_cast<double>(std::size(kPaperFig04));
}

/// Runs every cell through harness::RunCell on kSweepJobs threads, each
/// taking the next cell when its last one finishes, and times each call.
std::vector<harness::CellResult> TracedCells(const harness::SweepSpec& spec,
                                             std::vector<double>* cell_s, double* wall_s) {
  std::vector<harness::CellResult> out(spec.cells.size());
  cell_s->assign(spec.cells.size(), 0.0);
  std::atomic<std::size_t> next{0};
  auto start = Clock::now();
  {
    std::vector<std::jthread> workers;
    for (int w = 0; w < kSweepJobs; ++w) {
      workers.emplace_back([&] {
        for (std::size_t i; (i = next.fetch_add(1)) < spec.cells.size();) {
          auto t = Clock::now();
          out[i] = harness::RunCell(spec.cells[i]);
          (*cell_s)[i] = SecondsSince(t);
        }
      });
    }
  }
  *wall_s = SecondsSince(start);
  return out;
}

double PhaseSeconds(const harness::SweepSummary& s, const char* phase) {
  auto it = s.phase_ms.find(phase);
  return it == s.phase_ms.end() ? 0.0 : static_cast<double>(it->second) / 1000.0;
}

}  // namespace

void RunSweepFig04(const Options& opt, Report& report) {
  std::vector<double> setup;
  harness::SweepSpec spec;
  for (int i = 0; i < kSetupRepeats; ++i) {
    auto t = Clock::now();
    spec = Fig04Spec(opt.seed);
    setup.push_back(SecondsSince(t));
  }
  harness::SweepOptions so;
  so.jobs = kSweepJobs;
  so.use_cache = false;

  std::vector<harness::SweepResult> sweeps;
  std::vector<double> walls;
  double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
  auto start = Clock::now();
  while (sweeps.empty() || SecondsSince(start) < budget) {
    auto t = Clock::now();
    sweeps.push_back(harness::RunSweep(spec, so));
    walls.push_back(SecondsSince(t));
  }
  const std::vector<harness::CellResult>& cells = sweeps.front().cells;

  std::vector<double> cell_s;
  double traced_wall = 0;
  std::vector<harness::CellResult> traced;
  if (opt.trace) traced = TracedCells(spec, &cell_s, &traced_wall);

  // Correctness: every offload resolves, and every repeat (the traced cells
  // included) reproduces the first sweep.
  std::vector<std::string> canon;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    canon.push_back(Canonical(spec.cells[i], cells[i]));
    report.Digest(canon.back());
  }
  auto check = [&](const std::vector<harness::CellResult>& rs, std::size_t index) {
    for (std::size_t i = 0; i < rs.size(); ++i) {
      bool resolved = rs[i].offloads == rs[i].ndc_success + rs[i].fallbacks;
      bool same = Canonical(spec.cells[i], rs[i]) == canon[i];
      report.Attempt(resolved && same,
                     spec.cells[i].workload + "/" + spec.cells[i].SchemeLabel() + " (repeat " +
                         std::to_string(index) + "): " +
                         (resolved ? "differs from the first sweep"
                                   : "offloads != ndc_success + fallbacks"));
    }
  };
  std::size_t index = 0;
  for (const harness::SweepResult& s : sweeps) check(s.cells, index++);
  if (opt.trace) check(traced, index++);

  double wall_s = Median(walls);
  report.Metric("wall_s", wall_s, "s");
  report.Metric("setup_s", Median(setup), "s");
  report.Metric("oracle_losses", OracleLosses(cells), "count");
  report.Metric("paper_gap_pp", PaperGapPp(cells), "pp");
  if (!opt.trace) return;

  const harness::SweepSummary& sum = sweeps.front().summary;
  double phase_total = 0;
  for (const auto& [name, ms] : sum.phase_ms) phase_total += static_cast<double>(ms) / 1000.0;
  double elapsed = static_cast<double>(sum.elapsed_ms) / 1000.0;
  report.Metric("trace.overhead_s", traced_wall - wall_s, "s");
  report.Metric("harness.sim_events_per_cell", Ratio(sum.sim_events, sum.cells), "count");
  report.Metric("harness.worker_busy_frac", phase_total / (elapsed * sum.jobs), "frac");
  report.Metric("harness.cell_p50_s", Median(cell_s), "s");
  report.Metric("harness.cell_max_s", *std::max_element(cell_s.begin(), cell_s.end()), "s");
  report.Metric("phase.simulate_cpu_s", PhaseSeconds(sum, "simulate"), "s");
  report.Metric("phase.lower_cpu_s", PhaseSeconds(sum, "lower_traces"), "s");
  report.Metric("phase.compile_cpu_s", PhaseSeconds(sum, "compile"), "s");
  if (sum.sim_events > 0) {
    report.Metric("sim.ns_per_event",
                  PhaseSeconds(sum, "simulate") * 1e9 / static_cast<double>(sum.sim_events),
                  "ns");
  }

  ModelTotals totals;
  std::uint64_t chains = 0, planned = 0;
  for (const harness::CellResult& r : cells) {
    totals.Add(r, r.stats);
    chains += r.chains;
    planned += r.planned;
  }
  report.Metric("compiler.planned_frac", Ratio(planned, chains), "frac");
  totals.Emit(report);
}

}  // namespace perfbench
