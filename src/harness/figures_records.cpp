// Record-based figures: these consume the full per-candidate observation
// records (Section 4) or replay accesses through functional caches, so
// they render from per-benchmark reductions rather than from scalar cells.
// Each figure's reductions join the one plan of its ndc-sweep call
// (RunFigures): fig02, fig03 and fig05 read the observation run of the
// benchmark's shared Table-1 profile, and tab02's replays are plain tasks.
// Each reduction keeps only the small aggregate the renderer needs, so
// peak memory is bounded by the plan's live profiles.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/cme.hpp"
#include "compiler/codegen.hpp"
#include "fault/conservation.hpp"
#include "harness/figures.hpp"
#include "mem/address_map.hpp"
#include "mem/cache.hpp"
#include "ndc/record.hpp"
#include "sim/stats.hpp"

namespace ndc::harness {
namespace {

const std::array<arch::Loc, 4> kLocs = {arch::Loc::kLinkBuffer, arch::Loc::kCacheCtrl,
                                        arch::Loc::kMemCtrl, arch::Loc::kMemBank};

/// A read that hands `reduce` the observation run of `workload`'s Table-1
/// profile, at the options' scale and seed. The run must conserve requests
/// as every grid cell's measured run must (RunScheme); the read throws
/// std::runtime_error naming the figure, the workload and the report
/// otherwise.
PlanExtras::ObserveRead ReadObservation(const FigureOptions& opt, const std::string& workload,
                                        const char* figure,
                                        std::function<void(const runtime::RunResult&)> reduce) {
  CellSpec c;
  c.workload = workload;
  c.scale = opt.scale;
  c.seed = opt.seed;
  return {c, [figure, reduce = std::move(reduce)](metrics::Profile& profile) {
            const runtime::RunResult& obs = profile.Observe();
            fault::ConservationReport rep = fault::CheckConservation(obs.conservation);
            if (!rep.ok) {
              throw std::runtime_error(std::string(figure) + " observation run (" +
                                       profile.workload() + "): " + rep.ToString());
            }
            reduce(obs);
          }};
}

}  // namespace

// ---------------------------------------------------------------- fig02 ---

RecordFigure PlanFig02(const FigureOptions& opt) {
  const std::vector<std::string> names = FilteredWorkloads(opt);
  auto hists = std::make_shared<std::vector<std::array<sim::BucketHistogram, 4>>>(names.size());

  RecordFigure fig;
  for (std::size_t b = 0; b < names.size(); ++b) {
    fig.work.observe_reads.push_back(
        ReadObservation(opt, names[b], "fig02", [hists, b](const runtime::RunResult& obs) {
          std::array<sim::BucketHistogram, 4>& h = (*hists)[b];
          obs.records->ForEach([&](const runtime::InstanceRecord& rec) {
            if (rec.local_l1) return;
            for (std::size_t l = 0; l < kLocs.size(); ++l) {
              const runtime::LocObs& o = rec.at(kLocs[l]);
              if (!o.feasible) continue;  // the location can never serve this pair
              h[l].Add(o.Window());       // kNeverCycle falls into 500+
            }
          });
        }));
  }
  fig.render = [names, hists, opt] {
    PrintHeader("Figure 2: arrival-window CDF per NDC location", opt);
    const char* panel[4] = {"(a) link buffer", "(b) L2 controller", "(c) memory controller",
                            "(d) main memory"};
    for (std::size_t l = 0; l < kLocs.size(); ++l) {
      std::printf("\n%s — cumulative %% of windows <= bucket edge (paper truncates at 50%%)\n",
                  panel[l]);
      std::printf("%-10s %6s %6s %6s %6s %6s %6s %6s\n", "benchmark", "<=1", "<=10", "<=20",
                  "<=50", "<=100", "<=500", "500+");
      for (std::size_t b = 0; b < names.size(); ++b) {
        const sim::BucketHistogram& h = (*hists)[b][l];
        std::printf("%-10s", names[b].c_str());
        for (std::size_t e = 0; e < 6; ++e) {
          std::printf(" %5.1f%%", h.CumulativeFraction(e) * 100.0);
        }
        std::printf(" %5.1f%%\n", h.Fraction(6) * 100.0);
      }
    }
    std::printf("\npaper example: swim <=20cy at cache controller ~14.3%%, at MC ~7.7%%;\n"
                "applu <=20cy at cache ~26.7%% vs raytrace ~8.6%% — windows vary widely by\n"
                "benchmark and location.\n");
  };
  return fig;
}

// ---------------------------------------------------------------- fig03 ---

RecordFigure PlanFig03(const FigureOptions& opt) {
  struct PerWorkload {
    std::array<sim::BucketHistogram, 4> window;
    std::array<sim::BucketHistogram, 4> breakeven;
  };
  const std::vector<std::string> names = FilteredWorkloads(opt);
  auto parts = std::make_shared<std::vector<PerWorkload>>(names.size());

  RecordFigure fig;
  for (std::size_t b = 0; b < names.size(); ++b) {
    fig.work.observe_reads.push_back(
        ReadObservation(opt, names[b], "fig03", [parts, b](const runtime::RunResult& obs) {
          const arch::ArchConfig cfg;
          const noc::Mesh mesh(cfg.mesh_width, cfg.mesh_height);
          PerWorkload& part = (*parts)[b];
          obs.records->ForEach([&](const runtime::InstanceRecord& rec) {
            if (rec.local_l1) return;
            for (std::size_t l = 0; l < kLocs.size(); ++l) {
              const runtime::LocObs& o = rec.at(kLocs[l]);
              if (!o.feasible) continue;
              part.window[l].Add(o.Window());
              sim::Cycle ret = noc::ResultReturnLatency(mesh, cfg.noc, o.node, rec.core);
              part.breakeven[l].Add(runtime::BreakevenPoint(rec, kLocs[l], 1, ret));
            }
          });
        }));
  }
  fig.render = [parts, opt] {
    PrintHeader("Figure 3: breakeven points vs arrival windows", opt);
    // Histogram counts commute, so merging per-workload parts in name order
    // reproduces the serial accumulation exactly.
    std::array<sim::BucketHistogram, 4> window_h;
    std::array<sim::BucketHistogram, 4> breakeven_h;
    for (const PerWorkload& p : *parts) {
      for (std::size_t l = 0; l < kLocs.size(); ++l) {
        window_h[l].MergeFrom(p.window[l]);
        breakeven_h[l].MergeFrom(p.breakeven[l]);
      }
    }

    const char* loc_names[4] = {"link buffer", "cache controller", "memory controller",
                                "main memory"};
    std::printf("\n%% of samples per bucket (paper Figure 3 shape: breakevens skew low)\n");
    std::printf("%-18s %-10s %6s %6s %6s %6s %6s %6s %6s\n", "location", "metric", "<=1",
                "<=10", "<=20", "<=50", "<=100", "<=500", "500+");
    for (std::size_t l = 0; l < kLocs.size(); ++l) {
      for (int which = 0; which < 2; ++which) {
        const sim::BucketHistogram& h = which == 0 ? window_h[l] : breakeven_h[l];
        std::printf("%-18s %-10s", which == 0 ? loc_names[l] : "",
                    which == 0 ? "window" : "breakeven");
        for (std::size_t e = 0; e < 7; ++e) std::printf(" %5.1f%%", h.Fraction(e) * 100.0);
        std::printf("\n");
      }
    }

    std::printf("\nconclusion check: in every location, the fraction of breakevens <= 20cy "
                "should exceed the fraction of windows <= 20cy\n");
    for (std::size_t l = 0; l < kLocs.size(); ++l) {
      std::printf("  %-18s windows<=20: %5.1f%%   breakevens<=20: %5.1f%%\n", loc_names[l],
                  window_h[l].CumulativeFraction(2) * 100.0,
                  breakeven_h[l].CumulativeFraction(2) * 100.0);
    }
  };
  return fig;
}

// ---------------------------------------------------------------- fig05 ---

namespace {

// Consecutive windows (at most `want`) of the hottest (core, pc) pair of
// `obs` at its first feasible location.
std::vector<sim::Cycle> WindowTrace(const runtime::RunResult& obs, int want) {
  // (core, pc) -> sorted (compute_idx, window) samples
  std::map<std::pair<sim::NodeId, std::uint32_t>,
           std::vector<std::pair<std::uint32_t, sim::Cycle>>>
      by_pc;
  obs.records->ForEach([&](const runtime::InstanceRecord& rec) {
    if (rec.local_l1) return;
    for (arch::Loc loc : runtime::kTrialOrder) {
      const runtime::LocObs& o = rec.at(loc);
      if (!o.feasible) continue;
      by_pc[{rec.core, rec.pc}].push_back({rec.compute_idx, o.Window()});
      break;
    }
  });
  std::vector<std::pair<std::uint32_t, sim::Cycle>>* best = nullptr;
  for (auto& [key, v] : by_pc) {
    if (best == nullptr || v.size() > best->size()) best = &v;
  }
  std::vector<sim::Cycle> out;
  if (best == nullptr) return out;
  std::sort(best->begin(), best->end());
  for (const auto& [idx, w] : *best) {
    out.push_back(w);
    if (static_cast<int>(out.size()) >= want) break;
  }
  return out;
}

}  // namespace

RecordFigure PlanFig05(const FigureOptions& opt) {
  static constexpr std::array<const char*, 2> kNames = {"ocean", "radiosity"};
  auto traces = std::make_shared<std::array<std::vector<sim::Cycle>, 2>>();

  RecordFigure fig;
  for (std::size_t i = 0; i < kNames.size(); ++i) {
    fig.work.observe_reads.push_back(
        ReadObservation(opt, kNames[i], "fig05", [traces, i](const runtime::RunResult& obs) {
          (*traces)[i] = WindowTrace(obs, 30);
        }));
  }
  fig.render = [traces, opt] {
    PrintHeader(
        "Figure 5: 30 consecutive arrival windows of one instruction (ocean, radiosity)",
        opt);
    for (std::size_t i = 0; i < kNames.size(); ++i) {
      const std::vector<sim::Cycle>& trace = (*traces)[i];
      std::printf("\n%s (window cycles per consecutive execution; '-' = never met):\n  ",
                  kNames[i]);
      double mean = 0;
      int n = 0;
      for (sim::Cycle w : trace) {
        if (w == sim::kNeverCycle) {
          std::printf("  -");
        } else {
          std::printf(" %3llu", static_cast<unsigned long long>(w));
          mean += static_cast<double>(w);
          ++n;
        }
      }
      // Successive-difference variability: high values = hard to predict.
      double var = 0;
      int dn = 0;
      for (std::size_t j = 1; j < trace.size(); ++j) {
        if (trace[j] == sim::kNeverCycle || trace[j - 1] == sim::kNeverCycle) continue;
        double d = static_cast<double>(trace[j]) - static_cast<double>(trace[j - 1]);
        var += d * d;
        ++dn;
      }
      std::printf("\n  mean=%.1f, successive-diff RMS=%.1f (paper: windows fluctuate "
                  "unpredictably; Last-Wait mispredicts)\n",
                  n ? mean / n : 0.0, dn ? std::sqrt(var / dn) : 0.0);
    }
  };
  return fig;
}

// ---------------------------------------------------------------- tab02 ---

namespace {

struct Accuracy {
  std::uint64_t l1_correct = 0, l1_total = 0;
  std::uint64_t l2_correct = 0, l2_total = 0;
  double L1() const {
    return l1_total ? 100.0 * l1_correct / static_cast<double>(l1_total) : 0;
  }
  double L2() const {
    return l2_total ? 100.0 * l2_correct / static_cast<double>(l2_total) : 0;
  }
};

// Replays every memory operand access through functional caches (private L1
// per core, shared NUCA L2 banks, cores interleaved round-robin as in the
// parallel execution) and compares against the CME's per-access prediction.
Accuracy EvaluateCme(const std::string& name, workloads::Scale scale, std::uint64_t seed) {
  arch::ArchConfig cfg;
  ir::Program prog = workloads::BuildWorkload(name, scale, seed);
  mem::AddressMap amap = cfg.MakeAddressMap();
  int cores = cfg.num_nodes();

  std::vector<std::unique_ptr<mem::Cache>> l1;
  std::vector<std::unique_ptr<mem::Cache>> l2;
  for (int i = 0; i < cores; ++i) {
    l1.push_back(std::make_unique<mem::Cache>(cfg.l1));
    l2.push_back(std::make_unique<mem::Cache>(cfg.l2));
  }

  Accuracy acc;
  std::set<int> warm;
  for (const ir::LoopNest& nest : prog.nests) {
    analysis::CmePredictor cme(prog, nest, analysis::CacheSpec::From(cfg.l1),
                               analysis::CacheSpec::From(cfg.l2), cores, warm);
    // Interleave cores' iteration streams round-robin, approximating the
    // parallel execution the estimator cannot see (a known error source).
    std::vector<std::vector<ir::IntVec>> per_core(static_cast<std::size_t>(cores));
    nest.ForEachIteration([&](const ir::IntVec& iter) {
      per_core[static_cast<std::size_t>(compiler::CoreForIteration(nest, iter, cores))]
          .push_back(iter);
    });
    std::size_t longest = 0;
    for (const auto& v : per_core) longest = std::max(longest, v.size());
    for (std::size_t j = 0; j < longest; ++j) {
      for (int c = 0; c < cores; ++c) {
        const auto& iters = per_core[static_cast<std::size_t>(c)];
        if (j >= iters.size()) continue;
        const ir::IntVec& iter = iters[j];
        for (int s = 0; s < static_cast<int>(nest.body.size()); ++s) {
          const ir::Stmt& st = nest.body[static_cast<std::size_t>(s)];
          for (auto sel : {analysis::OperandSel::kRhs0, analysis::OperandSel::kRhs1}) {
            const ir::Operand& op = analysis::SelectOperand(st, sel);
            if (!op.IsMemory()) continue;
            auto addr = prog.ResolveAddr(op, iter);
            if (!addr.has_value()) continue;
            bool pred_l1_miss = cme.PredictMissL1(s, sel, iter);
            bool actual_l1_miss = !l1[static_cast<std::size_t>(c)]->Access(*addr);
            acc.l1_correct += pred_l1_miss == actual_l1_miss;
            ++acc.l1_total;
            if (actual_l1_miss) {
              l1[static_cast<std::size_t>(c)]->Fill(*addr);
              sim::NodeId home = amap.HomeBank(*addr);
              bool pred_l2_miss = cme.PredictMissL2(s, sel, iter);
              bool actual_l2_miss = !l2[static_cast<std::size_t>(home)]->Access(*addr);
              acc.l2_correct += pred_l2_miss == actual_l2_miss;
              ++acc.l2_total;
              if (actual_l2_miss) l2[static_cast<std::size_t>(home)]->Fill(*addr);
            }
          }
        }
      }
    }
    for (const ir::Stmt& st : nest.body) {
      for (const ir::Operand* o : {&st.rhs0, &st.rhs1, &st.lhs}) {
        if (!o->IsMemory()) continue;
        warm.insert(o->kind == ir::Operand::Kind::kIndirect ? o->target_array
                                                            : o->access.array);
      }
    }
  }
  return acc;
}

}  // namespace

RecordFigure PlanTab02(const FigureOptions& opt) {
  const std::vector<std::string> names = FilteredWorkloads(opt);
  auto accs = std::make_shared<std::vector<Accuracy>>(names.size());

  RecordFigure fig;
  for (std::size_t b = 0; b < names.size(); ++b) {
    fig.work.tasks.push_back([accs, b, name = names[b], scale = opt.scale, seed = opt.seed] {
      (*accs)[b] = EvaluateCme(name, scale, seed);
    });
  }
  fig.render = [names, accs, opt] {
    PrintHeader("Table 2: CME hit/miss estimation accuracy", opt);
    std::printf("%-10s %8s %8s\n", "benchmark", "L1", "L2");
    double l1_sum = 0, l2_sum = 0;
    int n = 0;
    for (std::size_t b = 0; b < names.size(); ++b) {
      const Accuracy& a = (*accs)[b];
      std::printf("%-10s %7.1f%% %7.1f%%\n", names[b].c_str(), a.L1(), a.L2());
      l1_sum += a.L1();
      l2_sum += a.L2();
      ++n;
    }
    if (n > 0) std::printf("%-10s %7.1f%% %7.1f%%\n", "average", l1_sum / n, l2_sum / n);
    std::printf("\npaper averages: L1 81.1%%, L2 72.9%% (misses dominated by effects the\n"
                "static estimator cannot see: cross-thread interleaving at the shared L2,\n"
                "irregular indirection, and conflict-model approximations)\n");
  };
  return fig;
}

}  // namespace ndc::harness
