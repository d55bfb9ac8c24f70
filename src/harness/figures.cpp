#include "harness/figures.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "sim/stats.hpp"

namespace ndc::harness {

std::vector<std::string> FilteredWorkloads(const FigureOptions& opt) {
  std::vector<std::string> out;
  for (const std::string& name : workloads::BenchmarkNames()) {
    if (opt.only.empty() || name == opt.only) out.push_back(name);
  }
  return out;
}

void PrintHeader(const char* what, const FigureOptions& opt) {
  std::printf("# %s  (scale=%s, Table-1 configuration)\n", what, ScaleName(opt.scale));
}

namespace {

CellSpec MakeCell(const FigureOptions& opt, const std::string& w, metrics::Scheme s) {
  CellSpec c;
  c.workload = w;
  c.scale = opt.scale;
  c.seed = opt.seed;
  c.scheme = s;
  return c;
}

/// Baseline-to-scheme speedup ratio, as the pre-harness binaries computed it.
double RatioOf(const CellResult& r) {
  return static_cast<double>(r.baseline_makespan) /
         static_cast<double>(std::max<std::uint64_t>(1, r.makespan));
}

double GeomeanPct(const std::vector<double>& ratios) {
  return (1.0 - 1.0 / sim::GeometricMean(ratios)) * 100.0;
}

// ---------------------------------------------------------------- fig04 ---

const std::vector<metrics::Scheme>& Fig04Schemes() {
  static const std::vector<metrics::Scheme> schemes = {
      metrics::Scheme::kDefault, metrics::Scheme::kOracle,  metrics::Scheme::kWait5,
      metrics::Scheme::kWait10,  metrics::Scheme::kWait25,  metrics::Scheme::kWait50,
      metrics::Scheme::kLastWait, metrics::Scheme::kMarkov,
      metrics::Scheme::kAlgorithm1, metrics::Scheme::kAlgorithm2};
  return schemes;
}

SweepSpec BuildFig04(const FigureOptions& opt) {
  SweepSpec spec;
  spec.figure = "fig04";
  for (const std::string& w : FilteredWorkloads(opt)) {
    for (metrics::Scheme s : Fig04Schemes()) spec.cells.push_back(MakeCell(opt, w, s));
  }
  return spec;
}

void RenderFig04(const FigureOptions& opt, const SweepSpec& spec, const SweepResult& res) {
  const auto& schemes = Fig04Schemes();
  std::printf("# Figure 4: performance improvement (%%) over the original execution\n");
  std::printf("%-10s", "benchmark");
  for (metrics::Scheme s : schemes) std::printf(" %11s", metrics::SchemeName(s));
  std::printf("\n");

  std::vector<std::vector<double>> ratios(schemes.size());
  std::size_t cell = 0;
  for (std::size_t w = 0; w * schemes.size() < spec.cells.size(); ++w) {
    std::printf("%-10s", spec.cells[cell].workload.c_str());
    for (std::size_t i = 0; i < schemes.size(); ++i, ++cell) {
      const CellResult& r = res.cells[cell];
      std::printf(" %+10.1f%%", r.ImprovementPct());
      ratios[i].push_back(RatioOf(r));
    }
    std::printf("\n");
  }
  if (opt.only.empty()) {
    std::printf("%-10s", "geomean");
    for (std::size_t i = 0; i < schemes.size(); ++i) {
      std::printf(" %+10.1f%%", GeomeanPct(ratios[i]));
    }
    std::printf("\n");
    std::printf("\npaper:   Default -16.7%%, Oracle +29.3%%, Wait(5..50%%) -15.1..-13.4%%, "
                "LastWait -4.3%% (Markov similar), Alg-1 +22.5%%, Alg-2 +25.2%%\n");
  }
}

// -------------------------------------------------------- fig06 / fig13 ---

SweepSpec BuildOneSchemeGrid(const char* figure, metrics::Scheme scheme,
                             const FigureOptions& opt) {
  SweepSpec spec;
  spec.figure = figure;
  for (const std::string& w : FilteredWorkloads(opt)) {
    spec.cells.push_back(MakeCell(opt, w, scheme));
  }
  return spec;
}

SweepSpec BuildFig06(const FigureOptions& opt) {
  return BuildOneSchemeGrid("fig06", metrics::Scheme::kOracle, opt);
}

SweepSpec BuildFig13(const FigureOptions& opt) {
  return BuildOneSchemeGrid("fig13", metrics::Scheme::kAlgorithm1, opt);
}

double LocPct(const CellResult& r, arch::Loc l) {
  double total = 0;
  for (std::uint64_t v : r.ndc_at_loc) total += static_cast<double>(v);
  return total == 0 ? 0.0
                    : 100.0 * static_cast<double>(r.ndc_at_loc[static_cast<std::size_t>(l)]) /
                          total;
}

/// Shared body of the two location-breakdown figures (per-benchmark rows +
/// running average); returns via out-params what fig13's footer needs.
void RenderLocationBreakdown(const SweepSpec& spec, const SweepResult& res,
                             std::uint64_t* total_ndc, std::uint64_t* total_arith) {
  std::printf("%-10s %8s %8s %8s %8s   (share of NDC computations)\n", "benchmark", "cache",
              "network", "MC", "memory");
  std::array<double, 4> sum{};
  int n = 0;
  for (std::size_t i = 0; i < spec.cells.size(); ++i) {
    const CellResult& r = res.cells[i];
    double total = 0;
    for (std::uint64_t v : r.ndc_at_loc) total += static_cast<double>(v);
    double c = LocPct(r, arch::Loc::kCacheCtrl), net = LocPct(r, arch::Loc::kLinkBuffer),
           mc = LocPct(r, arch::Loc::kMemCtrl), mem = LocPct(r, arch::Loc::kMemBank);
    std::printf("%-10s %7.1f%% %7.1f%% %7.1f%% %7.1f%%   (%llu NDC ops)\n",
                spec.cells[i].workload.c_str(), c, net, mc, mem,
                static_cast<unsigned long long>(r.ndc_success));
    if (total > 0) {
      sum[0] += c;
      sum[1] += net;
      sum[2] += mc;
      sum[3] += mem;
      ++n;
    }
    if (total_ndc != nullptr) *total_ndc += r.ndc_success;
    if (total_arith != nullptr) {
      *total_arith += r.Stat("core.computes") + r.Stat("core.precomputes");
    }
  }
  if (n > 0) {
    std::printf("%-10s %7.1f%% %7.1f%% %7.1f%% %7.1f%%\n", "average", sum[0] / n, sum[1] / n,
                sum[2] / n, sum[3] / n);
  }
}

void RenderFig06(const FigureOptions& opt, const SweepSpec& spec, const SweepResult& res) {
  PrintHeader("Figure 6: oracle NDC-location breakdown", opt);
  RenderLocationBreakdown(spec, res, nullptr, nullptr);
  std::printf("\npaper averages: cache 25.9%%, network 36%%, MC 21.7%%, memory 16.4%%\n");
}

void RenderFig13(const FigureOptions& opt, const SweepSpec& spec, const SweepResult& res) {
  PrintHeader("Figure 13: Algorithm-1 NDC-location breakdown", opt);
  std::uint64_t total_ndc = 0, total_arith = 0;
  RenderLocationBreakdown(spec, res, &total_ndc, &total_arith);
  if (total_arith > 0) {
    std::printf("\nfraction of arithmetic/logic instructions executed near data: %.1f%% "
                "(paper footnote: ~32%%)\n",
                100.0 * static_cast<double>(total_ndc) / static_cast<double>(total_arith));
  }
  std::printf("paper: most Algorithm-1 NDC happens in the network, then cache banks and "
              "MCs; distribution similar to the oracle's (Figure 6)\n");
}

// ---------------------------------------------------------------- fig14 ---

struct MaskConfig {
  const char* name;
  std::uint8_t mask;
};

const MaskConfig kFig14Configs[] = {
    {"cache", arch::LocBit(arch::Loc::kCacheCtrl)},
    {"network", arch::LocBit(arch::Loc::kLinkBuffer)},
    {"MC", arch::LocBit(arch::Loc::kMemCtrl)},
    {"memory", arch::LocBit(arch::Loc::kMemBank)},
    {"all", arch::kAllLocs},
};

SweepSpec BuildFig14(const FigureOptions& opt) {
  SweepSpec spec;
  spec.figure = "fig14";
  for (const std::string& w : FilteredWorkloads(opt)) {
    for (const MaskConfig& c : kFig14Configs) {
      CellSpec cell = MakeCell(opt, w, metrics::Scheme::kAlgorithm1);
      cell.cfg.control_register = c.mask;
      cell.variant = c.name;
      spec.cells.push_back(cell);
    }
  }
  return spec;
}

void RenderFig14(const FigureOptions& opt, const SweepSpec& spec, const SweepResult& res) {
  PrintHeader("Figure 14: Algorithm 1 restricted to one component", opt);
  std::printf("%-10s", "benchmark");
  for (const MaskConfig& c : kFig14Configs) std::printf(" %9s", c.name);
  std::printf("   (improvement %% over baseline)\n");

  std::vector<std::vector<double>> ratios(5);
  std::size_t cell = 0;
  for (std::size_t w = 0; w * 5 < spec.cells.size(); ++w) {
    std::printf("%-10s", spec.cells[cell].workload.c_str());
    for (std::size_t i = 0; i < 5; ++i, ++cell) {
      const CellResult& r = res.cells[cell];
      std::printf(" %+8.1f%%", r.ImprovementPct());
      ratios[i].push_back(RatioOf(r));
    }
    std::printf("\n");
  }
  std::printf("%-10s", "geomean");
  for (std::size_t i = 0; i < 5; ++i) std::printf(" %+8.1f%%", GeomeanPct(ratios[i]));
  std::printf("\n\npaper: exploiting all four locations together is critical; isolated\n"
              "per-location savings sum to more than the combined saving.\n");
}

// ---------------------------------------------------------------- fig15 ---

SweepSpec BuildFig15(const FigureOptions& opt) {
  SweepSpec spec;
  spec.figure = "fig15";
  for (const std::string& w : FilteredWorkloads(opt)) {
    spec.cells.push_back(MakeCell(opt, w, metrics::Scheme::kAlgorithm1));
    spec.cells.push_back(MakeCell(opt, w, metrics::Scheme::kAlgorithm2));
  }
  return spec;
}

void RenderFig15(const FigureOptions& opt, const SweepSpec& spec, const SweepResult& res) {
  PrintHeader("Figure 15: NDC opportunities exercised by Algorithm 2", opt);
  std::printf("%-10s %14s %14s %12s\n", "benchmark", "static chains", "dyn. offloads",
              "exercised");
  double sum = 0;
  int n = 0;
  for (std::size_t i = 0; i + 1 < spec.cells.size(); i += 2) {
    const CellResult& a1 = res.cells[i];
    const CellResult& a2 = res.cells[i + 1];
    double dyn = a1.offloads == 0 ? 100.0
                                  : 100.0 * static_cast<double>(a2.offloads) /
                                        static_cast<double>(a1.offloads);
    dyn = std::min(dyn, 100.0);
    std::printf("%-10s %8llu/%-5llu %8llu/%-5llu %10.1f%%\n",
                spec.cells[i].workload.c_str(),
                static_cast<unsigned long long>(a2.planned),
                static_cast<unsigned long long>(a1.planned),
                static_cast<unsigned long long>(a2.offloads),
                static_cast<unsigned long long>(a1.offloads), dyn);
    if (a1.offloads > 0) {
      sum += dyn;
      ++n;
    }
  }
  if (n > 0) std::printf("%-10s %14s %14s %10.1f%%\n", "average", "", "", sum / n);
  std::printf("\npaper: Algorithm 2 exercises 81.8%% of opportunities on average; the rest\n"
              "are bypassed because an operand is reused after the computation.\n");
}

// ---------------------------------------------------------------- fig16 ---

SweepSpec BuildFig16(const FigureOptions& opt) {
  SweepSpec spec = BuildFig15(opt);
  spec.figure = "fig16";
  return spec;
}

void RenderFig16(const FigureOptions& opt, const SweepSpec& spec, const SweepResult& res) {
  PrintHeader("Figure 16: L1/L2 miss rates, Algorithm 1 vs Algorithm 2", opt);
  std::printf("%-10s | %9s %9s | %9s %9s |\n", "benchmark", "L1 alg-1", "L1 alg-2",
              "L2 alg-1", "L2 alg-2");
  int lower_l1 = 0, lower_l2 = 0, n = 0;
  for (std::size_t i = 0; i + 1 < spec.cells.size(); i += 2) {
    const CellResult& a1 = res.cells[i];
    const CellResult& a2 = res.cells[i + 1];
    std::printf("%-10s | %8.1f%% %8.1f%% | %8.1f%% %8.1f%% |%s\n",
                spec.cells[i].workload.c_str(), a1.L1MissRate() * 100,
                a2.L1MissRate() * 100, a1.L2MissRate() * 100, a2.L2MissRate() * 100,
                a2.L1MissRate() <= a1.L1MissRate() ? "" : "  (alg-2 higher)");
    lower_l1 += a2.L1MissRate() <= a1.L1MissRate() + 1e-9;
    lower_l2 += a2.L2MissRate() <= a1.L2MissRate() + 1e-9;
    ++n;
  }
  std::printf("\nAlgorithm 2 miss rate <= Algorithm 1 in %d/%d (L1) and %d/%d (L2) "
              "benchmarks (paper: all 20 for both levels)\n",
              lower_l1, n, lower_l2, n);
}

// ---------------------------------------------------------------- fig17 ---

struct Fig17Variant {
  const char* name;
  void (*apply)(arch::ArchConfig&);
};

const Fig17Variant kFig17Variants[] = {
    {"default-5x5", [](arch::ArchConfig&) {}},
    {"mesh-4x4",
     [](arch::ArchConfig& c) {
       c.mesh_width = 4;
       c.mesh_height = 4;
     }},
    {"mesh-6x6",
     [](arch::ArchConfig& c) {
       c.mesh_width = 6;
       c.mesh_height = 6;
     }},
    {"L2-256KB", [](arch::ArchConfig& c) { c.l2.size_bytes = 256 * 1024; }},
    {"L2-1MB", [](arch::ArchConfig& c) { c.l2.size_bytes = 1024 * 1024; }},
    {"ops-addsub-only", [](arch::ArchConfig& c) { c.restrict_ops_to_addsub = true; }},
};

const metrics::Scheme kFig17Schemes[] = {metrics::Scheme::kAlgorithm1,
                                         metrics::Scheme::kAlgorithm2,
                                         metrics::Scheme::kOracle};

SweepSpec BuildFig17(const FigureOptions& opt) {
  SweepSpec spec;
  spec.figure = "fig17";
  for (const Fig17Variant& v : kFig17Variants) {
    for (const std::string& w : FilteredWorkloads(opt)) {
      for (metrics::Scheme s : kFig17Schemes) {
        CellSpec cell = MakeCell(opt, w, s);
        v.apply(cell.cfg);
        cell.variant = v.name;
        spec.cells.push_back(cell);
      }
    }
  }
  return spec;
}

void RenderFig17(const FigureOptions& opt, const SweepSpec& spec, const SweepResult& res) {
  PrintHeader("Figure 17: sensitivity to mesh size, L2 capacity, op set", opt);
  std::printf("%-16s %12s %12s %12s   (geomean improvement over the variant's own "
              "baseline)\n",
              "variant", "Algorithm-1", "Algorithm-2", "Oracle");
  std::size_t per_variant = spec.cells.size() / std::size(kFig17Variants);
  std::size_t cell = 0;
  for (const Fig17Variant& v : kFig17Variants) {
    std::vector<double> r1, r2, ro;
    for (std::size_t i = 0; i < per_variant; i += 3, cell += 3) {
      r1.push_back(RatioOf(res.cells[cell]));
      r2.push_back(RatioOf(res.cells[cell + 1]));
      ro.push_back(RatioOf(res.cells[cell + 2]));
    }
    std::printf("%-16s %+11.1f%% %+11.1f%% %+11.1f%%\n", v.name, GeomeanPct(r1),
                GeomeanPct(r2), GeomeanPct(ro));
  }
  std::printf("\npaper findings: benefits grow with mesh size (more NDC locations);\n"
              "insensitive to L2 capacity (the NDC location shifts, the amount does not);\n"
              "restricting ops to +/- still yields 14.1%% / 16.5%% for Alg-1 / Alg-2.\n");
}

// ------------------------------------------------------------------ abl ---

SweepSpec BuildAbl(const FigureOptions& opt) {
  SweepSpec spec;
  spec.figure = "abl";
  for (const std::string& w : FilteredWorkloads(opt)) {
    CellSpec fine = MakeCell(opt, w, metrics::Scheme::kAlgorithm1);
    fine.variant = "fine";
    spec.cells.push_back(fine);
    CellSpec noreroute = MakeCell(opt, w, metrics::Scheme::kAlgorithm1);
    noreroute.cfg.allow_reroute = false;
    noreroute.variant = "no-reroute";
    spec.cells.push_back(noreroute);
    CellSpec coarse = MakeCell(opt, w, metrics::Scheme::kAlgorithm1);
    coarse.coarse_grain = true;
    coarse.variant = "coarse";
    spec.cells.push_back(coarse);
  }
  return spec;
}

void RenderAbl(const FigureOptions& opt, const SweepSpec& spec, const SweepResult& res) {
  PrintHeader("Ablations: route co-selection and mapping granularity", opt);
  std::printf("%-10s | %10s %10s %7s | %9s %9s\n", "benchmark", "router NDC",
              "no-reroute", "drop", "coarse-1", "fine-1");
  double router_with = 0, router_without = 0;
  std::vector<double> coarse_ratio, fine_ratio;
  for (std::size_t i = 0; i + 2 < spec.cells.size(); i += 3) {
    const CellResult& rw = res.cells[i];
    const CellResult& rwo = res.cells[i + 1];
    const CellResult& rc = res.cells[i + 2];
    std::uint64_t net_w = rw.ndc_at_loc[static_cast<std::size_t>(arch::Loc::kLinkBuffer)];
    std::uint64_t net_wo = rwo.ndc_at_loc[static_cast<std::size_t>(arch::Loc::kLinkBuffer)];
    double drop = net_w == 0
                      ? 0.0
                      : 100.0 * (static_cast<double>(net_w) - static_cast<double>(net_wo)) /
                            static_cast<double>(net_w);
    std::printf("%-10s | %10llu %10llu %6.1f%% | %+8.1f%% %+8.1f%%\n",
                spec.cells[i].workload.c_str(), static_cast<unsigned long long>(net_w),
                static_cast<unsigned long long>(net_wo), drop, rc.ImprovementPct(),
                rw.ImprovementPct());
    router_with += static_cast<double>(net_w);
    router_without += static_cast<double>(net_wo);
    coarse_ratio.push_back(RatioOf(rc));
    fine_ratio.push_back(RatioOf(rw));
  }
  double total_drop =
      router_with == 0 ? 0.0 : 100.0 * (router_with - router_without) / router_with;
  std::printf("\nrouter NDC reduction without rerouting: %.1f%% (paper: ~40%%)\n",
              total_drop);
  std::printf("coarse-grain geomean improvement: %+.1f%% vs fine-grain %+.1f%% "
              "(paper: 1.2%% vs 22.5%% — fine-grain mapping is critical)\n",
              GeomeanPct(coarse_ratio), GeomeanPct(fine_ratio));
}

// ------------------------------------------------------ diag_congestion ---

const int kCongestionMlp[] = {8, 16, 32};

SweepSpec BuildDiagCongestion(const FigureOptions& opt) {
  SweepSpec spec;
  spec.figure = "diag_congestion";
  for (int mlp : kCongestionMlp) {
    for (metrics::Scheme s : {metrics::Scheme::kBaseline, metrics::Scheme::kOracle,
                              metrics::Scheme::kAlgorithm1}) {
      CellSpec cell = MakeCell(opt, "md", s);
      cell.cfg.max_outstanding_loads = mlp;
      char label[16];
      std::snprintf(label, sizeof(label), "mlp=%d", mlp);
      cell.variant = label;
      spec.cells.push_back(cell);
    }
  }
  return spec;
}

void RenderDiagCongestion(const FigureOptions&, const SweepSpec&, const SweepResult& res) {
  std::size_t cell = 0;
  for (int mlp : kCongestionMlp) {
    const CellResult& base = res.cells[cell];
    const CellResult& orc = res.cells[cell + 1];
    const CellResult& a1 = res.cells[cell + 2];
    cell += 3;
    std::printf("mlp=%2d base=%8llu contention=%8llu mcwait=%8llu | oracle %+5.1f%% "
                "(ndc=%llu) | alg1 %+5.1f%% (ndc=%llu)\n",
                mlp, static_cast<unsigned long long>(base.makespan),
                static_cast<unsigned long long>(base.Stat("noc.contention_cycles")),
                static_cast<unsigned long long>(base.Stat("mc.queue_wait_cycles")),
                orc.ImprovementPct(), static_cast<unsigned long long>(orc.ndc_success),
                a1.ImprovementPct(), static_cast<unsigned long long>(a1.ndc_success));
  }
}

// ---------------------------------------------------------------- smoke ---

const metrics::Scheme kSmokeSchemes[] = {metrics::Scheme::kBaseline,
                                         metrics::Scheme::kOracle,
                                         metrics::Scheme::kAlgorithm1};

SweepSpec BuildSmoke(const FigureOptions& opt) {
  SweepSpec spec;
  spec.figure = "smoke";
  for (const std::string& w : FilteredWorkloads(opt)) {
    for (metrics::Scheme s : kSmokeSchemes) spec.cells.push_back(MakeCell(opt, w, s));
  }
  return spec;
}

void RenderSmoke(const FigureOptions& opt, const SweepSpec& spec, const SweepResult& res) {
  PrintHeader("Smoke sweep: baseline / Oracle / Algorithm-1", opt);
  std::printf("%-10s %12s %12s %12s\n", "benchmark", "baseline(cy)", "Oracle",
              "Algorithm-1");
  for (std::size_t i = 0; i + 2 < spec.cells.size(); i += 3) {
    std::printf("%-10s %12llu %+11.1f%% %+11.1f%%\n", spec.cells[i].workload.c_str(),
                static_cast<unsigned long long>(res.cells[i].makespan),
                res.cells[i + 1].ImprovementPct(), res.cells[i + 2].ImprovementPct());
  }
}

// -------------------------------------------------------------- registry ---

using BuildFn = SweepSpec (*)(const FigureOptions&);
using RenderFn = void (*)(const FigureOptions&, const SweepSpec&, const SweepResult&);
using RecordFn = SweepSummary (*)(const FigureOptions&);

struct FigureEntry {
  const char* name;
  const char* title;
  BuildFn build;      // grid figures
  RenderFn render;
  RecordFn record;    // record figures
};

const FigureEntry kFigures[] = {
    {"fig02", "arrival-window CDF per NDC location", nullptr, nullptr, &RunFig02},
    {"fig03", "breakeven points vs arrival windows", nullptr, nullptr, &RunFig03},
    {"fig04", "performance improvement per NDC scheme", &BuildFig04, &RenderFig04, nullptr},
    {"fig05", "consecutive arrival windows of one instruction", nullptr, nullptr,
     &RunFig05},
    {"fig06", "oracle NDC-location breakdown", &BuildFig06, &RenderFig06, nullptr},
    {"fig13", "Algorithm-1 NDC-location breakdown", &BuildFig13, &RenderFig13, nullptr},
    {"fig14", "Algorithm 1 restricted to one component", &BuildFig14, &RenderFig14,
     nullptr},
    {"fig15", "NDC opportunities exercised by Algorithm 2", &BuildFig15, &RenderFig15,
     nullptr},
    {"fig16", "L1/L2 miss rates, Algorithm 1 vs Algorithm 2", &BuildFig16, &RenderFig16,
     nullptr},
    {"fig17", "sensitivity to mesh size, L2 capacity, op set", &BuildFig17, &RenderFig17,
     nullptr},
    {"tab02", "CME hit/miss estimation accuracy", nullptr, nullptr, &RunTab02},
    {"abl", "route co-selection and mapping-granularity ablations", &BuildAbl, &RenderAbl,
     nullptr},
    {"diag_congestion", "baseline congestion vs MLP window (diagnostic)",
     &BuildDiagCongestion, &RenderDiagCongestion, nullptr},
    {"smoke", "all workloads x {Baseline, Oracle, Algorithm-1} (CI smoke)", &BuildSmoke,
     &RenderSmoke, nullptr},
};

/// `--export-obs`: writes the summary of each cell's traced run (RunSweep's
/// `obs_summaries`) into `dir`, one JSON file per cell in cell order.
void ExportObsSummaries(const SweepSpec& spec, const std::vector<json::Value>& summaries,
                        const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "ndc-harness: cannot create %s: %s\n", dir.c_str(),
                 ec.message().c_str());
    return;
  }
  for (std::size_t i = 0; i < spec.cells.size(); ++i) {
    const CellSpec& c = spec.cells[i];
    char idx[24];  // wide enough for any 64-bit index, silencing -Wformat-truncation
    std::snprintf(idx, sizeof(idx), "%03zu", i);
    std::string path = dir + "/" + spec.figure + "_" + idx + "_" + c.workload + "_" +
                       c.SchemeLabel() + ".json";
    std::ofstream f(path);
    if (!f) {
      std::fprintf(stderr, "ndc-harness: cannot write %s\n", path.c_str());
      return;
    }
    f << json::Dump(summaries[i]) << "\n";
  }
}

}  // namespace

const std::vector<FigureInfo>& Figures() {
  static const std::vector<FigureInfo> infos = [] {
    std::vector<FigureInfo> out;
    for (const FigureEntry& e : kFigures) {
      out.push_back({e.name, e.title, e.build != nullptr});
    }
    return out;
  }();
  return infos;
}

bool HasFigure(const std::string& name) {
  for (const FigureEntry& e : kFigures) {
    if (name == e.name) return true;
  }
  return false;
}

int RunFigure(const std::string& name, const FigureOptions& opt, SweepSummary* summary) {
  if (!opt.only.empty()) {
    const std::vector<std::string> names = workloads::BenchmarkNames();
    if (std::find(names.begin(), names.end(), opt.only) == names.end()) {
      std::fprintf(stderr, "unknown benchmark '%s'\n", opt.only.c_str());
      return 2;
    }
  }
  for (const FigureEntry& e : kFigures) {
    if (name != e.name) continue;
    int rc = 0;
    SweepSummary s;
    if (e.build != nullptr) {
      SweepSpec spec = e.build(opt);
      SweepOptions so;
      so.jobs = opt.jobs;
      so.use_cache = opt.use_cache;
      so.cache_dir = opt.cache_dir;
      so.progress = opt.progress;
      std::vector<json::Value> obs;
      SweepResult res = RunSweep(spec, so, opt.export_obs.empty() ? nullptr : &obs);
      e.render(opt, spec, res);
      std::fflush(stdout);
      if (!opt.export_jsonl.empty() && !ExportJsonl(spec, res, opt.export_jsonl)) {
        std::fprintf(stderr, "ndc-harness: cannot write %s\n", opt.export_jsonl.c_str());
        rc = 2;
      }
      if (!opt.export_csv.empty() && !ExportCsv(spec, res, opt.export_csv)) {
        std::fprintf(stderr, "ndc-harness: cannot write %s\n", opt.export_csv.c_str());
        rc = 2;
      }
      if (!opt.export_obs.empty()) ExportObsSummaries(spec, obs, opt.export_obs);
      s = res.summary;
    } else {
      s = e.record(opt);
      std::fflush(stdout);
    }
    if (summary != nullptr) *summary = s;
    return rc;
  }
  std::fprintf(stderr, "unknown figure '%s' (see ndc-sweep --list)\n", name.c_str());
  return 2;
}

}  // namespace ndc::harness
