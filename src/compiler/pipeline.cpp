#include "compiler/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "analysis/cme.hpp"
#include "analysis/dependence.hpp"
#include "analysis/reuse.hpp"
#include "analysis/use_use.hpp"
#include "compiler/codegen.hpp"
#include "verify/verify.hpp"

namespace ndc::compiler {
namespace {

using analysis::CmePredictor;
using analysis::OperandSel;

constexpr double kFeasibilityThreshold = 0.5;  ///< min fraction of iterations feasible
constexpr double kMissGate = 0.5;              ///< min CME miss probability to offload
constexpr int kSamplesPerChain = 32;           ///< iteration samples for the cost model

// The component trial order of Section 5.2.1: network router (L1-miss
// responses), L2 bank, network router again (L2-miss responses), memory
// queue, memory bank. The two router attempts both plan Loc::kLinkBuffer
// but differ in which path segment must overlap and in the CME gate.
enum class Target { kRouter1, kL2Bank, kRouter2, kMemQueue, kMemBank };

arch::Loc TargetLoc(Target t) {
  switch (t) {
    case Target::kRouter1:
    case Target::kRouter2: return arch::Loc::kLinkBuffer;
    case Target::kL2Bank: return arch::Loc::kCacheCtrl;
    case Target::kMemQueue: return arch::Loc::kMemCtrl;
    case Target::kMemBank: return arch::Loc::kMemBank;
  }
  return arch::Loc::kCacheCtrl;
}

struct SampleSet {
  std::vector<ir::IntVec> iters;
  std::vector<int> cores;
  std::vector<sim::Addr> a, b;
};

SampleSet CollectSamples(const ir::Program& prog, const ir::LoopNest& nest,
                         const ir::Stmt& stmt, int num_cores, int want) {
  SampleSet s;
  ir::Int total = nest.NumIterations();
  // Odd stride: avoid aliasing with cache-line / bank power-of-two periods.
  ir::Int step = std::max<ir::Int>(1, total / std::max(1, want)) | 1;
  ir::Int n = 0;
  nest.ForEachIteration([&](const ir::IntVec& iter) {
    if (n++ % step != 0) return;
    auto a = prog.ResolveAddr(stmt.rhs0, iter);
    auto b = prog.ResolveAddr(stmt.rhs1, iter);
    if (!a || !b) return;
    s.iters.push_back(iter);
    s.cores.push_back(CoreForIteration(nest, iter, num_cores));
    s.a.push_back(*a);
    s.b.push_back(*b);
  });
  return s;
}

// Fraction of samples where `target` is address-feasible. A router target
// needs the two operands' routes to share a link: their X-Y routes, or with
// `allow_reroute` the minimal routes `routes` co-selects for the most
// shared links (Section 5.2.1, challenge 3).
double FeasibleFraction(const ArchDescription& ad, noc::RouteTable& routes, const SampleSet& s,
                        Target target, bool allow_reroute) {
  if (s.iters.empty()) return 0.0;
  const mem::AddressMap& amap = ad.amap();
  auto share_a_link = [&](sim::NodeId a_src, sim::NodeId a_dst, sim::NodeId b_src,
                          sim::NodeId b_dst) {
    noc::RouteIdPair p = allow_reroute ? routes.MaxOverlapPair(a_src, a_dst, b_src, b_dst)
                                       : routes.XyPair(a_src, a_dst, b_src, b_dst);
    return p.shared_links > 0;
  };
  int ok = 0;
  for (std::size_t i = 0; i < s.iters.size(); ++i) {
    sim::Addr a = s.a[i], b = s.b[i];
    switch (target) {
      case Target::kL2Bank:
        ok += amap.HomeBank(a) == amap.HomeBank(b);
        break;
      case Target::kMemQueue:
        ok += amap.Mc(a) == amap.Mc(b);
        break;
      case Target::kMemBank:
        ok += amap.Mc(a) == amap.Mc(b) && amap.DramBank(a) == amap.DramBank(b);
        break;
      case Target::kRouter1: {
        sim::NodeId core = s.cores[i];
        ok += share_a_link(amap.HomeBank(a), core, amap.HomeBank(b), core);
        break;
      }
      case Target::kRouter2:
        ok += share_a_link(ad.McNode(a), amap.HomeBank(a), ad.McNode(b), amap.HomeBank(b));
        break;
    }
  }
  return static_cast<double>(ok) / static_cast<double>(s.iters.size());
}

struct GapEstimate {
  double gap_cycles = 0.0;      // lat(y@loc) - lat(x@loc), averaged
  sim::Cycle breakeven = 4;
};

GapEstimate EstimateGap(const ArchDescription& ad, const SampleSet& s, arch::Loc loc,
                        bool l2_miss_x, bool l2_miss_y) {
  GapEstimate g;
  if (s.iters.empty()) return g;
  double sum_gap = 0.0;
  double sum_breakeven = 0.0;
  int n = 0;
  for (std::size_t i = 0; i < s.iters.size(); ++i) {
    sim::NodeId core = s.cores[i];
    sim::Cycle lx = ad.EstDataAtLoc(core, s.a[i], loc, l2_miss_x);
    sim::Cycle ly = ad.EstDataAtLoc(core, s.b[i], loc, l2_miss_y);
    if (lx == sim::kNeverCycle || ly == sim::kNeverCycle) continue;
    sum_gap += static_cast<double>(ly) - static_cast<double>(lx);
    sim::Cycle conv = std::max(ad.EstDataAtCore(core, s.a[i], true, l2_miss_x),
                               ad.EstDataAtCore(core, s.b[i], true, l2_miss_y)) +
                      1;
    sim::NodeId loc_node = ad.LocNode(s.a[i], loc, core);
    sim::Cycle ret = ad.HopLatency(ad.mesh().Distance(loc_node, core), 8) +
                     ad.cfg().noc.router_pipeline;
    sim::Cycle first = std::min(lx, ly);
    sim::Cycle ndc_base = first + 1 + ret;
    sum_breakeven += ndc_base < conv ? static_cast<double>(conv - ndc_base) : 0.0;
    ++n;
  }
  if (n == 0) return g;
  g.gap_cycles = sum_gap / n;
  g.breakeven = std::max<sim::Cycle>(4, static_cast<sim::Cycle>(sum_breakeven / n));
  return g;
}

int InstrsPerIteration(const ir::LoopNest& nest) {
  int n = 0;
  for (const ir::Stmt& s : nest.body) {
    if (s.rhs0.IsMemory()) n += s.rhs0.kind == ir::Operand::Kind::kIndirect ? 2 : 1;
    if (s.rhs1.IsMemory()) n += s.rhs1.kind == ir::Operand::Kind::kIndirect ? 2 : 1;
    n += 1;  // compute
    if (s.lhs.IsMemory()) n += 1;
  }
  return std::max(1, n);
}

int OperandArray(const ir::Operand& op) {
  return op.kind == ir::Operand::Kind::kIndirect ? op.target_array : op.access.array;
}

}  // namespace

namespace {

// Post-pass audit (CompileOptions::verify_after): re-checks the annotated
// program with the independent verifier, mirroring the pipeline's own
// annotation limits.
void RunVerifier(const ir::Program& prog, const CompileOptions& opt, CompileReport* rep) {
  verify::VerifyOptions vo;
  vo.max_lead = opt.max_lead;
  vo.control_register = opt.control_register;
  rep->verify = verify::VerifyProgram(prog, vo);
}

}  // namespace

CompileReport Compile(ir::Program& prog, const ArchDescription& ad, const CompileOptions& opt) {
  CompileReport rep;
  if (opt.mode == Mode::kBaseline) {
    if (opt.verify_after) RunVerifier(prog, opt, &rep);
    return rep;
  }
  int num_cores = ad.cfg().num_nodes();
  noc::RouteTable routes(ad.mesh());
  analysis::CacheSpec l1 = analysis::CacheSpec::From(ad.cfg().l1);
  analysis::CacheSpec l2 = analysis::CacheSpec::From(ad.cfg().l2);

  std::set<int> warm_arrays;
  // Arrays referenced by nests after the current one (suffix sets): a
  // memory-side NDC computation squashes the L2 fill, so offloading an
  // array that a later nest re-reads starves that nest.
  std::vector<std::set<int>> later_arrays(prog.nests.size() + 1);
  for (int n = static_cast<int>(prog.nests.size()) - 1; n >= 0; --n) {
    later_arrays[static_cast<std::size_t>(n)] = later_arrays[static_cast<std::size_t>(n) + 1];
    for (const ir::Stmt& st : prog.nests[static_cast<std::size_t>(n)].body) {
      for (const ir::Operand* o : {&st.rhs0, &st.rhs1}) {
        if (!o->IsMemory()) continue;
        later_arrays[static_cast<std::size_t>(n)].insert(
            o->kind == ir::Operand::Kind::kIndirect ? o->target_array : o->access.array);
      }
    }
  }
  int nest_index = -1;
  for (ir::LoopNest& nest : prog.nests) {
    ++nest_index;
    analysis::DependenceSet deps = analysis::AnalyzeDependences(prog, nest);
    CmePredictor cme(prog, nest, l1, l2, num_cores, warm_arrays);
    auto chains = analysis::ExtractUseUseChains(nest);
    ir::Int inner_trip = 1;
    if (nest.depth() > 0) {
      const ir::Loop& inner = nest.loops.back();
      inner_trip = std::max<ir::Int>(1, inner.hi - inner.lo + 1);
    }
    double iter_cycles = InstrsPerIteration(nest) * ad.cpi();

    std::array<int, arch::kNumLocs> nest_loc_votes{};

    for (const analysis::UseUseChain& chain : chains) {
      ir::Stmt& stmt = nest.body[static_cast<std::size_t>(chain.stmt_idx)];
      ++rep.chains;

      // Algorithm 2 (Section 5.3): favor data locality whenever an operand
      // is reused beyond the computation (more than k times).
      if (opt.mode == Mode::kAlgorithm2) {
        // Element reuse (the paper's check) plus line (spatial) reuse: an
        // offload squashes the L1 line fill, so a spatially-reused operand
        // also loses locality.
        auto reuses = [&](const ir::Operand& op) {
          int n = analysis::CountFutureReuses(prog, nest, stmt, op, opt.reuse_k + 1);
          if (analysis::AnalyzeReuse(prog, nest, op, ad.cfg().l1.line_bytes).self_spatial) ++n;
          return n;
        };
        if (reuses(stmt.rhs0) > opt.reuse_k || reuses(stmt.rhs1) > opt.reuse_k) {
          ++rep.reuse_skips;
          continue;
        }
      }

      SampleSet samples = CollectSamples(prog, nest, stmt, num_cores, kSamplesPerChain);
      if (samples.iters.empty()) {
        ++rep.gating_failures;
        continue;
      }

      double miss_l1_x = cme.MissProbL1(chain.stmt_idx, OperandSel::kRhs0);
      double miss_l1_y = cme.MissProbL1(chain.stmt_idx, OperandSel::kRhs1);
      double miss_l2_x = cme.MissProbL2(chain.stmt_idx, OperandSel::kRhs0);
      double miss_l2_y = cme.MissProbL2(chain.stmt_idx, OperandSel::kRhs1);

      bool planned = false;
      // Trial order: "the order of components tried exactly matches the
      // path followed by a data access" (Section 5.2.1). For operands the
      // CME predicts L2-resident, the data path is L2 bank -> routers; for
      // predicted L2 misses the data appears at the memory queue and bank
      // first, then the L2-miss-path routers, then the L2 bank.
      bool both_l2_miss = miss_l2_x >= kMissGate && miss_l2_y >= kMissGate;
      std::array<Target, 5> order =
          both_l2_miss ? std::array<Target, 5>{Target::kMemBank, Target::kMemQueue,
                                               Target::kRouter2, Target::kL2Bank,
                                               Target::kRouter1}
                       : std::array<Target, 5>{Target::kL2Bank, Target::kRouter1,
                                               Target::kRouter2, Target::kMemQueue,
                                               Target::kMemBank};
      for (Target target : order) {
        arch::Loc loc = TargetLoc(target);
        if (!(opt.control_register & arch::LocBit(loc))) continue;

        // CME gating (Algorithm 1 lines 9/14/19/24: "CME (x,y) in L2
        // bank"): both operands must actually travel to the target
        // component. All targets need L1 misses; the L2 bank and the
        // L1-miss-path routers additionally need the data to be L2-resident,
        // while the L2-miss-path router, memory queue, and memory bank need
        // predicted L2 misses.
        if (miss_l1_x < kMissGate || miss_l1_y < kMissGate) break;
        bool needs_l2_miss = target == Target::kRouter2 || target == Target::kMemQueue ||
                             target == Target::kMemBank;
        if (needs_l2_miss && (miss_l2_x < kMissGate || miss_l2_y < kMissGate)) {
          continue;
        }
        // Memory-side meets consume the data before the L2 fill: never plan
        // them for arrays a later nest (or time step) reads again.
        if (needs_l2_miss) {
          const std::set<int>& later = later_arrays[static_cast<std::size_t>(nest_index) + 1];
          if (later.count(OperandArray(stmt.rhs0)) != 0 ||
              later.count(OperandArray(stmt.rhs1)) != 0) {
            continue;
          }
        }

        if (FeasibleFraction(ad, routes, samples, target, opt.allow_reroute) <
            kFeasibilityThreshold) {
          continue;
        }

        bool l2mx = needs_l2_miss || miss_l2_x >= kMissGate;
        bool l2my = needs_l2_miss || miss_l2_y >= kMissGate;
        GapEstimate gap = EstimateGap(ad, samples, loc, l2mx, l2my);

        // Desired movement in iterations: positive lead hoists the access.
        ir::Int want = std::llround(gap.gap_cycles / std::max(iter_cycles, 0.25));

        // Coarse-grain ablation: map the whole nest without per-chain
        // movement (Section 5.4: performs poorly).
        if (opt.mode == Mode::kCoarseGrain) want = 0;

        if (std::llabs(want) > opt.max_lead) {
          ++rep.gating_failures;
          continue;
        }

        int ax = OperandArray(stmt.rhs0);
        int ay = OperandArray(stmt.rhs1);
        std::pair<ir::Int, ir::Int> leads;  // (lead0, lead1)
        // Strategy (b): keep x, move y (Figure 8b).
        if (deps.ReadHoistIsSafe(ay, want, inner_trip)) {
          leads = {0, want};
        } else if (deps.ReadHoistIsSafe(ax, -want, inner_trip)) {
          // Strategy (c): keep y, move x (Figure 8c).
          leads = {-want, 0};
          ++rep.legality_failures;  // strategy (b) was rejected
        } else if (deps.ReadHoistIsSafe(ay, want / 2, inner_trip) &&
                   deps.ReadHoistIsSafe(ax, -(want - want / 2), inner_trip)) {
          // Strategy (d): move both (Figure 8d).
          leads = {-(want - want / 2), want / 2};
          ++rep.legality_failures;
        } else {
          // No strategy keeps both reads legal: try the next component.
          rep.legality_failures += 3;
          continue;
        }

        stmt.ndc.offload = true;
        stmt.ndc.planned = loc;
        // Time-out register value: the statically estimated breakeven. For
        // affine operand pairs the arrival gap is deterministic, so add
        // headroom for the queueing the uncontended cost model cannot see;
        // indirect operands have unpredictable windows (Figure 5), so
        // waiting beyond the analytic breakeven only loses.
        bool predictable = stmt.rhs0.kind == ir::Operand::Kind::kAffine &&
                           stmt.rhs1.kind == ir::Operand::Kind::kAffine;
        stmt.ndc.timeout = opt.mode == Mode::kCoarseGrain
                               ? ad.cfg().default_timeout
                               : (predictable ? gap.breakeven * 2 + 32 : gap.breakeven);
        stmt.ndc.lead0 = leads.first;
        stmt.ndc.lead1 = leads.second;
        ++rep.planned;
        ++rep.planned_at_loc[static_cast<std::size_t>(loc)];
        ++nest_loc_votes[static_cast<std::size_t>(loc)];
        planned = true;
        break;
      }
      if (!planned && !stmt.ndc.offload) ++rep.gating_failures;
    }
    for (const ir::Stmt& st : nest.body) {
      for (const ir::Operand* o : {&st.rhs0, &st.rhs1, &st.lhs}) {
        if (!o->IsMemory()) continue;
        warm_arrays.insert(o->kind == ir::Operand::Kind::kIndirect ? o->target_array
                                                                   : o->access.array);
      }
    }
  }
  if (opt.verify_after) RunVerifier(prog, opt, &rep);
  return rep;
}

}  // namespace ndc::compiler
