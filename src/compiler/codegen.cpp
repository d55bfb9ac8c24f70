#include "compiler/codegen.hpp"

#include <algorithm>
#include <memory>
#include <numeric>
#include <optional>
#include <set>

#include "analysis/cme.hpp"

namespace ndc::compiler {
namespace {

// Emission phases give the within-slot program order of a statement: its
// operand loads (each after its index load, if indirect), then the
// computation, then the store. A phase is also its instruction's pc offset
// within the statement (an index load's is its data load's minus one).
enum Phase : int {
  kLoad0 = 1,
  kLoad1 = 3,
  kComputeP = 4,
  kStoreP = 6,
};

struct Emission {
  ir::Int slot = 0;   // position in the core's iteration sequence
  int stmt = 0;       // body index
  Phase phase = kLoad0;
  ir::Int j = 0;      // index of the computation's iteration in the core list
};

// Upper bound on the instructions one iteration of `nest` lowers to. Every
// emission gives at most one instruction, except an indirect operand load
// (its index load comes first).
std::size_t InstrsPerIteration(const ir::LoopNest& nest) {
  auto load = [](const ir::Operand& op) -> std::size_t {
    if (!op.IsMemory()) return 0;
    return op.kind == ir::Operand::Kind::kIndirect ? 2 : 1;
  };
  std::size_t n = 0;
  for (const ir::Stmt& st : nest.body) {
    n += load(st.rhs0) + load(st.rhs1) + 1 + (st.lhs.IsMemory() ? 1 : 0);
  }
  return n;
}

// Chunk of outer iterations per core.
ir::Int BlockChunk(const ir::Loop& outer, int num_cores) {
  const ir::Int span = outer.hi - outer.lo + 1;
  return std::max<ir::Int>(1, (span + num_cores - 1) / num_cores);
}

// One statement with its operands' address rules resolved.
struct StmtPlan {
  const ir::Stmt* st = nullptr;
  ir::OperandAddr rhs0, rhs1, lhs;
};

// Everything Lower needs of a nest, prepared before any trace is written.
struct NestPlan {
  const ir::LoopNest* nest = nullptr;
  std::vector<StmtPlan> stmts;
  bool has_lead = false;  // some annotated statement moves an operand load
  std::unique_ptr<analysis::CmePredictor> cme;  // set when a statement is annotated
  std::vector<ir::Int> iterations;              // per core
};

// Writes each core's trace, nest by nest, reusing its scratch across them.
class TraceWriter {
 public:
  explicit TraceWriter(std::uint64_t& precomputes) : precomputes_(precomputes) {}

  // Appends a core's block of `plan` to its trace in program order: in
  // place when no statement has a lead, else through a counting sort by
  // slot.
  void LowerBlock(arch::Trace& trace, const NestPlan& plan, OuterBlock block,
                  ir::Int iterations) {
    if (iterations == 0) return;
    trace_ = &trace;
    if (plan.has_lead) {
      LowerSorted(plan, block, iterations);
    } else {
      plan.nest->ForEachIterationInOuterRange(
          block.begin, block.end, iter_, [&](const ir::IntVec& iter) {
            for (std::size_t s = 0; s < plan.stmts.size(); ++s) {
              const StmtPlan& sp = plan.stmts[s];
              const std::int32_t l0 = EmitLoad(sp, sp.rhs0, 0, iter);
              const std::int32_t l1 = EmitLoad(sp, sp.rhs1, 1, iter);
              EmitStore(sp, EmitCompute(plan, static_cast<int>(s), l0, l1, iter), iter);
            }
          });
    }
  }

 private:
  // Loads operand `which` of a statement at `iter` (an indirect operand's
  // index load first, the data load depending on it). Returns the data
  // load's trace index, or -1 when the address does not resolve.
  std::int32_t EmitLoad(const StmtPlan& sp, const ir::OperandAddr& op, std::uint32_t which,
                        const ir::IntVec& iter) {
    sim::Addr index_addr = 0;
    std::optional<sim::Addr> addr = op.Resolve(iter, &index_addr);
    if (!addr.has_value()) return -1;
    const std::uint32_t pc = sp.st->id * 16 + which * 2;
    std::int32_t dep = -1;
    if (op.indirect()) {
      dep = Next();
      trace_->push_back(arch::MakeLoad(index_addr, -1, pc));
    }
    const std::int32_t at = Next();
    trace_->push_back(arch::MakeLoad(*addr, dep, pc + 1));
    return at;
  }

  // The computation of statement `s` on loads l0/l1 (-1 = none): a
  // pre-compute where the statement is annotated, both operands are loads
  // and the CME predicts both to miss the L1 (the paper's compiler "first
  // checks whether x in S1 and y in S2 result in L1 misses"); otherwise a
  // conventional compute. Returns its trace index.
  std::int32_t EmitCompute(const NestPlan& plan, int s, std::int32_t l0, std::int32_t l1,
                           const ir::IntVec& iter) {
    const ir::Stmt& st = *plan.stmts[static_cast<std::size_t>(s)].st;
    const bool both_mem = l0 >= 0 && l1 >= 0;
    bool offload_here = st.ndc.offload && both_mem;
    if (offload_here && plan.cme != nullptr) {
      offload_here = plan.cme->PredictMissL1(s, analysis::OperandSel::kRhs0, iter) &&
                     plan.cme->PredictMissL1(s, analysis::OperandSel::kRhs1, iter);
    }
    const std::int32_t at = Next();
    if (offload_here) {
      trace_->push_back(arch::MakePreCompute(st.op, l0, l1, st.ndc.planned, st.ndc.timeout,
                                            st.id * 16 + kComputeP));
      ++precomputes_;
    } else {
      trace_->push_back(arch::MakeCompute(st.op, l0, l1, both_mem, st.id * 16 + kComputeP));
    }
    return at;
  }

  // Stores the computation's result where the statement's target resolves.
  void EmitStore(const StmtPlan& sp, std::int32_t compute, const ir::IntVec& iter) {
    if (std::optional<sim::Addr> addr = sp.lhs.Resolve(iter)) {
      trace_->push_back(arch::MakeStore(*addr, compute, -1, sp.st->id * 16 + kStoreP));
    }
  }

  // A nest with leads: an operand load of iteration j sits in slot
  // clamp(j - lead) of the core's block, and the computation in the later
  // of its loads' slots. Emissions are generated in (j, stmt, phase) order;
  // a stable counting sort by slot then yields program order (slot, j,
  // stmt, phase).
  void LowerSorted(const NestPlan& plan, OuterBlock block, ir::Int m) {
    const ir::LoopNest& nest = *plan.nest;
    const auto depth = static_cast<std::size_t>(nest.depth());
    const std::size_t body_size = plan.stmts.size();
    its_.clear();
    its_.reserve(static_cast<std::size_t>(m) * depth);
    nest.ForEachIterationInOuterRange(block.begin, block.end, iter_, [&](const ir::IntVec& it) {
      its_.insert(its_.end(), it.begin(), it.end());
    });
    auto clamp_slot = [m](ir::Int s) { return std::clamp<ir::Int>(s, 0, m - 1); };

    generated_.clear();
    for (ir::Int j = 0; j < m; ++j) {
      for (int s = 0; s < static_cast<int>(body_size); ++s) {
        const ir::Stmt& st = *plan.stmts[static_cast<std::size_t>(s)].st;
        const ir::Int lead0 = st.ndc.offload ? st.ndc.lead0 : 0;
        const ir::Int lead1 = st.ndc.offload ? st.ndc.lead1 : 0;
        const ir::Int slot0 = clamp_slot(j - lead0);
        const ir::Int slot1 = clamp_slot(j - lead1);
        const ir::Int slotc = std::max(slot0, slot1);
        if (st.rhs0.IsMemory()) generated_.push_back({slot0, s, kLoad0, j});
        if (st.rhs1.IsMemory()) generated_.push_back({slot1, s, kLoad1, j});
        generated_.push_back({slotc, s, kComputeP, j});
        if (st.lhs.IsMemory()) generated_.push_back({slotc, s, kStoreP, j});
      }
    }
    slot_cursor_.assign(static_cast<std::size_t>(m) + 1, 0);
    for (const Emission& e : generated_) ++slot_cursor_[static_cast<std::size_t>(e.slot) + 1];
    std::partial_sum(slot_cursor_.begin(), slot_cursor_.end(), slot_cursor_.begin());
    emissions_.resize(generated_.size());
    for (const Emission& e : generated_) {
      emissions_[static_cast<std::size_t>(slot_cursor_[static_cast<std::size_t>(e.slot)]++)] = e;
    }

    // Dependence tables, -1 = not emitted: load_at_ indexed
    // (j*|body| + stmt)*2 + which, compute_at_ by j*|body| + stmt.
    load_at_.assign(static_cast<std::size_t>(m) * body_size * 2, -1);
    compute_at_.assign(static_cast<std::size_t>(m) * body_size, -1);
    ir::IntVec& iter = iter_;
    ir::Int iter_j = -1;  // which iteration `iter` holds
    for (const Emission& e : emissions_) {
      if (e.j != iter_j) {
        const ir::Int* src = its_.data() + e.j * static_cast<ir::Int>(depth);
        iter.assign(src, src + depth);
        iter_j = e.j;
      }
      const StmtPlan& sp = plan.stmts[static_cast<std::size_t>(e.stmt)];
      const std::size_t js = static_cast<std::size_t>(e.j) * body_size +
                             static_cast<std::size_t>(e.stmt);
      switch (e.phase) {
        case kLoad0:
          load_at_[js * 2] = EmitLoad(sp, sp.rhs0, 0, iter);
          break;
        case kLoad1:
          load_at_[js * 2 + 1] = EmitLoad(sp, sp.rhs1, 1, iter);
          break;
        case kComputeP:
          compute_at_[js] = EmitCompute(plan, e.stmt, load_at_[js * 2], load_at_[js * 2 + 1], iter);
          break;
        case kStoreP:
          EmitStore(sp, compute_at_[js], iter);
          break;
      }
    }
  }

  std::int32_t Next() const { return static_cast<std::int32_t>(trace_->size()); }

  arch::Trace* trace_ = nullptr;
  std::uint64_t& precomputes_;
  ir::IntVec iter_;
  // Sort-path scratch, reused across the core's nests.
  std::vector<ir::Int> its_;  // the block's iterations, depth Ints each
  std::vector<Emission> generated_;
  std::vector<Emission> emissions_;
  std::vector<ir::Int> slot_cursor_;
  std::vector<std::int32_t> load_at_;
  std::vector<std::int32_t> compute_at_;
};

}  // namespace

OuterBlock CoreBlock(const ir::LoopNest& nest, int core, int num_cores) {
  if (nest.depth() == 0) return core == 0 ? OuterBlock{0, 1} : OuterBlock{0, 0};
  const ir::Loop& outer = nest.loops.front();
  const ir::Int span = std::max<ir::Int>(0, outer.hi - outer.lo + 1);
  const ir::Int chunk = BlockChunk(outer, num_cores);
  // num_cores chunks cover the span, so the last non-empty block ends at
  // the outer loop's end.
  return {outer.lo + std::min(span, core * chunk), outer.lo + std::min(span, (core + 1) * chunk)};
}

int CoreForIteration(const ir::LoopNest& nest, const ir::IntVec& iter, int num_cores) {
  if (nest.depth() == 0) return 0;
  const ir::Loop& outer = nest.loops.front();
  const ir::Int v = iter[0] - outer.lo;
  return static_cast<int>(std::min<ir::Int>(v / BlockChunk(outer, num_cores), num_cores - 1));
}

CodegenResult Lower(const ir::Program& prog, int num_cores, const arch::ArchConfig* cfg) {
  CodegenResult out;
  const auto cores = static_cast<std::size_t>(num_cores);
  out.traces.assign(cores, {});

  // Plan every nest; from the iterations per core, each trace's size bound,
  // so every trace is reserved once.
  std::vector<NestPlan> plans(prog.nests.size());
  std::vector<std::size_t> bound(cores, 0);
  std::set<int> warm_arrays;
  ir::IntVec iter;
  for (std::size_t n = 0; n < prog.nests.size(); ++n) {
    const ir::LoopNest& nest = prog.nests[n];
    NestPlan& plan = plans[n];
    plan.nest = &nest;
    plan.stmts.reserve(nest.body.size());
    bool annotated = false;
    for (const ir::Stmt& st : nest.body) {
      plan.stmts.push_back({&st, prog.Prepare(st.rhs0), prog.Prepare(st.rhs1),
                            prog.Prepare(st.lhs)});
      annotated = annotated || st.ndc.offload;
      plan.has_lead =
          plan.has_lead || (st.ndc.offload && (st.ndc.lead0 != 0 || st.ndc.lead1 != 0));
    }
    // Per-iteration CME gate for annotated statements, seeing the arrays
    // earlier nests streamed.
    if (annotated) {
      analysis::CacheSpec l1 = cfg ? analysis::CacheSpec::From(cfg->l1) : analysis::CacheSpec{};
      analysis::CacheSpec l2 = cfg ? analysis::CacheSpec::From(cfg->l2)
                                   : analysis::CacheSpec{512 * 1024, 256, 64};
      plan.cme = std::make_unique<analysis::CmePredictor>(prog, nest, l1, l2, num_cores,
                                                          warm_arrays);
    }
    const std::size_t per_iter = InstrsPerIteration(nest);
    plan.iterations.resize(cores);
    for (int c = 0; c < num_cores; ++c) {
      const OuterBlock b = CoreBlock(nest, c, num_cores);
      const ir::Int m = per_iter == 0 ? 0 : nest.NumIterationsInOuterRange(b.begin, b.end, iter);
      plan.iterations[static_cast<std::size_t>(c)] = m;
      bound[static_cast<std::size_t>(c)] += static_cast<std::size_t>(m) * per_iter;
    }
    for (const ir::Stmt& st : nest.body) {
      for (const ir::Operand* o : {&st.rhs0, &st.rhs1, &st.lhs}) {
        if (!o->IsMemory()) continue;
        warm_arrays.insert(o->kind == ir::Operand::Kind::kIndirect ? o->target_array
                                                                   : o->access.array);
      }
    }
  }

  for (int c = 0; c < num_cores; ++c) {
    out.traces[static_cast<std::size_t>(c)].reserve(bound[static_cast<std::size_t>(c)]);
  }
  TraceWriter writer(out.precomputes);
  for (int c = 0; c < num_cores; ++c) {
    arch::Trace& trace = out.traces[static_cast<std::size_t>(c)];
    for (const NestPlan& plan : plans) {
      writer.LowerBlock(trace, plan, CoreBlock(*plan.nest, c, num_cores),
                        plan.iterations[static_cast<std::size_t>(c)]);
    }
    out.total_instrs += trace.size();
  }
  return out;
}

}  // namespace ndc::compiler
