#pragma once

// The reference model the lowering tests check compiler::Lower against: the
// code generator as first written. It partitions every iteration of a nest
// by core (a core lookup per iteration), generates each core's
// emissions in (iteration, statement, phase) order, counting-sorts them by
// slot, and resolves each address with Program::ResolveAddr. Lower must
// match it instruction word for instruction word, and trace capacity for
// trace capacity.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <set>
#include <vector>

#include "analysis/cme.hpp"
#include "arch/config.hpp"
#include "arch/trace.hpp"
#include "compiler/codegen.hpp"  // CodegenResult
#include "ir/program.hpp"

namespace ndc::compiler::reference {

// Block distribution as first written: core min(v / chunk, cores - 1) for
// outer offset v, chunk = ceil(span / cores).
inline int CoreForIteration(const ir::LoopNest& nest, const ir::IntVec& iter, int num_cores) {
  const ir::Loop& outer = nest.loops.front();
  ir::Int span = outer.hi - outer.lo + 1;
  ir::Int chunk = (span + num_cores - 1) / num_cores;
  ir::Int v = iter[0] - outer.lo;
  return static_cast<int>(std::min<ir::Int>(v / std::max<ir::Int>(1, chunk), num_cores - 1));
}

// Emission phases give the within-slot program order: a statement's index
// loads precede its operand loads, then the computation, then the store.
enum Phase : int {
  kIdx0 = 0,
  kLoad0 = 1,
  kIdx1 = 2,
  kLoad1 = 3,
  kComputeP = 4,
  kIdxStore = 5,
  kStoreP = 6,
};

struct Emission {
  ir::Int slot = 0;   // position in the core's iteration sequence
  int stmt = 0;       // body index
  Phase phase = kLoad0;
  ir::Int j = 0;      // index of the computation's iteration in the core list
};

// Byte address of element `i` of a 1-D array.
inline sim::Addr ElemAddr(const ir::Array& a, ir::Int i) {
  return a.base + static_cast<sim::Addr>(i) * static_cast<sim::Addr>(a.elem_bytes);
}

// Upper bound on the instructions one iteration of `nest` lowers to. Every
// emission gives at most one instruction, except an indirect operand load
// (its index load comes first).
inline std::size_t InstrsPerIteration(const ir::LoopNest& nest) {
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

inline CodegenResult Lower(const ir::Program& prog, int num_cores,
                           const arch::ArchConfig* cfg = nullptr) {
  CodegenResult out;
  const auto cores = static_cast<std::size_t>(num_cores);
  out.traces.assign(cores, {});

  // Iteration count per (nest, core); from it, each trace's size bound, so
  // every trace is reserved once.
  std::vector<ir::Int> counts(prog.nests.size() * cores, 0);
  {
    std::vector<std::size_t> bound(cores, 0);
    for (std::size_t n = 0; n < prog.nests.size(); ++n) {
      const ir::LoopNest& nest = prog.nests[n];
      ir::Int* cnt = &counts[n * cores];
      nest.ForEachIteration([&](const ir::IntVec& iter) {
        ++cnt[CoreForIteration(nest, iter, num_cores)];
      });
      const std::size_t per_iter = InstrsPerIteration(nest);
      for (std::size_t c = 0; c < cores; ++c) {
        bound[c] += static_cast<std::size_t>(cnt[c]) * per_iter;
      }
    }
    for (std::size_t c = 0; c < cores; ++c) out.traces[c].reserve(bound[c]);
  }

  // Scratch reused across nests and cores, so lowering allocates per
  // (core, nest) at most, never per iteration or instruction.
  std::vector<std::vector<ir::Int>> per_core(cores);  // depth Ints per iteration
  std::vector<Emission> generated;
  std::vector<Emission> emissions;
  std::vector<ir::Int> slot_cursor;
  // Dependence tables, -1 = not emitted. load_at is indexed
  // (j*|body| + stmt)*2 + which, which = 0/1 operand; compute_at by
  // j*|body| + stmt.
  std::vector<std::int32_t> load_at;
  std::vector<std::int32_t> compute_at;
  ir::IntVec iter;

  std::set<int> warm_arrays;
  for (std::size_t n = 0; n < prog.nests.size(); ++n) {
    const ir::LoopNest& nest = prog.nests[n];
    const ir::Int* cnt = &counts[n * cores];
    const auto depth = static_cast<std::size_t>(nest.depth());
    const auto body_size = nest.body.size();
    // Per-iteration CME gate for NDC-annotated statements: the pre-compute
    // is emitted only where both operands are predicted to miss the L1
    // (the paper's compiler "first checks whether x in S1 and y in S2
    // result in L1 misses"); other instances execute conventionally.
    std::unique_ptr<analysis::CmePredictor> cme;
    for (const ir::Stmt& st : nest.body) {
      if (st.ndc.offload) {
        analysis::CacheSpec l1 = cfg ? analysis::CacheSpec::From(cfg->l1) : analysis::CacheSpec{};
        analysis::CacheSpec l2 = cfg ? analysis::CacheSpec::From(cfg->l2)
                                     : analysis::CacheSpec{512 * 1024, 256, 64};
        cme = std::make_unique<analysis::CmePredictor>(prog, nest, l1, l2, num_cores, warm_arrays);
        break;
      }
    }

    // Partition iterations by core, preserving original order.
    for (std::size_t c = 0; c < cores; ++c) {
      per_core[c].clear();
      per_core[c].reserve(static_cast<std::size_t>(cnt[c]) * depth);
    }
    nest.ForEachIteration([&](const ir::IntVec& it) {
      std::vector<ir::Int>& dst =
          per_core[static_cast<std::size_t>(CoreForIteration(nest, it, num_cores))];
      dst.insert(dst.end(), it.begin(), it.end());
    });

    for (int core = 0; core < num_cores; ++core) {
      const ir::Int m = cnt[core];
      if (m == 0) continue;
      const std::vector<ir::Int>& its = per_core[static_cast<std::size_t>(core)];
      auto clamp_slot = [m](ir::Int s) { return std::clamp<ir::Int>(s, 0, m - 1); };

      // Emissions are generated in (j, stmt, phase) order; a stable
      // counting sort by slot then yields program order (slot, j, stmt,
      // phase).
      generated.clear();
      for (ir::Int j = 0; j < m; ++j) {
        for (int s = 0; s < static_cast<int>(body_size); ++s) {
          const ir::Stmt& st = nest.body[static_cast<std::size_t>(s)];
          ir::Int lead0 = st.ndc.offload ? st.ndc.lead0 : 0;
          ir::Int lead1 = st.ndc.offload ? st.ndc.lead1 : 0;
          ir::Int slot0 = clamp_slot(j - lead0);
          ir::Int slot1 = clamp_slot(j - lead1);
          ir::Int slotc = std::max(slot0, slot1);
          if (st.rhs0.IsMemory()) {
            if (st.rhs0.kind == ir::Operand::Kind::kIndirect) {
              generated.push_back({slot0, s, kIdx0, j});
            }
            generated.push_back({slot0, s, kLoad0, j});
          }
          if (st.rhs1.IsMemory()) {
            if (st.rhs1.kind == ir::Operand::Kind::kIndirect) {
              generated.push_back({slot1, s, kIdx1, j});
            }
            generated.push_back({slot1, s, kLoad1, j});
          }
          generated.push_back({slotc, s, kComputeP, j});
          if (st.lhs.IsMemory()) {
            if (st.lhs.kind == ir::Operand::Kind::kIndirect) {
              generated.push_back({slotc, s, kIdxStore, j});
            }
            generated.push_back({slotc, s, kStoreP, j});
          }
        }
      }
      slot_cursor.assign(static_cast<std::size_t>(m) + 1, 0);
      for (const Emission& e : generated) ++slot_cursor[static_cast<std::size_t>(e.slot) + 1];
      std::partial_sum(slot_cursor.begin(), slot_cursor.end(), slot_cursor.begin());
      emissions.resize(generated.size());
      for (const Emission& e : generated) {
        emissions[static_cast<std::size_t>(slot_cursor[static_cast<std::size_t>(e.slot)]++)] = e;
      }

      arch::Trace& trace = out.traces[static_cast<std::size_t>(core)];
      load_at.assign(static_cast<std::size_t>(m) * body_size * 2, -1);
      compute_at.assign(static_cast<std::size_t>(m) * body_size, -1);
      auto load_slot = [&](int stmt, ir::Int j, int which) -> std::int32_t& {
        const std::size_t js = static_cast<std::size_t>(j) * body_size;
        return load_at[(js + static_cast<std::size_t>(stmt)) * 2 + static_cast<std::size_t>(which)];
      };
      auto compute_slot = [&](int stmt, ir::Int j) -> std::int32_t& {
        return compute_at[static_cast<std::size_t>(j) * body_size + static_cast<std::size_t>(stmt)];
      };

      // Loads operand `op` of statement `s` at iteration j (held in `iter`).
      auto emit_operand_load = [&](int s, const ir::Operand& op, ir::Int j, int which) {
        const ir::Stmt& st = nest.body[static_cast<std::size_t>(s)];
        auto addr = prog.ResolveAddr(op, iter);
        if (!addr.has_value()) return;
        std::int32_t dep = -1;
        if (op.kind == ir::Operand::Kind::kIndirect) {
          // Emit the index-array load first; the data load depends on it.
          const ir::Array& idx_arr = prog.array(op.access.array);
          if (auto idx = ir::FlatElementIndex(op.access.F.data(), op.access.f.data(),
                                              idx_arr.dims.data(), op.access.F.rows(),
                                              op.access.F.cols(), iter)) {
            dep = static_cast<std::int32_t>(trace.size());
            trace.push_back(arch::MakeLoad(ElemAddr(idx_arr, *idx), -1,
                                           st.id * 16 + static_cast<std::uint32_t>(which) * 2));
          }
        }
        load_slot(s, j, which) = static_cast<std::int32_t>(trace.size());
        trace.push_back(
            arch::MakeLoad(*addr, dep, st.id * 16 + static_cast<std::uint32_t>(which) * 2 + 1));
      };

      ir::Int iter_j = -1;  // which iteration `iter` holds
      for (const Emission& e : emissions) {
        if (e.j != iter_j) {
          const ir::Int* src = its.data() + e.j * static_cast<ir::Int>(depth);
          iter.assign(src, src + depth);
          iter_j = e.j;
        }
        const ir::Stmt& st = nest.body[static_cast<std::size_t>(e.stmt)];
        switch (e.phase) {
          case kIdx0:
          case kIdx1:
          case kIdxStore:
            break;  // folded into the load/store emission below
          case kLoad0:
            emit_operand_load(e.stmt, st.rhs0, e.j, 0);
            break;
          case kLoad1:
            emit_operand_load(e.stmt, st.rhs1, e.j, 1);
            break;
          case kComputeP: {
            std::int32_t l0 = st.rhs0.IsMemory() ? load_slot(e.stmt, e.j, 0) : -1;
            std::int32_t l1 = st.rhs1.IsMemory() ? load_slot(e.stmt, e.j, 1) : -1;
            arch::Instr ci;
            bool both_mem = l0 >= 0 && l1 >= 0;
            bool offload_here = st.ndc.offload && both_mem;
            if (offload_here && cme != nullptr) {
              offload_here =
                  cme->PredictMissL1(e.stmt, analysis::OperandSel::kRhs0, iter) &&
                  cme->PredictMissL1(e.stmt, analysis::OperandSel::kRhs1, iter);
            }
            if (offload_here) {
              ci = arch::MakePreCompute(st.op, l0, l1, st.ndc.planned, st.ndc.timeout,
                                        st.id * 16 + kComputeP);
              ++out.precomputes;
            } else {
              ci = arch::MakeCompute(st.op, l0, l1, both_mem, st.id * 16 + kComputeP);
            }
            compute_slot(e.stmt, e.j) = static_cast<std::int32_t>(trace.size());
            trace.push_back(ci);
            break;
          }
          case kStoreP: {
            auto addr = prog.ResolveAddr(st.lhs, iter);
            if (!addr.has_value()) break;
            trace.push_back(
                arch::MakeStore(*addr, compute_slot(e.stmt, e.j), -1, st.id * 16 + kStoreP));
            break;
          }
        }
      }
    }
    for (const ir::Stmt& st : nest.body) {
      for (const ir::Operand* o : {&st.rhs0, &st.rhs1, &st.lhs}) {
        if (!o->IsMemory()) continue;
        warm_arrays.insert(o->kind == ir::Operand::Kind::kIndirect ? o->target_array
                                                                   : o->access.array);
      }
    }
  }
  for (const arch::Trace& t : out.traces) out.total_instrs += t.size();
  return out;
}

}  // namespace ndc::compiler::reference
