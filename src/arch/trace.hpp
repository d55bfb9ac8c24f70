#pragma once

#include <cstdint>
#include <vector>

#include "arch/config.hpp"
#include "sim/types.hpp"

namespace ndc::arch {

/// Arithmetic/logic operations offloadable near data (Table 1: all
/// arithmetic and logic operations by default).
enum class Op : std::uint8_t { kAdd, kSub, kMul, kDiv, kAnd, kOr, kXor };

inline bool IsAddSub(Op op) { return op == Op::kAdd || op == Op::kSub; }

inline const char* OpName(Op op) {
  switch (op) {
    case Op::kAdd: return "+";
    case Op::kSub: return "-";
    case Op::kMul: return "*";
    case Op::kDiv: return "/";
    case Op::kAnd: return "&";
    case Op::kOr: return "|";
    case Op::kXor: return "^";
  }
  return "?";
}

/// One instruction of a per-core trace. Traces are produced by the code
/// generator (compiler/codegen.hpp) and executed by arch::Core.
///
/// Dependence encoding: `dep0`/`dep1` are indices of earlier instructions in
/// the same trace whose results this instruction consumes (-1 if unused).
/// A Compute whose two deps are Loads is an NDC *candidate* (the paper's
/// "computation c needing data elements A and B"); hardware-side policies
/// may offload candidates at run time. A PreCompute is a compiler-requested
/// offload ("pre-compute" ISA instruction, Section 5.2.1): its deps identify
/// the two operand Loads it offloads.
struct Instr {
  enum class Kind : std::uint8_t { kLoad, kStore, kCompute, kPreCompute };

  Kind kind = Kind::kCompute;
  Op op = Op::kAdd;
  sim::Addr addr = 0;          ///< Load/Store address
  std::int32_t dep0 = -1;
  std::int32_t dep1 = -1;
  std::uint32_t pc = 0;        ///< static program counter (predictors, Fig. 5)
  std::uint32_t site = 0;      ///< static NDC site id (use-use chain id)
  bool ndc_candidate = false;  ///< Compute only: eligible for hardware NDC

  // PreCompute-only fields (set by the compiler):
  Loc planned_loc = Loc::kCacheCtrl;  ///< target component the compiler chose
  sim::Cycle timeout = 0;             ///< time-out register value (breakeven)
};

using Trace = std::vector<Instr>;

/// Convenience constructors.
inline Instr MakeLoad(sim::Addr a, std::int32_t dep = -1) {
  Instr i;
  i.kind = Instr::Kind::kLoad;
  i.addr = a;
  i.dep0 = dep;
  return i;
}
inline Instr MakeStore(sim::Addr a, std::int32_t dep = -1) {
  Instr i;
  i.kind = Instr::Kind::kStore;
  i.addr = a;
  i.dep0 = dep;
  return i;
}
inline Instr MakeCompute(Op op, std::int32_t dep0, std::int32_t dep1, bool candidate,
                         std::uint32_t pc = 0, std::uint32_t site = 0) {
  Instr i;
  i.kind = Instr::Kind::kCompute;
  i.op = op;
  i.dep0 = dep0;
  i.dep1 = dep1;
  i.ndc_candidate = candidate;
  i.pc = pc;
  i.site = site;
  return i;
}
inline Instr MakePreCompute(Op op, std::int32_t load0, std::int32_t load1, Loc planned,
                            sim::Cycle timeout, std::uint32_t pc = 0, std::uint32_t site = 0) {
  Instr i;
  i.kind = Instr::Kind::kPreCompute;
  i.op = op;
  i.dep0 = load0;
  i.dep1 = load1;
  i.planned_loc = planned;
  i.timeout = timeout;
  i.pc = pc;
  i.site = site;
  return i;
}

}  // namespace ndc::arch
