#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
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
/// Dependence encoding: `dep0()`/`dep1()` are indices of earlier
/// instructions in the same trace whose results this instruction consumes
/// (-1 if unused). A Compute whose two deps are Loads is an NDC *candidate*
/// (the paper's "computation c needing data elements A and B");
/// hardware-side policies may offload candidates at run time. A PreCompute
/// is a compiler-requested offload ("pre-compute" ISA instruction, Section
/// 5.2.1): its deps identify the two operand Loads it offloads, and it
/// carries the planned location and the time-out register value.
///
/// Layout: 24 bytes, read only through the accessors and built only with
/// the Make* constructors below.
///
///   bytes  0..7   word   Load/Store: address; PreCompute: timeout
///   bytes  8..11  dep0   int32
///   bytes 12..15  dep1   int32
///   bytes 16..19  pc     uint32
///   bytes 20..23  bits   kind:2 | op:3 | ndc_candidate:1 | planned_loc:2 | site:24
///
/// One word serves two fields because a PreCompute never has an address and
/// a Load or Store never has a timeout. `addr()` and `timeout()` return 0 for
/// a kind that does not use them. Site ids above kMaxSite do not fit and
/// make the constructors throw std::out_of_range.
class Instr {
 public:
  enum class Kind : std::uint8_t { kLoad, kStore, kCompute, kPreCompute };

  static constexpr std::uint32_t kSiteBits = 24;
  static constexpr std::uint32_t kMaxSite = (1u << kSiteBits) - 1;

  /// A Compute with no deps, op kAdd, site 0, planned location kCacheCtrl.
  Instr() = default;

  Kind kind() const { return static_cast<Kind>(bits_ & 0x3u); }
  Op op() const { return static_cast<Op>((bits_ >> kOpShift) & 0x7u); }
  /// Load/Store address; 0 for other kinds.
  sim::Addr addr() const { return IsMemory() ? word_ : 0; }
  std::int32_t dep0() const { return dep0_; }
  std::int32_t dep1() const { return dep1_; }
  /// Static program counter (predictors, Fig. 5).
  std::uint32_t pc() const { return pc_; }
  /// Static NDC site id (use-use chain id).
  std::uint32_t site() const { return bits_ >> kSiteShift; }
  /// Compute only: eligible for hardware NDC.
  bool ndc_candidate() const { return (bits_ >> kCandidateShift) & 0x1u; }
  /// PreCompute: the target component the compiler chose.
  Loc planned_loc() const { return static_cast<Loc>((bits_ >> kLocShift) & 0x3u); }
  /// PreCompute: time-out register value (breakeven); 0 for other kinds.
  sim::Cycle timeout() const { return kind() == Kind::kPreCompute ? word_ : 0; }

  friend Instr MakeLoad(sim::Addr a, std::int32_t dep, std::uint32_t pc);
  friend Instr MakeStore(sim::Addr a, std::int32_t dep0, std::int32_t dep1, std::uint32_t pc);
  friend Instr MakeCompute(Op op, std::int32_t dep0, std::int32_t dep1, bool candidate,
                           std::uint32_t pc, std::uint32_t site);
  friend Instr MakePreCompute(Op op, std::int32_t load0, std::int32_t load1, Loc planned,
                              sim::Cycle timeout, std::uint32_t pc, std::uint32_t site);

 private:
  static constexpr std::uint32_t kOpShift = 2;
  static constexpr std::uint32_t kCandidateShift = 5;
  static constexpr std::uint32_t kLocShift = 6;
  static constexpr std::uint32_t kSiteShift = 8;

  Instr(Kind kind, Op op, std::uint64_t word, std::int32_t dep0, std::int32_t dep1,
        std::uint32_t pc, std::uint32_t site, bool candidate, Loc planned)
      : word_(word), dep0_(dep0), dep1_(dep1), pc_(pc) {
    if (site > kMaxSite) {
      throw std::out_of_range("arch::Instr: site id " + std::to_string(site) +
                              " does not fit in " + std::to_string(kSiteBits) + " bits");
    }
    bits_ = static_cast<std::uint32_t>(kind) | static_cast<std::uint32_t>(op) << kOpShift |
            static_cast<std::uint32_t>(candidate) << kCandidateShift |
            static_cast<std::uint32_t>(planned) << kLocShift | site << kSiteShift;
  }

  bool IsMemory() const { return (bits_ & 0x2u) == 0; }  // kLoad or kStore

  std::uint64_t word_ = 0;
  std::int32_t dep0_ = -1;
  std::int32_t dep1_ = -1;
  std::uint32_t pc_ = 0;
  std::uint32_t bits_ = static_cast<std::uint32_t>(Kind::kCompute) |
                        static_cast<std::uint32_t>(Loc::kCacheCtrl) << kLocShift;
};

using Trace = std::vector<Instr>;

/// Convenience constructors.
inline Instr MakeLoad(sim::Addr a, std::int32_t dep = -1, std::uint32_t pc = 0) {
  return Instr(Instr::Kind::kLoad, Op::kAdd, a, dep, -1, pc, 0, false, Loc::kCacheCtrl);
}
inline Instr MakeStore(sim::Addr a, std::int32_t dep0 = -1, std::int32_t dep1 = -1,
                       std::uint32_t pc = 0) {
  return Instr(Instr::Kind::kStore, Op::kAdd, a, dep0, dep1, pc, 0, false, Loc::kCacheCtrl);
}
inline Instr MakeCompute(Op op, std::int32_t dep0, std::int32_t dep1, bool candidate,
                         std::uint32_t pc = 0, std::uint32_t site = 0) {
  return Instr(Instr::Kind::kCompute, op, 0, dep0, dep1, pc, site, candidate, Loc::kCacheCtrl);
}
inline Instr MakePreCompute(Op op, std::int32_t load0, std::int32_t load1, Loc planned,
                            sim::Cycle timeout, std::uint32_t pc = 0, std::uint32_t site = 0) {
  return Instr(Instr::Kind::kPreCompute, op, timeout, load0, load1, pc, site, false, planned);
}

}  // namespace ndc::arch
