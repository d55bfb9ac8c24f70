#pragma once

#include <array>
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
/// Layout: 16 bytes, two 64-bit words, read only through the accessors and
/// built only with the Make* constructors below.
///
///   w0  bits  0..7   flags    kind:2 | op:3 | ndc_candidate:1 | planned_loc:2
///       bits  8..15  pc bits 16..23
///       bits 16..63  payload  Load/Store: address
///                             Compute:    site (payload bits 0..23)
///                             PreCompute: site (payload bits 0..23) |
///                                         timeout (payload bits 24..47)
///   w1  bits  0..23  dep0     all-ones means -1
///       bits 24..47  dep1     all-ones means -1
///       bits 48..63  pc bits 0..15
///
/// The hottest reads stay one operation: kind() masks the low bits of w0 and
/// addr() shifts it. The fields fill all 128 bits, so one of them has to
/// straddle the words; pc does, as the field read least often. The payload
/// serves several fields because a Load or Store has neither site nor
/// timeout and a Compute or PreCompute has no address. `addr()`, `site()`
/// and `timeout()` return 0 for a kind that does not use them.
///
/// Limits: address < 2^48, pc < 2^24, site < 2^24, timeout < 2^24 cycles and
/// dep in [-1, 2^24 - 2] (16.7M instructions per core). A value outside its
/// limit makes the constructors throw std::out_of_range naming the field.
class Instr {
 public:
  enum class Kind : std::uint8_t { kLoad, kStore, kCompute, kPreCompute };

  static constexpr std::uint32_t kSiteBits = 24;
  static constexpr std::uint32_t kMaxSite = (1u << kSiteBits) - 1;
  static constexpr std::uint32_t kAddrBits = 48;
  static constexpr sim::Addr kMaxAddr = (std::uint64_t{1} << kAddrBits) - 1;
  static constexpr std::uint32_t kPcBits = 24;
  static constexpr std::uint32_t kMaxPc = (1u << kPcBits) - 1;
  static constexpr std::uint32_t kTimeoutBits = 24;
  static constexpr sim::Cycle kMaxTimeout = (1u << kTimeoutBits) - 1;
  static constexpr std::uint32_t kDepBits = 24;
  /// All-ones is the "no dep" code, so the largest index is one below it.
  static constexpr std::int32_t kMaxDep = (1 << kDepBits) - 2;

  /// A Compute with no deps, op kAdd, pc 0, site 0, planned location kCacheCtrl.
  Instr() = default;

  Kind kind() const { return static_cast<Kind>(w0_ & 0x3u); }
  Op op() const { return static_cast<Op>((w0_ >> kOpShift) & 0x7u); }
  /// Load/Store address; 0 for other kinds.
  sim::Addr addr() const { return IsMemory() ? w0_ >> kPayloadShift : 0; }
  std::int32_t dep0() const { return Dep(w1_); }
  std::int32_t dep1() const { return Dep(w1_ >> kDepBits); }
  /// Static program counter (predictors, Fig. 5).
  std::uint32_t pc() const {
    return static_cast<std::uint32_t>(w1_ >> kPcLoShift |
                                      (w0_ >> kPcHiShift & 0xffu) << kPcLoBits);
  }
  /// Static NDC site id (use-use chain id); 0 for Load/Store.
  std::uint32_t site() const {
    return IsMemory() ? 0 : static_cast<std::uint32_t>(w0_ >> kPayloadShift & kMaxSite);
  }
  /// Compute only: eligible for hardware NDC.
  bool ndc_candidate() const { return (w0_ >> kCandidateShift) & 0x1u; }
  /// PreCompute: the target component the compiler chose.
  Loc planned_loc() const { return static_cast<Loc>((w0_ >> kLocShift) & 0x3u); }
  /// PreCompute: time-out register value (breakeven); 0 for other kinds.
  sim::Cycle timeout() const {
    return kind() == Kind::kPreCompute ? w0_ >> (kPayloadShift + kSiteBits) : 0;
  }
  /// The two packed words: equal words mean equal instructions.
  std::array<std::uint64_t, 2> words() const { return {w0_, w1_}; }

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
  static constexpr std::uint32_t kPcHiShift = 8;
  static constexpr std::uint32_t kPayloadShift = 16;
  static constexpr std::uint32_t kPcLoShift = 48;
  static constexpr std::uint32_t kPcLoBits = 16;
  static constexpr std::uint64_t kDepMask = (std::uint64_t{1} << kDepBits) - 1;

  Instr(Kind kind, Op op, std::uint64_t payload, std::int32_t dep0, std::int32_t dep1,
        std::uint32_t pc, bool candidate, Loc planned) {
    CheckDep(dep0, "dep0");
    CheckDep(dep1, "dep1");
    CheckWidth(pc, kPcBits, "pc");
    w0_ = payload << kPayloadShift | static_cast<std::uint64_t>(kind) |
          static_cast<std::uint64_t>(op) << kOpShift |
          static_cast<std::uint64_t>(candidate) << kCandidateShift |
          static_cast<std::uint64_t>(planned) << kLocShift |
          static_cast<std::uint64_t>(pc >> kPcLoBits) << kPcHiShift;
    w1_ = (static_cast<std::uint64_t>(dep0) & kDepMask) |
          (static_cast<std::uint64_t>(dep1) & kDepMask) << kDepBits |
          static_cast<std::uint64_t>(pc & 0xffffu) << kPcLoShift;
  }

  /// Throw std::out_of_range naming `field` unless `value` fits in `bits`
  /// bits, or `dep` in [-1, kMaxDep]. The messages are built out of line,
  /// so an inlined Make* costs one compare and branch per field.
  static void CheckWidth(std::uint64_t value, std::uint32_t bits, const char* field) {
    if (value >> bits != 0) ThrowWidth(field, value, bits);
  }
  static void CheckDep(std::int32_t dep, const char* field) {
    if (dep < -1 || dep > kMaxDep) ThrowDep(field, dep);
  }
  [[noreturn]] [[gnu::cold]] [[gnu::noinline]] static void ThrowWidth(const char* field,
                                                                      std::uint64_t value,
                                                                      std::uint32_t bits) {
    throw std::out_of_range("arch::Instr: " + std::string(field) + " " + std::to_string(value) +
                            " does not fit in " + std::to_string(bits) + " bits");
  }
  [[noreturn]] [[gnu::cold]] [[gnu::noinline]] static void ThrowDep(const char* field,
                                                                    std::int32_t dep) {
    throw std::out_of_range("arch::Instr: " + std::string(field) + " " + std::to_string(dep) +
                            " is outside [-1, " + std::to_string(kMaxDep) + "]");
  }

  /// Decodes a 24-bit dep field: all-ones wraps to -1, every other value is
  /// the index itself.
  static std::int32_t Dep(std::uint64_t bits) {
    return static_cast<std::int32_t>((bits + 1) & kDepMask) - 1;
  }
  bool IsMemory() const { return (w0_ & 0x2u) == 0; }  // kLoad or kStore

  std::uint64_t w0_ = static_cast<std::uint64_t>(Kind::kCompute) |
                      static_cast<std::uint64_t>(Loc::kCacheCtrl) << kLocShift;
  std::uint64_t w1_ = kDepMask | kDepMask << kDepBits;
};

using Trace = std::vector<Instr>;

/// Convenience constructors.
inline Instr MakeLoad(sim::Addr a, std::int32_t dep = -1, std::uint32_t pc = 0) {
  Instr::CheckWidth(a, Instr::kAddrBits, "address");
  return Instr(Instr::Kind::kLoad, Op::kAdd, a, dep, -1, pc, false, Loc::kCacheCtrl);
}
inline Instr MakeStore(sim::Addr a, std::int32_t dep0 = -1, std::int32_t dep1 = -1,
                       std::uint32_t pc = 0) {
  Instr::CheckWidth(a, Instr::kAddrBits, "address");
  return Instr(Instr::Kind::kStore, Op::kAdd, a, dep0, dep1, pc, false, Loc::kCacheCtrl);
}
inline Instr MakeCompute(Op op, std::int32_t dep0, std::int32_t dep1, bool candidate,
                         std::uint32_t pc = 0, std::uint32_t site = 0) {
  Instr::CheckWidth(site, Instr::kSiteBits, "site id");
  return Instr(Instr::Kind::kCompute, op, site, dep0, dep1, pc, candidate, Loc::kCacheCtrl);
}
inline Instr MakePreCompute(Op op, std::int32_t load0, std::int32_t load1, Loc planned,
                            sim::Cycle timeout, std::uint32_t pc = 0, std::uint32_t site = 0) {
  Instr::CheckWidth(site, Instr::kSiteBits, "site id");
  Instr::CheckWidth(timeout, Instr::kTimeoutBits, "timeout");
  return Instr(Instr::Kind::kPreCompute, op, site | timeout << Instr::kSiteBits, load0, load1,
               pc, false, planned);
}

}  // namespace ndc::arch
