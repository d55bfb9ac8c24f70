#pragma once

#include <cstdint>

#include "arch/trace.hpp"
#include "sim/types.hpp"

namespace ndc::arch {

/// The core's window into the rest of the machine (LD/ST unit backend).
/// Implemented by ndc::Machine. Completion of Loads, PreComputes, and
/// offloaded Computes is signalled back through Core::Complete().
class MemoryPort {
 public:
  /// A load issued at `core` for trace slot `idx`. The port completes the
  /// slot when the value is available (data at core, or squashed into an
  /// NDC computation).
  virtual void IssueLoad(sim::NodeId core, std::uint32_t idx, sim::Addr addr) = 0;

  /// A store issued (fire-and-forget for timing; generates write traffic).
  virtual void IssueStore(sim::NodeId core, std::uint32_t idx, sim::Addr addr) = 0;

  /// A compiler-inserted pre-compute issued. The port completes the slot
  /// when the NDC result arrives at the core (or the fallback core
  /// computation finishes).
  virtual void IssuePreCompute(sim::NodeId core, std::uint32_t idx, const Instr& instr) = 0;

 protected:
  /// Nothing is owned or deleted through the interface.
  ~MemoryPort() = default;
};

}  // namespace ndc::arch
