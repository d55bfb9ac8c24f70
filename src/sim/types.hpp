#pragma once

#include <cstdint>
#include <limits>

/// Fundamental scalar types shared by every subsystem.
namespace ndc::sim {

/// Simulated time, in core clock cycles.
using Cycle = std::uint64_t;

/// A physical byte address in the simulated machine.
using Addr = std::uint64_t;

/// Index of a mesh node (core + L1 + L2 bank share one node).
using NodeId = std::int32_t;

/// Index of a directional NoC link.
using LinkId = std::int32_t;

/// Index of a memory controller.
using McId = std::int32_t;

/// Sentinel for "no cycle" / "not yet".
inline constexpr Cycle kNeverCycle = std::numeric_limits<Cycle>::max();

/// Sentinel node / link.
inline constexpr NodeId kNoNode = -1;
inline constexpr LinkId kNoLink = -1;

/// Plain-data payload of one message (a NoC packet or a memory-controller
/// read): which core's trace slot it serves and which line it concerns.
/// The receiver dispatches on the message's kind and reads these fields, so
/// no message needs a closure of its own.
struct Payload {
  NodeId core = 0;        ///< core whose trace slot the message serves
  NodeId home = 0;        ///< L2 home bank of `addr`
  std::uint32_t idx = 0;  ///< trace slot the message completes
  Addr addr = 0;          ///< line address the message concerns

  friend bool operator==(const Payload&, const Payload&) = default;
};

}  // namespace ndc::sim
