#pragma once

#include <cstdint>
#include <vector>

#include "mem/address_map.hpp"
#include "mem/cache.hpp"
#include "mem/dram.hpp"
#include "noc/geometry.hpp"
#include "noc/network.hpp"
#include "sim/types.hpp"

namespace ndc::arch {

/// Which hardware components may perform near-data computation
/// (Section 2: link buffers/routers ⓐ, cache controllers ⓑ, memory
/// controllers ⓒ, memory banks ⓓ). Values double as control-register bits ⓔ.
enum class Loc : int {
  kLinkBuffer = 0,
  kCacheCtrl = 1,
  kMemCtrl = 2,
  kMemBank = 3,
};
inline constexpr int kNumLocs = 4;

inline constexpr std::uint8_t LocBit(Loc l) {
  return static_cast<std::uint8_t>(1u << static_cast<int>(l));
}
inline constexpr std::uint8_t kAllLocs = 0xF;

inline const char* LocName(Loc l) {
  switch (l) {
    case Loc::kLinkBuffer: return "network";
    case Loc::kCacheCtrl: return "cache";
    case Loc::kMemCtrl: return "MC";
    case Loc::kMemBank: return "memory";
  }
  return "?";
}

/// The simulated configuration (Table 1). Defaults model the paper's 5x5
/// mesh with one core/thread per node.
struct ArchConfig {
  // --- mesh / cores ---
  int mesh_width = 5;
  int mesh_height = 5;
  int issue_width = 2;              ///< two-issue core
  int max_outstanding_loads = 8;    ///< bounded memory-level parallelism
  sim::Cycle compute_latency = 1;   ///< ALU op cost (same near data, per §3)

  // --- caches (Table 1) ---
  mem::CacheParams l1{32 * 1024, 64, 2, 2};
  mem::CacheParams l2{512 * 1024, 256, 64, 20};

  // --- NoC (Table 1: 5x5 mesh, 16B links, 3-cycle pipeline, XY) ---
  noc::NetworkParams noc{};

  // --- memory system (Table 1: 4 MCs, 4KB interleave, FR-FCFS) ---
  int num_mcs = 4;
  mem::DramParams dram{};

  // --- NDC hardware (Section 2) ---
  std::uint8_t control_register = kAllLocs;  ///< enabled NDC locations ⓔ
  int service_table_entries = 8;             ///< per NDC ALU
  int offload_table_entries = 16;            ///< LD/ST-unit offload table size
  sim::Cycle default_timeout = 100000;       ///< "wait forever" stand-in
  bool allow_reroute = true;  ///< compiler may pick non-XY minimal routes
  bool restrict_ops_to_addsub = false;  ///< Fig. 17 sensitivity knob

  int num_nodes() const { return mesh_width * mesh_height; }

  /// Mesh nodes hosting the four memory controllers (Figure 1 places them
  /// at the chip corners).
  std::vector<sim::NodeId> McNodes() const {
    noc::Mesh m(mesh_width, mesh_height);
    std::vector<sim::NodeId> nodes;
    nodes.push_back(m.NodeAt({0, 0}));
    nodes.push_back(m.NodeAt({mesh_width - 1, 0}));
    nodes.push_back(m.NodeAt({0, mesh_height - 1}));
    nodes.push_back(m.NodeAt({mesh_width - 1, mesh_height - 1}));
    nodes.resize(static_cast<std::size_t>(num_mcs), nodes.back());
    return nodes;
  }

  /// The static-NUCA / channel address map implied by this configuration.
  mem::AddressMap MakeAddressMap() const {
    mem::AddressMap a;
    a.l2_line_bytes = l2.line_bytes;
    a.num_nodes = num_nodes();
    a.mc_interleave_bytes = 4096;
    a.num_mcs = num_mcs;
    a.row_bytes = 4096;
    a.banks_per_mc = 16;
    return a;
  }

  friend bool operator==(const ArchConfig&, const ArchConfig&) = default;
};

}  // namespace ndc::arch
