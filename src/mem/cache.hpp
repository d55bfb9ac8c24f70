#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace ndc::mem {

/// Geometry/timing of one cache (L1 or one L2 bank). Table 1 defaults are in
/// arch/config.hpp.
struct CacheParams {
  std::uint64_t size_bytes = 32 * 1024;
  std::uint64_t line_bytes = 64;
  std::uint32_t ways = 2;
  sim::Cycle access_latency = 2;

  friend bool operator==(const CacheParams&, const CacheParams&) = default;
};

/// A set-associative, true-LRU cache directory (tags only — the simulator
/// tracks presence and timing, not data values).
class Cache {
 public:
  explicit Cache(CacheParams params);


  /// Looks up `addr`. On a hit, updates LRU and returns true.
  bool Access(sim::Addr addr);

  /// True if the line holding `addr` is present. Does NOT touch LRU (used by
  /// NDC residency probes, which must not perturb replacement).
  bool Contains(sim::Addr addr) const;

  /// Installs the line holding `addr` (no-op if present, but refreshes LRU).
  /// Returns the evicted line-aligned address, if any line was displaced.
  std::optional<sim::Addr> Fill(sim::Addr addr);

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  struct Way {
    sim::Addr tag = 0;
    bool valid = false;
    std::uint64_t lru = 0;  // larger == more recently used
  };

  std::uint64_t SetIndex(sim::Addr addr) const {
    return (addr / params_.line_bytes) % num_sets_;
  }
  sim::Addr Tag(sim::Addr addr) const { return addr / params_.line_bytes / num_sets_; }

  CacheParams params_;
  std::uint64_t num_sets_;
  std::vector<Way> ways_;  // num_sets_ * params_.ways, row-major by set
  std::uint64_t tick_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace ndc::mem
