#include "mem/cache.hpp"

#include <cassert>

namespace ndc::mem {

Cache::Cache(CacheParams params) : params_(params) {
  assert(params_.line_bytes > 0 && (params_.line_bytes & (params_.line_bytes - 1)) == 0 &&
         "line size must be a power of two");
  assert(params_.ways > 0);
  std::uint64_t lines = params_.size_bytes / params_.line_bytes;
  assert(lines >= params_.ways);
  num_sets_ = lines / params_.ways;
  ways_.assign(num_sets_ * params_.ways, Way{});
}

bool Cache::Access(sim::Addr addr) {
  std::uint64_t set = SetIndex(addr);
  sim::Addr tag = Tag(addr);
  Way* base = &ways_[set * params_.ways];
  for (std::uint32_t w = 0; w < params_.ways; ++w) {
    if (base[w].valid && base[w].tag == tag) {
      base[w].lru = ++tick_;
      ++hits_;
      return true;
    }
  }
  ++misses_;
  return false;
}

bool Cache::Contains(sim::Addr addr) const {
  std::uint64_t set = SetIndex(addr);
  sim::Addr tag = Tag(addr);
  const Way* base = &ways_[set * params_.ways];
  for (std::uint32_t w = 0; w < params_.ways; ++w) {
    if (base[w].valid && base[w].tag == tag) return true;
  }
  return false;
}

std::optional<sim::Addr> Cache::Fill(sim::Addr addr) {
  std::uint64_t set = SetIndex(addr);
  sim::Addr tag = Tag(addr);
  Way* base = &ways_[set * params_.ways];
  // Already present: refresh.
  for (std::uint32_t w = 0; w < params_.ways; ++w) {
    if (base[w].valid && base[w].tag == tag) {
      base[w].lru = ++tick_;
      return std::nullopt;
    }
  }
  // Free way?
  for (std::uint32_t w = 0; w < params_.ways; ++w) {
    if (!base[w].valid) {
      base[w] = Way{tag, true, ++tick_};
      return std::nullopt;
    }
  }
  // Evict LRU.
  std::uint32_t victim = 0;
  for (std::uint32_t w = 1; w < params_.ways; ++w) {
    if (base[w].lru < base[victim].lru) victim = w;
  }
  sim::Addr evicted = (base[victim].tag * num_sets_ + set) * params_.line_bytes;
  base[victim] = Way{tag, true, ++tick_};
  return evicted;
}

}  // namespace ndc::mem
