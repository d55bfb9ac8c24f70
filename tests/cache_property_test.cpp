// Property test: the set-associative cache matches a straightforward
// reference model (per-set LRU lists) under randomized access/fill
// sequences, at a small geometry and at the two the machine builds (the L1
// and an L2 bank of arch/config.hpp); plus DRAM edge behaviours not covered
// elsewhere.

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "arch/config.hpp"
#include "mem/cache.hpp"
#include "mem/dram.hpp"
#include "sim/rng.hpp"

namespace ndc::mem {
namespace {

// Reference model: per-set list of tags, most-recent first.
class RefCache {
 public:
  RefCache(std::uint64_t sets, std::uint32_t ways, std::uint64_t line)
      : sets_(sets), ways_(ways), line_(line) {}

  bool Access(sim::Addr a) {
    auto [set, tag] = Key(a);
    auto& l = lists_[set];
    for (auto it = l.begin(); it != l.end(); ++it) {
      if (*it == tag) {
        l.erase(it);
        l.push_front(tag);
        return true;
      }
    }
    return false;
  }
  /// Returns the line-aligned address of the evicted line, if any.
  std::optional<sim::Addr> Fill(sim::Addr a) {
    auto [set, tag] = Key(a);
    auto& l = lists_[set];
    for (auto it = l.begin(); it != l.end(); ++it) {
      if (*it == tag) {
        l.erase(it);
        break;
      }
    }
    l.push_front(tag);
    if (l.size() <= ways_) return std::nullopt;
    sim::Addr victim = (l.back() * sets_ + set) * line_;
    l.pop_back();
    return victim;
  }
  bool Contains(sim::Addr a) const {
    auto [set, tag] = Key(a);
    auto it = lists_.find(set);
    if (it == lists_.end()) return false;
    for (sim::Addr t : it->second) {
      if (t == tag) return true;
    }
    return false;
  }

 private:
  std::pair<std::uint64_t, sim::Addr> Key(sim::Addr a) const {
    sim::Addr lineno = a / line_;
    return {lineno % sets_, lineno / sets_};
  }
  std::uint64_t sets_;
  std::uint32_t ways_;
  std::uint64_t line_;
  std::map<std::uint64_t, std::list<sim::Addr>> lists_;
};

struct CacheCase {
  std::string geometry;
  CacheParams params;
  std::uint64_t seed = 0;
};

// A case prints as its seed; the instantiation and case names carry the
// geometry.
void PrintTo(const CacheCase& c, std::ostream* os) { *os << c.seed; }

class CacheVsReference : public ::testing::TestWithParam<CacheCase> {};

TEST_P(CacheVsReference, RandomOpsAgree) {
  const CacheParams& p = GetParam().params;
  Cache cache(p);
  RefCache ref(p.size_bytes / p.line_bytes / p.ways, p.ways, p.line_bytes);
  sim::Rng rng(GetParam().seed);
  // Addresses span 8x the capacity, so every set sees several times its
  // ways in distinct lines and evicts; at least 16 operations per line let
  // the 64-way L2 bank fill its sets well past their ways.
  const std::uint64_t lines = p.size_bytes / p.line_bytes;
  const std::uint64_t range = 8 * p.size_bytes;
  const std::uint64_t ops = std::max<std::uint64_t>(5000, 16 * lines);
  std::uint64_t evictions = 0;
  // Fills both; true if they evicted the same line (or neither evicted).
  auto fill = [&](sim::Addr a) {
    std::optional<sim::Addr> got = cache.Fill(a);
    evictions += got.has_value();
    return got == ref.Fill(a);
  };
  for (std::uint64_t i = 0; i < ops; ++i) {
    sim::Addr a = rng.NextBelow(range);
    switch (rng.NextBelow(3)) {
      case 0: {
        bool hit = cache.Access(a);
        bool ref_hit = ref.Access(a);
        ASSERT_EQ(hit, ref_hit) << "op " << i << " addr " << a;
        if (!hit) {
          ASSERT_TRUE(fill(a)) << "op " << i << " addr " << a;
        }
        break;
      }
      case 1:
        ASSERT_TRUE(fill(a)) << "op " << i << " addr " << a;
        break;
      case 2:
        ASSERT_EQ(cache.Contains(a), ref.Contains(a)) << "op " << i;
        break;
    }
  }
  EXPECT_GT(evictions, 0u) << "the victim rule went unexercised";
}

std::vector<CacheCase> SeedsOf(const std::string& geometry, CacheParams p) {
  std::vector<CacheCase> out;
  for (std::uint64_t seed : {1, 7, 13, 29, 57}) out.push_back({geometry, p, seed});
  return out;
}

// Small: 32 lines, 4 ways (8 sets).
INSTANTIATE_TEST_SUITE_P(Seeds, CacheVsReference,
                         ::testing::ValuesIn(SeedsOf("small", CacheParams{2048, 64, 4, 2})));

// The private L1 (32 KiB, 64-B lines, 2-way) and one L2 bank (512 KiB,
// 256-B lines, 64-way) at their Table-1 geometry.
std::vector<CacheCase> Table1Cases() {
  arch::ArchConfig cfg;
  std::vector<CacheCase> out = SeedsOf("L1", cfg.l1);
  for (CacheCase& c : SeedsOf("L2Bank", cfg.l2)) out.push_back(c);
  return out;
}

INSTANTIATE_TEST_SUITE_P(Table1, CacheVsReference, ::testing::ValuesIn(Table1Cases()),
                         [](const ::testing::TestParamInfo<CacheCase>& info) {
                           return info.param.geometry + "_" + std::to_string(info.param.seed);
                         });

TEST(CacheEdge, EvictionReturnsTheDisplacedLine) {
  CacheParams p;
  p.size_bytes = 256;  // 4 lines
  p.line_bytes = 64;
  p.ways = 2;          // 2 sets
  Cache c(p);
  sim::Rng rng(3);
  RefCache ref(2, 2, 64);
  for (int i = 0; i < 500; ++i) {
    sim::Addr a = rng.NextBelow(1 << 12) & ~sim::Addr{63};
    bool was_present = ref.Contains(a);
    auto evicted = c.Fill(a);
    ref.Fill(a);
    if (evicted.has_value()) {
      EXPECT_FALSE(was_present);
      EXPECT_FALSE(ref.Contains(*evicted));
      EXPECT_FALSE(c.Contains(*evicted));
      EXPECT_EQ(*evicted % 64, 0u);
    }
  }
}

TEST(DramEdge, RowBufferStateSurvivesAcrossAccesses) {
  DramParams p;
  DramBank b(p);
  b.Access(0, 7);
  EXPECT_TRUE(b.IsRowOpen(7));
  EXPECT_FALSE(b.IsRowOpen(8));
  b.Access(1000, 8);
  EXPECT_TRUE(b.IsRowOpen(8));
  EXPECT_FALSE(b.IsRowOpen(7));
}

}  // namespace
}  // namespace ndc::mem
