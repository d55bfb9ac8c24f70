// Tests for the memory substrate: set-associative LRU cache behaviour,
// NUCA/channel address mapping, DRAM row-buffer timing, and FR-FCFS
// memory-controller scheduling.

#include <gtest/gtest.h>

#include <vector>

#include "mem/address_map.hpp"
#include "mem/cache.hpp"
#include "mem/dram.hpp"
#include "mem/memctrl.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"

namespace ndc::mem {
namespace {

CacheParams TinyCache() {
  CacheParams p;
  p.size_bytes = 512;  // 8 lines
  p.line_bytes = 64;
  p.ways = 2;          // 4 sets
  p.access_latency = 2;
  return p;
}

TEST(Cache, MissThenHit) {
  Cache c(TinyCache());
  EXPECT_FALSE(c.Access(0x100));
  c.Fill(0x100);
  EXPECT_TRUE(c.Access(0x100));
  EXPECT_EQ(c.hits(), 1u);
  EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, SameLineDifferentOffsetsHit) {
  Cache c(TinyCache());
  c.Fill(0x100);
  EXPECT_TRUE(c.Access(0x100 + 63));
  EXPECT_FALSE(c.Access(0x100 + 64));
}

TEST(Cache, LruEvictsLeastRecentlyUsed) {
  Cache c(TinyCache());  // 4 sets, 2 ways; set stride = 64 * 4 = 256
  // Three lines mapping to set 0.
  c.Fill(0x000);
  c.Fill(0x100);
  c.Access(0x000);             // make 0x000 MRU
  auto evicted = c.Fill(0x200);  // must evict 0x100
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(*evicted, 0x100u);
  EXPECT_TRUE(c.Contains(0x000));
  EXPECT_FALSE(c.Contains(0x100));
  EXPECT_TRUE(c.Contains(0x200));
}

TEST(Cache, ContainsDoesNotPerturbLru) {
  Cache c(TinyCache());
  c.Fill(0x000);
  c.Fill(0x100);
  // Probing 0x000 must NOT refresh it: 0x000 stays LRU and gets evicted.
  EXPECT_TRUE(c.Contains(0x000));
  auto evicted = c.Fill(0x200);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(*evicted, 0x000u);
}

TEST(Cache, FillIsIdempotentForPresentLines) {
  Cache c(TinyCache());
  c.Fill(0x000);
  EXPECT_FALSE(c.Fill(0x000).has_value());
}

// Property: a cache with N lines holds exactly the last N distinct lines
// under a fully-associative-like single-set configuration.
TEST(Cache, FullyAssociativeLruProperty) {
  CacheParams p;
  p.size_bytes = 4 * 64;
  p.line_bytes = 64;
  p.ways = 4;  // one set
  Cache c(p);
  for (sim::Addr a = 0; a < 10; ++a) c.Fill(a * 64);
  for (sim::Addr a = 0; a < 6; ++a) EXPECT_FALSE(c.Contains(a * 64)) << a;
  for (sim::Addr a = 6; a < 10; ++a) EXPECT_TRUE(c.Contains(a * 64)) << a;
}

// True when ways + 1 lines `stride` bytes apart evict the first of them,
// that is when they all fall in one set.
bool StrideConflicts(const CacheParams& p, sim::Addr stride) {
  Cache c(p);
  for (std::uint32_t i = 0; i <= p.ways; ++i) c.Fill(i * stride);
  return !c.Contains(0);
}

TEST(Cache, Table1Geometries) {
  // L1: 32KB, 64B lines, 2 ways -> 256 sets. L2: 512KB, 256B, 64 ways -> 32
  // sets. Lines one set count apart share a set; lines half of it apart
  // alternate between two sets.
  const CacheParams l1{32 * 1024, 64, 2, 2};
  EXPECT_TRUE(StrideConflicts(l1, 256 * 64));
  EXPECT_FALSE(StrideConflicts(l1, 128 * 64));
  const CacheParams l2{512 * 1024, 256, 64, 20};
  EXPECT_TRUE(StrideConflicts(l2, 32 * 256));
  EXPECT_FALSE(StrideConflicts(l2, 16 * 256));
}

TEST(AddressMap, L2HomeIsLineInterleaved) {
  AddressMap a;  // 256B lines, 25 nodes
  EXPECT_EQ(a.HomeBank(0), 0);
  EXPECT_EQ(a.HomeBank(256), 1);
  EXPECT_EQ(a.HomeBank(256 * 25), 0);
  EXPECT_EQ(a.HomeBank(256 * 26 + 17), 1);
}

TEST(AddressMap, McIsPageInterleaved) {
  AddressMap a;
  EXPECT_EQ(a.Mc(0), 0);
  EXPECT_EQ(a.Mc(4096), 1);
  EXPECT_EQ(a.Mc(4096 * 4), 0);
}

TEST(AddressMap, DramBankAndRowDisjointBits) {
  AddressMap a;
  // Consecutive 16KB chunks (page * num_mcs) advance the bank.
  EXPECT_EQ(a.DramBank(0), 0);
  EXPECT_EQ(a.DramBank(16384), 1);
  EXPECT_EQ(a.DramRow(0), 0u);
  EXPECT_EQ(a.DramRow(16384ull * 16), 1u);
}

TEST(DramBank, RowHitIsFasterThanMiss) {
  DramParams p;
  DramBank b(p);
  sim::Cycle t1 = b.Access(0, 5);     // row miss
  sim::Cycle t2 = b.Access(t1, 5);    // row hit
  EXPECT_EQ(t1, p.row_miss_latency);
  EXPECT_EQ(t2 - (t1 + p.data_beat), p.row_hit_latency);
}

TEST(DramBank, SerializesRequests) {
  DramParams p;
  DramBank b(p);
  sim::Cycle t1 = b.Access(0, 1);
  sim::Cycle t2 = b.Access(0, 2);  // issued at same time, must queue
  EXPECT_GT(t2, t1);
}

struct McFixture : public ::testing::Test {
  AddressMap amap;
  DramParams dram;
  sim::EventQueue eq;
  std::unique_ptr<MemCtrl> mc;
  void SetUp() override { mc = std::make_unique<MemCtrl>(0, amap, dram, eq); }
};

TEST_F(McFixture, ReadCompletes) {
  sim::Cycle done = 0;
  mc->EnqueueRead(1, 0x1000, [&](std::uint64_t, sim::Cycle t) { done = t; });
  eq.RunUntilEmpty();
  EXPECT_EQ(done, dram.row_miss_latency);
}

TEST_F(McFixture, FrFcfsPrefersRowHits) {
  // Three requests to one bank: A (row 0), B (row 7), C (row 0).
  // After A opens row 0, FR-FCFS must service C (row hit) before B.
  std::vector<std::uint64_t> order;
  auto cb = [&](std::uint64_t tag, sim::Cycle) { order.push_back(tag); };
  // Bank stride: bank advances every 16KB; same bank = same low chunk.
  // amap.DramBank(addr) = (addr/16384) % 16; row = chunk / 16.
  sim::Addr row0 = 0;                        // bank 0, row 0
  sim::Addr row7 = 16384ull * 16 * 7;        // bank 0, row 7
  sim::Addr row0b = 64;                      // bank 0, row 0
  mc->EnqueueRead(1, row0, cb);
  mc->EnqueueRead(2, row7, cb);
  mc->EnqueueRead(3, row0b, cb);
  eq.RunUntilEmpty();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 1u);
  EXPECT_EQ(order[1], 3u);  // row hit jumps ahead
  EXPECT_EQ(order[2], 2u);
  EXPECT_EQ(mc->stats().Get("mc.row_hits"), 1u);
}

TEST_F(McFixture, IndependentBanksProceedInParallel) {
  sim::Cycle done_a = 0, done_b = 0;
  mc->EnqueueRead(1, 0, [&](std::uint64_t, sim::Cycle t) { done_a = t; });
  mc->EnqueueRead(2, 16384, [&](std::uint64_t, sim::Cycle t) { done_b = t; });  // bank 1
  eq.RunUntilEmpty();
  EXPECT_EQ(done_a, dram.row_miss_latency);
  EXPECT_EQ(done_b, dram.row_miss_latency);  // no serialization across banks
}

TEST_F(McFixture, DoneHookReceivesTagAddrPayloadAndToken) {
  struct Done {
    std::uint64_t tag;
    sim::Addr addr;
    sim::Payload payload;
    std::uint64_t token;
    sim::Cycle at;
  };
  std::vector<Done> got;
  mc->set_done_hook([&](std::uint64_t tag, sim::Addr addr, const sim::Payload& p,
                        std::uint64_t token) { got.push_back({tag, addr, p, token, eq.now()}); });
  const sim::Payload payload{4, 11, 17, 0x3000};
  mc->EnqueueRead(7, 0x3000, payload, 23);
  // A read with its own DoneFn bypasses the hook.
  int own = 0;
  mc->EnqueueRead(8, 16384, [&](std::uint64_t, sim::Cycle) { ++own; });
  eq.RunUntilEmpty();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].tag, 7u);
  EXPECT_EQ(got[0].addr, 0x3000u);
  EXPECT_EQ(got[0].payload, payload);
  EXPECT_EQ(got[0].token, 23u);
  EXPECT_EQ(got[0].at, dram.row_miss_latency);
  EXPECT_EQ(own, 1);
}

TEST_F(McFixture, FrFcfsOldestRowHitWinsAmongSeveralHits) {
  std::vector<std::uint64_t> order;
  auto cb = [&](std::uint64_t tag, sim::Cycle) { order.push_back(tag); };
  sim::Addr row0 = 0, row7 = 16384ull * 16 * 7;  // both bank 0
  mc->EnqueueRead(1, row0, cb);
  mc->EnqueueRead(2, row7, cb);
  mc->EnqueueRead(3, row0 + 64, cb);
  mc->EnqueueRead(4, row0 + 128, cb);
  eq.RunUntilEmpty();
  // After 1 opens row 0: hits 3 then 4 (oldest hit first), then miss 2.
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 3, 4, 2}));
}

TEST_F(McFixture, FrFcfsFallsBackToFifoWithoutRowHits) {
  std::vector<std::uint64_t> order;
  auto cb = [&](std::uint64_t tag, sim::Cycle) { order.push_back(tag); };
  for (std::uint64_t t = 1; t <= 4; ++t) {
    // Every request targets a different row of bank 0: no hit is possible,
    // so FR-FCFS must degrade to exact FIFO (no starvation reordering).
    mc->EnqueueRead(t, static_cast<sim::Addr>(t) * 16384ull * 16, cb);
  }
  eq.RunUntilEmpty();
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 2, 3, 4}));
}

// Replays a completed request stream against the FR-FCFS definition: every
// serviced request must have been the oldest row hit on the bank's open row,
// or the oldest outstanding request when no hit existed.
struct FrFcfsReplay {
  struct Req {
    std::uint64_t tag;
    std::uint64_t row;
  };
  std::vector<Req> pending;
  bool have_open = false;
  std::uint64_t open_row = 0;

  void Check(const std::vector<std::uint64_t>& completed) {
    for (std::uint64_t tag : completed) {
      std::size_t expect = 0;
      bool hit = false;
      for (std::size_t i = 0; i < pending.size(); ++i) {
        if (have_open && pending[i].row == open_row) {
          expect = i;
          hit = true;
          break;
        }
      }
      ASSERT_LT(expect, pending.size());
      EXPECT_EQ(tag, pending[expect].tag)
          << (hit ? "oldest row hit must win" : "oldest overall must win");
      if (tag != pending[expect].tag) return;
      open_row = pending[expect].row;
      have_open = true;
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(expect));
    }
    EXPECT_TRUE(pending.empty());
  }
};

TEST_F(McFixture, FrFcfsReplayPropertySingleBankRandomized) {
  sim::Rng rng(2024);
  FrFcfsReplay replay;
  std::vector<std::uint64_t> completed;
  auto cb = [&](std::uint64_t tag, sim::Cycle) { completed.push_back(tag); };
  for (std::uint64_t t = 1; t <= 60; ++t) {
    std::uint64_t row = rng.NextBelow(4);
    sim::Addr addr = static_cast<sim::Addr>(row) * 16384ull * 16 + t * 64;  // bank 0
    replay.pending.push_back({t, row});
    mc->EnqueueRead(t, addr, cb);
  }
  eq.RunUntilEmpty();
  ASSERT_EQ(completed.size(), 60u);
  replay.Check(completed);
}

TEST_F(McFixture, FrFcfsReplayPropertyMultiBankRandomized) {
  sim::Rng rng(77);
  constexpr std::uint64_t kBanks = 4;
  FrFcfsReplay replay[kBanks];
  std::vector<std::uint64_t> completed[kBanks];
  for (std::uint64_t t = 1; t <= 120; ++t) {
    std::uint64_t bank = rng.NextBelow(kBanks);
    std::uint64_t row = rng.NextBelow(3);
    // bank stride 16 KB, row stride 16 banks' worth; offset stays in-page.
    sim::Addr addr = static_cast<sim::Addr>(row) * 16384ull * 16 + bank * 16384ull +
                     (t % 64) * 64;
    replay[bank].pending.push_back({t, row});
    mc->EnqueueRead(t, addr, [&completed, bank](std::uint64_t tag, sim::Cycle) {
      completed[bank].push_back(tag);
    });
  }
  eq.RunUntilEmpty();
  for (std::uint64_t b = 0; b < kBanks; ++b) {
    ASSERT_EQ(completed[b].size(), replay[b].pending.size()) << "bank " << b;
    replay[b].Check(completed[b]);
  }
}

}  // namespace
}  // namespace ndc::mem
