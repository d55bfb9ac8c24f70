#pragma once

// Heap-allocation counting for traced runs. The benchmark binary replaces the
// global operator new; each thread counts its own allocations, so a span on
// one thread reads its delta without contention. Counting is off until
// SetAllocCounting(true), so untraced runs pay one predictable branch.

#include <cstdint>

namespace perfbench {

void SetAllocCounting(bool on);

/// Allocations made by the calling thread while counting was on.
std::uint64_t ThreadAllocs();

}  // namespace perfbench
