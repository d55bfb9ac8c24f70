#pragma once

// Heap-allocation counting for bench_substrate. alloc_count.cpp replaces the
// global operator new/delete; it is its own translation unit so the compiler
// never sees a replaced `operator new` inlined next to the `std::free` in the
// matching `operator delete` (GCC's -Wmismatched-new-delete fires on that
// pairing under the sanitizer build).

#include <cstdint>

namespace ndc::bench {

/// Allocations made by the whole process so far (relaxed atomic counter).
std::uint64_t AllocCount();

}  // namespace ndc::bench
