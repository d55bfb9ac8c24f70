#include "alloc_count.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace ndc::bench {
namespace {

// Single global, relaxed atomics (the benches are single-threaded; atomics
// just keep the operators formally thread-safe).
std::atomic<std::uint64_t> g_allocs{0};

void* CountedAlloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* CountedAlignedAlloc(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  std::size_t a = static_cast<std::size_t>(al);
  std::size_t rounded = (n + a - 1) / a * a;  // aligned_alloc wants a multiple
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

std::uint64_t AllocCount() { return g_allocs.load(std::memory_order_relaxed); }

}  // namespace ndc::bench

using ndc::bench::CountedAlignedAlloc;
using ndc::bench::CountedAlloc;

// Every replaceable form, so that no allocation bypasses the count and every
// block is released by the matching `std::free` (a form left to the
// toolchain's default would hand `std::free` a block it did not `malloc`,
// which AddressSanitizer reports as alloc-dealloc-mismatch).
void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void* operator new(std::size_t n, std::align_val_t al) { return CountedAlignedAlloc(n, al); }
void* operator new[](std::size_t n, std::align_val_t al) { return CountedAlignedAlloc(n, al); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return operator new(n, std::nothrow);
}
void* operator new(std::size_t n, std::align_val_t al, const std::nothrow_t&) noexcept {
  try {
    return CountedAlignedAlloc(n, al);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, std::align_val_t al, const std::nothrow_t&) noexcept {
  return operator new(n, al, std::nothrow);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
