#include "alloc_count.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

std::atomic<bool> g_counting{false};
thread_local std::uint64_t t_allocs = 0;

void* CountedAlloc(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) ++t_allocs;
  if (n == 0) n = 1;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}

void* CountedAlignedAlloc(std::size_t n, std::align_val_t al) {
  if (g_counting.load(std::memory_order_relaxed)) ++t_allocs;
  std::size_t a = static_cast<std::size_t>(al);
  std::size_t rounded = (n + a - 1) / a * a;  // aligned_alloc wants a multiple
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

void SetAllocCounting(bool on) { g_counting.store(on, std::memory_order_relaxed); }

std::uint64_t ThreadAllocs() { return t_allocs; }

}  // namespace perfbench

// Every replaceable allocation form, so that none bypasses the count.
void* operator new(std::size_t n) { return perfbench::CountedAlloc(n); }
void* operator new[](std::size_t n) { return perfbench::CountedAlloc(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return perfbench::CountedAlignedAlloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return perfbench::CountedAlignedAlloc(n, al);
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return perfbench::CountedAlloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return operator new(n, std::nothrow);
}
void* operator new(std::size_t n, std::align_val_t al, const std::nothrow_t&) noexcept {
  try {
    return perfbench::CountedAlignedAlloc(n, al);
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
