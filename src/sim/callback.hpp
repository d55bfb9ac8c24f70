#pragma once

// Allocation-free callback storage for the discrete-event substrate.
//
// A SmallCallback is a type-erased `void()` callable slot that never moves:
// the callable is constructed in place and invoked where it was built.
// Callables up to kInlineBytes are stored inline in the object (the common case: hot-path
// lambdas capture a handful of pointers and integers). Larger callables are
// placed in fixed-size blocks drawn from a CallbackArena free list, so the
// steady-state scheduling path performs no heap allocation at all; only
// callables bigger than an arena block (rare, cold paths) fall back to
// operator new.

#include <cassert>
#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace ndc::sim {

/// Free-list pool of fixed-size callback blocks. Blocks are recycled for the
/// lifetime of the arena; memory is only returned to the system when the
/// arena itself is destroyed.
class CallbackArena {
 public:
  static constexpr std::size_t kBlockBytes = 256;
  static constexpr std::size_t kBlocksPerChunk = 64;

  CallbackArena() = default;
  CallbackArena(const CallbackArena&) = delete;
  CallbackArena& operator=(const CallbackArena&) = delete;

  void* Acquire() {
    if (free_.empty()) Grow();
    void* p = free_.back();
    free_.pop_back();
    return p;
  }

  void Release(void* p) { free_.push_back(p); }

  /// Number of chunk allocations performed so far (a proxy for how often the
  /// pool had to grow; steady state is 0 growth per event).
  std::size_t chunks() const { return chunks_.size(); }

 private:
  void Grow() {
    // operator new[] on unsigned char yields storage aligned for
    // max_align_t; kBlockBytes is a multiple of that alignment, so every
    // block in the chunk is suitably aligned too.
    static_assert(kBlockBytes % alignof(std::max_align_t) == 0);
    chunks_.push_back(std::make_unique<unsigned char[]>(kBlockBytes * kBlocksPerChunk));
    unsigned char* base = chunks_.back().get();
    free_.reserve(free_.size() + kBlocksPerChunk);
    for (std::size_t i = 0; i < kBlocksPerChunk; ++i) {
      free_.push_back(base + i * kBlockBytes);
    }
  }

  std::vector<std::unique_ptr<unsigned char[]>> chunks_;
  std::vector<void*> free_;
};

/// Non-movable type-erased `void()` callable slot with inline storage for
/// small captures and arena-pooled storage for large ones. It lives in stable
/// storage (an EventQueue node) and is filled with Emplace and emptied with
/// Reset.
class SmallCallback {
 public:
  static constexpr std::size_t kInlineBytes = 64;
  static constexpr std::size_t kInlineAlign = 16;

  SmallCallback() = default;

  /// Constructs `f` in this callback, which must be empty. The callable is
  /// built in place, so a callback that lives in stable storage (an event
  /// queue node) is never relocated between scheduling and invocation.
  template <typename F>
  void Emplace(CallbackArena& arena, F&& f) {
    using Fn = std::decay_t<F>;
    static_assert(std::is_invocable_r_v<void, Fn&>, "callback must be callable as void()");
    assert(ops_ == nullptr);
    arena_ = &arena;
    if constexpr (sizeof(Fn) <= kInlineBytes && alignof(Fn) <= kInlineAlign) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else if constexpr (sizeof(Fn) <= CallbackArena::kBlockBytes &&
                         alignof(Fn) <= alignof(std::max_align_t)) {
      void* p = arena.Acquire();
      ::new (p) Fn(std::forward<F>(f));
      ext_ = p;
      ops_ = &kPooledOps<Fn>;
    } else {
      void* p = ::operator new(sizeof(Fn), std::align_val_t{alignof(Fn)});
      ::new (p) Fn(std::forward<F>(f));
      ext_ = p;
      ops_ = &kHeapOps<Fn>;
    }
  }

  SmallCallback(const SmallCallback&) = delete;
  SmallCallback& operator=(const SmallCallback&) = delete;
  SmallCallback(SmallCallback&&) = delete;
  SmallCallback& operator=(SmallCallback&&) = delete;

  ~SmallCallback() { Dispose(); }

  explicit operator bool() const { return ops_ != nullptr; }

  /// Destroys the stored callable (returning any pooled block), leaving this
  /// callback empty.
  void Reset() { Dispose(); }

  void operator()() {
    assert(ops_ != nullptr);
    ops_->invoke(target());
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*destroy)(void*);
    /// Return external storage (pooled or heap); null for inline storage.
    void (*release)(CallbackArena*, void*);
  };

  void* target() { return ops_->release != nullptr ? ext_ : static_cast<void*>(buf_); }

  void Dispose() {
    if (ops_ == nullptr) return;
    void* p = target();
    ops_->destroy(p);
    if (ops_->release != nullptr) ops_->release(arena_, p);
    ops_ = nullptr;
  }

  template <typename Fn>
  static void InvokeImpl(void* p) {
    (*static_cast<Fn*>(p))();
  }
  template <typename Fn>
  static void DestroyImpl(void* p) {
    static_cast<Fn*>(p)->~Fn();
  }
  static void ReleasePooled(CallbackArena* a, void* p) { a->Release(p); }
  template <typename Fn>
  static void ReleaseHeap(CallbackArena*, void* p) {
    ::operator delete(p, std::align_val_t{alignof(Fn)});
  }

  template <typename Fn>
  static constexpr Ops kInlineOps{&InvokeImpl<Fn>, &DestroyImpl<Fn>, nullptr};
  template <typename Fn>
  static constexpr Ops kPooledOps{&InvokeImpl<Fn>, &DestroyImpl<Fn>, &ReleasePooled};
  template <typename Fn>
  static constexpr Ops kHeapOps{&InvokeImpl<Fn>, &DestroyImpl<Fn>, &ReleaseHeap<Fn>};

  const Ops* ops_ = nullptr;
  CallbackArena* arena_ = nullptr;
  union {
    void* ext_;
    alignas(kInlineAlign) unsigned char buf_[kInlineBytes];
  };
};

}  // namespace ndc::sim
