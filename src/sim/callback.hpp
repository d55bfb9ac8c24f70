#pragma once

// Allocation-free callback storage for the discrete-event substrate.
//
// A SmallCallback is a type-erased `void()` callable slot that never moves:
// the callable is constructed in place, in an inline buffer of kInlineBytes,
// and invoked where it was built. Every event the simulator schedules is a
// lambda capturing a handful of pointers and integers, so the buffer holds
// them all; a larger callable is a compile error in Emplace, never a heap
// allocation.

#include <cassert>
#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace ndc::sim {

/// Non-movable type-erased `void()` callable slot with inline storage. It
/// lives in stable storage (an EventQueue node) and is filled with Emplace
/// and emptied with Reset.
class SmallCallback {
 public:
  static constexpr std::size_t kInlineBytes = 64;
  static constexpr std::size_t kInlineAlign = 16;

  SmallCallback() = default;

  /// Constructs `f` in this callback, which must be empty. The callable is
  /// built in place, so a callback that lives in stable storage (an event
  /// queue node) is never relocated between scheduling and invocation.
  template <typename F>
  void Emplace(F&& f) {
    using Fn = std::decay_t<F>;
    static_assert(std::is_invocable_r_v<void, Fn&>, "callback must be callable as void()");
    static_assert(sizeof(Fn) <= kInlineBytes && alignof(Fn) <= kInlineAlign,
                  "an event callback must fit SmallCallback's 64-byte inline buffer");
    assert(ops_ == nullptr);
    ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
    ops_ = &kOps<Fn>;
  }

  SmallCallback(const SmallCallback&) = delete;
  SmallCallback& operator=(const SmallCallback&) = delete;
  SmallCallback(SmallCallback&&) = delete;
  SmallCallback& operator=(SmallCallback&&) = delete;

  ~SmallCallback() { Reset(); }

  /// Destroys the stored callable, leaving this callback empty.
  void Reset() {
    if (ops_ == nullptr) return;
    ops_->destroy(buf_);
    ops_ = nullptr;
  }

  void operator()() {
    assert(ops_ != nullptr);
    ops_->invoke(buf_);
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*destroy)(void*);
  };

  template <typename Fn>
  static void InvokeImpl(void* p) {
    (*static_cast<Fn*>(p))();
  }
  template <typename Fn>
  static void DestroyImpl(void* p) {
    static_cast<Fn*>(p)->~Fn();
  }

  template <typename Fn>
  static constexpr Ops kOps{&InvokeImpl<Fn>, &DestroyImpl<Fn>};

  const Ops* ops_ = nullptr;
  alignas(kInlineAlign) unsigned char buf_[kInlineBytes];
};

}  // namespace ndc::sim
