#pragma once

// An InlineFunction<Sig, N> is a move-only type-erased callable with any
// signature whose capture always lives inside the object: a callable larger
// than N bytes is a compile error, never a heap fallback. The completions
// that travel with a packet, a DRAM request or a sync request use it.

#include <cassert>
#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace ndc::sim {

/// Move-only type-erased `R(Args...)` callable stored inline in N bytes.
/// Like std::function, operator() is const and invokes the stored callable
/// as an lvalue; unlike it, there is no copy and no heap storage.
template <typename Sig, std::size_t N>
class InlineFunction;

template <typename R, typename... Args, std::size_t N>
class InlineFunction<R(Args...), N> {
 public:
  InlineFunction() = default;

  template <typename F, typename Fn = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<Fn, InlineFunction> &&
                                        std::is_invocable_r_v<R, Fn&, Args...>>>
  InlineFunction(F&& f) {
    static_assert(sizeof(Fn) <= N, "capture does not fit this InlineFunction's storage");
    static_assert(alignof(Fn) <= alignof(std::max_align_t), "over-aligned capture");
    static_assert(std::is_nothrow_move_constructible_v<Fn>, "capture must move without throwing");
    ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
    ops_ = &kOps<Fn>;
  }

  InlineFunction(InlineFunction&& o) noexcept : ops_(o.ops_) {
    if (ops_ == nullptr) return;
    ops_->relocate(buf_, o.buf_);
    o.ops_ = nullptr;
  }

  InlineFunction& operator=(InlineFunction&& o) noexcept {
    if (this == &o) return *this;
    Reset();
    ops_ = o.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(buf_, o.buf_);
      o.ops_ = nullptr;
    }
    return *this;
  }

  InlineFunction& operator=(std::nullptr_t) noexcept {
    Reset();
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { Reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  R operator()(Args... args) const {
    assert(ops_ != nullptr);
    return ops_->invoke(buf_, std::forward<Args>(args)...);
  }

 private:
  struct Ops {
    R (*invoke)(void*, Args&&...);
    /// Move-construct into dst and destroy src.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void*);
  };

  void Reset() {
    if (ops_ == nullptr) return;
    ops_->destroy(buf_);
    ops_ = nullptr;
  }

  template <typename Fn>
  static R InvokeImpl(void* p, Args&&... args) {
    return (*static_cast<Fn*>(p))(std::forward<Args>(args)...);
  }
  template <typename Fn>
  static void RelocateImpl(void* dst, void* src) {
    Fn* s = static_cast<Fn*>(src);
    ::new (dst) Fn(std::move(*s));
    s->~Fn();
  }
  template <typename Fn>
  static void DestroyImpl(void* p) {
    static_cast<Fn*>(p)->~Fn();
  }

  template <typename Fn>
  static constexpr Ops kOps{&InvokeImpl<Fn>, &RelocateImpl<Fn>, &DestroyImpl<Fn>};

  // Storage first, so N = 16k - 8 packs the object into 16k bytes.
  alignas(std::max_align_t) mutable unsigned char buf_[N];
  const Ops* ops_ = nullptr;
};

}  // namespace ndc::sim
