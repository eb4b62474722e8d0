#pragma once

// Allocation-free callback storage for the discrete-event substrate.
//
// A SmallCallback is a move-only type-erased `void()` callable. Callables up
// to kInlineBytes are stored inline in the object (the common case: hot-path
// lambdas capture a handful of pointers and integers). Larger callables are
// placed in fixed-size blocks drawn from a CallbackArena free list, so the
// steady-state scheduling path performs no heap allocation at all; only
// callables bigger than an arena block (rare, cold paths) fall back to
// operator new.
//
// An InlineFunction<Sig, N> is a move-only type-erased callable with any
// signature whose capture always lives inside the object: a callable larger
// than N bytes is a compile error, never a heap fallback. The completions
// that travel with a packet, a DRAM request or a sync request use it.

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

/// Move-only type-erased `void()` callable with inline storage for small
/// captures and arena-pooled storage for large ones.
class SmallCallback {
 public:
  static constexpr std::size_t kInlineBytes = 64;
  static constexpr std::size_t kInlineAlign = 16;

  SmallCallback() = default;

  template <typename F>
  static SmallCallback Make(CallbackArena& arena, F&& f) {
    using Fn = std::decay_t<F>;
    static_assert(std::is_invocable_r_v<void, Fn&>, "callback must be callable as void()");
    SmallCallback c;
    c.arena_ = &arena;
    if constexpr (sizeof(Fn) <= kInlineBytes && alignof(Fn) <= kInlineAlign &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(c.buf_)) Fn(std::forward<F>(f));
      c.ops_ = &kInlineOps<Fn>;
    } else if constexpr (sizeof(Fn) <= CallbackArena::kBlockBytes &&
                         alignof(Fn) <= alignof(std::max_align_t)) {
      void* p = arena.Acquire();
      ::new (p) Fn(std::forward<F>(f));
      c.ext_ = p;
      c.ops_ = &kPooledOps<Fn>;
    } else {
      void* p = ::operator new(sizeof(Fn), std::align_val_t{alignof(Fn)});
      ::new (p) Fn(std::forward<F>(f));
      c.ext_ = p;
      c.ops_ = &kHeapOps<Fn>;
    }
    return c;
  }

  SmallCallback(SmallCallback&& o) noexcept : ops_(o.ops_), arena_(o.arena_) {
    if (ops_ == nullptr) return;
    if (ops_->release != nullptr) {
      ext_ = o.ext_;
    } else {
      ops_->relocate(buf_, o.buf_);
    }
    o.ops_ = nullptr;
  }

  SmallCallback& operator=(SmallCallback&& o) noexcept {
    if (this == &o) return *this;
    Dispose();
    ops_ = o.ops_;
    arena_ = o.arena_;
    if (ops_ != nullptr) {
      if (ops_->release != nullptr) {
        ext_ = o.ext_;
      } else {
        ops_->relocate(buf_, o.buf_);
      }
      o.ops_ = nullptr;
    }
    return *this;
  }

  SmallCallback(const SmallCallback&) = delete;
  SmallCallback& operator=(const SmallCallback&) = delete;

  ~SmallCallback() { Dispose(); }

  explicit operator bool() const { return ops_ != nullptr; }

  void operator()() {
    assert(ops_ != nullptr);
    ops_->invoke(target());
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*destroy)(void*);
    /// Move-construct into dst and destroy src (inline storage only).
    void (*relocate)(void* dst, void* src);
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
  template <typename Fn>
  static void RelocateImpl(void* dst, void* src) {
    Fn* s = static_cast<Fn*>(src);
    ::new (dst) Fn(std::move(*s));
    s->~Fn();
  }
  static void ReleasePooled(CallbackArena* a, void* p) { a->Release(p); }
  template <typename Fn>
  static void ReleaseHeap(CallbackArena*, void* p) {
    ::operator delete(p, std::align_val_t{alignof(Fn)});
  }

  template <typename Fn>
  static constexpr Ops kInlineOps{&InvokeImpl<Fn>, &DestroyImpl<Fn>, &RelocateImpl<Fn>,
                                  nullptr};
  template <typename Fn>
  static constexpr Ops kPooledOps{&InvokeImpl<Fn>, &DestroyImpl<Fn>, nullptr,
                                  &ReleasePooled};
  template <typename Fn>
  static constexpr Ops kHeapOps{&InvokeImpl<Fn>, &DestroyImpl<Fn>, nullptr,
                                &ReleaseHeap<Fn>};

  const Ops* ops_ = nullptr;
  CallbackArena* arena_ = nullptr;
  union {
    void* ext_;
    alignas(kInlineAlign) unsigned char buf_[kInlineBytes];
  };
};

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
