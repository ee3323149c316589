// Move-only type-erased `void()` callable with a fixed inline buffer.
//
// The simulation engine stores one Callback per event slot.  Captures up to
// kInlineSize bytes are constructed inside the slot itself, so scheduling,
// cancelling and firing an event touch no allocator.  Larger callables fall
// back to a single heap box — none of the in-tree call sites need it (the
// hot ones capture `this` plus a pointer or a couple of values), and
// bench/engine_bench proves the steady-state dispatch path allocation-free.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace vprobe::sim {

class Callback {
 public:
  /// Inline capture budget.  Sized for the hypervisor's and workloads'
  /// lambdas (`[this, pp]`, `[this, vp]`, small `[&]` test captures) with
  /// room to spare; a capture one pointer too large silently boxes instead
  /// of failing to compile.
  static constexpr std::size_t kInlineSize = 64;

  Callback() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, Callback> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  Callback(F&& f) {  // NOLINT(google-explicit-constructor): mirrors std::function
    using Fn = std::decay_t<F>;
    if constexpr (fits_inline<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &InlineOps<Fn>::ops;
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &BoxedOps<Fn>::ops;
    }
  }

  Callback(Callback&& other) noexcept { move_from(other); }
  Callback& operator=(Callback&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;
  ~Callback() { reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  void operator()() { ops_->invoke(buf_); }

  /// Destroy the current callable (if any) and construct `f` in place —
  /// saves the temporary-plus-relocate of `cb = Callback{f}` on hot paths.
  template <typename F>
  void emplace(F&& f) {
    reset();
    using Fn = std::decay_t<F>;
    if constexpr (std::is_same_v<Fn, Callback>) {
      *this = std::forward<F>(f);
    } else if constexpr (fits_inline<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &InlineOps<Fn>::ops;
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &BoxedOps<Fn>::ops;
    }
  }

  /// Destroy the held callable (releases captured resources); empty after.
  void reset() {
    if (ops_ != nullptr) {
      // destroy == nullptr marks a trivially destructible inline callable
      // (the common case: captures of pointers and values); skipping the
      // indirect call there measurably speeds the fire->recycle path.
      if (ops_->destroy != nullptr) ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    /// Move-construct into `dst` from `src`, then destroy `src`.
    void (*relocate)(void* src, void* dst) noexcept;
    void (*destroy)(void*) noexcept;
  };

  template <typename Fn>
  static constexpr bool fits_inline =
      sizeof(Fn) <= kInlineSize && alignof(Fn) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<Fn>;

  template <typename Fn>
  struct InlineOps {
    static void invoke(void* p) { (*static_cast<Fn*>(p))(); }
    static void relocate(void* src, void* dst) noexcept {
      Fn* s = static_cast<Fn*>(src);
      ::new (dst) Fn(std::move(*s));
      s->~Fn();
    }
    static void destroy(void* p) noexcept { static_cast<Fn*>(p)->~Fn(); }
    static constexpr Ops ops{
        &invoke, &relocate,
        std::is_trivially_destructible_v<Fn> ? nullptr : &destroy};
  };

  template <typename Fn>
  struct BoxedOps {
    static Fn* unbox(void* p) { return *static_cast<Fn**>(p); }
    static void invoke(void* p) { (*unbox(p))(); }
    static void relocate(void* src, void* dst) noexcept {
      ::new (dst) Fn*(unbox(src));  // steal the box; no deep move
    }
    static void destroy(void* p) noexcept { delete unbox(p); }
    static constexpr Ops ops{&invoke, &relocate, &destroy};
  };

  void move_from(Callback& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(other.buf_, buf_);
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineSize];
  const Ops* ops_ = nullptr;
};

}  // namespace vprobe::sim
