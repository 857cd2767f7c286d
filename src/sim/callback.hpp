// Small-buffer-optimized, move-only callable for the event kernel.
//
// std::function's inline buffer (16 bytes in libstdc++) is too small for the
// closures the simulator actually schedules — a socket read captures a
// reader, a continuation and a Message (120 bytes), a packet delivery its
// node and a 48-byte fragment header — so nearly every scheduled event paid
// a heap allocation. SmallCallback stores every closure in place, in
// kInlineCapacity bytes; a closure that is larger or not nothrow-movable
// does not compile.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace softqos::sim {

class SmallCallback {
 public:
  /// Sized to hold the largest closure in the tree, Socket::recv's (the
  /// reader, a std::function continuation and an osim::Message); every
  /// event slot pays for it.
  static constexpr std::size_t kInlineCapacity = 120;

  SmallCallback() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallCallback> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  SmallCallback(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= kInlineCapacity &&
                      alignof(Fn) <= alignof(std::max_align_t),
                  "event callback does not fit SmallCallback's inline "
                  "buffer (kInlineCapacity bytes, max_align_t alignment): "
                  "capture a pointer to large state instead of a copy");
    static_assert(std::is_nothrow_move_constructible_v<Fn>,
                  "event callback is not nothrow-movable; the usual cause is "
                  "a const object captured by copy (a const std::string or a "
                  "const struct): init-capture a non-const copy or a pointer");
    ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
    ops_ = &kOps<Fn>;
  }

  SmallCallback(SmallCallback&& other) noexcept { moveFrom(other); }

  SmallCallback& operator=(SmallCallback&& other) noexcept {
    if (this != &other) {
      reset();
      moveFrom(other);
    }
    return *this;
  }

  SmallCallback(const SmallCallback&) = delete;
  SmallCallback& operator=(const SmallCallback&) = delete;

  ~SmallCallback() { reset(); }

  /// Invoke the stored callable. The callable stays valid and may be invoked
  /// again (periodic events fire the same closure every period).
  void operator()() { ops_->invoke(storage_); }

  [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }

  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*relocate)(void* from, void* to);  // move-construct to, destroy from
    void (*destroy)(void*);
  };

  template <typename Fn>
  static constexpr Ops kOps = {
      [](void* o) { (*std::launder(reinterpret_cast<Fn*>(o)))(); },
      [](void* from, void* to) {
        Fn* src = std::launder(reinterpret_cast<Fn*>(from));
        ::new (to) Fn(std::move(*src));
        src->~Fn();
      },
      [](void* o) { std::launder(reinterpret_cast<Fn*>(o))->~Fn(); },
  };

  void moveFrom(SmallCallback& other) noexcept {
    if (other.ops_ != nullptr) {
      other.ops_->relocate(other.storage_, storage_);
      ops_ = other.ops_;
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) std::byte storage_[kInlineCapacity];
  const Ops* ops_ = nullptr;
};

}  // namespace softqos::sim
