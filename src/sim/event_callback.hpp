// Move-only callable holder for scheduled events.
//
// std::function's small-object buffer (16 bytes on libstdc++) is too
// small for the simulator's typical callbacks, so scheduling through
// std::function heap-allocates on the hot path. EventCallback stores any
// callable of up to kInlineBytes inline and only falls back to the heap
// beyond that, which lets the event slab hold callbacks in place with no
// per-event allocation.
//
// kInlineBytes is sized to the largest frame-path capture: a link
// delivery (`this`, the destination node and an IpPacket by value).
// Every frame-path scheduling site checks its capture with
// `static_assert(EventCallback::fits_inline<decltype(fn)>)`, so a capture
// that grows past the buffer fails to compile instead of silently adding
// a malloc/free pair per hop.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace wav::sim {

class EventCallback {
 public:
  /// Inline capacity: `this` + a reference + an 88-byte IpPacket.
  static constexpr std::size_t kInlineBytes = 104;

  /// True if a callable of type F is stored inline (no allocation).
  template <class F, class D = std::decay_t<F>>
  static constexpr bool fits_inline = sizeof(D) <= kInlineBytes &&
                                      alignof(D) <= alignof(std::max_align_t) &&
                                      std::is_nothrow_move_constructible_v<D>;

  EventCallback() noexcept = default;

  template <class F, class D = std::decay_t<F>,
            class = std::enable_if_t<!std::is_same_v<D, EventCallback> &&
                                     std::is_invocable_r_v<void, D&>>>
  // NOLINTNEXTLINE(google-explicit-constructor): callable wrapper
  EventCallback(F&& fn) {
    construct(std::forward<F>(fn));
  }

  EventCallback(EventCallback&& other) noexcept { move_from(std::move(other)); }

  EventCallback& operator=(EventCallback&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(std::move(other));
    }
    return *this;
  }

  EventCallback(const EventCallback&) = delete;
  EventCallback& operator=(const EventCallback&) = delete;

  ~EventCallback() { reset(); }

  /// Replaces the held callable with `fn`, constructed in place.
  template <class F>
  void emplace(F&& fn) {
    reset();
    construct(std::forward<F>(fn));
  }

  void operator()() { ops_->invoke(storage_); }

  [[nodiscard]] explicit operator bool() const noexcept { return ops_ != nullptr; }

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void* s);
    /// Move-constructs dst from src and destroys src.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* s) noexcept;
  };

  template <class D>
  static constexpr Ops kInlineOps{
      [](void* s) { (*static_cast<D*>(s))(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) D(std::move(*static_cast<D*>(src)));
        static_cast<D*>(src)->~D();
      },
      [](void* s) noexcept { static_cast<D*>(s)->~D(); }};

  template <class D>
  static constexpr Ops kHeapOps{
      [](void* s) { (**static_cast<D**>(s))(); },
      [](void* dst, void* src) noexcept {
        *static_cast<D**>(dst) = *static_cast<D**>(src);
      },
      [](void* s) noexcept { delete *static_cast<D**>(s); }};

  template <class F, class D = std::decay_t<F>>
  void construct(F&& fn) {
    if constexpr (fits_inline<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(fn));
      ops_ = &kInlineOps<D>;
    } else {
      *static_cast<D**>(static_cast<void*>(storage_)) = new D(std::forward<F>(fn));
      ops_ = &kHeapOps<D>;
    }
  }

  void move_from(EventCallback&& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_{nullptr};
};

}  // namespace wav::sim
