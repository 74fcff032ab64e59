// Move-only callable holder for engine events.
//
// std::function requires copyability, which would force every move-only
// capture (e.g. the fabric::PacketPtr box of a frame in flight between
// switch hops) through a shared_ptr indirection just to satisfy the type
// system. EventFn accepts move-only lambdas directly: small captures
// (<= kInlineBytes) live inline with zero heap traffic, larger ones cost
// exactly one allocation. Packet events capture the frame's box, not the
// frame, so every hop of a packet stays inline.
#pragma once

#include <cstddef>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

namespace vibe::sim {

class EventFn {
 public:
  /// Captures up to this many bytes are stored inline (no allocation).
  static constexpr std::size_t kInlineBytes = 56;

  EventFn() noexcept = default;
  EventFn(std::nullptr_t) noexcept {}

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, EventFn> &&
                                        std::is_invocable_r_v<void, D&>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor)
    if constexpr (std::is_same_v<D, std::function<void()>>) {
      // A null std::function must convert to an *empty* EventFn so the
      // engine can reject it at post time instead of exploding at fire time.
      if (!f) return;
    }
    if constexpr (sizeof(D) <= kInlineBytes &&
                  alignof(D) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      ops_ = &InlineOps<D>::ops;
    } else {
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(f)));
      ops_ = &HeapOps<D>::ops;
    }
  }

  EventFn(EventFn&& other) noexcept { moveFrom(other); }
  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      moveFrom(other);
    }
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  void operator()() { ops_->call(storage_); }

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*call)(void*);
    void (*destroy)(void*) noexcept;
    // Move-construct into dst from src, then destroy src.
    void (*relocate)(void* src, void* dst) noexcept;
  };

  template <typename D>
  struct InlineOps {
    static void call(void* s) { (*static_cast<D*>(s))(); }
    static void destroy(void* s) noexcept { static_cast<D*>(s)->~D(); }
    static void relocate(void* src, void* dst) noexcept {
      ::new (dst) D(std::move(*static_cast<D*>(src)));
      static_cast<D*>(src)->~D();
    }
    static constexpr Ops ops{&call, &destroy, &relocate};
  };

  template <typename D>
  struct HeapOps {
    static D* ptr(void* s) noexcept { return *static_cast<D**>(s); }
    static void call(void* s) { (*ptr(s))(); }
    static void destroy(void* s) noexcept { delete ptr(s); }
    static void relocate(void* src, void* dst) noexcept {
      ::new (dst) D*(ptr(src));
    }
    static constexpr Ops ops{&call, &destroy, &relocate};
  };

  void moveFrom(EventFn& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(other.storage_, storage_);
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace vibe::sim
