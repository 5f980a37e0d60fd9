// Move-only `void()` callable with inline storage, for event callbacks.
//
// Every simulated event carries one callback, so its storage is on the
// dispatch hot path. `std::function` heap-allocates any capture larger
// than two pointers, which made dispatch cost about one allocation per
// event. InlineCallback stores the callable in a fixed 64-byte, 8-byte
// aligned buffer next to one pointer to a per-type operations table, and
// has no heap fallback: the size bound is a constraint on the converting
// constructor, so a capture that does not fit fails to compile at the
// call site. To fit a larger capture, move the cold part of it behind a
// `std::unique_ptr` (8 bytes) or keep it as a member of the object the
// callback already points at.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace tls::sim {

class InlineCallback {
 public:
  static constexpr std::size_t kCapacity = 64;
  static constexpr std::size_t kAlign = 8;
  /// Whether a callable of type T can be stored.
  template <typename T>
  static constexpr bool kFits =
      std::is_invocable_r_v<void, T&> && sizeof(T) <= kCapacity &&
      alignof(T) <= kAlign && std::is_nothrow_move_constructible_v<T>;

  InlineCallback() noexcept = default;

  /// Wraps `f`; implicit so call sites pass lambdas directly. A null
  /// function pointer or an empty `std::function` (any callable with
  /// `operator bool`) yields an empty callback, which
  /// EventQueue::schedule rejects.
  template <typename F, typename T = std::decay_t<F>>
    requires(!std::is_same_v<T, InlineCallback> && kFits<T>)
  InlineCallback(F&& f) {
    emplace(std::forward<F>(f));
  }

  /// Replaces the target with `f`, built in this callback's buffer (the
  /// converting constructor's rules apply). If building throws, the
  /// callback is left empty, never holding a destroyed target.
  template <typename F, typename T = std::decay_t<F>>
    requires(!std::is_same_v<T, InlineCallback> && kFits<T>)
  void emplace(F&& f) {
    reset();
    if constexpr (std::is_pointer_v<T>) {
      if (f == nullptr) return;
    } else if constexpr (requires(const T& t) { t.operator bool(); }) {
      if (!f) return;
    }
    ::new (static_cast<void*>(buf_)) T(std::forward<F>(f));
    ops_ = &kOps<T>;
  }

  InlineCallback(InlineCallback&& other) noexcept { take(other); }
  InlineCallback& operator=(InlineCallback&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }
  ~InlineCallback() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// Calls the target. Requires a non-empty callback.
  void operator()() { ops_->invoke(buf_); }

 private:
  struct Ops {
    void (*invoke)(void* self);
    /// Move-constructs the target at `dst` from `src`, then destroys
    /// `src`. Null for trivially copyable targets: a move is then a copy
    /// of the buffer and destruction is a no-op.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* self) noexcept;
  };

  template <typename T>
  static constexpr Ops kOps{
      [](void* self) { (*static_cast<T*>(self))(); },
      std::is_trivially_copyable_v<T>
          ? nullptr
          : +[](void* dst, void* src) noexcept {
              T* from = static_cast<T*>(src);
              ::new (dst) T(std::move(*from));
              from->~T();
            },
      std::is_trivially_copyable_v<T>
          ? nullptr
          : +[](void* self) noexcept { static_cast<T*>(self)->~T(); },
  };

  void take(InlineCallback& other) noexcept {
    ops_ = std::exchange(other.ops_, nullptr);
    if (ops_ == nullptr) return;
    if (ops_->relocate == nullptr) {
      std::memcpy(buf_, other.buf_, kCapacity);
    } else {
      ops_->relocate(buf_, other.buf_);
    }
  }

  void reset() noexcept {
    if (ops_ != nullptr && ops_->destroy != nullptr) ops_->destroy(buf_);
    ops_ = nullptr;
  }

  alignas(kAlign) unsigned char buf_[kCapacity];
  const Ops* ops_ = nullptr;
};

}  // namespace tls::sim
