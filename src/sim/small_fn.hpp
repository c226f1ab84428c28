// Small-buffer-optimized move-only callable for the engine's event
// callbacks.
//
// Every scheduled event used to carry a std::function<void()>.  That is
// the right type for an API boundary, but the wrong one for a hot loop:
// libstdc++'s inline buffer is 16 bytes, so any capture beyond two
// pointers (a `this` plus a timestamp plus a payload pointer is already
// over) silently heap-allocates — one malloc/free per simulated event,
// millions of times per full-machine sweep.  SmallFn fixes the capacity,
// not the idea: kInlineBytes of in-place storage sized so that every
// in-tree event callback (PE step closures, NIC delivery events, retry
// timers, aggregation deadlines) constructs inline, with a heap fallback
// for oversized captures so correctness never depends on the audit.
//
// The dispatch surface is three raw function pointers (call / relocate /
// destroy) rather than a vtable or a shared ops struct: invoking an event
// is one load + one indirect call, with no second indirection through an
// ops table.  SmallFn is move-only — events are scheduled exactly once
// and the engine is the only owner, so copyability would only invite
// accidental capture copies.
//
// heap_fallbacks() counts oversized constructions process-wide; the event
// arena tests pin it at zero across the in-tree schedulers, which is the
// "no allocation for all in-tree callers" guarantee in executable form.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace ugnirt::sim {

class SmallFn {
 public:
  /// Inline capture capacity.  72 bytes holds a std::function (32) and
  /// the fattest in-tree lambda (machine start closures: this + Pe* +
  /// std::function payload = 48).  With three function pointers and
  /// alignment padding a SmallFn is 112 bytes, and an EventRecord 144
  /// (event_arena.hpp).
  static constexpr std::size_t kInlineBytes = 72;

  SmallFn() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  SmallFn(F&& f) {  // NOLINT(google-explicit-constructor): drop-in for
                    // the std::function parameters it replaces
    emplace(std::forward<F>(f));
  }

  SmallFn(SmallFn&& other) noexcept { move_from(other); }
  SmallFn& operator=(SmallFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;
  ~SmallFn() { reset(); }

  /// Invoke.  Precondition: non-empty.
  void operator()() { call_(buf_); }

  explicit operator bool() const noexcept { return call_ != nullptr; }

  /// Destroy the held callable (no-op when empty).
  void reset() noexcept {
    if (destroy_) destroy_(buf_);
    call_ = nullptr;
    relocate_ = nullptr;
    destroy_ = nullptr;
  }

  /// Process-wide count of constructions that overflowed the inline
  /// buffer.  All in-tree event callbacks fit; tests assert it stays 0.
  static std::uint64_t heap_fallbacks() noexcept {
    return heap_fallbacks_.load(std::memory_order_relaxed);
  }

 private:
  template <typename F>
  void emplace(F&& f) {
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      call_ = [](void* p) { (*std::launder(reinterpret_cast<Fn*>(p)))(); };
      relocate_ = [](void* dst, void* src) noexcept {
        Fn* s = std::launder(reinterpret_cast<Fn*>(src));
        ::new (dst) Fn(std::move(*s));
        s->~Fn();
      };
      destroy_ = [](void* p) noexcept {
        std::launder(reinterpret_cast<Fn*>(p))->~Fn();
      };
    } else {
      // Oversized (or throwing-move) capture: own it on the heap, store
      // only the pointer inline.  Correct for any callable; counted so
      // the zero-alloc guarantee stays testable.
      heap_fallbacks_.fetch_add(1, std::memory_order_relaxed);
      Fn* heap = new Fn(std::forward<F>(f));
      std::memcpy(buf_, &heap, sizeof(heap));
      call_ = [](void* p) {
        Fn* h;
        std::memcpy(&h, p, sizeof(h));
        (*h)();
      };
      relocate_ = [](void* dst, void* src) noexcept {
        std::memcpy(dst, src, sizeof(Fn*));
      };
      destroy_ = [](void* p) noexcept {
        Fn* h;
        std::memcpy(&h, p, sizeof(h));
        delete h;
      };
    }
  }

  void move_from(SmallFn& other) noexcept {
    call_ = other.call_;
    relocate_ = other.relocate_;
    destroy_ = other.destroy_;
    if (relocate_) relocate_(buf_, other.buf_);
    other.call_ = nullptr;
    other.relocate_ = nullptr;
    other.destroy_ = nullptr;
  }

  inline static std::atomic<std::uint64_t> heap_fallbacks_{0};

  void (*call_)(void*) = nullptr;
  void (*relocate_)(void*, void*) noexcept = nullptr;
  void (*destroy_)(void*) noexcept = nullptr;
  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
};

}  // namespace ugnirt::sim
