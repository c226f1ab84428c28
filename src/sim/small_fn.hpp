// Fixed-size callable for the engine's event callbacks.
//
// Every scheduled event used to carry a std::function<void()>.  That is
// the right type for an API boundary, but the wrong one for a hot loop:
// libstdc++'s inline buffer is 16 bytes, so any capture beyond two
// pointers silently heap-allocates — one malloc/free per simulated event,
// millions of times per full-machine sweep.
//
// SmallFn is one call pointer plus kInlineBytes (16) of pointer-aligned
// storage, and it accepts only callables that fit there and are
// trivially copyable and trivially destructible.  Every in-tree event
// callback (PE step closures, NIC delivery events, credit returns, retry
// timers) is `this` plus one pointer or scalar, so it fits.  A capture
// that does not fit is a compile error, not a heap allocation: move its
// state into the subsystem that schedules it and capture a pointer or an
// index, as Machine::start does with its closures.  A callback that needs
// the time it fires at reads the scheduler's now() instead of capturing
// it.
//
// Because the callable is trivial, a SmallFn is copied with its bytes
// and never destroyed: invoking it is one load and one indirect call,
// and a pending event (event_queue.hpp) is the SmallFn plus its time,
// 32 bytes.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace ugnirt::sim {

class SmallFn {
 public:
  /// Inline capture capacity: two words, e.g. `this` and a pointer.
  static constexpr std::size_t kInlineBytes = 16;

  /// True for the callables SmallFn stores.
  template <typename Fn>
  static constexpr bool kFits = sizeof(Fn) <= kInlineBytes &&
                                alignof(Fn) <= alignof(void*) &&
                                std::is_trivially_copyable_v<Fn> &&
                                std::is_trivially_destructible_v<Fn>;

  SmallFn() noexcept = default;

  template <typename F, typename Fn = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<Fn, SmallFn> &&
                                        std::is_invocable_r_v<void, Fn&> &&
                                        kFits<Fn>>>
  SmallFn(F&& f) noexcept {  // NOLINT(google-explicit-constructor): drop-in
                             // for the std::function parameters it replaced
    ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
    call_ = [](void* p) { (*std::launder(reinterpret_cast<Fn*>(p)))(); };
  }

  /// Invoke.  Precondition: non-empty.
  void operator()() { call_(buf_); }

 private:
  void (*call_)(void*) = nullptr;
  alignas(void*) unsigned char buf_[kInlineBytes] = {};
};
static_assert(sizeof(SmallFn) == 24,
              "SmallFn size changed: update the comments that cite it");

}  // namespace ugnirt::sim
