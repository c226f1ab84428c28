// The narrow scheduling surface protocol state machines are allowed to
// hold.
//
// Everything below the Converse scheduler — the Gemini network model, the
// uGNI CQ/SMSG emulation, the MPI library model, retry backoff timers —
// only ever needs four things: the current virtual time, absolute and
// relative scheduling, and cancellation.  They must never see the whole
// sim::Engine, whose run()/run_until()/stop() surface belongs to the code
// that *drives* the simulation (converse::Machine, benches, tests).
// Handing an FSM a Scheduler instead of an Engine keeps that split a
// compile-time guarantee.
//
// Scheduler is deliberately CONCRETE and final: it is a one-word engine
// handle whose methods are plain functions, not virtuals.  The old
// abstract-base design put a vtable dispatch on every schedule_at/now —
// once per simulated event, millions of times per full-machine sweep —
// for exactly one implementation.  The narrow-surface guarantee never
// needed virtual dispatch; it needs a type that exposes nothing else,
// which this is.  Engine::scheduler() returns it; its now() is the engine
// clock.
#pragma once

#include <cstdint>
#include <memory>

#include "sim/small_fn.hpp"
#include "util/units.hpp"

namespace ugnirt::sim {

class Engine;
struct EventRecord;

/// Handle to a scheduled event; allows cancellation (e.g. timeouts that are
/// disarmed when the awaited completion arrives first).
class EventHandle {
 public:
  EventHandle() = default;

  /// Prevent the callback from running.  Safe to call multiple times and
  /// after the event fired (no-op).  Cancellation never touches the
  /// queue: it flips the record's tombstone (and drops the engine's
  /// live-event count); the engine skips the dead event when it
  /// surfaces.  The record pointer is guarded twice: the weak guard
  /// proves the engine (and so the record's slab) is still alive, and
  /// the generation check makes a handle to a recycled record a no-op.
  void cancel();

  /// True while the event is still scheduled and uncancelled.
  bool valid() const;

 private:
  friend class Engine;
  EventHandle(std::weak_ptr<std::int64_t> live, EventRecord* rec,
              std::uint64_t gen)
      : live_(std::move(live)), rec_(rec), gen_(gen) {}
  // The engine's live-event counter.  Doubles as the liveness guard: it
  // expires with the engine, so a handle that outlives the engine never
  // touches the (freed) record.
  std::weak_ptr<std::int64_t> live_;
  EventRecord* rec_ = nullptr;
  std::uint64_t gen_ = 0;
};

/// What a protocol state machine holds.  now()/schedule_at()/
/// schedule_after()/cancel() — nothing else; no run/stop controls.
class Scheduler final {
 public:
  // Copyable handle (one word); only Engine mints new ones.
  Scheduler(const Scheduler&) = default;
  Scheduler& operator=(const Scheduler&) = default;

  /// Current virtual time: the engine clock.  Defined in engine.cpp.
  SimTime now() const;

  /// Schedule `fn` at absolute virtual time `when` (clamped to now()).
  /// Defined in engine.cpp.
  EventHandle schedule_at(SimTime when, SmallFn fn);

  /// Schedule `fn` after `delay` nanoseconds.
  EventHandle schedule_after(SimTime delay, SmallFn fn) {
    return schedule_at(now() + delay, std::move(fn));
  }

  /// Disarm a previously scheduled event (sugar over EventHandle::cancel
  /// so FSM code reads uniformly against the interface).
  void cancel(EventHandle& handle) { handle.cancel(); }

 private:
  friend class Engine;
  explicit Scheduler(Engine* engine) : engine_(engine) {}
  Engine* engine_;
};

}  // namespace ugnirt::sim
