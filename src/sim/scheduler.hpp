// The narrow scheduling surface protocol state machines are allowed to
// hold.
//
// Everything below the Converse scheduler — the Gemini network model, the
// uGNI CQ/SMSG emulation, the MPI library model, retry backoff timers —
// only ever needs three things: the current virtual time and absolute and
// relative scheduling.  They must never see the whole sim::Engine, whose
// run()/run_until()/stop() surface belongs to the code that *drives* the
// simulation (converse::Machine, benches, tests).  Handing an FSM a
// Scheduler instead of an Engine keeps that split a compile-time
// guarantee.
//
// There is no cancellation.  An owner that re-arms a pending step to an
// earlier time (Pe::wake, SmpLayer::comm_wake) keeps a step generation,
// captures it in the callback, and bumps it on re-arm; the superseded
// step fires and returns at once.
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

#include "sim/small_fn.hpp"
#include "util/units.hpp"

namespace ugnirt::sim {

class Engine;

/// What a protocol state machine holds.  now()/schedule_at()/
/// schedule_after() — nothing else; no run/stop controls.
class Scheduler final {
 public:
  // Copyable handle (one word); only Engine mints new ones.
  Scheduler(const Scheduler&) = default;
  Scheduler& operator=(const Scheduler&) = default;

  /// Current virtual time: the engine clock.  Defined in engine.cpp.
  SimTime now() const;

  /// Schedule `fn` at absolute virtual time `when` (clamped to now()).
  /// Defined in engine.cpp.
  void schedule_at(SimTime when, SmallFn fn);

  /// Schedule `fn` after `delay` nanoseconds.
  void schedule_after(SimTime delay, SmallFn fn) {
    schedule_at(now() + delay, fn);
  }

 private:
  friend class Engine;
  explicit Scheduler(Engine* engine) : engine_(engine) {}
  Engine* engine_;
};

}  // namespace ugnirt::sim
