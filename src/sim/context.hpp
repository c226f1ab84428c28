// Execution context of a simulated processing element (PE).
//
// CHARM++ handlers run to completion, so while a PE executes, virtual time
// advances through a *cursor* held in its Context: runtime code calls
// charge() for modeled CPU costs (memory registration, memcpy, MPI library
// overhead, ...) and application code calls charge_app() for its modeled
// compute.  The uGNI/MPI emulation layers find the caller's context through
// sim::current() — mirroring how the real APIs implicitly run on the calling
// core — which keeps the emulated signatures close to Cray's.  Everything
// else takes its Context (or PE id) as an argument.
#pragma once

#include <cassert>

#include "sim/scheduler.hpp"
#include "util/units.hpp"

namespace ugnirt::sim {

class Context {
 public:
  Context(Scheduler& sched, int pe)
      : sched_(&sched), pe_(pe), cursor_(sched.now()) {}

  /// The engine's scheduling surface.  The narrow Scheduler on purpose:
  /// context holders charge time and schedule events, they never drive
  /// the engine.
  Scheduler& scheduler() const { return *sched_; }
  int pe() const { return pe_; }

  /// Current local virtual time of this PE (>= engine time while running).
  SimTime now() const { return cursor_; }

  /// Reset the cursor at the start of a scheduler step.
  void set_now(SimTime t) { cursor_ = t; }

  /// Advance the cursor by a modeled runtime cost.
  void charge(SimTime ns);

  /// Advance the cursor by modeled application compute.
  void charge_app(SimTime ns) {
    assert(ns >= 0);
    cursor_ += ns;
    app_total_ += ns;
  }

  /// Jump the cursor forward to `t` (used by blocking waits: the PE spins
  /// until a completion whose virtual timestamp is already known).
  void wait_until(SimTime t);

  SimTime overhead_total() const { return overhead_total_; }
  SimTime app_total() const { return app_total_; }

 private:
  Scheduler* sched_;
  int pe_;
  SimTime cursor_;
  SimTime overhead_total_ = 0;
  SimTime app_total_ = 0;
};

namespace detail {
extern constinit thread_local Context* t_current;  // no init wrapper
}  // namespace detail

/// The context of the PE executing on the calling thread, or nullptr
/// outside a step.
inline Context* current() { return detail::t_current; }

/// RAII guard making a context the calling thread's current one until it
/// closes, then restoring the previous one.
class ScopedContext {
 public:
  explicit ScopedContext(Context& ctx);
  ~ScopedContext();
  ScopedContext(const ScopedContext&) = delete;
  ScopedContext& operator=(const ScopedContext&) = delete;

 private:
  Context* prev_;
};

}  // namespace ugnirt::sim
