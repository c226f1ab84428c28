#include "sim/engine.hpp"

namespace ugnirt::sim {

// ---------------------------------------------------------------------------
// Scheduler — the concrete engine handle
// ---------------------------------------------------------------------------

SimTime Scheduler::now() const { return engine_->now(); }

void Scheduler::schedule_at(SimTime when, SmallFn fn) {
  engine_->schedule_at(when, fn);
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

std::uint64_t Engine::run_until(SimTime until) {
  stopped_ = false;
  std::uint64_t ran = 0;
  Event ev{};
  while (!stopped_) {
    if (!queue_.pop_until(until, ev)) {
      // Drained, or the next event is past the horizon: the clock moves
      // to the horizon (a finite one).  The queue's base stays at the
      // last popped time, so it is still <= now_.
      if (until != kNever && now_ < until) now_ = until;
      break;
    }
    now_ = ev.time;
    ++executed_;
    ++ran;
    ev.fn();
  }
  return ran;
}

}  // namespace ugnirt::sim
