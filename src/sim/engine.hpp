// Discrete-event engine with deterministic replay.
//
// Everything in the reproduction runs on virtual time: simulated PEs,
// the Gemini NIC model, and the runtime protocol state machines schedule
// callbacks here.  Events with equal timestamps fire in scheduling order,
// which makes every run bit-reproducible.
//
// The hot path is allocation-free: a pending event is its time plus its
// SmallFn callback, 32 bytes stored inline in the pending set
// (event_queue.hpp, a monotone radix queue).  schedule_at appends it to a
// bucket, the run loop pops it, sets the clock and calls it; the heap is
// touched only when the pending set grows past every queue block ever
// carved.  Callbacks are trivially destructible, so queued events that
// never fire need no drain at teardown.  Nothing is cancelled: an owner
// that re-arms a step earlier supersedes the pending one (scheduler.hpp).
//
// An engine is single-threaded: one thread drives run() and every callback
// runs on it.  Engines share no state, so machines on different threads
// run side by side.
//
// Scheduling-facing code never sees this class: protocol state machines
// hold the concrete sim::Scheduler handle (scheduler.hpp) minted by
// scheduler().
#pragma once

#include <cstdint>

#include "sim/event_queue.hpp"
#include "sim/scheduler.hpp"
#include "sim/small_fn.hpp"
#include "util/units.hpp"

namespace ugnirt::sim {

class Engine final {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // ---- scheduling surface ----
  /// Virtual time of the last executed event.
  SimTime now() const { return now_; }
  /// Schedule `fn` at `when`, clamped to now().
  void schedule_at(SimTime when, SmallFn fn) {
    // Clamp to the clock: the queue's base never passes now_, so the
    // event is never below it.
    queue_.push(Event{when < now_ ? now_ : when, fn});
  }
  void schedule_after(SimTime delay, SmallFn fn) {
    schedule_at(now_ + delay, fn);
  }
  /// The Scheduler handle protocol code holds (what Machine::scheduler()
  /// and the network model use).
  Scheduler& scheduler() { return sched_; }

  // ---- driving ----
  /// Run until the pending set drains or stop() is called.
  /// Returns the number of events executed.
  std::uint64_t run() { return run_until(kNever); }
  /// Run until virtual time exceeds `until` (events at exactly `until`
  /// run).
  std::uint64_t run_until(SimTime until);
  /// Request run()/run_until() to return after the current event.
  void stop() { stopped_ = true; }

  // ---- introspection ----
  bool empty() const { return queue_.empty(); }
  /// Queued events, superseded steps included.
  std::size_t pending() const { return queue_.size(); }
  /// Callbacks run, superseded steps included.
  std::uint64_t executed() const { return executed_; }
  /// The pending set, for tests and footprint reports.
  const EventQueue& queue() const { return queue_; }

 private:
  SimTime now_ = 0;
  std::uint64_t executed_ = 0;
  bool stopped_ = false;
  EventQueue queue_;
  Scheduler sched_{this};
};

}  // namespace ugnirt::sim
