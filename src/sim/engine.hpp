// Discrete-event engine with deterministic replay.
//
// Everything in the reproduction runs on virtual time: simulated PEs,
// the Gemini NIC model, and the runtime protocol state machines schedule
// callbacks here.  Events with equal timestamps fire in scheduling order,
// which makes every run bit-reproducible.
//
// The hot path is allocation-free: a slab-recycling EventArena
// (event_arena.hpp) holds the 56-byte EventRecords (a SmallFn callback
// plus cancellation state), and the pending set (event_queue.hpp, a monotone
// radix queue) moves 16-byte POD Events that point into it.  schedule_at
// acquires a record from the freelist, pop releases it back; the heap is
// touched only when the pending set grows past every slab and queue block
// ever carved.  Callbacks are trivially destructible, so queued events
// that never fire need no drain at teardown.
//
// The engine is single-threaded: one thread drives run() and every
// callback runs on it.
//
// Scheduling-facing code never sees this class: protocol state machines
// hold the concrete sim::Scheduler handle (scheduler.hpp) minted by
// scheduler().
#pragma once

#include <cstdint>
#include <memory>

#include "sim/event_arena.hpp"
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
  EventHandle schedule_at(SimTime when, SmallFn fn);
  EventHandle schedule_after(SimTime delay, SmallFn fn) {
    return schedule_at(now_ + delay, std::move(fn));
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
  bool empty() const { return pending() == 0; }
  /// Live scheduled events only: cancelled-but-unpopped tombstones are
  /// excluded (they are not pending work — idle-flush heuristics must not
  /// see them).
  std::size_t pending() const {
    return *live_ > 0 ? static_cast<std::size_t>(*live_) : 0;
  }
  std::uint64_t executed() const { return executed_; }
  /// Record arena and pending set, for tests.
  const EventArena& arena() const { return arena_; }
  const EventQueue& queue() const { return queue_; }

 private:
  SimTime now_ = 0;
  std::uint64_t executed_ = 0;
  bool stopped_ = false;
  EventQueue queue_;
  // Live (scheduled, uncancelled, unfired) events.  Shared with every
  // EventHandle as a weak guard: it expires with the engine.
  std::shared_ptr<std::int64_t> live_ = std::make_shared<std::int64_t>(0);
  EventArena arena_;
  Scheduler sched_{this};
};

}  // namespace ugnirt::sim
