// Discrete-event engine with deterministic replay.
//
// Everything in the reproduction runs on virtual time: simulated PEs,
// the Gemini NIC model, and the runtime protocol state machines schedule
// callbacks here.  Events with equal timestamps fire in scheduling order
// (a monotonically increasing sequence number breaks ties), which makes
// every run bit-reproducible.
//
// The hot path is allocation-free: each shard owns a slab-recycling
// EventArena (event_arena.hpp) of EventRecords — a SmallFn callback plus
// cancellation state — and the queues move 24-byte POD Events that point
// into it.  schedule_at acquires a record from the freelist, pop releases
// it back; the heap is touched only when the pending set grows past every
// slab ever carved.
//
// The pending-event set is PARTITIONED: EngineOptions::shards splits it
// into independent per-shard heaps (sim::EventQueue).  The
// converse::Machine maps contiguous torus node slabs onto shards, so a
// shard holds the events of one slab of PEs.  run() pops the globally
// (time, seq)-minimal event across all shard heaps (a k-way tournament;
// with one shard this IS the classic sequential engine), so the
// execution order is bit-exact the same for any shard count: a seeded
// machine run traces identically at shards = 1, 2, 8.  More shards trade
// one big heap for several small, cache-resident ones.
//
// The engine is single-threaded: one thread drives run() and every
// callback runs on it.
//
// Scheduling-facing code never sees this class: protocol state machines
// hold the concrete sim::Scheduler handle (scheduler.hpp), minted by
// scheduler() (events land on the currently executing shard) and
// scheduler(i) (pinned to shard i).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/event_arena.hpp"
#include "sim/event_queue.hpp"
#include "sim/scheduler.hpp"
#include "sim/small_fn.hpp"
#include "util/units.hpp"

namespace ugnirt::sim {

/// Explicit engine construction knobs.  A default-constructed
/// EngineOptions is the hermetic sequential engine; the one place that
/// reads the environment is from_env().
struct EngineOptions {
  /// Pending-set partitions ("sim.shards" / UGNIRT_SIM_SHARDS).  Clamped
  /// to >= 1.
  int shards = 1;

  /// Options with UGNIRT_SIM_SHARDS applied over the defaults.
  static EngineOptions from_env();
};

class Engine final {
 public:
  explicit Engine(const EngineOptions& options);
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // ---- scheduling surface ----
  /// Virtual time of the last executed event.
  SimTime now() const { return now_; }
  /// Schedules onto the shard currently executing (shard 0 outside event
  /// execution) — implicit-context protocol code lands its follow-up
  /// events next to the state they touch.
  EventHandle schedule_at(SimTime when, SmallFn fn);
  EventHandle schedule_after(SimTime delay, SmallFn fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }

  // ---- sharding surface ----
  int shards() const { return static_cast<int>(shards_.size()); }
  /// The engine-wide Scheduler handle: events land on the shard currently
  /// executing.  What Machine::scheduler() and the network model hold.
  Scheduler& scheduler() { return global_sched_; }
  /// The Scheduler pinned to one shard.
  Scheduler& scheduler(int shard);

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
  std::size_t pending() const;
  std::uint64_t executed() const { return executed_; }
  /// Arena occupancy of one shard, for tests.
  const EventArena& arena(int shard) const;

 private:
  friend class Scheduler;

  /// One pending-set partition.
  struct Shard {
    EventQueue queue_;
    // Live (scheduled, uncancelled, unfired) events.  Shared with every
    // EventHandle as a weak guard: it expires with the shard.
    std::shared_ptr<std::int64_t> live_ = std::make_shared<std::int64_t>(0);
    EventArena arena_;
  };

  /// Schedule onto `shard`, or onto the executing shard when it is
  /// Scheduler::kCurrentShard.
  EventHandle schedule_on(int shard, SimTime when, SmallFn fn);
  /// Index of the shard holding the (time, seq)-minimal event, or -1.
  int earliest_shard() const;
  bool pop_and_run(Shard& shard);

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  bool stopped_ = false;
  int executing_ = -1;  // shard of the event being executed, or -1
  std::vector<std::unique_ptr<Shard>> shards_;
  // Stable Scheduler handles (two words each); references returned by
  // scheduler() stay valid for the engine's lifetime.
  std::vector<Scheduler> shard_scheds_;
  Scheduler global_sched_;
};

}  // namespace ugnirt::sim
