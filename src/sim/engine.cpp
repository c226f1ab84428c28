#include "sim/engine.hpp"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <utility>

namespace ugnirt::sim {

// ---------------------------------------------------------------------------
// EventHandle
// ---------------------------------------------------------------------------

void EventHandle::cancel() {
  // The lock proves the owning shard (and so the record's storage) is
  // still alive; the generation check proves the record has not been
  // recycled for a later event.  pop_and_run flips `alive` before running
  // the callback and bumps `gen` only after, so a self-cancel from inside
  // the firing event sees alive == false and is a no-op.
  if (auto live = live_.lock()) {
    if (rec_ != nullptr && rec_->gen == gen_ && rec_->alive) {
      rec_->alive = false;
      // First successful cancel of a not-yet-fired event: it is no longer
      // pending work.
      --*live;
    }
  }
}

bool EventHandle::valid() const {
  auto live = live_.lock();
  return live && rec_ != nullptr && rec_->gen == gen_ && rec_->alive;
}

// ---------------------------------------------------------------------------
// Scheduler — the concrete {engine, shard} handle
// ---------------------------------------------------------------------------

SimTime Scheduler::now() const { return engine_->now(); }

EventHandle Scheduler::schedule_at(SimTime when, SmallFn fn) {
  return engine_->schedule_on(shard_, when, std::move(fn));
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

EngineOptions EngineOptions::from_env() {
  EngineOptions o;
  if (const char* env = std::getenv("UGNIRT_SIM_SHARDS")) {
    o.shards = std::max(1, std::atoi(env));
  }
  return o;
}

Engine::Engine(const EngineOptions& options)
    : global_sched_(this, Scheduler::kCurrentShard) {
  const int nshards = std::max(1, options.shards);
  shards_.reserve(static_cast<std::size_t>(nshards));
  shard_scheds_.reserve(static_cast<std::size_t>(nshards));
  for (int i = 0; i < nshards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
    shard_scheds_.push_back(Scheduler(this, i));
  }
}

// Queued-but-never-popped callbacks are destroyed by the slab destructors
// — EventRecord's SmallFn member owns them — so teardown needs no
// explicit queue drain.
Engine::~Engine() = default;

Scheduler& Engine::scheduler(int shard) {
  assert(shard >= 0 && shard < shards());
  return shard_scheds_[static_cast<std::size_t>(shard)];
}

const EventArena& Engine::arena(int shard) const {
  assert(shard >= 0 && shard < shards());
  return shards_[static_cast<std::size_t>(shard)]->arena_;
}

std::size_t Engine::pending() const {
  std::int64_t live = 0;
  for (const auto& s : shards_) live += *s->live_;
  return live > 0 ? static_cast<std::size_t>(live) : 0;
}

EventHandle Engine::schedule_at(SimTime when, SmallFn fn) {
  return schedule_on(Scheduler::kCurrentShard, when, std::move(fn));
}

EventHandle Engine::schedule_on(int shard, SimTime when, SmallFn fn) {
  if (shard < 0) shard = executing_ >= 0 ? executing_ : 0;
  assert(shard < shards());
  Shard& dst = *shards_[static_cast<std::size_t>(shard)];
  ++*dst.live_;
  // Clamp to the clock so the heap never holds an event in the past.
  if (when < now_) when = now_;
  EventRecord* rec = dst.arena_.acquire();
  rec->fn = std::move(fn);
  rec->alive = true;
  // One global sequence stream: scheduling order == seq order, whatever
  // the shard, so the merged pop order is the same for any shard count.
  dst.queue_.push(Event{when, next_seq_++, rec});
  return EventHandle{dst.live_, rec, rec->gen};
}

int Engine::earliest_shard() const {
  int best = -1;
  const Event* best_head = nullptr;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const Event* head = shards_[i]->queue_.peek_earliest();
    if (!head) continue;
    if (!best_head || head->time < best_head->time ||
        (head->time == best_head->time && head->seq < best_head->seq)) {
      best = static_cast<int>(i);
      best_head = head;
    }
  }
  return best;
}

bool Engine::pop_and_run(Shard& shard) {
  Event ev = shard.queue_.pop_earliest();
  now_ = ev.time;
  EventRecord* rec = ev.rec;
  if (!rec->alive) {  // tombstone: cancelled, already uncounted
    shard.arena_.release(rec);
    return false;
  }
  rec->alive = false;  // fired: a late cancel() must be a no-op
  --*shard.live_;
  ++executed_;
  rec->fn();
  // Release AFTER the call: the callback may hold a handle to itself
  // (self-cancel is a no-op on alive == false, and the record must not be
  // recycled under it).  The arena only grows during the call — slabs are
  // stable — so `rec` cannot move.
  shard.arena_.release(rec);
  return true;
}

std::uint64_t Engine::run_until(SimTime until) {
  stopped_ = false;
  std::uint64_t ran = 0;
  const int prev = executing_;  // run() may nest inside a callback
  if (shards_.size() == 1) {
    // Sequential fast path: no tournament, exactly the classic engine.
    Shard& s = *shards_[0];
    executing_ = 0;
    while (!stopped_) {
      const Event* head = s.queue_.peek_earliest();
      if (!head || head->time > until) break;
      if (pop_and_run(s)) ++ran;
    }
  } else {
    while (!stopped_) {
      const int i = earliest_shard();
      if (i < 0) break;
      Shard& s = *shards_[static_cast<std::size_t>(i)];
      if (s.queue_.peek_earliest()->time > until) break;
      executing_ = i;
      if (pop_and_run(s)) ++ran;
    }
  }
  executing_ = prev;
  if (now_ < until) {
    SimTime earliest = kNever;
    for (const auto& s : shards_) {
      earliest = std::min(earliest, s->queue_.earliest_time());
    }
    if (earliest > until) now_ = until;
  }
  return ran;
}

}  // namespace ugnirt::sim
