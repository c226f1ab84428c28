#include "sim/engine.hpp"

#include <utility>

namespace ugnirt::sim {

// ---------------------------------------------------------------------------
// EventHandle
// ---------------------------------------------------------------------------

void EventHandle::cancel() {
  // The lock proves the engine (and so the record's storage) is still
  // alive; the generation check proves the record has not been recycled
  // for a later event.  The run loop flips `alive` before running the
  // callback and bumps `gen` only after, so a self-cancel from inside the
  // firing event sees alive == false and is a no-op.
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
// Scheduler — the concrete engine handle
// ---------------------------------------------------------------------------

SimTime Scheduler::now() const { return engine_->now(); }

EventHandle Scheduler::schedule_at(SimTime when, SmallFn fn) {
  return engine_->schedule_at(when, std::move(fn));
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

EventHandle Engine::schedule_at(SimTime when, SmallFn fn) {
  ++*live_;
  // Clamp to the clock: the queue's base never passes now_, so the event
  // is never below it.
  if (when < now_) when = now_;
  EventRecord* rec = arena_.acquire();
  rec->fn = fn;
  rec->alive = true;
  queue_.push(Event{when, rec});
  return EventHandle{live_, rec, rec->gen};
}

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
    EventRecord* rec = ev.rec;
    if (!rec->alive) {  // tombstone: cancelled, already uncounted
      arena_.release(rec);
      continue;
    }
    rec->alive = false;  // fired: a late cancel() must be a no-op
    --*live_;
    ++executed_;
    ++ran;
    rec->fn();
    // Release AFTER the call: the callback may hold a handle to itself
    // (self-cancel is a no-op on alive == false, and the record must not
    // be recycled under it).  The arena only grows during the call —
    // slabs are stable — so `rec` cannot move.
    arena_.release(rec);
  }
  return ran;
}

}  // namespace ugnirt::sim
