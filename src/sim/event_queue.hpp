// The engine's pending-event set: a binary min-heap on (time, seq).
//
// Contract:
//
//  * Strict total order.  pop_earliest() returns pending events ordered
//    by (time, seq) — earliest virtual time first, and FIFO scheduling
//    order (the monotonically increasing `seq`) among equal times.  No
//    two events share a seq, so the order is total and a seeded run
//    executes the same event sequence every time.
//
//  * Cancellation is NOT a queue operation.  EventHandle::cancel() flips
//    the record's `alive` tombstone; the dead event stays queued and is
//    skipped (not executed, not counted) when popped.  Lazy deletion
//    keeps cancel O(1) and preserves the handle contract: cancel after
//    fire is a no-op, cancel twice is a no-op.  The queue never inspects
//    the record.
#pragma once

#include <cassert>
#include <cstdint>
#include <queue>
#include <vector>

#include "util/units.hpp"

namespace ugnirt::sim {

struct EventRecord;

/// A scheduled callback: 24 trivially-copyable bytes.  The callback and
/// its cancellation tombstone live in `rec`, an arena-owned EventRecord
/// (sim/event_arena.hpp) the engine acquires at schedule time and
/// releases at pop time.  Moving an event between heap levels is a POD
/// copy, never a callback relocation.
struct Event {
  SimTime time;
  std::uint64_t seq;
  EventRecord* rec;
};

/// Pending-event container.  Not a public scheduling API — Engine is the
/// only caller; everything else schedules through Engine/EventHandle.
class EventQueue {
 public:
  void push(Event ev) { heap_.push(ev); }

  /// Remove and return the (time, seq)-minimal event.  Precondition:
  /// !empty().
  Event pop_earliest() {
    assert(!heap_.empty());
    Event ev = heap_.top();
    heap_.pop();
    return ev;
  }

  /// The (time, seq)-minimal pending event, or nullptr when empty.  The
  /// sharded engine merges shard queues by (time, seq), so it must see
  /// the head's seq — time alone cannot break cross-shard ties.  The
  /// pointer is invalidated by the next push/pop.
  const Event* peek_earliest() const {
    return heap_.empty() ? nullptr : &heap_.top();
  }

  /// Time of the earliest pending event, or kNever when empty.
  SimTime earliest_time() const {
    return heap_.empty() ? kNever : heap_.top().time;
  }

  bool empty() const { return heap_.empty(); }

 private:
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Event, std::vector<Event>, Later> heap_;
};

}  // namespace ugnirt::sim
