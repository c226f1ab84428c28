// The engine's pending-event set: a monotone radix queue (Ahuja,
// Mehlhorn, Orlin & Tarjan, "Faster algorithms for the shortest path
// problem", JACM 1990).
//
// Contract:
//
//  * Strict total order.  pop_until() returns pending events ordered by
//    (time, scheduling order): earliest virtual time first, FIFO among
//    equal times.  No sequence number is stored; the tie order holds by
//    construction (below).
//
//  * Monotone keys.  The queue keeps a `base`, the time of the events
//    currently being popped.  push() requires time >= base.  The engine
//    clamps every schedule to its clock and the base never passes the
//    clock: it moves only when pop_until() hands out an event at the new
//    base, and a pop_until() that stops before a later event leaves it
//    where it was.
//
//  * Events carry their callback.  An Event is the time plus the inline
//    SmallFn, 32 bytes, moved by value between buckets.  Nothing is ever
//    removed early: a step an owner has superseded stays queued and
//    returns at once when it fires (scheduler.hpp).
//
// Buckets.  An event sits in bucket bit_width(time XOR base).  Bucket 0
// holds the events at exactly `base`; bucket b > 0 holds events that
// agree with `base` above bit b-1 and have bit b-1 set, so every event in
// bucket b is earlier than every event in bucket b+1.  Times are
// non-negative, so bit 63 of the XOR is clear and 64 buckets cover every
// key.  When bucket 0 drains, the lowest non-empty bucket k is scanned for
// its minimum, that minimum becomes the new base, and bucket k's events
// move down into buckets < k.  Events above k keep their index: they
// differ from the old base above bit k-1, where the new base agrees with
// it.  Each move strictly lowers an event's bucket, so an event moves at
// most 63 times; in practice a handful.
//
// FIFO ties.  An event's bucket is a function of (time, base) only, so
// two events with equal times always share a bucket.  push() appends, and
// redistribution walks a bucket front to back and appends into buckets
// that are empty when it starts (everything below k is).  By induction
// every bucket lists equal-time events in scheduling order, and bucket 0
// pops from the front.
//
// Storage.  Buckets are chains of 8 KiB blocks (255 events each) drawn
// from one free list the queue owns.  A block returns to the free list as
// soon as it is drained, including mid-redistribution, so the queue holds
// at most queued/255 + 2 x 64 blocks (superseded steps count as queued)
// and steady-state push/pop allocates nothing once the pool has grown to
// the peak.  Refill moves 32 bytes per event; the FIFO-ties argument
// above does not depend on the entry size.
#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>

#include "sim/small_fn.hpp"
#include "util/units.hpp"

namespace ugnirt::sim {

/// A scheduled callback and its time: 32 trivially-copyable bytes.
/// Moving an event between buckets is a plain copy.
struct Event {
  SimTime time;
  SmallFn fn;
};
static_assert(sizeof(Event) == 32,
              "Event size changed: update the block geometry comments");

/// Pending-event container.  Not a public scheduling API: Engine is the
/// only caller; everything else schedules through Engine/Scheduler.
class EventQueue {
 public:
  EventQueue() = default;
  ~EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Queue `ev` behind every pending event of the same time.
  /// Precondition: ev.time is no earlier than the base (the last popped
  /// time, 0 before the first pop).
  void push(const Event& ev) {
    assert(ev.time >= base_);
    append(bucket_of(ev.time), ev);
    ++size_;
  }

  /// Remove the earliest event into `out` if its time is <= `until`.
  /// Returns false, leaving the queue and its base untouched, when the
  /// queue is empty or its earliest event is later than `until`.
  bool pop_until(SimTime until, Event& out) {
    if ((occupied_ & 1) == 0) {
      if (!refill(until)) return false;
    } else if (base_ > until) {
      return false;
    }
    Bucket& b = buckets_[0];
    Block* blk = b.head;
    out = blk->ev[read_++];
    --size_;
    if (read_ == blk->size) {  // head block drained
      b.head = blk->next;
      if (b.head == nullptr) {
        b.tail = nullptr;
        occupied_ &= ~std::uint64_t{1};
      }
      read_ = 0;
      give_block(blk);
    }
    return true;
  }

  bool empty() const { return occupied_ == 0; }
  /// Queued events.
  std::size_t size() const { return size_; }
  /// Blocks ever allocated: in buckets plus on the free list.  The queue
  /// never frees a block before it is destroyed, so this is its
  /// high-water footprint in blocks.
  std::size_t blocks() const { return blocks_; }
  /// The same high-water footprint in bytes.
  std::size_t bytes() const { return blocks_ * kBlockBytes; }

 private:
  static constexpr std::size_t kBlockBytes = 8192;
  static constexpr int kBuckets = 64;

  struct Block {
    static constexpr std::size_t kEvents =
        (kBlockBytes - 2 * sizeof(void*)) / sizeof(Event);
    Block* next;
    std::uint32_t size;
    Event ev[kEvents];
  };
  static_assert(Block::kEvents == 255 && sizeof(Block) <= kBlockBytes);

  struct Bucket {
    Block* head = nullptr;
    Block* tail = nullptr;
  };

  int bucket_of(SimTime t) const {
    return std::bit_width(static_cast<std::uint64_t>(t ^ base_));
  }

  void append(int b, const Event& ev) {
    Bucket& bk = buckets_[static_cast<std::size_t>(b)];
    Block* tail = bk.tail;
    if (tail == nullptr || tail->size == Block::kEvents) {
      Block* blk = take_block();
      if (tail == nullptr) {
        bk.head = blk;
        occupied_ |= std::uint64_t{1} << b;
      } else {
        tail->next = blk;
      }
      bk.tail = tail = blk;
    }
    tail->ev[tail->size++] = ev;
  }

  Block* take_block() {
    Block* blk = free_;
    if (blk != nullptr) {
      free_ = blk->next;
    } else {
      blk = new Block;
      ++blocks_;
    }
    blk->next = nullptr;
    blk->size = 0;
    return blk;
  }

  void give_block(Block* blk) {
    blk->next = free_;
    free_ = blk;
  }

  /// Bucket 0 is empty: make the lowest non-empty bucket's minimum the
  /// new base and move that bucket's events down, unless the minimum is
  /// later than `until`.  Returns whether bucket 0 now holds events.
  bool refill(SimTime until);

  Bucket buckets_[kBuckets];
  std::uint64_t occupied_ = 0;  // bit b set iff bucket b is non-empty
  std::uint32_t read_ = 0;      // next unread event in bucket 0's head block
  SimTime base_ = 0;
  Block* free_ = nullptr;
  std::size_t blocks_ = 0;
  std::size_t size_ = 0;
};

}  // namespace ugnirt::sim
