// Slab-recycling event-record arena: the engine's zero-alloc hot path.
//
// Every scheduled event owns an EventRecord — the callback plus the
// cancellation state that used to live in a per-event
// std::make_shared<bool> tombstone.  Records live in the engine's slabs and
// recycle through an intrusive freelist, so steady-state schedule/pop
// cycles never touch the heap: acquire() is a freelist pop (or a bump
// into the newest slab), release() bumps the generation and pushes the
// record back.  Callbacks are trivially destructible (small_fn.hpp), so
// nothing is destroyed on release or when the slabs go.
//
// Slabs are never freed or moved while the arena lives, which is the
// property the cancellation scheme leans on: an EventHandle keeps a raw
// EventRecord* plus the generation it was issued at.  The pointer stays
// dereferenceable for the engine's whole lifetime, and the generation
// check makes a handle to a recycled record a guaranteed no-op — the
// moral equivalent of the old weak_ptr tombstone without the control
// block, the allocation, or the atomics.
//
// Thread contract: an arena belongs to one engine, which runs on one
// thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/small_fn.hpp"

namespace ugnirt::sim {

/// One scheduled event's identity: callback, liveness, reuse generation.
/// 56 bytes: the 32-byte SmallFn (call pointer plus 24-byte buffer), two
/// words and a flag, padded to 8.  That leaves 8 bytes of a cache line.
struct EventRecord {
  SmallFn fn;                       ///< the event callback
  std::uint64_t gen = 0;            ///< bumped on release; stale-handle guard
  EventRecord* next_free = nullptr; ///< intrusive freelist link
  bool alive = false;               ///< flipped false by cancel() or firing
};
static_assert(sizeof(EventRecord) <= 64,
              "an EventRecord must fit one cache line");

class EventArena {
 public:
  /// Records per slab: 512 x 56 B = 28 KiB — big enough that steady
  /// workloads sit in one or two slabs, small enough that a tiny engine
  /// (unit tests build thousands) stays cheap.
  static constexpr std::size_t kSlabRecords = 512;

  EventArena() = default;
  EventArena(const EventArena&) = delete;
  EventArena& operator=(const EventArena&) = delete;

  /// A record ready to arm: alive false, gen preserved from the previous
  /// life (handles from that life are already stale); fn is overwritten
  /// by the caller.
  EventRecord* acquire() {
    ++acquires_;
    if (free_head_ != nullptr) {
      EventRecord* rec = free_head_;
      free_head_ = rec->next_free;
      rec->next_free = nullptr;
      ++in_use_;
      return rec;
    }
    if (slabs_.empty() || next_in_slab_ == kSlabRecords) {
      slabs_.push_back(std::make_unique<EventRecord[]>(kSlabRecords));
      next_in_slab_ = 0;
    }
    EventRecord* rec = &slabs_.back()[next_in_slab_++];
    ++in_use_;
    return rec;
  }

  /// Retire a popped record: invalidate outstanding handles (gen bump)
  /// and push it onto the freelist.
  void release(EventRecord* rec) {
    rec->alive = false;
    ++rec->gen;
    --in_use_;
    rec->next_free = free_head_;
    free_head_ = rec;
  }

  // Introspection for tests.
  std::size_t slabs() const { return slabs_.size(); }
  std::size_t in_use() const { return in_use_; }
  std::uint64_t acquires() const { return acquires_; }

 private:
  std::vector<std::unique_ptr<EventRecord[]>> slabs_;
  std::size_t next_in_slab_ = 0;
  EventRecord* free_head_ = nullptr;
  std::size_t in_use_ = 0;
  std::uint64_t acquires_ = 0;
};

}  // namespace ugnirt::sim
