#include "sim/event_queue.hpp"

#include <algorithm>

namespace ugnirt::sim {

EventQueue::~EventQueue() {
  auto free_chain = [](Block* blk) {
    while (blk != nullptr) {
      Block* next = blk->next;
      delete blk;
      blk = next;
    }
  };
  for (Bucket& b : buckets_) free_chain(b.head);
  free_chain(free_);
}

bool EventQueue::refill(SimTime until) {
  assert((occupied_ & 1) == 0);
  if (occupied_ == 0) return false;
  const int k = std::countr_zero(occupied_);
  Bucket& src = buckets_[k];
  SimTime next = kNever;
  for (const Block* blk = src.head; blk != nullptr; blk = blk->next) {
    for (std::uint32_t i = 0; i < blk->size; ++i) {
      next = std::min(next, blk->ev[i].time);
    }
  }
  if (next > until) return false;

  base_ = next;
  Block* blk = src.head;
  src.head = src.tail = nullptr;
  occupied_ &= ~(std::uint64_t{1} << k);
  // Front to back into buckets < k, all empty here: a stable pass.  Each
  // source block goes back to the free list as soon as it is read, so the
  // targets can reuse it.
  while (blk != nullptr) {
    for (std::uint32_t i = 0; i < blk->size; ++i) {
      append(bucket_of(blk->ev[i].time), blk->ev[i]);
    }
    Block* next_blk = blk->next;
    give_block(blk);
    blk = next_blk;
  }
  return true;
}

}  // namespace ugnirt::sim
