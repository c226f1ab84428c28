// Power-of-two ring FIFO for the simulator's per-PE and per-endpoint
// queues (SMSG mailboxes, CQs, credit backlogs, deferred GETs, pxshm and
// MSGQ receive queues, the Converse scheduler queue).
//
// It holds no storage while empty: the ring is allocated on the first
// push, so an idle queue costs only this 16-byte object.  By default the
// ring is also released whenever a pop drains it, which keeps the many
// mostly idle queues of a large machine heap-free.  A queue that is busy
// for the whole run (the scheduler queue) would then pay one allocation
// per message; `kKeepGrown` keeps its ring once grown instead.
//
// `Index` types the head, size and capacity.  With 16 bits the whole
// object is 16 bytes (an SMSG mailbox inside a 64-byte endpoint) and the
// ring holds at most kMaxCapacity elements; growing past that aborts.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>

namespace ugnirt {

template <typename T, bool kKeepGrown = false, typename Index = std::uint32_t>
class RingFifo {
 public:
  /// Largest capacity `Index` can hold (its top power of two).
  static constexpr std::size_t kMaxCapacity =
      (std::size_t{std::numeric_limits<Index>::max()} >> 1) + 1;

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  /// Slots currently allocated (0 whenever a releasing FIFO is empty).
  std::size_t capacity() const { return cap_; }

  T& front() { return buf_[head_]; }
  const T& front() const { return buf_[head_]; }
  /// The i-th oldest element (0 == front).
  T& operator[](std::size_t i) { return buf_[(head_ + i) & (cap_ - 1)]; }
  const T& operator[](std::size_t i) const {
    return buf_[(head_ + i) & (cap_ - 1)];
  }

  void push_back(T v) {
    if (size_ == cap_) grow();
    (*this)[size_] = std::move(v);
    ++size_;
  }
  /// Insert so that `v` becomes the pos-th element; cost is linear in the
  /// number of elements after it.
  void insert(std::size_t pos, T v) {
    push_back(std::move(v));
    for (std::size_t i = size_ - 1; i > pos; --i) {
      std::swap((*this)[i], (*this)[i - 1]);
    }
  }
  void pop_front() {
    if constexpr (!kKeepGrown) {
      if (size_ == 1) {
        buf_.reset();
        cap_ = 0;
        head_ = 0;
        size_ = 0;
        return;
      }
    }
    buf_[head_] = T{};
    head_ = static_cast<Index>((head_ + 1) & (cap_ - 1));
    --size_;
  }

 private:
  void grow() {
    assert(cap_ < kMaxCapacity && "RingFifo is full at its index width");
    const std::size_t cap = cap_ ? 2 * std::size_t{cap_} : 4;
    auto buf = std::make_unique<T[]>(cap);
    for (Index i = 0; i < size_; ++i) buf[i] = std::move((*this)[i]);
    buf_ = std::move(buf);
    cap_ = static_cast<Index>(cap);
    head_ = 0;
  }

  std::unique_ptr<T[]> buf_;
  Index head_ = 0;
  Index size_ = 0;
  Index cap_ = 0;
};

}  // namespace ugnirt
