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
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

namespace ugnirt {

template <typename T, bool kKeepGrown = false>
class RingFifo {
 public:
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
    head_ = (head_ + 1) & (cap_ - 1);
    --size_;
  }

 private:
  void grow() {
    const std::uint32_t cap = cap_ ? 2 * cap_ : 4;
    auto buf = std::make_unique<T[]>(cap);
    for (std::uint32_t i = 0; i < size_; ++i) buf[i] = std::move((*this)[i]);
    buf_ = std::move(buf);
    cap_ = cap;
    head_ = 0;
  }

  std::unique_ptr<T[]> buf_;
  std::uint32_t head_ = 0;
  std::uint32_t size_ = 0;
  std::uint32_t cap_ = 0;
};

}  // namespace ugnirt
