// Slot map: stable storage for in-flight protocol records, addressed by
// 64-bit ids.
//
// An id packs a slot index (low 32 bits) with the slot's generation (the
// next 31 bits).  The generation is odd while the slot is live and moves
// on at every insert and erase, so an id whose slot was freed, or freed
// and reused, no longer resolves.  Bit 63 of an id is always clear, and an
// id is never 0.
//
// Slots live in chunks that double in size (64, 128, 256, ... slots) and
// never move: a record's address stays valid from insert to erase, so a
// post descriptor held inline in a slot can be handed to the NIC, which
// keeps the pointer until the completion is claimed.  A chunk's bytes are
// left untouched until its slots are first used, so only the high-water
// number of records costs resident memory.  Freed slots are reused
// last-in first-out.  Chunks are kept until the map is destroyed.
#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

namespace ugnirt {

template <typename T>
class SlotMap {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_default_constructible_v<T>,
                "SlotMap holds plain records");

 public:
  using Id = std::uint64_t;

  /// Store `v`; returns its id.
  Id insert(const T& v) {
    if (free_head_ == kNone) add_slot();
    const std::uint32_t index = free_head_;
    Slot& s = slot(index);
    free_head_ = s.next_free;
    ++s.gen;  // odd: live
    s.value = v;
    ++size_;
    return id_of(index, s.gen);
  }

  /// The live record `id` names, or nullptr when it was erased (or never
  /// issued).
  T* find(Id id) {
    const auto index = static_cast<std::uint32_t>(id);
    if (index >= slots_) return nullptr;
    Slot& s = slot(index);
    return id_of(index, s.gen) == id && (s.gen & 1) ? &s.value : nullptr;
  }

  /// Free the slot of live record `id`.
  void erase(Id id) {
    const auto index = static_cast<std::uint32_t>(id);
    Slot& s = slot(index);
    assert(id_of(index, s.gen) == id && (s.gen & 1) && "erase of a dead id");
    ++s.gen;  // even: free
    s.next_free = free_head_;
    free_head_ = index;
    --size_;
  }

  /// Live records.
  std::size_t size() const { return size_; }

  /// Visit every live record as f(id, T&).
  template <typename F>
  void for_each(F&& f) {
    for (std::uint32_t i = 0; i < slots_; ++i) {
      Slot& s = slot(i);
      if (s.gen & 1) f(id_of(i, s.gen), s.value);
    }
  }

 private:
  static constexpr std::uint32_t kFirstChunk = 64;
  static constexpr std::uint32_t kNone = UINT32_MAX;

  struct Slot {
    T value;
    std::uint32_t gen;
    std::uint32_t next_free;
  };

  static Id id_of(std::uint32_t index, std::uint32_t gen) {
    return (static_cast<Id>(gen & 0x7FFFFFFFu) << 32) | index;
  }

  /// Chunk c holds kFirstChunk << c slots, starting at kFirstChunk*(2^c-1).
  std::byte* bytes_of(std::uint32_t index) const {
    const int c = std::bit_width(index / kFirstChunk + 1) - 1;
    return chunks_[static_cast<std::size_t>(c)].get() +
           (index - kFirstChunk * ((1u << c) - 1)) * sizeof(Slot);
  }
  Slot& slot(std::uint32_t index) {
    return *std::launder(reinterpret_cast<Slot*>(bytes_of(index)));
  }

  /// Make slot `slots_` exist and push it on the free list.
  void add_slot() {
    if (slots_ == kFirstChunk * ((1u << chunks_.size()) - 1)) {
      const std::size_t n = std::size_t{kFirstChunk} << chunks_.size();
      // Uninitialized bytes: pages are touched one slot at a time below.
      chunks_.emplace_back(new std::byte[n * sizeof(Slot)]);
    }
    new (bytes_of(slots_)) Slot{T{}, 0, free_head_};
    free_head_ = slots_++;
  }

  static_assert(alignof(Slot) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
  std::vector<std::unique_ptr<std::byte[]>> chunks_;
  std::uint32_t slots_ = 0;
  std::uint32_t free_head_ = kNone;
  std::size_t size_ = 0;
};

}  // namespace ugnirt
