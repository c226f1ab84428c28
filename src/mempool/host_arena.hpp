// Host bytes behind the memory-pool model (DESIGN.md §8.2).
//
// The pool's slabs and power-of-two bins are the *model* of paper §IV-B:
// they decide charges, expansions and registered bytes.  They say nothing
// about where a simulated payload lives on the host.  HostArena holds
// those bytes: one per machine layer, shared by every pool of the
// machine, so a buffer freed on one PE serves a request on any other.
//
// Size classes are fine (16-byte steps up to 4 KiB, then eight per power
// of two, so a block wastes at most 12.5% above that), free lists are
// intrusive LIFO stacks, and blocks are bump-carved from chunks whose
// pages are touched only when carved.  Chunks are never returned before
// the arena dies, like the slabs they replace.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace ugnirt::mempool {

class HostArena {
 public:
  HostArena() = default;
  HostArena(const HostArena&) = delete;
  HostArena& operator=(const HostArena&) = delete;

  /// A 16-byte-aligned block of at least `bytes`; `*cls` receives its
  /// size class, which free() needs back.
  void* alloc(std::size_t bytes, std::uint16_t* cls);
  /// Return a block to its class's free list.
  void free(void* p, std::uint16_t cls);

  /// True when [p, p+len) lies inside one chunk, so reading it stays
  /// inside an allocation (the bytes may belong to a free block).
  bool contains(const void* p, std::size_t len) const;

  static std::uint16_t class_of(std::size_t bytes);
  static std::size_t class_bytes(std::uint16_t cls);

  /// Bytes of blocks handed out and not yet freed.
  std::uint64_t live_bytes() const { return live_bytes_; }
  /// High-water mark of live_bytes() over the arena's life.
  std::uint64_t peak_bytes() const { return peak_bytes_; }

  static constexpr std::size_t kFineMax = 4096;  // 16-byte steps up to here
  static constexpr unsigned kFineClasses = kFineMax / 16;
  static constexpr unsigned kStepsPerDoubling = 8;
  /// Coarse classes cover (4 KiB, 128 MiB].
  static constexpr std::size_t kMaxBytes = 128ull << 20;
  static constexpr unsigned kFineLog2 = std::countr_zero(kFineMax);
  static constexpr unsigned kClasses =
      kFineClasses +
      kStepsPerDoubling * (std::countr_zero(kMaxBytes) - kFineLog2);

 private:
  struct Chunk {
    std::uintptr_t base = 0;
    std::size_t size = 0;
    std::unique_ptr<std::byte[]> memory;
  };

  /// A new chunk of `size` bytes, kept sorted by address for contains().
  std::byte* add_chunk(std::size_t size);

  std::vector<Chunk> chunks_;
  std::byte* bump_ = nullptr;  // carve cursor in the newest shared chunk
  std::byte* bump_end_ = nullptr;
  std::array<void*, kClasses> free_head_{};
  std::uint64_t live_bytes_ = 0;
  std::uint64_t peak_bytes_ = 0;
  std::uint64_t chunk_bytes_ = 0;  // all chunks, touched or not
};

}  // namespace ugnirt::mempool
