#include "mempool/host_arena.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

namespace ugnirt::mempool {

namespace {

// Shared chunks grow geometrically from 64 KiB to 4 MiB, so a small
// machine reserves little and a large one keeps its chunk count (and
// contains()'s binary search) short.  Blocks above a quarter of the
// largest chunk get a chunk of their own instead of stranding a tail.
constexpr std::size_t kMinChunk = 64 * 1024;
constexpr std::size_t kMaxChunk = 4 * 1024 * 1024;
constexpr std::size_t kDedicatedAbove = kMaxChunk / 4;

}  // namespace

std::uint16_t HostArena::class_of(std::size_t bytes) {
  if (bytes <= kFineMax) {
    return static_cast<std::uint16_t>(bytes == 0 ? 0 : (bytes + 15) / 16 - 1);
  }
  if (bytes > kMaxBytes) {
    throw std::length_error("HostArena: block exceeds the largest class");
  }
  // 2^e < bytes <= 2^(e+1), split into kStepsPerDoubling equal steps.
  const unsigned e = static_cast<unsigned>(std::bit_width(bytes - 1)) - 1;
  const std::size_t step = (std::size_t{1} << e) / kStepsPerDoubling;
  const std::size_t k = (bytes - (std::size_t{1} << e) + step - 1) / step;
  return static_cast<std::uint16_t>(
      kFineClasses + (e - kFineLog2) * kStepsPerDoubling + (k - 1));
}

std::size_t HostArena::class_bytes(std::uint16_t cls) {
  if (cls < kFineClasses) return (std::size_t{cls} + 1) * 16;
  const unsigned c = cls - kFineClasses;
  const unsigned e = kFineLog2 + c / kStepsPerDoubling;
  const std::size_t k = c % kStepsPerDoubling + 1;
  return (std::size_t{1} << e) + k * ((std::size_t{1} << e) / kStepsPerDoubling);
}

std::byte* HostArena::add_chunk(std::size_t size) {
  // Default-initialized: no page is touched until a block is carved.
  Chunk c;
  c.memory.reset(new std::byte[size]);
  c.base = reinterpret_cast<std::uintptr_t>(c.memory.get());
  c.size = size;
  std::byte* base = c.memory.get();
  auto at = std::upper_bound(
      chunks_.begin(), chunks_.end(), c.base,
      [](std::uintptr_t a, const Chunk& k) { return a < k.base; });
  chunks_.insert(at, std::move(c));
  chunk_bytes_ += size;
  return base;
}

void* HostArena::alloc(std::size_t bytes, std::uint16_t* cls) {
  const std::uint16_t k = class_of(bytes);
  const std::size_t size = class_bytes(k);
  *cls = k;
  live_bytes_ += size;
  peak_bytes_ = std::max(peak_bytes_, live_bytes_);
  if (void* p = free_head_[k]) {
    free_head_[k] = *static_cast<void**>(p);
    return p;
  }
  if (size > kDedicatedAbove) return add_chunk(size);
  if (static_cast<std::size_t>(bump_end_ - bump_) < size) {
    const std::size_t chunk = std::max(
        size, std::clamp<std::size_t>(static_cast<std::size_t>(chunk_bytes_),
                                      kMinChunk, kMaxChunk));
    bump_ = add_chunk(chunk);
    bump_end_ = bump_ + chunk;
  }
  void* p = bump_;
  bump_ += size;
  return p;
}

void HostArena::free(void* p, std::uint16_t cls) {
  assert(contains(p, class_bytes(cls)) && "HostArena::free of a foreign block");
  live_bytes_ -= class_bytes(cls);
  *static_cast<void**>(p) = free_head_[cls];
  free_head_[cls] = p;
}

bool HostArena::contains(const void* p, std::size_t len) const {
  const auto a = reinterpret_cast<std::uintptr_t>(p);
  auto it = std::upper_bound(
      chunks_.begin(), chunks_.end(), a,
      [](std::uintptr_t x, const Chunk& k) { return x < k.base; });
  if (it == chunks_.begin()) return false;
  --it;
  return a - it->base <= it->size && len <= it->size - (a - it->base);
}

}  // namespace ugnirt::mempool
