// Pre-registered memory pool (paper §IV-B).
//
// The CHARM++ runtime owns message allocation, so the uGNI machine layer can
// pre-allocate and pre-register large slabs and serve every message buffer
// from them: Tmalloc and Tregister disappear from the large-message send
// path (paper Equation 1 -> Tcost = 2*Tmempool + Trdma + 2*Tsmsg).
//
// Design: power-of-two size classes with per-class free lists, carved out of
// registered slabs.  When the pool overflows it expands dynamically (paper:
// "In the case when the memory pool overflows, it can be dynamically
// expanded") — the expansion pays the full malloc+registration cost once,
// after which buffers recycle for free.
//
// That design is the *model*: slabs, bins, the bump rule, expansions,
// charges, stats and trace events.  A slab owns no host memory.  Its
// registered range is synthetic (no host pointer aliases it), and the
// payload bytes of every block come from the layer's shared HostArena at
// the requested size (DESIGN.md §8.2).  The pool registers as the owner of
// its slab regions, so an FMA/BTE post is valid exactly when it names a
// live block of the slab whose handle it carries.
//
// Every buffer a machine layer hands out, pool or heap, starts 16 bytes
// after a block header naming its owning pool (nullptr for heap buffers),
// so freeing routes to the right pool in O(1).
//
// A live model block may outlive its host bytes: release_host() hands the
// bytes back to the arena while the block stays allocated, registered and
// outstanding, and free_block() later frees it by id.  A rendezvous
// source is released once the receiver's GET has read it, and freed on
// ACK_TAG (DESIGN.md §8.2).
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "mempool/host_arena.hpp"
#include "ugni/ugni.hpp"

namespace ugnirt::mempool {

struct MemPoolStats {
  std::uint64_t allocs = 0;
  std::uint64_t frees = 0;
  std::uint64_t expansions = 0;     // new slabs registered
  std::uint64_t slab_bytes = 0;     // total registered pool memory
  std::uint64_t outstanding = 0;    // live allocations
  std::uint64_t freelist_hits = 0;  // allocs served without carving
  std::uint64_t bin_lookups = 0;    // O(1) size-class resolutions (== allocs)
};

class MemPool final : public ugni::RegionOwner {
 public:
  /// Creates the pool with one initial slab of `initial_bytes`, registered
  /// on `nic`, whose payload bytes come from `arena` (which must outlive
  /// the pool).  Charges the initial malloc+registration to the current PE.
  MemPool(HostArena& arena, ugni::gni_nic_handle_t nic,
          std::uint64_t initial_bytes);
  /// Deregisters the slabs (unbinds them when no PE context is current)
  /// and returns every still-attached block's host bytes to the arena.
  ~MemPool();

  MemPool(const MemPool&) = delete;
  MemPool& operator=(const MemPool&) = delete;

  /// Allocate a buffer of at least `bytes`.  O(1) except on expansion.
  /// Charges mempool_alloc_ns (plus expansion costs when a new slab is
  /// needed).  The returned block is a live block of a registered slab.
  /// Returns nullptr when the pool must expand but slab registration fails
  /// (GNI_RC_ERROR_RESOURCE) — callers fall back to a heap-registered
  /// buffer and retry registration under their own backoff policy.
  void* alloc(std::size_t bytes);

  /// Return a buffer to its size-class free list.  Charges mempool_free_ns.
  void free(void* p);

  /// Model block id of live buffer `p`, for free_block().
  std::uint32_t block_of(const void* p) const;

  /// Give live buffer `p`'s host bytes back to the arena.  Charges
  /// nothing.  Its model block stays live (registered and outstanding),
  /// but `p` is dangling from here on and holds() rejects it.
  void release_host(void* p);

  /// Free model block `id`: charges and counts exactly what free() does,
  /// and returns its host bytes if release_host() has not.
  void free_block(std::uint32_t id);

  /// Registered-memory handle of the slab holding `p` (for RDMA
  /// descriptors).
  ugni::gni_mem_handle_t handle_of(const void* p) const;

  /// True when `p` was produced by this pool's alloc() and is live.  Safe
  /// for any pointer; message paths use owner_of() instead.
  bool owns(const void* p) const;

  /// Bytes the caller may write at `p` (at least the size requested).
  std::size_t block_size(const void* p) const;

  /// Bytes of the model block alloc(bytes) would carve — the power-of-two
  /// size class covering `bytes`.  Lease-sized buffers (aggregation
  /// batches) round their capacity up to this so no registered pool bytes
  /// are stranded.
  static std::size_t usable_size(std::size_t bytes);

  /// The pool owning buffer `p`, read from its header in O(1); nullptr for
  /// a heap buffer.  `p` must come from alloc() or heap_alloc() and be live.
  static MemPool* owner_of(const void* p);

  /// A heap buffer with the same 16-byte prefix as pool buffers (owner
  /// nullptr), for layers running without a pool or falling back after a
  /// failed slab registration.  Charges nothing.
  static void* heap_alloc(std::size_t bytes);
  static void heap_free(void* p);
  /// Teardown release: deletes `p` if it is a heap buffer.  Pool buffers
  /// are left to their pool, whose destructor reclaims them.
  static void discard(void* p);

  /// RegionOwner: true when [addr, addr+len) is a live block of slab
  /// `slab` holding at least `len` bytes.
  bool holds(std::uint32_t slab, std::uint64_t addr,
             std::uint64_t len) const override;

  const MemPoolStats& stats() const { return stats_; }
  ugni::gni_nic_handle_t nic() const { return nic_; }

  static constexpr std::size_t kMinBlock = 64;
  static constexpr std::size_t kMaxBlock = 64ull << 20;  // 64 MiB

 private:
  struct Slab {
    std::uint64_t size = 0;
    std::uint64_t used = 0;  // bump-carve offset
    ugni::gni_mem_handle_t handle{};
  };

  // One model block carved from a slab.  Free blocks of a bin form an
  // intrusive LIFO list through `next_free`; a live block's is kLiveBlock.
  static constexpr std::uint32_t kNoBlock = UINT32_MAX;
  static constexpr std::uint32_t kLiveBlock = UINT32_MAX - 1;
  struct Block {
    void* host = nullptr;  // payload while attached: live and not released
    std::uint32_t next_free = kNoBlock;
    std::uint16_t slab = 0;
    std::uint16_t bin = 0;
  };

  // Host block header, just before every returned pointer.  The arena's
  // free-list link overwrites `pool` once the host block is freed.
  struct Header {
    MemPool* pool = nullptr;  // owner; nullptr for heap buffers
    std::uint32_t block = 0;  // index into blocks_
    std::uint16_t host_class = 0;
    std::uint16_t magic = 0;
  };
  static constexpr std::size_t kHeaderSize = 16;  // keep payload aligned
  static_assert(sizeof(Header) == kHeaderSize);
  static constexpr std::uint16_t kMagicLive = 0xDA11;
  static constexpr std::uint16_t kMagicFree = 0xDEAD;
  static constexpr std::uint16_t kMagicHeap = 0x4EA9;
  /// Base of the synthetic registered ranges, above user-space addresses.
  static constexpr std::uint64_t kSyntheticBase = 1ull << 63;

  static std::size_t bin_of(std::size_t bytes);
  static std::size_t bin_block_size(std::size_t bin);

  /// Carve a model block of `block` bytes for `bin`, expanding if needed.
  /// Returns kNoBlock when expansion fails.
  std::uint32_t carve(std::size_t bin, std::size_t block);
  /// False when the slab's registration was refused by the NIC.
  bool add_slab(std::size_t min_bytes);
  /// Give model block `id` host bytes for `bytes` of payload.
  void* attach(std::uint32_t id, std::size_t bytes);
  /// Return an attached block's host bytes to the arena.
  void detach(Header* h);
  /// True when `addr` is a live block of this pool; `*out` receives its
  /// header.  Safe for any address.
  bool live_header(std::uintptr_t addr, Header* out) const;

  static Header* header_of(void* p) {
    return reinterpret_cast<Header*>(static_cast<std::uint8_t*>(p) -
                                     kHeaderSize);
  }
  static const Header* header_of(const void* p) {
    return reinterpret_cast<const Header*>(
        static_cast<const std::uint8_t*>(p) - kHeaderSize);
  }

  /// One size class per power of two in [kMinBlock, kMaxBlock].
  static constexpr std::size_t kBins =
      std::countr_zero(kMaxBlock) - std::countr_zero(kMinBlock) + 1;

  HostArena* arena_;
  ugni::gni_nic_handle_t nic_;
  std::vector<Slab> slabs_;
  std::vector<Block> blocks_;
  std::array<std::uint32_t, kBins> free_head_;  // per-bin model freelists
  MemPoolStats stats_;
};

}  // namespace ugnirt::mempool
