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
// A rendezvous source is a *given* block (give()): its sender will not
// read it again and frees it by id on ACK_TAG.  The pool, as its slab's
// RegionOwner, delivers the receiver's GET of it: into a landing block of
// a pool on the same arena the host bytes move (the landing block adopts
// them and its own go back to the arena; nothing is copied), into any
// other landing they are copied and then returned.  Either way the given
// block stays live, registered and outstanding with no host bytes until
// free_block().  A block that was not given is copied and left alone
// (DESIGN.md §8.2).
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
  std::uint64_t moves = 0;  // GETs of a given block that moved its bytes
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

  /// Give live buffer `p` away as a rendezvous source: its owner reads it
  /// no more and frees it by the returned block id.  Charges nothing.
  /// The first GET of it takes its host bytes (see deliver()), and from
  /// then on `p` is the landing's, or dangling, and holds() rejects it.
  std::uint32_t give(void* p);

  /// Free model block `id`: charges and counts exactly what free() does,
  /// and returns its host bytes if a GET has not taken them.
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

  /// RegionOwner: a GET of live block `src`.  A block that was not given
  /// is copied to `*dst`.  A given block moves into a landing block of
  /// another pool on this arena (`*dst` becomes `src`), and is otherwise
  /// copied and its bytes returned.  Charges nothing.
  void deliver(std::uint64_t src, std::uint64_t len,
               ugni::RegionOwner* landing, std::uint64_t* dst) override;

  /// RegionOwner: live block `dst` of this pool takes over host bytes
  /// `bytes`, a block of another pool on arena `space`.
  bool adopt(std::uint64_t dst, std::uint64_t bytes,
             const void* space) override;

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
    void* host = nullptr;  // payload while attached: live, bytes not taken
    std::uint32_t next_free = kNoBlock;
    std::uint16_t slab = 0;
    std::uint8_t bin = 0;
    bool given = false;  // see give(); cleared by free_block()
  };
  static_assert(sizeof(Block) == 16);

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
