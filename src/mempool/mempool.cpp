#include "mempool/mempool.hpp"

#include <bit>
#include <cassert>
#include <cstring>
#include <new>
#include <stdexcept>

#include "trace/events.hpp"
#include "util/log.hpp"

namespace ugnirt::mempool {

namespace {

sim::Context& ctx() {
  sim::Context* c = sim::current();
  assert(c && "MemPool calls must run inside a simulated PE context");
  return *c;
}

}  // namespace

MemPool::MemPool(HostArena& arena, ugni::gni_nic_handle_t nic,
                 std::uint64_t initial_bytes)
    : arena_(&arena), nic_(nic) {
  free_head_.fill(kNoBlock);
  add_slab(initial_bytes);
}

MemPool::~MemPool() {
  for (const Block& b : blocks_) {
    if (b.host) detach(header_of(b.host));
  }
  // Slabs deregister with the NIC when a PE context can take the charge;
  // otherwise they only drop this pool as their owner, which leaves the
  // synthetic range that no host pointer matches.
  for (auto& slab : slabs_) {
    if (sim::current()) {
      ugni::GNI_MemDeregister(nic_, &slab.handle);
    } else {
      nic_->set_region_owner(slab.handle, nullptr, 0);
    }
  }
}

std::size_t MemPool::bin_of(std::size_t bytes) {
  std::size_t need = bytes < kMinBlock ? kMinBlock : std::bit_ceil(bytes);
  if (need > kMaxBlock) {
    throw std::length_error("MemPool: allocation exceeds max block size");
  }
  return static_cast<std::size_t>(std::countr_zero(need)) -
         static_cast<std::size_t>(std::countr_zero(kMinBlock));
}

std::size_t MemPool::bin_block_size(std::size_t bin) {
  return kMinBlock << bin;
}

std::size_t MemPool::usable_size(std::size_t bytes) {
  return bin_block_size(bin_of(bytes));
}

bool MemPool::add_slab(std::size_t min_bytes) {
  // Grow geometrically, and always leave room for several blocks of the
  // triggering size so steady-state traffic of one size class stops
  // expanding after one or two slabs (each expansion pays registration).
  std::size_t size = slabs_.empty() ? min_bytes : slabs_.back().size * 2;
  if (size < 4 * min_bytes) size = std::bit_ceil(4 * min_bytes);
  if (size < kMinBlock + kHeaderSize) size = 4096;

  const auto& mc = nic_->domain()->config();
  sim::Context& c = ctx();
  c.charge(mc.malloc_cost(size));

  // The registered range is synthetic: it starts above every user-space
  // address, so no host pointer can alias it, and the slabs of one pool
  // never overlap.
  Slab slab;
  slab.size = size;
  ugni::gni_return_t rc = ugni::GNI_MemRegister(
      nic_, kSyntheticBase + stats_.slab_bytes, size, /*dst_cq=*/nullptr, 0,
      &slab.handle);
  if (rc != ugni::GNI_RC_SUCCESS) {
    // Registration refused (MDD/TLB pressure, or an injected fault): the
    // allocation that triggered the expansion falls back to the caller's
    // heap path; the pool itself stays usable with its existing slabs.
    UGNIRT_WARN("mempool slab registration failed (rc=" << rc << ", "
                                                        << size << " B)");
    return false;
  }
  nic_->set_region_owner(slab.handle, this,
                         static_cast<std::uint32_t>(slabs_.size()));
  slabs_.push_back(slab);
  stats_.slab_bytes += size;
  ++stats_.expansions;
  if (trace::enabled()) {
    trace::emit(c.pe(), trace::Ev::kPoolExpand, c.now(), 0, /*peer=*/-1,
                static_cast<std::uint32_t>(size));
  }
  UGNIRT_DEBUG("mempool slab +" << size << " B (total "
                                << stats_.slab_bytes << " B, "
                                << stats_.expansions << " expansions)");
  return true;
}

std::uint32_t MemPool::carve(std::size_t bin, std::size_t block) {
  // A model block spends its bin plus a 16-byte header of slab space: the
  // header is part of the modelled layout, so expansions depend on it.
  const std::size_t need = block + kHeaderSize;
  // Find a slab with room (newest first: older slabs are likely full).
  for (std::size_t i = slabs_.size(); i-- > 0;) {
    Slab& slab = slabs_[i];
    if (slab.size - slab.used >= need) {
      slab.used += need;
      blocks_.push_back(Block{nullptr, kNoBlock, static_cast<std::uint16_t>(i),
                              static_cast<std::uint8_t>(bin)});
      return static_cast<std::uint32_t>(blocks_.size() - 1);
    }
  }
  if (!add_slab(need)) return kNoBlock;
  return carve(bin, block);
}

void* MemPool::attach(std::uint32_t id, std::size_t bytes) {
  // Host bytes at the requested size, whatever size first carved this
  // model block: a freelist hit never gets a block too small for it.
  std::uint16_t cls = 0;
  void* raw = arena_->alloc(kHeaderSize + bytes, &cls);
  new (raw) Header{this, id, cls, kMagicLive};
  void* p = static_cast<std::uint8_t*>(raw) + kHeaderSize;
  blocks_[id].host = p;
  blocks_[id].next_free = kLiveBlock;
  return p;
}

void MemPool::detach(Header* h) {
  blocks_[h->block].host = nullptr;
  h->magic = kMagicFree;
  arena_->free(h, h->host_class);
}

void* MemPool::alloc(std::size_t bytes) {
  const auto& mc = nic_->domain()->config();
  sim::Context& c = ctx();
  c.charge(mc.mempool_alloc_ns);
  std::size_t bin = bin_of(bytes);
  // The size class resolves in O(1) (bit_ceil + countr_zero, no search);
  // the counter lets tests and the registry assert the fast path held
  // (bin_lookups == allocs: never more than one resolution per alloc).
  ++stats_.bin_lookups;
  ++stats_.allocs;
  ++stats_.outstanding;
  std::uint32_t id = free_head_[bin];
  if (id != kNoBlock) {
    free_head_[bin] = blocks_[id].next_free;
    ++stats_.freelist_hits;
    if (trace::enabled()) {
      trace::emit(c.pe(), trace::Ev::kPoolHit, c.now(), 0, /*peer=*/-1,
                  static_cast<std::uint32_t>(bytes));
    }
    return attach(id, bytes);
  }
  if (trace::enabled()) {
    trace::emit(c.pe(), trace::Ev::kPoolMiss, c.now(), 0, /*peer=*/-1,
                static_cast<std::uint32_t>(bytes));
  }
  id = carve(bin, bin_block_size(bin));
  if (id == kNoBlock) {
    --stats_.allocs;
    --stats_.outstanding;
    return nullptr;
  }
  return attach(id, bytes);
}

void MemPool::free(void* p) {
  free_block(block_of(p));
}

std::uint32_t MemPool::block_of(const void* p) const {
  const Header* h = header_of(p);
  assert(h->pool == this && h->magic == kMagicLive &&
         "MemPool: not a live block of this pool");
  return h->block;
}

std::uint32_t MemPool::give(void* p) {
  const std::uint32_t id = block_of(p);
  blocks_[id].given = true;
  return id;
}

void MemPool::free_block(std::uint32_t id) {
  const auto& mc = nic_->domain()->config();
  ctx().charge(mc.mempool_free_ns);
  Block& b = blocks_[id];
  assert(b.next_free == kLiveBlock && "MemPool::free_block of a free block");
  if (b.host) detach(header_of(b.host));
  b.given = false;
  b.next_free = free_head_[b.bin];
  free_head_[b.bin] = id;
  ++stats_.frees;
  --stats_.outstanding;
}

ugni::gni_mem_handle_t MemPool::handle_of(const void* p) const {
  const Header* h = header_of(p);
  assert(h->pool == this && h->magic == kMagicLive);
  return slabs_[blocks_[h->block].slab].handle;
}

bool MemPool::live_header(std::uintptr_t addr, Header* out) const {
  // Copy the header only from bytes the arena owns (they may be a free
  // block's, or another block's payload), then demand that the model
  // block it names records exactly this address: payload bytes that
  // happen to look like a header cannot pass.
  if (addr < kHeaderSize ||
      !arena_->contains(reinterpret_cast<const void*>(addr - kHeaderSize),
                        kHeaderSize)) {
    return false;
  }
  std::memcpy(out, reinterpret_cast<const void*>(addr - kHeaderSize),
              kHeaderSize);
  return out->pool == this && out->magic == kMagicLive &&
         out->block < blocks_.size() &&
         reinterpret_cast<std::uintptr_t>(blocks_[out->block].host) == addr;
}

bool MemPool::owns(const void* p) const {
  Header h;
  return live_header(reinterpret_cast<std::uintptr_t>(p), &h);
}

bool MemPool::holds(std::uint32_t slab, std::uint64_t addr,
                    std::uint64_t len) const {
  Header h;
  return live_header(addr, &h) && blocks_[h.block].slab == slab &&
         len <= HostArena::class_bytes(h.host_class) - kHeaderSize;
}

void MemPool::deliver(std::uint64_t src, std::uint64_t len,
                      ugni::RegionOwner* landing, std::uint64_t* dst) {
  void* p = reinterpret_cast<void*>(src);
  Header* h = header_of(p);
  Block& b = blocks_[h->block];
  // A move within one pool would leave the source's handle naming the
  // moved bytes, so a re-posted GET could still read them.
  if (b.given && landing && landing != this &&
      landing->adopt(*dst, src, arena_)) {
    b.host = nullptr;  // the landing block owns the bytes and the header
    *dst = src;
    ++stats_.moves;
    return;
  }
  std::memcpy(reinterpret_cast<void*>(*dst), p, len);
  if (b.given) detach(h);
}

bool MemPool::adopt(std::uint64_t dst, std::uint64_t bytes,
                    const void* space) {
  if (space != arena_) return false;
  Header* own = header_of(reinterpret_cast<void*>(dst));
  assert(own->pool == this && own->magic == kMagicLive &&
         "MemPool::adopt: landing is not a live block of this pool");
  const std::uint32_t id = own->block;
  detach(own);
  // The moved bytes keep their host class and live magic; only the owner
  // changes, so freeing the landing block returns them to the arena.
  Header* moved = header_of(reinterpret_cast<void*>(bytes));
  moved->pool = this;
  moved->block = id;
  blocks_[id].host = reinterpret_cast<void*>(bytes);
  return true;
}

std::size_t MemPool::block_size(const void* p) const {
  const Header* h = header_of(p);
  assert(h->pool == this && h->magic == kMagicLive);
  return HostArena::class_bytes(h->host_class) - kHeaderSize;
}

MemPool* MemPool::owner_of(const void* p) {
  const Header* h = header_of(p);
  assert((h->magic == kMagicLive || h->magic == kMagicHeap) &&
         "owner_of: not a live message buffer");
  return h->pool;
}

void* MemPool::heap_alloc(std::size_t bytes) {
  void* raw = ::operator new[](kHeaderSize + bytes, std::align_val_t{16});
  new (raw) Header{nullptr, 0, 0, kMagicHeap};
  return static_cast<std::uint8_t*>(raw) + kHeaderSize;
}

void MemPool::heap_free(void* p) {
  Header* h = header_of(p);
  assert(h->magic == kMagicHeap && "heap_free of a pool buffer");
  ::operator delete[](h, std::align_val_t{16});
}

void MemPool::discard(void* p) {
  if (header_of(p)->magic == kMagicHeap) heap_free(p);
}

}  // namespace ugnirt::mempool
