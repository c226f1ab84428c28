#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <map>
#include <vector>

#include "fault/fault.hpp"
#include "sim/engine.hpp"
#include "mempool/mempool.hpp"
#include "util/rng.hpp"

namespace ugnirt::mempool {
namespace {

class MemPoolFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = std::make_unique<gemini::Network>(
        engine_.scheduler(), topo::Torus3D::for_nodes(2), gemini::MachineConfig{});
    dom_ = std::make_unique<ugni::Domain>(*net_);
    ctx_ = std::make_unique<sim::Context>(engine_.scheduler(), 0);
    sim::ScopedContext guard(*ctx_);
    ASSERT_EQ(ugni::GNI_CdmAttach(dom_.get(), 0, 0, &nic_),
              ugni::GNI_RC_SUCCESS);
    pool_ = std::make_unique<MemPool>(arena_, nic_, 64 * 1024);
  }

  void TearDown() override {
    sim::ScopedContext guard(*ctx_);
    pool_.reset();
  }

  sim::Engine engine_;
  std::unique_ptr<gemini::Network> net_;
  std::unique_ptr<ugni::Domain> dom_;
  std::unique_ptr<sim::Context> ctx_;
  ugni::gni_nic_handle_t nic_ = nullptr;
  HostArena arena_;
  std::unique_ptr<MemPool> pool_;
};

TEST_F(MemPoolFixture, AllocReturnsUsableRegisteredMemory) {
  sim::ScopedContext guard(*ctx_);
  void* p = pool_->alloc(1000);
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(pool_->owns(p));
  EXPECT_GE(pool_->block_size(p), 1000u);
  std::memset(p, 0xAB, 1000);

  // The handle must point at a registered region covering the buffer.
  ugni::gni_mem_handle_t h = pool_->handle_of(p);
  EXPECT_NE(h.qword1, 0u);
  EXPECT_GE(nic_->registered_bytes(), 64u * 1024u);
  pool_->free(p);
}

TEST_F(MemPoolFixture, FreeThenAllocReusesBlock) {
  sim::ScopedContext guard(*ctx_);
  void* a = pool_->alloc(512);
  pool_->free(a);
  void* b = pool_->alloc(512);
  EXPECT_EQ(a, b);
  EXPECT_EQ(pool_->stats().freelist_hits, 1u);
  pool_->free(b);
}

TEST_F(MemPoolFixture, SizeClassesAreIsolated) {
  sim::ScopedContext guard(*ctx_);
  void* small = pool_->alloc(64);
  void* big = pool_->alloc(8192);
  pool_->free(small);
  // A big request must not be satisfied by the freed small block.
  void* big2 = pool_->alloc(8192);
  EXPECT_NE(big2, small);
  pool_->free(big);
  pool_->free(big2);
}

TEST_F(MemPoolFixture, RecycledAllocIsCheaperThanExpansion) {
  sim::ScopedContext guard(*ctx_);
  // First large alloc may expand the pool (malloc+register = expensive).
  SimTime t0 = ctx_->now();
  void* a = pool_->alloc(256 * 1024);
  SimTime first_cost = ctx_->now() - t0;
  pool_->free(a);
  t0 = ctx_->now();
  void* b = pool_->alloc(256 * 1024);
  SimTime second_cost = ctx_->now() - t0;
  // Recycle path charges only mempool_alloc_ns.
  EXPECT_EQ(second_cost, net_->config().mempool_alloc_ns);
  EXPECT_GT(first_cost, 20 * second_cost);
  pool_->free(b);
}

TEST_F(MemPoolFixture, ExpandsWhenExhausted) {
  sim::ScopedContext guard(*ctx_);
  std::vector<void*> blocks;
  std::uint64_t initial_expansions = pool_->stats().expansions;
  for (int i = 0; i < 64; ++i) blocks.push_back(pool_->alloc(4096));
  EXPECT_GT(pool_->stats().expansions, initial_expansions);
  for (void* p : blocks) {
    EXPECT_TRUE(pool_->owns(p));
    pool_->free(p);
  }
  EXPECT_EQ(pool_->stats().outstanding, 0u);
}

TEST_F(MemPoolFixture, BlocksDoNotOverlap) {
  sim::ScopedContext guard(*ctx_);
  std::map<std::uintptr_t, std::size_t> spans;
  std::vector<void*> blocks;
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    std::size_t size = 64u << rng.next_below(8);  // 64B .. 8KB
    void* p = pool_->alloc(size);
    std::uintptr_t addr = reinterpret_cast<std::uintptr_t>(p);
    std::size_t span = pool_->block_size(p);
    // Check against all existing blocks.
    for (const auto& [a, s] : spans) {
      EXPECT_TRUE(addr + span <= a || a + s <= addr)
          << "block overlap at iteration " << i;
    }
    spans[addr] = span;
    blocks.push_back(p);
  }
  for (void* p : blocks) pool_->free(p);
}

TEST_F(MemPoolFixture, StressRandomAllocFreeWithPatternVerify) {
  sim::ScopedContext guard(*ctx_);
  struct Live {
    void* p;
    std::size_t size;
    std::uint8_t pattern;
  };
  std::vector<Live> live;
  Rng rng(77);
  for (int iter = 0; iter < 3000; ++iter) {
    if (live.empty() || rng.next_below(100) < 60) {
      std::size_t size = 1 + rng.next_below(32 * 1024);
      auto pattern = static_cast<std::uint8_t>(rng.next_below(256));
      void* p = pool_->alloc(size);
      std::memset(p, pattern, size);
      live.push_back({p, size, pattern});
    } else {
      std::size_t idx = rng.next_below(static_cast<std::uint32_t>(live.size()));
      Live& l = live[idx];
      // Verify the pattern survived neighboring alloc/free traffic.
      auto* bytes = static_cast<std::uint8_t*>(l.p);
      bool intact = true;
      for (std::size_t i = 0; i < l.size; ++i) {
        if (bytes[i] != l.pattern) {
          intact = false;
          break;
        }
      }
      EXPECT_TRUE(intact) << "corruption detected at iteration " << iter;
      pool_->free(l.p);
      live[idx] = live.back();
      live.pop_back();
    }
  }
  for (const auto& l : live) pool_->free(l.p);
  EXPECT_EQ(pool_->stats().outstanding, 0u);
  EXPECT_EQ(pool_->stats().allocs, pool_->stats().frees);
}

TEST_F(MemPoolFixture, BinLookupIsConstantTimePerAlloc) {
  sim::ScopedContext guard(*ctx_);
  // The size class resolves via bit_ceil + countr_zero — exactly one O(1)
  // lookup per alloc, never a search.  On a success-only workload the
  // counter must track allocs one-for-one (a failed slab expansion rolls
  // back the alloc count but not the lookup, so only successful-alloc
  // workloads can assert equality).
  std::vector<void*> held;
  for (int round = 0; round < 4; ++round) {
    for (std::size_t size : {1u, 64u, 65u, 4096u, 32u * 1024u}) {
      held.push_back(pool_->alloc(size));
    }
    for (void* p : held) pool_->free(p);
    held.clear();
  }
  const auto& st = pool_->stats();
  EXPECT_EQ(st.bin_lookups, st.allocs);
  EXPECT_EQ(st.bin_lookups, 20u);
}

TEST_F(MemPoolFixture, OversizedAllocationThrows) {
  sim::ScopedContext guard(*ctx_);
  EXPECT_THROW(pool_->alloc(MemPool::kMaxBlock * 2), std::length_error);
}

TEST_F(MemPoolFixture, OwnsRejectsForeignAndFreedPointers) {
  sim::ScopedContext guard(*ctx_);
  int local = 0;
  EXPECT_FALSE(pool_->owns(&local));
  EXPECT_FALSE(pool_->owns(nullptr));
  void* p = pool_->alloc(128);
  EXPECT_TRUE(pool_->owns(p));
  pool_->free(p);
  EXPECT_FALSE(pool_->owns(p));
}

// ---------------------------------------------------------------------------
// Model equivalence.  The pool's slabs and bins are the model of paper
// §IV-B; host bytes come from a shared arena.  Under seeded churn (mixed
// sizes, registration faults) the pool's stats and charges must equal a
// small reference of the rule, every live block must be valid RDMA memory
// for its length, and nothing else may be.
// ---------------------------------------------------------------------------

/// The pool rule with no host layout at all: power-of-two bins from 64 B,
/// per-bin free counts, blocks of bin + 16 B bump-carved from the newest
/// slab with room, and geometric slab growth whose registration may fail.
class RefPool {
 public:
  RefPool(const gemini::MachineConfig& mc, const fault::FaultPlan& plan,
          std::uint64_t initial_bytes)
      : mc_(mc), faults_(plan) {
    add_slab(initial_bytes);
  }

  /// False when the expansion the request needed lost its registration.
  bool alloc(std::size_t bytes) {
    charged += mc_.mempool_alloc_ns;
    const std::size_t bin = bin_of(bytes);
    ++st.bin_lookups;
    ++st.allocs;
    ++st.outstanding;
    if (free_[bin] > 0) {
      --free_[bin];
      ++st.freelist_hits;
      return true;
    }
    const std::size_t need = (MemPool::kMinBlock << bin) + 16;
    for (;;) {
      for (std::size_t i = slabs_.size(); i-- > 0;) {
        if (slabs_[i].size - slabs_[i].used >= need) {
          slabs_[i].used += need;
          return true;
        }
      }
      if (!add_slab(need)) {
        --st.allocs;
        --st.outstanding;
        return false;
      }
    }
  }

  void free(std::size_t bytes) {
    charged += mc_.mempool_free_ns;
    ++free_[bin_of(bytes)];
    ++st.frees;
    --st.outstanding;
  }

  static std::size_t bin_of(std::size_t bytes) {
    const std::size_t need =
        bytes < MemPool::kMinBlock ? MemPool::kMinBlock : std::bit_ceil(bytes);
    return static_cast<std::size_t>(std::countr_zero(need) -
                                    std::countr_zero(MemPool::kMinBlock));
  }

  MemPoolStats st;
  SimTime charged = 0;

 private:
  struct Slab {
    std::uint64_t size = 0;
    std::uint64_t used = 0;
  };

  bool add_slab(std::size_t min_bytes) {
    std::size_t size = slabs_.empty() ? min_bytes : slabs_.back().size * 2;
    if (size < 4 * min_bytes) size = std::bit_ceil(4 * min_bytes);
    if (size < MemPool::kMinBlock + 16) size = 4096;
    charged += mc_.malloc_cost(size);
    // Same plan, same NIC: the injector draws the pool's decisions.
    if (faults_.inject_reg_error(0)) {
      charged += mc_.mem_reg_base_ns;
      return false;
    }
    charged += mc_.reg_cost(size);
    slabs_.push_back({size, 0});
    st.slab_bytes += size;
    ++st.expansions;
    return true;
  }

  const gemini::MachineConfig& mc_;
  fault::FaultInjector faults_;
  std::vector<Slab> slabs_;
  std::map<std::size_t, std::uint64_t> free_;
};

void expect_same_stats(const MemPoolStats& got, const MemPoolStats& want,
                       int step) {
  EXPECT_EQ(got.allocs, want.allocs) << "step " << step;
  EXPECT_EQ(got.frees, want.frees) << "step " << step;
  EXPECT_EQ(got.expansions, want.expansions) << "step " << step;
  EXPECT_EQ(got.slab_bytes, want.slab_bytes) << "step " << step;
  EXPECT_EQ(got.outstanding, want.outstanding) << "step " << step;
  EXPECT_EQ(got.freelist_hits, want.freelist_hits) << "step " << step;
  EXPECT_EQ(got.bin_lookups, want.bin_lookups) << "step " << step;
}

class MemPoolModel : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override {
    plan_.enabled = true;
    plan_.seed = GetParam();
    plan_.p_reg_error = 0.25;
    net_ = std::make_unique<gemini::Network>(
        engine_.scheduler(), topo::Torus3D::for_nodes(2),
        gemini::MachineConfig{});
    injector_ = std::make_unique<fault::FaultInjector>(plan_);
    net_->set_fault_injector(injector_.get());
    dom_ = std::make_unique<ugni::Domain>(*net_);
    ctx_ = std::make_unique<sim::Context>(engine_.scheduler(), 0);
    sim::ScopedContext guard(*ctx_);
    ASSERT_EQ(ugni::GNI_CdmAttach(dom_.get(), 0, 0, &nic_),
              ugni::GNI_RC_SUCCESS);
  }

  struct Live {
    std::uint8_t* p;
    std::size_t size;
    std::uint8_t pattern;
    ugni::gni_mem_handle_t hndl;
  };

  static bool intact(const Live& l) {
    for (std::size_t i = 0; i < l.size; ++i) {
      if (l.p[i] != l.pattern) return false;
    }
    return true;
  }

  sim::Engine engine_;
  fault::FaultPlan plan_;
  std::unique_ptr<gemini::Network> net_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::unique_ptr<ugni::Domain> dom_;
  std::unique_ptr<sim::Context> ctx_;
  ugni::gni_nic_handle_t nic_ = nullptr;
  HostArena arena_;
};

TEST_P(MemPoolModel, SeededChurnMatchesReferenceAndValidatesBlocks) {
  sim::ScopedContext guard(*ctx_);
  const auto& mc = net_->config();
  const SimTime t0 = ctx_->now();
  RefPool ref(mc, plan_, 4096);
  auto pool = std::make_unique<MemPool>(arena_, nic_, 4096);
  Rng rng(GetParam() * 7919 + 1);
  std::vector<Live> live;
  std::uint64_t fallbacks = 0;

  auto alloc = [&](std::size_t size, int step) {
    const bool want = ref.alloc(size);
    void* p = pool->alloc(size);
    EXPECT_EQ(p != nullptr, want) << "step " << step;
    if (!p) {
      ++fallbacks;
      return;
    }
    ASSERT_GE(pool->block_size(p), size);
    auto pattern = static_cast<std::uint8_t>(rng.next_below(256));
    std::memset(p, pattern, size);
    live.push_back({static_cast<std::uint8_t*>(p), size, pattern,
                    pool->handle_of(p)});
  };
  auto release = [&](std::size_t idx, int step) {
    Live l = live[idx];
    live[idx] = live.back();
    live.pop_back();
    EXPECT_TRUE(intact(l)) << "overlap corrupted a block, step " << step;
    ref.free(l.size);
    pool->free(l.p);
    const auto addr = reinterpret_cast<std::uint64_t>(l.p);
    EXPECT_FALSE(nic_->handle_valid(l.hndl, addr, l.size))
        << "freed block still valid, step " << step;
  };

  // A same-bin request larger than the block's first use: the model
  // reuses the 2 KiB block carved for 1,025 bytes, and the host block
  // must still hold all 2,048.
  while (live.empty()) alloc(1025, -2);  // until a slab registers
  release(0, -2);
  alloc(2048, -1);
  ASSERT_EQ(pool->stats().freelist_hits, 1u);

  for (int step = 0; step < 4000; ++step) {
    if (live.empty() || rng.next_below(100) < 55) {
      std::size_t size;
      switch (rng.next_below(4)) {
        case 0: size = 1 + rng.next_below(256); break;
        case 1: size = 1000 + rng.next_below(1100); break;  // bins 1K/2K/4K
        case 2: size = 1 + rng.next_below(16 * 1024); break;
        default: size = 1 + rng.next_below(128 * 1024); break;
      }
      alloc(size, step);
    } else {
      release(rng.next_below(static_cast<std::uint32_t>(live.size())), step);
    }
    expect_same_stats(pool->stats(), ref.st, step);
    ASSERT_EQ(ctx_->now() - t0, ref.charged) << "step " << step;
    if (step % 97 == 0) {
      for (const Live& l : live) {
        const auto addr = reinterpret_cast<std::uint64_t>(l.p);
        EXPECT_TRUE(nic_->handle_valid(l.hndl, addr, l.size));
        EXPECT_TRUE(nic_->handle_valid(l.hndl, addr,
                                       pool->block_size(l.p)));
        EXPECT_FALSE(nic_->handle_valid(l.hndl, addr,
                                        pool->block_size(l.p) + 1));
        EXPECT_FALSE(nic_->handle_valid(l.hndl, addr + 16, 1))
            << "an interior address is not a block";
        EXPECT_TRUE(intact(l));
      }
    }
  }
  EXPECT_GT(fallbacks, 0u) << "the fault plan never refused a slab";
  EXPECT_GT(pool->stats().freelist_hits, 0u);

  // Destroying the pool reclaims the live blocks and kills their handles.
  std::vector<Live> held = live;
  pool.reset();
  EXPECT_EQ(arena_.live_bytes(), 0u);
  for (const Live& l : held) {
    EXPECT_FALSE(nic_->handle_valid(
        l.hndl, reinterpret_cast<std::uint64_t>(l.p), l.size));
  }
}

TEST_P(MemPoolModel, FreeingEverythingReturnsArenaLiveBytesToZero) {
  sim::ScopedContext guard(*ctx_);
  MemPool pool(arena_, nic_, 4096);
  Rng rng(GetParam());
  std::vector<void*> held;
  for (int i = 0; i < 500; ++i) {
    if (void* p = pool.alloc(1 + rng.next_below(8192))) held.push_back(p);
  }
  EXPECT_GT(arena_.live_bytes(), 0u);
  for (void* p : held) pool.free(p);
  EXPECT_EQ(arena_.live_bytes(), 0u);
  EXPECT_EQ(pool.stats().outstanding, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MemPoolModel,
                         ::testing::Values(1u, 2u, 3u, 64023u));

TEST_F(MemPoolFixture, PoolsShareOneArena) {
  sim::ScopedContext guard(*ctx_);
  MemPool other(arena_, nic_, 4096);
  void* a = pool_->alloc(700);
  pool_->free(a);
  // Another pool's request of the same host class takes the freed bytes.
  void* b = other.alloc(700);
  EXPECT_EQ(a, b);
  EXPECT_EQ(MemPool::owner_of(b), &other);
  EXPECT_FALSE(pool_->owns(b));
  EXPECT_TRUE(other.owns(b));
  other.free(b);
}

TEST_F(MemPoolFixture, ForgedHeaderInAPayloadIsNotABlock) {
  sim::ScopedContext guard(*ctx_);
  auto* p = static_cast<std::uint8_t*>(pool_->alloc(256));
  const ugni::gni_mem_handle_t h = pool_->handle_of(p);
  // Payload bytes that copy the block's own header make p + 16 look like
  // a live block of this pool; the owner check must still refuse it.
  std::memcpy(p, p - 16, 16);
  const auto addr = reinterpret_cast<std::uint64_t>(p);
  EXPECT_TRUE(nic_->handle_valid(h, addr, 256));
  EXPECT_FALSE(nic_->handle_valid(h, addr + 16, 16));
  EXPECT_FALSE(pool_->owns(p + 16));
  pool_->free(p);
}

TEST_F(MemPoolFixture, HeapBuffersCarryAnOwnerlessPrefix) {
  void* p = MemPool::heap_alloc(100);
  EXPECT_EQ(MemPool::owner_of(p), nullptr);
  EXPECT_FALSE(pool_->owns(p));
  MemPool::discard(p);
}

TEST_F(MemPoolFixture, PoolDestroyedOutsideAContextUnbindsItsSlabs) {
  void* p = nullptr;
  ugni::gni_mem_handle_t h{};
  {
    sim::ScopedContext guard(*ctx_);
    p = pool_->alloc(256);
    h = pool_->handle_of(p);
    EXPECT_TRUE(nic_->handle_valid(h, reinterpret_cast<std::uint64_t>(p), 256));
  }
  pool_.reset();  // no PE context: slabs stay registered, owner unbound
  EXPECT_FALSE(nic_->handle_valid(h, reinterpret_cast<std::uint64_t>(p), 256));
  EXPECT_EQ(arena_.live_bytes(), 0u);
}

// A given rendezvous source GET'd into a landing that cannot adopt its
// bytes (a heap landing) is copied and then gives its host bytes back;
// its model block stays live until the ACK frees it by id.
TEST_F(MemPoolFixture, ReleasedHostKeepsTheModelBlockLiveUntilFreedById) {
  sim::ScopedContext guard(*ctx_);
  const std::uint64_t live0 = arena_.live_bytes();
  auto* p = static_cast<std::uint8_t*>(pool_->alloc(1000));
  const std::uint64_t held = arena_.live_bytes() - live0;
  ASSERT_GT(held, 0u);
  for (int i = 0; i < 1000; ++i) p[i] = static_cast<std::uint8_t>(i * 5 + 1);
  const ugni::gni_mem_handle_t h = pool_->handle_of(p);
  const auto addr = reinterpret_cast<std::uint64_t>(p);
  ASSERT_TRUE(nic_->handle_valid(h, addr, 1000));
  const std::uint32_t id = pool_->block_of(p);
  EXPECT_EQ(pool_->give(p), id);
  const MemPoolStats before = pool_->stats();
  const std::uint64_t regs = nic_->registered_bytes();

  std::vector<std::uint8_t> heap(1000);
  std::uint64_t dst = reinterpret_cast<std::uint64_t>(heap.data());
  SimTime t0 = ctx_->now();
  pool_->deliver(addr, 1000, /*landing=*/nullptr, &dst);
  EXPECT_EQ(ctx_->now(), t0);  // releasing charges nothing
  EXPECT_EQ(dst, reinterpret_cast<std::uint64_t>(heap.data()));  // copied
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(heap[static_cast<std::size_t>(i)],
              static_cast<std::uint8_t>(i * 5 + 1));
  }
  EXPECT_EQ(pool_->stats().moves, 0u);
  EXPECT_EQ(arena_.live_bytes(), live0);
  EXPECT_EQ(arena_.peak_bytes(), live0 + held);
  EXPECT_FALSE(nic_->handle_valid(h, addr, 1000));
  EXPECT_FALSE(pool_->owns(p));
  // The model is untouched: still outstanding, still registered.
  EXPECT_EQ(pool_->stats().outstanding, before.outstanding);
  EXPECT_EQ(pool_->stats().frees, before.frees);
  EXPECT_EQ(nic_->registered_bytes(), regs);

  // The freed bytes serve the next request; the released block cannot.
  void* q = pool_->alloc(1000);
  EXPECT_EQ(q, p);
  EXPECT_NE(pool_->block_of(q), id);

  t0 = ctx_->now();
  pool_->free_block(id);
  EXPECT_EQ(ctx_->now() - t0, net_->config().mempool_free_ns);
  EXPECT_EQ(pool_->stats().outstanding, before.outstanding);  // q is live
  EXPECT_EQ(pool_->stats().frees, before.frees + 1);
  EXPECT_TRUE(pool_->owns(q));  // q's bytes were not touched
  pool_->free(q);
  EXPECT_EQ(arena_.live_bytes(), live0);
  EXPECT_EQ(pool_->stats().outstanding, 0u);
}

TEST_F(MemPoolFixture, FreeByIdOfAnAttachedBlockMatchesFree) {
  sim::ScopedContext guard(*ctx_);
  void* a = pool_->alloc(300);
  const std::uint32_t id = pool_->block_of(a);
  SimTime t0 = ctx_->now();
  pool_->free_block(id);
  EXPECT_EQ(ctx_->now() - t0, net_->config().mempool_free_ns);
  EXPECT_EQ(arena_.live_bytes(), 0u);
  EXPECT_FALSE(pool_->owns(a));
  EXPECT_EQ(pool_->stats().outstanding, 0u);
  // The model block went back to its bin: the next alloc is a hit.
  const std::uint64_t hits = pool_->stats().freelist_hits;
  void* b = pool_->alloc(300);
  EXPECT_EQ(pool_->stats().freelist_hits, hits + 1);
  EXPECT_EQ(pool_->block_of(b), id);
  pool_->free(b);
}

// A rendezvous receiver's GET of a pool block: NIC 1 pulls from a block
// of NIC 0's pool into a landing buffer, as the protocol core does.  The
// two pools share one arena, as every pool of a machine layer does.
class PoolGetFixture : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kLen = 16 * 1024;

  void SetUp() override {
    net_ = std::make_unique<gemini::Network>(
        engine_.scheduler(), topo::Torus3D::for_nodes(2),
        gemini::MachineConfig{});
    dom_ = std::make_unique<ugni::Domain>(*net_);
    ctx_ = std::make_unique<sim::Context>(engine_.scheduler(), 0);
    sim::ScopedContext guard(*ctx_);
    for (int i = 0; i < 2; ++i) {
      ASSERT_EQ(ugni::GNI_CdmAttach(dom_.get(), i, i, &nic_[i]),
                ugni::GNI_RC_SUCCESS);
    }
    ASSERT_EQ(ugni::GNI_CqCreate(nic_[1], 64, &cq_), ugni::GNI_RC_SUCCESS);
    ASSERT_EQ(ugni::GNI_EpCreate(nic_[1], cq_, &ep_), ugni::GNI_RC_SUCCESS);
    ASSERT_EQ(ugni::GNI_EpBind(ep_, 0), ugni::GNI_RC_SUCCESS);
    src_pool_ = std::make_unique<MemPool>(arena_, nic_[0], 64 * 1024);
    dst_pool_ = std::make_unique<MemPool>(arena_, nic_[1], 64 * 1024);
  }

  void TearDown() override {
    sim::ScopedContext guard(*ctx_);
    src_pool_.reset();
    dst_pool_.reset();
    EXPECT_EQ(arena_.live_bytes(), 0u);
  }

  static std::uint8_t pattern(std::size_t i) {
    return static_cast<std::uint8_t>(i * 13 + 5);
  }
  /// A block of the source pool holding kLen patterned bytes.
  std::uint8_t* source() {
    auto* p = static_cast<std::uint8_t*>(src_pool_->alloc(kLen));
    for (std::size_t i = 0; i < kLen; ++i) p[i] = pattern(i);
    return p;
  }
  static bool patterned(std::uint64_t addr) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(addr);
    for (std::size_t i = 0; i < kLen; ++i) {
      if (p[i] != pattern(i)) return false;
    }
    return true;
  }
  /// The receiver's GET of `src` into `landing`, registered under `lh`.
  ugni::gni_post_descriptor_t get(void* landing, ugni::gni_mem_handle_t lh,
                                  std::uint8_t* src) const {
    ugni::gni_post_descriptor_t d;
    d.type = ugni::GNI_POST_RDMA_GET;
    d.cq_mode = 0;
    d.local_addr = reinterpret_cast<std::uint64_t>(landing);
    d.local_mem_hndl = lh;
    d.remote_addr = reinterpret_cast<std::uint64_t>(src);
    d.remote_mem_hndl = src_pool_->handle_of(src);
    d.length = kLen;
    return d;
  }
  ugni::gni_return_t post(ugni::gni_post_descriptor_t& d) {
    sim::ScopedContext guard(*ctx_);
    return ugni::GNI_PostRdma(ep_, &d);
  }

  sim::Engine engine_;
  std::unique_ptr<gemini::Network> net_;
  std::unique_ptr<ugni::Domain> dom_;
  std::unique_ptr<sim::Context> ctx_;
  ugni::gni_nic_handle_t nic_[2] = {};
  ugni::gni_cq_handle_t cq_ = nullptr;
  ugni::gni_ep_handle_t ep_ = nullptr;
  HostArena arena_;
  std::unique_ptr<MemPool> src_pool_;
  std::unique_ptr<MemPool> dst_pool_;
};

// A given block GET'd into a landing block of a pool on the same arena:
// the landing block adopts the source's bytes, nothing is copied, and the
// source block keeps no bytes until its ACK frees it by id.
TEST_F(PoolGetFixture, GivenBlockMovesIntoAPoolLanding) {
  sim::ScopedContext guard(*ctx_);
  std::uint8_t* src = source();
  const std::uint32_t id = src_pool_->give(src);
  void* landing = dst_pool_->alloc(kLen);
  ugni::gni_post_descriptor_t d =
      get(landing, dst_pool_->handle_of(landing), src);
  const ugni::gni_post_descriptor_t refused = d;
  const std::uint64_t live = arena_.live_bytes();
  const std::uint64_t outstanding = src_pool_->stats().outstanding;

  ASSERT_EQ(post(d), ugni::GNI_RC_SUCCESS);
  EXPECT_EQ(d.local_addr, reinterpret_cast<std::uint64_t>(src));
  EXPECT_TRUE(patterned(d.local_addr));
  EXPECT_LT(arena_.live_bytes(), live);  // the landing's own bytes went back
  EXPECT_EQ(src_pool_->stats().moves, 1u);
  EXPECT_EQ(dst_pool_->stats().moves, 0u);
  EXPECT_EQ(src_pool_->stats().outstanding, outstanding);
  EXPECT_FALSE(src_pool_->owns(src));
  EXPECT_TRUE(dst_pool_->owns(src));
  EXPECT_EQ(MemPool::owner_of(src), dst_pool_.get());
  EXPECT_GE(dst_pool_->block_size(src), kLen);
  EXPECT_TRUE(nic_[1]->handle_valid(dst_pool_->handle_of(src), d.local_addr,
                                    kLen));

  // The same GET posted again names a source that holds no bytes.
  ugni::gni_post_descriptor_t again = refused;
  again.local_addr = d.local_addr;
  EXPECT_EQ(post(again), ugni::GNI_RC_PERMISSION_ERROR);

  src_pool_->free_block(id);
  EXPECT_EQ(src_pool_->stats().outstanding, outstanding - 1);
  EXPECT_TRUE(dst_pool_->owns(src));  // the ACK leaves the moved bytes
  dst_pool_->free(src);
  EXPECT_EQ(arena_.live_bytes(), 0u);
}

// A move is bookkeeping: the post has charged the transfer by size, and
// delivering a given block charges nothing more.
TEST_F(PoolGetFixture, MoveChargesNothing) {
  sim::ScopedContext guard(*ctx_);
  std::uint8_t* src = source();
  src_pool_->give(src);
  void* landing = dst_pool_->alloc(kLen);
  std::uint64_t dst = reinterpret_cast<std::uint64_t>(landing);
  const SimTime t0 = ctx_->now();
  src_pool_->deliver(reinterpret_cast<std::uint64_t>(src), kLen,
                     dst_pool_.get(), &dst);
  EXPECT_EQ(ctx_->now(), t0);
  EXPECT_EQ(dst, reinterpret_cast<std::uint64_t>(src));
  EXPECT_EQ(src_pool_->stats().moves, 1u);
  dst_pool_->free(src);
}

// A given block GET'd into a heap landing (the fallback after a refused
// slab) is copied, and then its bytes go back to the arena.
TEST_F(PoolGetFixture, GivenBlockIntoAHeapLandingIsCopiedAndReleased) {
  sim::ScopedContext guard(*ctx_);
  std::uint8_t* src = source();
  const std::uint32_t id = src_pool_->give(src);
  std::vector<std::uint8_t> heap(kLen);
  ugni::gni_mem_handle_t hh{};
  ASSERT_EQ(ugni::GNI_MemRegister(nic_[1],
                                  reinterpret_cast<std::uint64_t>(heap.data()),
                                  kLen, nullptr, 0, &hh),
            ugni::GNI_RC_SUCCESS);
  ugni::gni_post_descriptor_t d = get(heap.data(), hh, src);
  const std::uint64_t live = arena_.live_bytes();
  ASSERT_EQ(post(d), ugni::GNI_RC_SUCCESS);
  EXPECT_EQ(d.local_addr, reinterpret_cast<std::uint64_t>(heap.data()));
  EXPECT_TRUE(patterned(d.local_addr));
  EXPECT_LT(arena_.live_bytes(), live);
  EXPECT_FALSE(src_pool_->owns(src));
  EXPECT_EQ(src_pool_->stats().moves, 0u);
  EXPECT_EQ(post(d), ugni::GNI_RC_PERMISSION_ERROR);
  src_pool_->free_block(id);
  EXPECT_EQ(arena_.live_bytes(), 0u);
}

// A landing block of a pool on another arena cannot adopt the bytes: the
// given source is copied and released, the landing keeps its own bytes.
TEST_F(PoolGetFixture, GivenBlockIntoAnotherArenasPoolIsCopied) {
  sim::ScopedContext guard(*ctx_);
  HostArena other_arena;
  auto other = std::make_unique<MemPool>(other_arena, nic_[1], 64 * 1024);
  std::uint8_t* src = source();
  const std::uint32_t id = src_pool_->give(src);
  void* landing = other->alloc(kLen);
  ugni::gni_post_descriptor_t d = get(landing, other->handle_of(landing), src);
  ASSERT_EQ(post(d), ugni::GNI_RC_SUCCESS);
  EXPECT_EQ(d.local_addr, reinterpret_cast<std::uint64_t>(landing));
  EXPECT_TRUE(patterned(d.local_addr));
  EXPECT_FALSE(src_pool_->owns(src));
  EXPECT_TRUE(other->owns(landing));
  EXPECT_EQ(src_pool_->stats().moves, 0u);
  src_pool_->free_block(id);
  other->free(landing);
  other.reset();
  EXPECT_EQ(other_arena.live_bytes(), 0u);
}

// A post refused by fault injection delivers nothing: the given source
// keeps its bytes and the landing its own.  The retry moves them.
TEST_F(PoolGetFixture, RefusedPostMovesNothingAndItsRetryMoves) {
  sim::ScopedContext guard(*ctx_);
  fault::FaultPlan plan;
  plan.enabled = true;
  plan.p_post_error = 1.0;
  fault::FaultInjector faults(plan);
  std::uint8_t* src = source();
  const std::uint32_t id = src_pool_->give(src);
  void* landing = dst_pool_->alloc(kLen);
  ugni::gni_post_descriptor_t d =
      get(landing, dst_pool_->handle_of(landing), src);
  const std::uint64_t live = arena_.live_bytes();

  net_->set_fault_injector(&faults);
  EXPECT_EQ(post(d), ugni::GNI_RC_TRANSACTION_ERROR);
  net_->set_fault_injector(nullptr);
  EXPECT_EQ(d.local_addr, reinterpret_cast<std::uint64_t>(landing));
  EXPECT_TRUE(src_pool_->owns(src));
  EXPECT_TRUE(dst_pool_->owns(landing));
  EXPECT_TRUE(patterned(reinterpret_cast<std::uint64_t>(src)));
  EXPECT_EQ(arena_.live_bytes(), live);
  EXPECT_EQ(src_pool_->stats().moves, 0u);

  ASSERT_EQ(post(d), ugni::GNI_RC_SUCCESS);
  EXPECT_EQ(d.local_addr, reinterpret_cast<std::uint64_t>(src));
  EXPECT_TRUE(patterned(d.local_addr));
  EXPECT_EQ(src_pool_->stats().moves, 1u);
  EXPECT_FALSE(src_pool_->owns(src));
  src_pool_->free_block(id);
  dst_pool_->free(src);
}

// A block that was not given (its owner may read it again) is copied and
// stays valid, bytes and handle.
TEST_F(PoolGetFixture, BlockNotGivenIsCopiedAndStaysValid) {
  sim::ScopedContext guard(*ctx_);
  std::uint8_t* src = source();
  void* landing = dst_pool_->alloc(kLen);
  ugni::gni_post_descriptor_t d =
      get(landing, dst_pool_->handle_of(landing), src);
  const std::uint64_t live = arena_.live_bytes();
  ASSERT_EQ(post(d), ugni::GNI_RC_SUCCESS);
  EXPECT_EQ(d.local_addr, reinterpret_cast<std::uint64_t>(landing));
  EXPECT_TRUE(patterned(d.local_addr));
  EXPECT_EQ(arena_.live_bytes(), live);
  EXPECT_TRUE(src_pool_->owns(src));
  EXPECT_TRUE(patterned(reinterpret_cast<std::uint64_t>(src)));
  EXPECT_EQ(src_pool_->stats().moves, 0u);
  ASSERT_EQ(post(d), ugni::GNI_RC_SUCCESS);  // still a valid source
  src_pool_->free(src);
  dst_pool_->free(landing);
}

// Pools destroyed right after a move, with neither block freed: the moved
// bytes go back with the landing pool, exactly once.
TEST_F(PoolGetFixture, PoolsDestroyedAfterAMoveReturnEveryByte) {
  sim::ScopedContext guard(*ctx_);
  std::uint8_t* src = source();
  src_pool_->give(src);
  void* landing = dst_pool_->alloc(kLen);
  ugni::gni_post_descriptor_t d =
      get(landing, dst_pool_->handle_of(landing), src);
  ASSERT_EQ(post(d), ugni::GNI_RC_SUCCESS);
  ASSERT_EQ(src_pool_->stats().moves, 1u);
  src_pool_.reset();
  EXPECT_GT(arena_.live_bytes(), 0u);  // the landing pool holds the bytes
  dst_pool_.reset();
  EXPECT_EQ(arena_.live_bytes(), 0u);
}

TEST(HostArenaClasses, FineThenBoundedCoarseSteps) {
  EXPECT_EQ(HostArena::class_bytes(HostArena::class_of(1)), 16u);
  EXPECT_EQ(HostArena::class_bytes(HostArena::class_of(1064)), 1072u);
  EXPECT_EQ(HostArena::class_bytes(HostArena::class_of(4096)), 4096u);
  EXPECT_EQ(HostArena::class_bytes(HostArena::class_of(4097)), 4608u);
  std::size_t prev = 0;
  for (std::uint16_t c = 0; c < HostArena::kClasses; ++c) {
    const std::size_t b = HostArena::class_bytes(c);
    EXPECT_GT(b, prev);
    EXPECT_EQ(b % 16, 0u);
    EXPECT_EQ(HostArena::class_of(b), c);
    EXPECT_EQ(HostArena::class_of(prev + 1), c);
    if (prev >= HostArena::kFineMax) {
      EXPECT_LE(b - prev, prev / 4);
    }
    prev = b;
  }
  EXPECT_EQ(prev, HostArena::kMaxBytes);
}

}  // namespace
}  // namespace ugnirt::mempool
