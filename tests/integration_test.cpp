// Cross-layer integration and property tests: every protocol regime of
// both machine layers must deliver bytes intact, in order per pair, with
// balanced QD counters and deterministic virtual time.
#include <gtest/gtest.h>

#include <cstring>
#include <tuple>
#include <vector>

#include "apps/namdmodel/namdmodel.hpp"
#include "charm/charm.hpp"
#include "lrts/runtime.hpp"
#include "lrts/smp_layer.hpp"
#include "lrts/ugni_layer.hpp"
#include "mempool/mempool.hpp"

namespace ugnirt {
namespace {

using converse::CmiAlloc;
using converse::CmiFree;
using converse::CmiMyPe;
using converse::CmiSetHandler;
using converse::CmiSyncSendAndFree;
using converse::kCmiHeaderBytes;
using converse::LayerKind;
using converse::MachineOptions;

// Sweep: (layer, payload bytes, pes-per-node) — crossing every protocol:
// SMSG/E0, FMA GET/E1, BTE GET/rendezvous, intra-node shm paths.
using SweepParam = std::tuple<LayerKind, std::uint32_t, int>;

class ProtocolSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(ProtocolSweep, BytesSurviveEveryPath) {
  auto [layer, payload, ppn] = GetParam();
  MachineOptions o;
  o.pes = 4;
  o.pes_per_node = ppn;
  auto m = lrts::make_machine(layer, o);

  const std::uint32_t total = payload + kCmiHeaderBytes;
  int received = 0;
  int h = m->register_handler([&](void* msg) {
    auto* bytes = static_cast<std::uint8_t*>(converse::payload_of(msg));
    std::uint32_t src =
        static_cast<std::uint32_t>(converse::header_of(msg)->src_pe);
    for (std::uint32_t i = 0; i < payload; ++i) {
      ASSERT_EQ(bytes[i], static_cast<std::uint8_t>((i * 13 + src) & 0xff))
          << "corruption at byte " << i;
    }
    ++received;
    CmiFree(msg);
  });

  // Every PE sends to every other PE.
  for (int pe = 0; pe < 4; ++pe) {
    m->start(pe, [&, pe, h] {
      for (int dest = 0; dest < 4; ++dest) {
        if (dest == pe) continue;
        void* msg = CmiAlloc(total);
        auto* bytes = static_cast<std::uint8_t*>(converse::payload_of(msg));
        for (std::uint32_t i = 0; i < payload; ++i) {
          bytes[i] = static_cast<std::uint8_t>((i * 13 + pe) & 0xff);
        }
        CmiSetHandler(msg, h);
        CmiSyncSendAndFree(dest, total, msg);
      }
    });
  }
  m->run();
  EXPECT_EQ(received, 12);
  // QD bookkeeping balances.
  std::uint64_t created = 0, processed = 0;
  for (int pe = 0; pe < 4; ++pe) {
    created += m->qd_created(pe);
    processed += m->qd_processed(pe);
  }
  EXPECT_EQ(created, processed);
}

std::string sweep_name(const ::testing::TestParamInfo<SweepParam>& info) {
  return std::string(std::get<0>(info.param) == LayerKind::kUgni ? "uGNI"
                                                                 : "MPI") +
         "_b" + std::to_string(std::get<1>(info.param)) + "_ppn" +
         std::to_string(std::get<2>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AllRegimes, ProtocolSweep,
    ::testing::Combine(
        ::testing::Values(LayerKind::kUgni, LayerKind::kMpi),
        ::testing::Values(1u, 88u, 1000u, 1025u, 4096u, 9000u, 262144u),
        ::testing::Values(1, 2, 4)),
    sweep_name);

// ---------------------------------------------------------------------------

class LayerFeatureMatrix
    : public ::testing::TestWithParam<std::tuple<bool, bool, bool>> {};

TEST_P(LayerFeatureMatrix, UgniOptimizationTogglesAllDeliver) {
  auto [pool, pxshm, single] = GetParam();
  MachineOptions o;
  o.pes = 6;
  o.pes_per_node = 3;
  o.use_mempool = pool;
  o.use_pxshm = pxshm;
  o.pxshm_single_copy = single;
  auto m = lrts::make_machine(LayerKind::kUgni, o);
  int got = 0;
  int h = m->register_handler([&](void* msg) {
    ++got;
    CmiFree(msg);
  });
  m->start(0, [&, h] {
    for (int dest = 1; dest < 6; ++dest) {
      for (std::uint32_t payload : {64u, 2048u, 65536u}) {
        void* msg = CmiAlloc(payload + kCmiHeaderBytes);
        CmiSetHandler(msg, h);
        CmiSyncSendAndFree(dest, payload + kCmiHeaderBytes, msg);
      }
    }
  });
  m->run();
  EXPECT_EQ(got, 15);
}

INSTANTIATE_TEST_SUITE_P(Toggles, LayerFeatureMatrix,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Bool(),
                                            ::testing::Bool()));

// ---------------------------------------------------------------------------

TEST(Integration, LargeFanInDoesNotDropMessages) {
  // 63 PEs flood PE 0 with mixed sizes; backpressure, rendezvous and
  // intra-node paths all active simultaneously.
  MachineOptions o;
  o.pes = 64;
  auto m = lrts::make_machine(LayerKind::kUgni, o);
  int got = 0;
  std::uint64_t byte_sum = 0;
  int h = m->register_handler([&](void* msg) {
    ++got;
    byte_sum += converse::header_of(msg)->size;
    CmiFree(msg);
  });
  std::uint64_t sent_bytes = 0;
  for (int pe = 1; pe < 64; ++pe) {
    std::uint32_t payload = 32u << (pe % 9);  // 32 B .. 8 KiB
    sent_bytes += payload + kCmiHeaderBytes;
    m->start(pe, [&, pe, h, payload] {
      void* msg = CmiAlloc(payload + kCmiHeaderBytes);
      CmiSetHandler(msg, h);
      CmiSyncSendAndFree(0, payload + kCmiHeaderBytes, msg);
    });
  }
  m->run();
  EXPECT_EQ(got, 63);
  EXPECT_EQ(byte_sum, sent_bytes);
}

TEST(Integration, WholeRunDeterminismAcrossProcessRestarts) {
  // Same seed, same program -> bit-identical virtual end time and stats,
  // including the charm layer, QD and both comm layers.
  auto run = [](LayerKind layer) {
    MachineOptions o;
    o.pes = 24;
      o.seed = 777;
    auto m = lrts::make_machine(layer, o);
    charm::Charm charm(*m);
    std::uint64_t work_done = 0;
    int task = -1;
    task = charm.register_task([&](const void* p, std::uint32_t) {
      int ttl = *static_cast<const int*>(p);
      converse::CmiChargeWork(1000 + ttl * 10);
      ++work_done;
      if (ttl > 0) {
        for (int c = 0; c < (ttl % 3) + 1; ++c) {
          int next = ttl - 1;
          charm.seed_task(task, &next, sizeof(next));
        }
      }
    });
    SimTime qd_at = 0;
    m->start(0, [&] {
      int ttl = 8;
      charm.seed_task(task, &ttl, sizeof(ttl));
      charm.start_quiescence([&] {
        qd_at = converse::Machine::running()->current_pe().ctx().now();
      });
    });
    m->run();
    return std::make_tuple(qd_at, work_done, m->stats().msgs_sent);
  };
  EXPECT_EQ(run(LayerKind::kUgni), run(LayerKind::kUgni));
  EXPECT_EQ(run(LayerKind::kMpi), run(LayerKind::kMpi));
}

TEST(Integration, MailboxAccountingGrowsWithActivePairs) {
  MachineOptions o;
  o.pes = 32;
  o.use_pxshm = false;
  o.pes_per_node = 1;
  auto m = lrts::make_machine(LayerKind::kUgni, o);
  auto* layer = dynamic_cast<lrts::UgniLayer*>(&m->layer());
  ASSERT_NE(layer, nullptr);
  EXPECT_EQ(layer->total_mailbox_bytes(), 0u);

  int h = m->register_handler([&](void* msg) { CmiFree(msg); });
  m->start(0, [&, h] {
    for (int dest = 1; dest <= 4; ++dest) {
      void* msg = CmiAlloc(kCmiHeaderBytes + 16);
      CmiSetHandler(msg, h);
      CmiSyncSendAndFree(dest, kCmiHeaderBytes + 16, msg);
    }
  });
  m->run();
  std::uint64_t after4 = layer->total_mailbox_bytes();
  EXPECT_GT(after4, 0u);
  // 4 channel pairs = 8 mailboxes; each pair costs the same.
  EXPECT_EQ(after4 % 8, 0u);
}

TEST(Integration, EnvironmentOverridesReachTheMachineModel) {
  ::setenv("UGNIRT_GEMINI_BTE_BW", "11.5", 1);
  MachineOptions o;
  o.pes = 2;
  auto m = lrts::make_machine(LayerKind::kUgni, o);
  ::unsetenv("UGNIRT_GEMINI_BTE_BW");
  EXPECT_DOUBLE_EQ(m->options().mc.bte_bw, 11.5);
}

TEST(Integration, VirtualWallTimerAdvancesMonotonically) {
  MachineOptions o;
  o.pes = 2;
  auto m = lrts::make_machine(LayerKind::kUgni, o);
  std::vector<double> stamps;
  int h = -1;
  h = m->register_handler([&](void* msg) {
    stamps.push_back(converse::CmiWallTimer());
    CmiFree(msg);
    if (stamps.size() < 6) {
      void* next = CmiAlloc(kCmiHeaderBytes + 8);
      CmiSetHandler(next, h);
      CmiSyncSendAndFree(1 - CmiMyPe(), kCmiHeaderBytes + 8, next);
    }
  });
  m->start(0, [&, h] {
    void* msg = CmiAlloc(kCmiHeaderBytes + 8);
    CmiSetHandler(msg, h);
    CmiSyncSendAndFree(1, kCmiHeaderBytes + 8, msg);
  });
  m->run();
  ASSERT_EQ(stamps.size(), 6u);
  for (std::size_t i = 1; i < stamps.size(); ++i) {
    EXPECT_GT(stamps[i], stamps[i - 1]);
  }
  EXPECT_GT(stamps.back(), 5e-6);  // at least 5 one-way flights
}

TEST(Integration, TreeHelpersFormAValidTree) {
  MachineOptions o;
  o.pes = 100;
  auto m = lrts::make_machine(LayerKind::kUgni, o);
  std::vector<int> children;
  int counted = 0;
  for (int pe = 0; pe < 100; ++pe) {
    m->tree_children(pe, children);
    for (int c : children) {
      EXPECT_EQ(m->tree_parent(c), pe);
      ++counted;
    }
  }
  EXPECT_EQ(counted, 99);  // every PE except the root has one parent
  EXPECT_EQ(m->tree_parent(0), -1);
}

// A rendezvous source's host bytes go back to the arena once the GET has
// read them; its model block stays live and pinned until ACK_TAG.  Both
// machine layers run the same protocol core, so both are checked.  PE 0
// and PE 2 sit on different nodes in either mode.
class RendezvousRelease : public ::testing::TestWithParam<bool> {
 protected:
  MachineOptions options() const {
    MachineOptions o;
    o.pes = 4;
    o.pes_per_node = 2;
    o.smp_mode = GetParam();
    return o;
  }
  static constexpr std::uint32_t kTotal = kCmiHeaderBytes + 32 * 1024;

  static void fill(void* msg) {
    auto* b = static_cast<std::uint8_t*>(converse::payload_of(msg));
    for (std::uint32_t i = 0; i < kTotal - kCmiHeaderBytes; ++i) {
      b[i] = static_cast<std::uint8_t>(i * 7 + 3);
    }
  }
  static bool intact(const void* msg) {
    const auto* b = static_cast<const std::uint8_t*>(
        converse::payload_of(const_cast<void*>(msg)));
    for (std::uint32_t i = 0; i < kTotal - kCmiHeaderBytes; ++i) {
      if (b[i] != static_cast<std::uint8_t>(i * 7 + 3)) return false;
    }
    return true;
  }
  /// The pool gauges after the run: nothing live, nothing outstanding.
  static void expect_clean_teardown(converse::Machine& m) {
    m.collect_metrics();
    EXPECT_EQ(m.metrics().gauge("mempool.outstanding").value(), 0.0);
    EXPECT_EQ(m.metrics().gauge("mempool.host_bytes").value(), 0.0);
    EXPECT_GT(m.metrics().gauge("mempool.host_bytes_peak").value(), 0.0);
  }
};

TEST_P(RendezvousRelease, ReleasedSourceRejectsARepostedGet) {
  auto m = lrts::make_machine(LayerKind::kUgni, options());
  void* src = nullptr;
  mempool::MemPool* src_pool = nullptr;
  ugni::gni_mem_handle_t src_hndl{};
  int got = 0;
  int h = m->register_handler([&](void* msg) {
    ++got;
    EXPECT_TRUE(intact(msg));
    // The GET has completed and the ACK is still on its way: the source
    // block is outstanding, but its host bytes moved to the landing block,
    // which delivers them.
    EXPECT_EQ(msg, src);
    EXPECT_EQ(src_pool->stats().outstanding, 1u);
    EXPECT_FALSE(src_pool->owns(src));

    // Post the completed GET's descriptor again.
    mempool::MemPool* dst_pool = mempool::MemPool::owner_of(msg);
    ASSERT_NE(dst_pool, nullptr);
    ugni::gni_post_descriptor_t d;
    d.type = ugni::GNI_POST_FMA_GET;
    d.local_addr = reinterpret_cast<std::uint64_t>(msg);
    d.local_mem_hndl = dst_pool->handle_of(msg);
    d.remote_addr = reinterpret_cast<std::uint64_t>(src);
    d.remote_mem_hndl = src_hndl;
    d.length = kTotal;
    ASSERT_TRUE(dst_pool->nic()->handle_valid(d.local_mem_hndl, d.local_addr,
                                              d.length));
    ugni::gni_ep_handle_t ep =
        dst_pool->nic()->ep_for_peer(src_pool->nic()->inst_id());
    ASSERT_NE(ep, nullptr);
    EXPECT_EQ(ugni::GNI_PostFma(ep, &d), ugni::GNI_RC_PERMISSION_ERROR);
    CmiFree(msg);
  });
  m->start(0, [&, h] {
    src = CmiAlloc(kTotal);
    fill(src);
    src_pool = mempool::MemPool::owner_of(src);
    ASSERT_NE(src_pool, nullptr);
    src_hndl = src_pool->handle_of(src);
    CmiSetHandler(src, h);
    CmiSyncSendAndFree(2, kTotal, src);
  });
  m->run();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(m->metrics().counter("ugni.rendezvous_gets").value(), 1u);
  expect_clean_teardown(*m);
}

// PE 1 forwards a message it got from PE 0 on its node.  In uGNI mode
// the pxshm single-copy delivery hands PE 1 a block of PE 0's pool, which
// PE 1 must register to send: the GET copies it, leaves its bytes alone
// and the ACK frees it through its header.  In SMP mode the node pool
// owns it, so it is given and moves like any other own block.
TEST_P(RendezvousRelease, ForwardedIntraNodeDeliveryKeepsItsAckPath) {
  MachineOptions o = options();
  o.use_pxshm = true;
  o.pxshm_single_copy = true;
  auto m = lrts::make_machine(LayerKind::kUgni, o);
  auto gauge = [&m](const char* name) {
    m->collect_metrics();
    return m->metrics().gauge(name).value();
  };
  const double regions0 = gauge("ugni.active_regions");
  const std::uint64_t slabs0 =
      m->metrics().counter("mempool.expansions").value();
  void* src = nullptr;
  mempool::MemPool* src_pool = nullptr;
  int forwarded = 0;
  int got = 0;
  int last = m->register_handler([&](void* msg) {
    ++got;
    EXPECT_EQ(CmiMyPe(), 2);
    EXPECT_TRUE(intact(msg));
    EXPECT_EQ(src_pool->owns(src), !GetParam());
    CmiFree(msg);
  });
  int relay = m->register_handler([&, last](void* msg) {
    ++forwarded;
    EXPECT_EQ(CmiMyPe(), 1);
    EXPECT_EQ(msg, src);  // delivered in place
    CmiSetHandler(msg, last);
    CmiSyncSendAndFree(2, kTotal, msg);
  });
  m->start(0, [&, relay] {
    src = CmiAlloc(kTotal);
    fill(src);
    src_pool = mempool::MemPool::owner_of(src);
    CmiSetHandler(src, relay);
    CmiSyncSendAndFree(1, kTotal, src);
  });
  m->run();
  EXPECT_EQ(forwarded, 1);
  EXPECT_EQ(got, 1);
  EXPECT_EQ(m->metrics().counter("ugni.rendezvous_gets").value(), 1u);
  // The relay's registration is gone; only new pool slabs remain.
  const double regions = gauge("ugni.active_regions");
  EXPECT_EQ(regions,
            regions0 + static_cast<double>(
                           m->metrics().counter("mempool.expansions").value() -
                           slabs0));
  expect_clean_teardown(*m);
}

INSTANTIATE_TEST_SUITE_P(Modes, RendezvousRelease, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "SMP" : "uGNI";
                         });

// The NAMD model on a small machine of four nodes: every rendezvous
// source is a block of its sender's pool and every landing a pool block
// on the same arena, so every GET moves its source and none copies.
template <class Layer>
void every_namd_get_moves(bool smp) {
  MachineOptions o;
  o.layer = LayerKind::kUgni;
  o.pes = 16;
  o.pes_per_node = 4;
  o.smp_mode = smp;
  auto owned = std::make_unique<Layer>();
  Layer* layer = owned.get();
  converse::Machine m(o, std::move(owned));
  apps::namdmodel::NamdConfig cfg;
  cfg.system = apps::namdmodel::iapp();
  cfg.warmup_steps = 1;
  cfg.steps = 2;
  const apps::namdmodel::NamdResult r = apps::namdmodel::run_namd_model(m, cfg);
  EXPECT_GT(r.ms_per_step, 0.0);
  const std::uint64_t gets = m.metrics().counter("ugni.rendezvous_gets").value();
  EXPECT_GT(gets, 100u);
  EXPECT_EQ(layer->pool_stats().moves, gets);
  EXPECT_EQ(m.metrics().counter("fallback_heap_send").value(), 0u);
}

TEST(NamdRendezvousMoves, EveryGetMovesOnTheUgniLayer) {
  every_namd_get_moves<lrts::UgniLayer>(false);
}

TEST(NamdRendezvousMoves, EveryGetMovesOnTheSmpLayer) {
  every_namd_get_moves<lrts::SmpLayer>(true);
}

}  // namespace
}  // namespace ugnirt
