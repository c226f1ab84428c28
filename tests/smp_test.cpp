// SMP-mode machine layer tests (paper §VII future work, implemented).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "apps/namdmodel/namdmodel.hpp"
#include "lrts/runtime.hpp"
#include "lrts/smp_layer.hpp"
#include "lrts/ugni_layer.hpp"

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

MachineOptions smp_opts(int pes, int ppn) {
  MachineOptions o;
  o.pes = pes;
  o.smp_mode = true;
  o.pes_per_node = ppn;
  return o;
}

TEST(SmpLayer, DeliversIntraAndInterNodeIntact) {
  auto m = lrts::make_machine(LayerKind::kUgni, smp_opts(8, 4));  // 2 nodes x 4 workers
  int got = 0;
  int h = m->register_handler([&](void* msg) {
    auto* bytes = static_cast<std::uint8_t*>(converse::payload_of(msg));
    std::uint32_t n = converse::header_of(msg)->size - kCmiHeaderBytes;
    for (std::uint32_t i = 0; i < n; ++i) {
      ASSERT_EQ(bytes[i], static_cast<std::uint8_t>(i * 3 + 1));
    }
    ++got;
    CmiFree(msg);
  });
  m->start(0, [&, h] {
    for (int dest = 1; dest < 8; ++dest) {
      for (std::uint32_t payload : {32u, 900u, 4096u, 131072u}) {
        void* msg = CmiAlloc(payload + kCmiHeaderBytes);
        auto* bytes = static_cast<std::uint8_t*>(converse::payload_of(msg));
        for (std::uint32_t i = 0; i < payload; ++i) {
          bytes[i] = static_cast<std::uint8_t>(i * 3 + 1);
        }
        CmiSetHandler(msg, h);
        CmiSyncSendAndFree(dest, payload + kCmiHeaderBytes, msg);
      }
    }
  });
  m->run();
  EXPECT_EQ(got, 28);
  ASSERT_NE(dynamic_cast<lrts::SmpLayer*>(&m->layer()), nullptr);
  EXPECT_GT(m->metrics().counter("smp.intra_node_ptr_msgs").value(), 0u);
  EXPECT_GT(m->metrics().counter("smp.comm_thread_sends").value(), 0u);
}

TEST(SmpLayer, IntraNodeLatencyBeatsPxshm) {
  // The point of the §VII plan: pointer handoff beats even single-copy
  // pxshm for large intra-node messages.
  auto one_way = [](bool smp) {
    MachineOptions o;
    o.pes = 2;
    o.pes_per_node = 2;  // same node
    o.smp_mode = smp;
    auto m = lrts::make_machine(LayerKind::kUgni, o);
    const std::uint32_t total = kCmiHeaderBytes + 262144;
    int legs = 0;
    SimTime t0 = 0, t1 = 0;
    int h = -1;
    h = m->register_handler([&](void* msg) {
      ++legs;
      if (legs == 2) t0 = converse::Machine::running()->current_pe().ctx().now();
      if (legs == 10) {
        t1 = converse::Machine::running()->current_pe().ctx().now();
        CmiFree(msg);
        return;
      }
      CmiSetHandler(msg, h);
      CmiSyncSendAndFree(1 - CmiMyPe(), total, msg);
    });
    m->start(0, [&, h] {
      void* msg = CmiAlloc(total);
      CmiSetHandler(msg, h);
      CmiSyncSendAndFree(1, total, msg);
    });
    m->run();
    return (t1 - t0) / 8;
  };
  SimTime smp = one_way(true);
  SimTime pxshm = one_way(false);
  // Zero copies vs one copy of 256 KiB (~65 us at 4 GB/s).
  EXPECT_LT(smp, pxshm / 4);
}

TEST(SmpLayer, MailboxMemoryPerNodePairNotPePair) {
  auto mailbox_bytes = [](bool smp) {
    MachineOptions o;
    o.pes = 24;
    o.pes_per_node = 6;  // 4 nodes
    o.smp_mode = smp;
    o.use_pxshm = false;
    auto m = lrts::make_machine(LayerKind::kUgni, o);
    int h = m->register_handler([&](void* msg) { CmiFree(msg); });
    // All-to-all small messages establish every channel that will exist.
    for (int pe = 0; pe < 24; ++pe) {
      m->start(pe, [&, pe, h] {
        for (int dest = 0; dest < 24; ++dest) {
          if (dest == pe) continue;
          void* msg = CmiAlloc(kCmiHeaderBytes + 16);
          CmiSetHandler(msg, h);
          CmiSyncSendAndFree(dest, kCmiHeaderBytes + 16, msg);
        }
      });
    }
    m->run();
    if (smp) {
      return dynamic_cast<lrts::SmpLayer*>(&m->layer())
          ->total_mailbox_bytes();
    }
    return dynamic_cast<lrts::UgniLayer*>(&m->layer())
        ->total_mailbox_bytes();
  };
  std::uint64_t non_smp = mailbox_bytes(false);
  std::uint64_t smp = mailbox_bytes(true);
  EXPECT_GT(non_smp, 0u);
  EXPECT_GT(smp, 0u);
  // 4 nodes: 12 directed node pairs vs 24*18 directed inter-node PE pairs.
  EXPECT_LT(smp * 10, non_smp);
}

TEST(SmpLayer, WorkerSendCostIsTinyCommThreadDoesTheWork) {
  auto m = lrts::make_machine(LayerKind::kUgni, smp_opts(4, 2));
  SimTime send_cost = 0;
  int h = m->register_handler([&](void* msg) { CmiFree(msg); });
  m->start(0, [&, h] {
    void* msg = CmiAlloc(kCmiHeaderBytes + 32768);
    CmiSetHandler(msg, h);
    sim::Context& ctx = converse::Machine::running()->current_pe().ctx();
    SimTime before = ctx.now();
    CmiSyncSendAndFree(2, kCmiHeaderBytes + 32768, msg);  // other node
    send_cost = ctx.now() - before;
  });
  m->run();
  // The worker only pays envelope + lock-and-enqueue, never the wire
  // protocol: well under a microsecond.
  EXPECT_LT(send_cost, 1000);
  EXPECT_GT(send_cost, 0);
}

TEST(SmpLayer, EarlierCommWakeSupersedesThePendingStep) {
  // Node 0's comm thread is woken for t+1000 (PE 0 sends then) and then
  // for t+100 (PE 1 sends then).  It steps at t+100: PE 1's message reaches
  // PE 3 exactly when it does with no later send queued.  The step armed
  // for t+1000 is superseded, and each message is sent once.
  struct Result {
    SimTime late_at = -1;   // PE 0's message, delivered on PE 2
    SimTime early_at = -1;  // PE 1's message, delivered on PE 3
    int hits = 0;
    std::uint64_t comm_sends = 0;
  };
  auto run = [](bool with_late_send) {
    auto m = lrts::make_machine(LayerKind::kUgni, smp_opts(4, 2));
    Result r;
    const int h = m->register_handler([&r](void* msg) {
      ++r.hits;
      const SimTime now = converse::Machine::running()->current_pe().ctx().now();
      (CmiMyPe() == 2 ? r.late_at : r.early_at) = now;
      CmiFree(msg);
    });
    const SimTime t = std::max(m->pe(0).ctx().now(), m->pe(1).ctx().now());
    auto send_at = [&m, h](int src, SimTime at) {
      m->start(src, [h, src, at] {
        converse::Machine::running()->current_pe().ctx().wait_until(at);
        void* msg = CmiAlloc(kCmiHeaderBytes + 8);
        CmiSetHandler(msg, h);
        CmiSyncSendAndFree(src + 2, kCmiHeaderBytes + 8, msg);
      });
    };
    if (with_late_send) send_at(0, t + 1000);
    send_at(1, t + 100);
    m->run();
    m->collect_metrics();
    r.comm_sends = m->metrics().counter("smp.comm_thread_sends").value();
    EXPECT_GE(r.early_at, t + 100);
    if (with_late_send) {
      EXPECT_GE(r.late_at, t + 1000);
    }
    return r;
  };
  const Result alone = run(false);
  const Result both = run(true);
  EXPECT_EQ(alone.hits, 1);
  EXPECT_EQ(both.hits, 2);
  EXPECT_EQ(both.comm_sends, 2u);
  EXPECT_EQ(both.early_at, alone.early_at);
  EXPECT_LT(both.early_at, both.late_at);
}

TEST(SmpLayer, ManyToOneAcrossNodesUnderLoad) {
  auto m = lrts::make_machine(LayerKind::kUgni, smp_opts(12, 3));  // 4 nodes
  int got = 0;
  std::uint64_t byte_sum = 0, sent = 0;
  int h = m->register_handler([&](void* msg) {
    ++got;
    byte_sum += converse::header_of(msg)->size;
    CmiFree(msg);
  });
  for (int pe = 1; pe < 12; ++pe) {
    m->start(pe, [&, pe, h] {
      for (int i = 0; i < 20; ++i) {
        std::uint32_t payload = 64u << (i % 6);
        void* msg = CmiAlloc(payload + kCmiHeaderBytes);
        CmiSetHandler(msg, h);
        CmiSyncSendAndFree(0, payload + kCmiHeaderBytes, msg);
      }
    });
  }
  for (int pe = 1; pe < 12; ++pe) {
    for (int i = 0; i < 20; ++i) sent += (64u << (i % 6)) + kCmiHeaderBytes;
  }
  m->run();
  EXPECT_EQ(got, 220);
  EXPECT_EQ(byte_sum, sent);
}

TEST(SmpLayer, NamdModelBenefitsFromSmpMode) {
  // The paper's §VII expectation, end to end: running the NAMD-shaped
  // workload in SMP mode (zero-copy intra-node, comm-thread offload)
  // improves step time over the per-PE layer at multi-node scale.
  apps::namdmodel::NamdConfig cfg;
  cfg.system = apps::namdmodel::iapp();
  cfg.warmup_steps = 1;
  cfg.steps = 2;
  MachineOptions smp;
  smp.pes = 96;
  smp.smp_mode = true;
  MachineOptions plain;
  plain.pes = 96;
  double t_smp = apps::namdmodel::run_namd_model(smp, cfg).ms_per_step;
  double t_plain = apps::namdmodel::run_namd_model(plain, cfg).ms_per_step;
  EXPECT_LT(t_smp, t_plain);
}

TEST(SmpLayer, DeterministicRuns) {
  auto run = [] {
    auto m = lrts::make_machine(LayerKind::kUgni, smp_opts(6, 3));
    int h = -1;
    int hops = 0;
    h = m->register_handler([&](void* msg) {
      CmiFree(msg);
      if (++hops < 30) {
        void* next = CmiAlloc(kCmiHeaderBytes + 2048);
        CmiSetHandler(next, h);
        CmiSyncSendAndFree((CmiMyPe() + 1) % 6, kCmiHeaderBytes + 2048,
                           next);
      }
    });
    m->start(0, [&, h] {
      void* msg = CmiAlloc(kCmiHeaderBytes + 2048);
      CmiSetHandler(msg, h);
      CmiSyncSendAndFree(1, kCmiHeaderBytes + 2048, msg);
    });
    return m->run();
  };
  EXPECT_EQ(run(), run());
}

// Regression: the SMP layer registered heap rendezvous buffers on both
// sides and never deregistered them.  Without the pool every rendezvous
// buffer is a heap registration; once the exchange is done, both layers
// must be back at the registrations they started with.
class RendezvousRegistrations : public ::testing::TestWithParam<bool> {};

TEST_P(RendezvousRegistrations, HeapBuffersDeregisterAfterExchange) {
  MachineOptions o;
  o.pes = 4;
  o.pes_per_node = 2;  // PE 0 -> PE 2 crosses nodes in both modes
  o.smp_mode = GetParam();
  o.use_mempool = false;
  auto m = lrts::make_machine(LayerKind::kUgni, o);
  auto gauge = [&m](const char* name) {
    m->collect_metrics();
    return m->metrics().gauge(name).value();
  };
  const double regions0 = gauge("ugni.active_regions");
  const double bytes0 = gauge("ugni.registered_bytes");

  constexpr int kSends = 10;
  const std::uint32_t total = kCmiHeaderBytes + 32 * 1024;  // rendezvous
  int got = 0;
  int h = m->register_handler([&](void* msg) {
    ++got;
    CmiFree(msg);
  });
  m->start(0, [&, h] {
    for (int i = 0; i < kSends; ++i) {
      void* msg = CmiAlloc(total);
      CmiSetHandler(msg, h);
      CmiSyncSendAndFree(2, total, msg);
    }
  });
  m->run();
  ASSERT_EQ(got, kSends);
  EXPECT_GT(m->metrics().counter("ugni.rendezvous_gets").value(), 0u);
  EXPECT_EQ(gauge("ugni.active_regions"), regions0);
  EXPECT_EQ(gauge("ugni.registered_bytes"), bytes0);
}

INSTANTIATE_TEST_SUITE_P(Modes, RendezvousRegistrations, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "SMP" : "uGNI";
                         });

}  // namespace
}  // namespace ugnirt
