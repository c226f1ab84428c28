// SMP-mode machine layer tests (paper §VII future work, implemented).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
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

// Grid exactness of the comm thread's idle spin.  Nodes of two workers,
// two nodes unless a test asks for more.  A send waits on its PE's clock
// until `at` and then enqueues, so its ready time runs ahead of the
// engine.  Node 0's comm thread takes PE 0's first message at once and
// then spins on a later one: each spin step polls both CQs (120 ns) and
// steps again.  The delivery times and busy-defer counts below were read
// off a comm thread that ran every spin step; one that sleeps through its
// idle steps must reach them exactly.
struct GridSend {
  int src;
  int dest;
  SimTime at;  // after the machine's start time
  int after = -1;  // sent by the handler of this earlier send; -1: at start
  std::uint32_t bytes = 4;
};

struct GridRun {
  std::vector<SimTime> delivered;  // per send, after the start time
  std::uint64_t busy_defers = 0;
};

GridRun run_grid(const std::vector<GridSend>& sends, int pes = 4) {
  auto m = lrts::make_machine(LayerKind::kUgni, smp_opts(pes, 2));
  GridRun r;
  r.delivered.assign(sends.size(), -1);
  SimTime t0 = 0;
  for (int pe = 0; pe < pes; ++pe) t0 = std::max(t0, m->pe(pe).ctx().now());
  int h = -1;
  // Make every send of `pe` that follows `after`, in order.
  auto send_from = [&sends, &h, t0](int pe, int after) {
    sim::Context& ctx = converse::Machine::running()->current_pe().ctx();
    for (std::uint32_t i = 0; i < sends.size(); ++i) {
      if (sends[i].src != pe || sends[i].after != after) continue;
      ctx.wait_until(t0 + sends[i].at);
      const std::uint32_t total = kCmiHeaderBytes + sends[i].bytes;
      void* msg = CmiAlloc(total);
      std::memcpy(converse::payload_of(msg), &i, sizeof i);
      CmiSetHandler(msg, h);
      CmiSyncSendAndFree(sends[i].dest, total, msg);
    }
  };
  h = m->register_handler([&r, &send_from, t0](void* msg) {
    std::uint32_t i = 0;
    std::memcpy(&i, converse::payload_of(msg), sizeof i);
    CmiFree(msg);
    r.delivered[i] =
        converse::Machine::running()->current_pe().ctx().now() - t0;
    send_from(CmiMyPe(), static_cast<int>(i));
  });
  for (int pe = 0; pe < pes; ++pe) {
    m->start(pe, [&send_from, pe] { send_from(pe, -1); });
  }
  m->run();
  r.busy_defers = m->metrics().counter("smp.comm_thread_busy_defers").value();
  return r;
}

TEST(SmpCommSpin, ReadyTimeFarAheadOnTheGridAndJustPastIt) {
  // PE 0's second message is ready at `at`.  Node 0's comm thread spins
  // from about 3.5 us; a ready time of 4,160 ns is exactly the end of a
  // spin step, so that step takes it, and 1 ns later waits one step more.
  const GridRun far = run_grid({{0, 2, 0}, {0, 2, 50000}});
  EXPECT_EQ(far.delivered[0], 5322);
  EXPECT_EQ(far.delivered[1], 52242);
  EXPECT_EQ(far.busy_defers, 388u);
  const GridRun on = run_grid({{0, 2, 0}, {0, 2, 4160}});
  EXPECT_EQ(on.delivered[1], 6402);
  EXPECT_EQ(on.busy_defers, 6u);
  const GridRun past = run_grid({{0, 2, 0}, {0, 2, 4161}});
  EXPECT_EQ(past.delivered[1], 6522);
  EXPECT_EQ(past.busy_defers, 7u);
}

TEST(SmpCommSpin, ArrivalMidSleepIsSeenByTheFirstPollAfterIt) {
  // PE 3 (node 1) sends to PE 1 while node 0's comm thread waits on PE 0's
  // second message.  Sent 1 ns later, it lands 1 ns past a spin step's RX
  // poll and is taken one step later.
  const GridRun on = run_grid({{0, 2, 0}, {0, 2, 50000}, {3, 1, 9152}});
  EXPECT_EQ(on.delivered[1], 52359);
  EXPECT_EQ(on.delivered[2], 11367);
  EXPECT_EQ(on.busy_defers, 424u);
  const GridRun past = run_grid({{0, 2, 0}, {0, 2, 50000}, {3, 1, 9153}});
  EXPECT_EQ(past.delivered[1], 52359);
  EXPECT_EQ(past.delivered[2], 11487);
  EXPECT_EQ(past.busy_defers, 425u);
  // The same for a 32 KiB rendezvous: node 0's GET completes on its TX CQ
  // while it waits.
  const GridRun get_on =
      run_grid({{0, 2, 0}, {0, 2, 50000}, {3, 1, 9032, -1, 32768}});
  EXPECT_EQ(get_on.delivered[1], 92122);
  EXPECT_EQ(get_on.delivered[2], 99768);
  EXPECT_EQ(get_on.busy_defers, 753u);
  const GridRun get_past =
      run_grid({{0, 2, 0}, {0, 2, 50000}, {3, 1, 9033, -1, 32768}});
  EXPECT_EQ(get_past.delivered[1], 92242);
  EXPECT_EQ(get_past.delivered[2], 99888);
  EXPECT_EQ(get_past.busy_defers, 755u);
}

TEST(SmpCommSpin, EnqueueWhileWaitingMovesTheNextStepEarlier) {
  // PE 1 handles two pointer messages from PE 0 in two scheduler steps;
  // the first runs its clock to 20 us, so the second enqueues a send to
  // PE 3 at about that engine time, while node 0's comm thread waits on
  // PE 0's message ready at 50 us.
  auto run = [](SimTime at) {
    return run_grid({{0, 2, 0},
                     {0, 1, 0},
                     {0, 1, 0},
                     {0, 2, 50000},
                     {1, 0, 20000, 1},
                     {1, 3, at, 2}});
  };
  const GridRun on = run(21080);
  EXPECT_EQ(on.delivered[3], 52242);
  EXPECT_EQ(on.delivered[5], 23322);
  EXPECT_EQ(on.busy_defers, 385u);
  const GridRun past = run(21081);
  EXPECT_EQ(past.delivered[3], 52242);
  EXPECT_EQ(past.delivered[5], 23442);
  EXPECT_EQ(past.busy_defers, 385u);
}

TEST(SmpCommSpin, CreditReturnOnASpinStepsNanosecond) {
  // Four nodes.  PE 0 sends 12 messages to PE 2, so 4 wait in node 0's
  // backlog for credits, and node 1's comm thread returns them late: at
  // `at` PE 2 sends 8 messages to each other node.  With PE 2 starting at
  // 254 ns, a credit comes back on the very nanosecond of one of node 0's
  // 620 ns backlog retries.  The credit was released after that retry was
  // queued, so the retry runs first and finds no credit, and the thread
  // steps once more than if the credit had come first.
  auto run = [](SimTime at) {
    std::vector<GridSend> sends(12, GridSend{0, 2, 0});
    for (int dest : {0, 4, 6}) {
      for (int i = 0; i < 8; ++i) sends.push_back({2, dest, at});
    }
    return run_grid(sends, 8);
  };
  const GridRun before = run(253);
  EXPECT_EQ(before.delivered[11], 21150);
  EXPECT_EQ(before.busy_defers, 22u);
  const GridRun tie = run(254);
  EXPECT_EQ(tie.delivered[11], 21151);
  EXPECT_EQ(tie.busy_defers, 23u);
}

TEST(SmpCommSpin, EnqueueWhileWaitingForCreditsInAPause) {
  // As above, node 0's backlog waits for credits and its comm thread
  // retries every 620 ns: a 120 ns poll pair, then a 500 ns pause.  PE 1
  // handles two pointer messages from PE 0; the first runs its clock to
  // 12 us, so the second enqueues a send to PE 4 (node 2, credits free)
  // while node 0's thread waits, ready several retries ahead.  Ready
  // mid-pause, or 1 ns past the end of a retry's poll pair, the spinning
  // thread steps at the ready time itself; ready at that end, the retry
  // takes it.
  auto run = [](SimTime at) {
    std::vector<GridSend> sends(12, GridSend{0, 2, 0});
    for (int dest : {0, 4, 6}) {
      for (int i = 0; i < 8; ++i) sends.push_back({2, dest, 253});
    }
    sends.push_back({0, 1, 0});           // 36
    sends.push_back({0, 1, 0});           // 37
    sends.push_back({1, 0, 12000, 36});   // 38
    sends.push_back({1, 4, at, 37});      // 39
    return run_grid(sends, 8);
  };
  const GridRun mid = run(14500);
  EXPECT_EQ(mid.delivered[39], 21022);
  EXPECT_EQ(mid.busy_defers, 18u);
  const GridRun on = run(14996);
  EXPECT_EQ(on.delivered[39], 21398);
  EXPECT_EQ(on.busy_defers, 18u);
  const GridRun past = run(14997);
  EXPECT_EQ(past.delivered[39], 21519);
  EXPECT_EQ(past.busy_defers, 19u);
}

// Event gate: engine events per delivered message on SMP runs whose comm
// threads spend most of their time waiting, 4 nodes of 4 workers each.
// Every worker sends `bursts` bursts of `burst` messages of `bytes` bytes,
// `gap` ns of compute apart.  The delivery times and the busy-defer count
// are those of a comm thread that runs every spin step as an event, so the
// gate also checks that skipping them changes nothing else.  Counts are
// exact on any host.
struct GateRun {
  double events_per_msg = 0;
  SimTime end = 0;  // Machine::run()
  std::uint64_t delivered = 0;
  SimTime delivered_sum = 0;  // of the delivery times
  std::uint64_t busy_defers = 0;
};

GateRun run_gate(int bursts, int burst, std::uint32_t bytes, SimTime gap,
                 bool to_node0) {
  constexpr int kPes = 16;
  constexpr int kPpn = 4;
  auto m = lrts::make_machine(LayerKind::kUgni, smp_opts(kPes, kPpn));
  GateRun r;
  const int h = m->register_handler([&r](void* msg) {
    CmiFree(msg);
    ++r.delivered;
    r.delivered_sum += converse::Machine::running()->current_pe().ctx().now();
  });
  for (int pe = 0; pe < kPes; ++pe) {
    // Node 0's workers send one node up; the others to node 0 or one up.
    const int dest = to_node0 && pe >= kPpn ? pe % kPpn : (pe + kPpn) % kPes;
    m->start(pe, [=] {
      sim::Context& ctx = converse::Machine::running()->current_pe().ctx();
      for (int i = 0; i < bursts; ++i) {
        ctx.charge_app(gap);
        for (int k = 0; k < burst; ++k) {
          void* msg = CmiAlloc(kCmiHeaderBytes + bytes);
          CmiSetHandler(msg, h);
          CmiSyncSendAndFree(dest, kCmiHeaderBytes + bytes, msg);
        }
      }
    });
  }
  const std::uint64_t before = m->engine().executed();
  r.end = m->run();
  EXPECT_EQ(r.delivered, std::uint64_t{kPes} * bursts * burst);
  r.events_per_msg = static_cast<double>(m->engine().executed() - before) /
                     static_cast<double>(r.delivered);
  r.busy_defers = m->metrics().counter("smp.comm_thread_busy_defers").value();
  std::printf("engine events per delivered message: %.3f\n", r.events_per_msg);
  return r;
}

// Single 64 B messages 10 us apart to the worker one node up: the comm
// threads wait on ready times ahead of the engine.  A thread that runs
// each 120 ns idle spin step as an event takes 18.352 events per message.
TEST(SmpEventGate, WaitForReadyTimesCostsNoEvents) {
  const GateRun r = run_gate(32, 1, 64, 10000, /*to_node0=*/false);
  EXPECT_EQ(r.end, 353200);
  EXPECT_EQ(r.delivered_sum, 175439360);
  EXPECT_EQ(r.busy_defers, 7808u);
  EXPECT_LE(r.events_per_msg, 5.0);  // 4.945
}

// Bursts of 8 2 KiB messages 20 us apart, 12 workers to node 0: each node
// pair has 8 mailbox credits, so the senders' backlogs wait for credits
// that node 0's busy comm thread returns late, retrying every 620 ns.
// Running those retries as events takes 19.772 events per message.
TEST(SmpEventGate, WaitForCreditsCostsNoEvents) {
  const GateRun r = run_gate(16, 8, 2048, 20000, /*to_node0=*/true);
  EXPECT_EQ(r.end, 6085838);
  EXPECT_EQ(r.delivered_sum, 5929265173);
  EXPECT_EQ(r.busy_defers, 24513u);
  EXPECT_LE(r.events_per_msg, 9.7);  // 9.662
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
