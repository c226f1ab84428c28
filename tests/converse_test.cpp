#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <numeric>
#include <sstream>
#include <vector>

#include "lrts/runtime.hpp"
#include "lrts/ugni_layer.hpp"

namespace ugnirt::converse {
namespace {

using lrts::make_machine;

MachineOptions opts(int pes) {
  MachineOptions o;
  o.pes = pes;
  return o;
}

/// Fill a message payload with a deterministic pattern and verify it.
void fill_pattern(void* msg, std::uint32_t total, std::uint32_t seed) {
  auto* bytes = static_cast<std::uint8_t*>(payload_of(msg));
  std::uint32_t n = total - kCmiHeaderBytes;
  for (std::uint32_t i = 0; i < n; ++i) {
    bytes[i] = static_cast<std::uint8_t>((i * 131 + seed) & 0xff);
  }
}

bool check_pattern(const void* msg, std::uint32_t total, std::uint32_t seed) {
  auto* bytes = static_cast<const std::uint8_t*>(payload_of(msg));
  std::uint32_t n = total - kCmiHeaderBytes;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (bytes[i] != static_cast<std::uint8_t>((i * 131 + seed) & 0xff)) {
      return false;
    }
  }
  return true;
}

class ConverseBothLayers : public ::testing::TestWithParam<LayerKind> {};

TEST_P(ConverseBothLayers, PingPongDeliversIntactPayloads) {
  // Sweep sizes across every protocol regime: SMSG, FMA GET, BTE GET
  // (uGNI layer) / E0, E1, rendezvous (MPI layer).
  for (std::uint32_t payload : {8u, 512u, 2048u, 16384u, 262144u}) {
    auto o = opts(2);
    o.pes_per_node = 1;  // two nodes, inter-node traffic
    auto m = make_machine(GetParam(), o);
    const std::uint32_t total = payload + kCmiHeaderBytes;
    int bounces = 0;
    int h = -1;
    h = m->register_handler([&](void* msg) {
      EXPECT_TRUE(check_pattern(msg, total, 9)) << "payload " << payload;
      ++bounces;
      int me = CmiMyPe();
      if (bounces < 6) {
        void* reply = CmiAlloc(total);
        fill_pattern(reply, total, 9);
        CmiSetHandler(reply, h);
        CmiSyncSendAndFree(1 - me, total, reply);
      }
      CmiFree(msg);
    });
    m->start(0, [&] {
      void* msg = CmiAlloc(total);
      fill_pattern(msg, total, 9);
      CmiSetHandler(msg, h);
      CmiSyncSendAndFree(1, total, msg);
    });
    m->run();
    EXPECT_EQ(bounces, 6) << "payload " << payload;
  }
}

TEST_P(ConverseBothLayers, ManyToOneDeliversEverything) {
  auto o = opts(9);
  o.pes_per_node = 3;
  auto m = make_machine(GetParam(), o);
  int received = 0;
  std::vector<bool> seen(9, false);
  int h = m->register_handler([&](void* msg) {
    ++received;
    seen[static_cast<std::size_t>(header_of(msg)->src_pe)] = true;
    CmiFree(msg);
  });
  for (int pe = 1; pe < 9; ++pe) {
    m->start(pe, [&, h] {
      void* msg = CmiAlloc(kCmiHeaderBytes + 100);
      CmiSetHandler(msg, h);
      CmiSyncSendAndFree(0, kCmiHeaderBytes + 100, msg);
    });
  }
  m->run();
  EXPECT_EQ(received, 8);
  for (int pe = 1; pe < 9; ++pe) EXPECT_TRUE(seen[static_cast<size_t>(pe)]);
}

TEST_P(ConverseBothLayers, BroadcastReachesAllPes) {
  auto m = make_machine(GetParam(), opts(23));
  std::vector<int> hits(23, 0);
  int h = m->register_handler([&](void* msg) {
    hits[static_cast<std::size_t>(CmiMyPe())]++;
    CmiFree(msg);
  });
  m->start(5, [&, h] {
    void* msg = CmiAlloc(kCmiHeaderBytes + 64);
    CmiSetHandler(msg, h);
    CmiSyncBroadcastAllAndFree(kCmiHeaderBytes + 64, msg);
  });
  m->run();
  for (int pe = 0; pe < 23; ++pe) {
    EXPECT_EQ(hits[static_cast<std::size_t>(pe)], 1) << "pe " << pe;
  }
}

TEST_P(ConverseBothLayers, SelfSendWorks) {
  auto m = make_machine(GetParam(), opts(1));
  int count = 0;
  int h = m->register_handler([&](void* msg) {
    ++count;
    EXPECT_EQ(CmiMyPe(), 0);
    CmiFree(msg);
  });
  m->start(0, [&, h] {
    for (int i = 0; i < 5; ++i) {
      void* msg = CmiAlloc(kCmiHeaderBytes + 8);
      CmiSetHandler(msg, h);
      CmiSyncSendAndFree(0, kCmiHeaderBytes + 8, msg);
    }
  });
  m->run();
  EXPECT_EQ(count, 5);
}

TEST_P(ConverseBothLayers, VirtualTimeAdvancesAndIsDeterministic) {
  auto run_once = [&] {
    auto m = make_machine(GetParam(), opts(4));
    SimTime end = 0;
    int h = -1;
    int hops = 0;
    h = m->register_handler([&](void* msg) {
      CmiFree(msg);
      if (++hops < 20) {
        void* next = CmiAlloc(kCmiHeaderBytes + 256);
        CmiSetHandler(next, h);
        CmiSyncSendAndFree((CmiMyPe() + 1) % 4, kCmiHeaderBytes + 256, next);
      }
    });
    m->start(0, [&, h] {
      void* msg = CmiAlloc(kCmiHeaderBytes + 256);
      CmiSetHandler(msg, h);
      CmiSyncSendAndFree(1, kCmiHeaderBytes + 256, msg);
    });
    end = m->run();
    EXPECT_GT(end, 0);
    return end;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST_P(ConverseBothLayers, StartClosuresRunOnceInCallOrderOnTheirPes) {
  auto m = make_machine(GetParam(), opts(4));
  auto token = std::make_shared<int>(0);
  std::vector<std::pair<int, int>> ran;  // (closure id, PE it ran on)
  SimTime nested_issued = -1, nested_ran = -1;
  // A start issued from inside a running handler, as charm's QD wave does.
  const int h = m->register_handler([&](void* msg) {
    CmiFree(msg);
    nested_issued = m->engine().now();
    m->start(2, [&, token] {
      ran.emplace_back(100, CmiMyPe());
      nested_ran = m->current_pe().ctx().now();
    });
  });
  for (int i = 0; i < 8; ++i) {
    m->start((i * 3) % 4, [&ran, token, i] {
      ran.emplace_back(i, CmiMyPe());
    });
  }
  m->start(1, [&, token, h] {
    void* msg = CmiAlloc(kCmiHeaderBytes + 8);
    CmiSetHandler(msg, h);
    CmiSyncSendAndFree(3, kCmiHeaderBytes + 8, msg);
  });
  EXPECT_GT(token.use_count(), 1);
  m->run();
  const std::vector<std::pair<int, int>> expected = {
      {0, 0}, {1, 3}, {2, 2}, {3, 1}, {4, 0},
      {5, 3}, {6, 2}, {7, 1}, {100, 2}};
  EXPECT_EQ(ran, expected);
  EXPECT_GT(nested_issued, 0);
  EXPECT_GE(nested_ran, nested_issued);  // no earlier than the engine clock
  // Each closure was destroyed once it had run.
  EXPECT_EQ(token.use_count(), 1);
}

INSTANTIATE_TEST_SUITE_P(Layers, ConverseBothLayers,
                         ::testing::Values(LayerKind::kUgni, LayerKind::kMpi),
                         [](const auto& info) {
                           return info.param == LayerKind::kUgni ? "uGNI"
                                                                 : "MPI";
                         });

// ---------------------------------------------------------------- uGNI ----

TEST(ConverseUgni, UgniBeatsMpiOnSmallMessageLatency) {
  // The headline claim (Fig 9a): uGNI-based CHARM++ one-way latency is
  // substantially lower than MPI-based for small messages.  The first
  // exchange warms up channel setup (mailbox registration), as real
  // ping-pong benchmarks do; we measure the steady-state legs.
  auto one_way = [](LayerKind layer) {
    auto o = opts(2);
    o.pes_per_node = 1;
    auto m = make_machine(layer, o);
    constexpr int kIters = 10;
    int legs = 0;
    SimTime measure_start = 0, measure_end = 0;
    int h = -1;
    h = m->register_handler([&](void* msg) {
      ++legs;
      if (legs == 2) {  // warmup round trip done
        measure_start = Machine::running()->current_pe().ctx().now();
      }
      if (legs == 2 + 2 * kIters) {
        measure_end = Machine::running()->current_pe().ctx().now();
        CmiFree(msg);
        return;
      }
      CmiSetHandler(msg, h);
      CmiSyncSendAndFree(1 - CmiMyPe(), kCmiHeaderBytes + 8, msg);
    });
    m->start(0, [&, h] {
      void* msg = CmiAlloc(kCmiHeaderBytes + 8);
      CmiSetHandler(msg, h);
      CmiSyncSendAndFree(1, kCmiHeaderBytes + 8, msg);
    });
    m->run();
    return (measure_end - measure_start) / (2 * kIters);
  };
  SimTime ugni = one_way(LayerKind::kUgni);
  SimTime mpi = one_way(LayerKind::kMpi);
  // Paper: ~1.6us vs ~3us.
  EXPECT_LT(ugni, microseconds(2.5));
  EXPECT_GT(ugni, microseconds(1.0));
  EXPECT_GT(mpi, ugni * 3 / 2);
}

TEST(ConverseUgni, MempoolImprovesLargeMessageLatency) {
  auto round_trip = [](bool pool) {
    auto o = opts(2);
    o.pes_per_node = 1;
    o.use_mempool = pool;
    auto m = make_machine(LayerKind::kUgni, o);
    const std::uint32_t total = kCmiHeaderBytes + 65536;
    int bounces = 0;
    int h = -1;
    h = m->register_handler([&](void* msg) {
      ++bounces;
      // Enough bounces that the pool's one-time slab expansions amortize
      // and the steady-state protocol difference dominates.
      if (bounces < 50) {
        CmiSetHandler(msg, h);
        CmiSyncSendAndFree(1 - CmiMyPe(), total, msg);  // reuse buffer
      } else {
        CmiFree(msg);
      }
    });
    m->start(0, [&, h] {
      void* msg = CmiAlloc(total);
      CmiSetHandler(msg, h);
      CmiSyncSendAndFree(1, total, msg);
    });
    return m->run();
  };
  SimTime with_pool = round_trip(true);
  SimTime without = round_trip(false);
  EXPECT_LT(with_pool, without);
  // Paper Fig 8b: latency reduced by ~50%, i.e. at least 25% end to end.
  EXPECT_LT(static_cast<double>(with_pool),
            0.8 * static_cast<double>(without));
}

TEST(ConverseUgni, PersistentMessagesBeatPlainRendezvous) {
  auto run = [](bool persistent) {
    auto o = opts(2);
    o.pes_per_node = 1;
    auto m = make_machine(LayerKind::kUgni, o);
    const std::uint32_t total = kCmiHeaderBytes + 32768;
    int received = 0;
    PersistentHandle handle;
    int h = -1;
    h = m->register_handler([&](void* msg) {
      EXPECT_TRUE(check_pattern(msg, total, 3));
      ++received;
      CmiFree(msg);
    });
    m->start(0, [&, h, persistent]() mutable {
      if (persistent) {
        handle = Machine::running()->create_persistent(1, total);
        ASSERT_TRUE(handle.valid());
      }
      for (int i = 0; i < 4; ++i) {
        void* msg = CmiAlloc(total);
        fill_pattern(msg, total, 3);
        CmiSetHandler(msg, h);
        if (persistent) {
          Machine::running()->send_persistent(handle, msg);
        } else {
          CmiSyncSendAndFree(1, total, msg);
        }
      }
    });
    m->run();
    EXPECT_EQ(received, 4);
    return m->stats().msgs_executed;
  };
  run(false);
  run(true);
}

TEST(ConverseUgni, PersistentLatencyLowerThanRendezvous) {
  auto one_way = [](bool persistent) {
    auto o = opts(2);
    o.pes_per_node = 1;
    auto m = make_machine(LayerKind::kUgni, o);
    const std::uint32_t total = kCmiHeaderBytes + 65536;
    SimTime sent = 0, arrived = 0;
    int h = m->register_handler([&](void* msg) {
      arrived = Machine::running()->current_pe().ctx().now();
      CmiFree(msg);
    });
    m->start(0, [&, h, persistent] {
      PersistentHandle handle;
      if (persistent) {
        handle = Machine::running()->create_persistent(1, total);
      }
      void* msg = CmiAlloc(total);
      CmiSetHandler(msg, h);
      sent = Machine::running()->current_pe().ctx().now();
      if (persistent) {
        Machine::running()->send_persistent(handle, msg);
      } else {
        CmiSyncSendAndFree(1, total, msg);
      }
    });
    m->run();
    return arrived - sent;
  };
  SimTime persist = one_way(true);
  SimTime plain = one_way(false);
  EXPECT_LT(persist, plain);
}

TEST(ConverseUgni, PxshmSingleCopyFasterThanDoubleCopyIntraNode) {
  auto one_way = [](bool single) {
    auto o = opts(2);
    o.pes_per_node = 2;  // same node
    o.use_pxshm = true;
    o.pxshm_single_copy = single;
    auto m = make_machine(LayerKind::kUgni, o);
    const std::uint32_t total = kCmiHeaderBytes + 131072;
    SimTime sent = 0, arrived = 0;
    int h = m->register_handler([&](void* msg) {
      EXPECT_TRUE(check_pattern(msg, total, 5));
      arrived = Machine::running()->current_pe().ctx().now();
      CmiFree(msg);
    });
    m->start(0, [&, h] {
      void* msg = CmiAlloc(total);
      fill_pattern(msg, total, 5);
      CmiSetHandler(msg, h);
      sent = Machine::running()->current_pe().ctx().now();
      CmiSyncSendAndFree(1, total, msg);
    });
    m->run();
    EXPECT_GT(arrived, sent);
    return arrived - sent;
  };
  EXPECT_LT(one_way(true), one_way(false));
}

TEST(ConverseUgni, CreditBackpressureDeliversEverythingInOrder) {
  // Flood one destination with more small messages than mailbox credits;
  // the backlog path must kick in and preserve per-pair FIFO order.
  auto o = opts(2);
  o.pes_per_node = 1;
  auto m = make_machine(LayerKind::kUgni, o);
  constexpr int kCount = 200;  // >> 8 credits
  std::vector<int> order;
  int h = m->register_handler([&](void* msg) {
    order.push_back(*msg_payload<int>(msg));
    CmiFree(msg);
  });
  m->start(0, [&, h] {
    for (int i = 0; i < kCount; ++i) {
      void* msg = CmiAlloc(kCmiHeaderBytes + sizeof(int));
      *msg_payload<int>(msg) = i;
      CmiSetHandler(msg, h);
      CmiSyncSendAndFree(1, kCmiHeaderBytes + sizeof(int), msg);
    }
  });
  m->run();
  EXPECT_GT(m->metrics().counter("ugni.credit_stalls").value(), 0u);
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kCount));
  for (int i = 0; i < kCount; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(ConverseUgni, QdCountersBalanceAfterRun) {
  auto m = make_machine(LayerKind::kUgni, opts(8));
  int h = -1;
  h = m->register_handler([&](void* msg) {
    int ttl = *msg_payload<int>(msg);
    CmiFree(msg);
    if (ttl > 0) {
      void* next = CmiAlloc(kCmiHeaderBytes + sizeof(int));
      *msg_payload<int>(next) = ttl - 1;
      CmiSetHandler(next, h);
      CmiSyncSendAndFree((CmiMyPe() * 3 + 1) % 8, kCmiHeaderBytes + 4, next);
    }
  });
  m->start(0, [&, h] {
    for (int i = 0; i < 10; ++i) {
      void* msg = CmiAlloc(kCmiHeaderBytes + sizeof(int));
      *msg_payload<int>(msg) = 15;
      CmiSetHandler(msg, h);
      CmiSyncSendAndFree(i % 8, kCmiHeaderBytes + 4, msg);
    }
  });
  m->run();
  std::uint64_t created = 0, processed = 0;
  for (int pe = 0; pe < 8; ++pe) {
    created += m->qd_created(pe);
    processed += m->qd_processed(pe);
  }
  EXPECT_EQ(created, processed);
  EXPECT_EQ(created, 10u * 16u);
}

TEST(ConverseUgni, EarlierWakeSupersedesThePendingStep) {
  // A PE woken for t+1000 and then for t+100 (t: when it is free) runs
  // one step, at t+100.  The step armed for t+1000 is superseded: it still
  // fires, but it runs no handler and is not a scheduler step.
  auto m = make_machine(LayerKind::kUgni, opts(1));
  int hits = 0;
  SimTime ran_at = -1;
  const int h = m->register_handler([&](void* msg) {
    ++hits;
    ran_at = Machine::running()->current_pe().ctx().now();
    CmiFree(msg);
  });
  void* msg = nullptr;
  m->start(0, [&] {
    msg = CmiAlloc(kCmiHeaderBytes + 8);
    CmiSetHandler(msg, h);
  });
  m->run();
  auto steps = [&m] {
    m->collect_metrics();
    return m->metrics().counter("converse.sched_steps").value();
  };
  const std::uint64_t steps_before = steps();

  Pe& pe = m->pe(0);
  const SimTime t = pe.ctx().now();
  pe.wake(t + 1000);
  pe.enqueue(msg, t + 100);
  m->run();
  EXPECT_EQ(hits, 1);
  EXPECT_GE(ran_at, t + 100);
  EXPECT_LT(ran_at, t + 1000);
  EXPECT_EQ(steps() - steps_before, 1u);
  EXPECT_EQ(m->engine().now(), t + 1000);
}

TEST(ConverseUgni, SmsgCapShrinksWithJobSizeInLayer) {
  auto small = make_machine(LayerKind::kUgni, opts(16));
  auto* l1 = dynamic_cast<lrts::UgniLayer*>(&small->layer());
  EXPECT_EQ(l1->smsg_cap(), 1024u);
  auto big = make_machine(LayerKind::kUgni, opts(2048));
  auto* l2 = dynamic_cast<lrts::UgniLayer*>(&big->layer());
  EXPECT_EQ(l2->smsg_cap(), 512u);
}

TEST(ConverseUgni, IntranodeWithoutPxshmStillDelivers) {
  auto o = opts(4);
  o.pes_per_node = 4;
  o.use_pxshm = false;  // force NIC loopback ("original" Fig 8c curve)
  auto m = make_machine(LayerKind::kUgni, o);
  int got = 0;
  int h = m->register_handler([&](void* msg) {
    EXPECT_TRUE(check_pattern(msg, header_of(msg)->size, 1));
    ++got;
    CmiFree(msg);
  });
  m->start(0, [&, h] {
    for (std::uint32_t payload : {64u, 4096u, 65536u}) {
      std::uint32_t total = payload + kCmiHeaderBytes;
      void* msg = CmiAlloc(total);
      fill_pattern(msg, total, 1);
      CmiSetHandler(msg, h);
      CmiSyncSendAndFree(2, total, msg);
    }
  });
  m->run();
  EXPECT_EQ(got, 3);
}

// ------------------------------------------------------------- metrics ----

enum class CollectLayer { kUgni, kSmp, kMpi };
constexpr const char* kCollectLayerNames[] = {"uGNI", "SMP", "MPI"};

class MetricsCollect : public ::testing::TestWithParam<CollectLayer> {};

// Collecting is a snapshot: a second collect must not add the per-link
// samples again, and net.link_busy_ns holds exactly one sample per link
// that carried traffic.
TEST_P(MetricsCollect, RepeatReadsTheSameAndCountsEachBusyLinkOnce) {
  auto o = opts(4);
  o.pes_per_node = 1;
  o.smp_mode = GetParam() == CollectLayer::kSmp;
  o.flow.enable = true;  // flow.link_load: one sample per loaded link
  auto m = make_machine(
      GetParam() == CollectLayer::kMpi ? LayerKind::kMpi : LayerKind::kUgni,
      o);
  int h = m->register_handler([](void* msg) { CmiFree(msg); });
  m->start(0, [h] {
    // Several rounds, so GETs that share a link queue and load it.
    const std::uint32_t total = 65536 + kCmiHeaderBytes;
    for (int round = 0; round < 4; ++round) {
      for (int dest = 1; dest < 4; ++dest) {
        void* msg = CmiAlloc(total);
        CmiSetHandler(msg, h);
        CmiSyncSendAndFree(dest, total, msg);
      }
    }
  });
  m->run();

  // write_link_csv prints a header plus one row per link that carried
  // traffic.
  std::ostringstream links;
  m->network().write_link_csv(links);
  const std::string rows = links.str();
  const auto busy_links =
      static_cast<std::uint64_t>(std::count(rows.begin(), rows.end(), '\n')) -
      1;
  ASSERT_GT(busy_links, 0u);

  std::ostringstream first, second;
  m->collect_metrics();
  m->metrics().write_csv(first);
  m->collect_metrics();
  m->metrics().write_csv(second);
  EXPECT_EQ(first.str(), second.str());
  EXPECT_EQ(m->metrics().stat("net.link_busy_ns").count(), busy_links);
  EXPECT_GT(m->metrics().stat("flow.link_load").count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Layers, MetricsCollect,
                         ::testing::Values(CollectLayer::kUgni,
                                           CollectLayer::kSmp,
                                           CollectLayer::kMpi),
                         [](const auto& info) {
                           return kCollectLayerNames[static_cast<int>(
                               info.param)];
                         });

}  // namespace
}  // namespace ugnirt::converse
