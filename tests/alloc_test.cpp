// Allocation gate: this binary links ugnirt_alloc_count, which replaces the
// global operator new and delete with counting versions.  Allocation
// counts depend only on what the simulator allocates, so the bounds below
// are exact on any host and under the sanitizers.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <vector>

#include "converse/machine.hpp"
#include "gemini/network.hpp"
#include "lrts/runtime.hpp"
#include "sim/context.hpp"
#include "sim/engine.hpp"
#include "ugni/ugni.hpp"
#include "util/alloc_count.hpp"
#include "util/rng.hpp"

namespace ugnirt {
namespace {

using alloc_count::Counts;

constexpr int kPes = 4096;
constexpr int kBurst = 4;      // messages per destination per run
constexpr int kK = 2;          // neighbors on each side
constexpr std::uint32_t kBytes = 1024;

converse::MachineOptions knb_options(bool pool) {
  converse::MachineOptions o;
  o.layer = converse::LayerKind::kUgni;
  o.pes = kPes;
  o.pes_per_node = 1;  // every message crosses the NIC: INIT, GET, ACK
  o.use_pxshm = false;
  o.use_mempool = pool;
  return o;
}

/// One kNeighbor round on `m`: every PE sends kBurst 1 KiB messages to each
/// of its 2k ring neighbors.  Returns operator new calls inside run() per
/// delivered message.
double knb_round(converse::Machine& m, int handler, std::uint64_t& delivered) {
  const std::uint64_t before = delivered;
  const std::uint32_t total = kBytes + converse::kCmiHeaderBytes;
  for (int pe = 0; pe < kPes; ++pe) {
    m.start(pe, [pe, handler, total] {
      for (int i = 0; i < kBurst; ++i) {
        for (int d = 1; d <= kK; ++d) {
          for (int dest : {(pe + d) % kPes, (pe + kPes - d) % kPes}) {
            void* msg = converse::CmiAlloc(total);
            converse::CmiSetHandler(msg, handler);
            converse::CmiSyncSendAndFree(dest, total, msg);
          }
        }
      }
    });
  }
  const Counts c0 = alloc_count::now();
  m.run();
  const Counts c1 = alloc_count::now();
  const std::uint64_t msgs = delivered - before;
  EXPECT_EQ(msgs, std::uint64_t{kPes} * 2 * kK * kBurst);
  return static_cast<double>(c1.news - c0.news) / static_cast<double>(msgs);
}

// Rendezvous bookkeeping, SMSG control payloads and idle queues allocate
// nothing per message; what is left is mostly CQ and mailbox rings, which
// allocate on first push and free when drained.  The first run also grows
// the slot maps, scheduler rings and pool slabs.
TEST(AllocGate, KNeighborRunsAllocateLittlePerMessage) {
  const Counts start = alloc_count::now();
  {
    auto m = lrts::make_machine(converse::LayerKind::kUgni, knb_options(true));
    std::uint64_t delivered = 0;
    const int h = m->register_handler([&delivered](void* msg) {
      ++delivered;
      converse::CmiFree(msg);
    });
    const double first = knb_round(*m, h, delivered);
    const double second = knb_round(*m, h, delivered);
    const double third = knb_round(*m, h, delivered);
    std::printf("operator new per delivered message: %.3f, %.3f, %.3f\n",
                first, second, third);
    EXPECT_LE(first, 2.5);
    EXPECT_LE(third, 1.5);
  }
  EXPECT_EQ(alloc_count::now().net_since(start), 0)
      << "allocations outlived the machine";
}

// A link's schedule is one block, allocated by its first reservation:
// 10,000 reservations on one link, which insert, merge and hit the
// interval bound, make exactly one operator new.  Destroying the network
// frees it.
TEST(AllocGate, LinkScheduleAllocatesOncePerLink) {
  const Counts start = alloc_count::now();
  {
    sim::Engine engine;
    gemini::Network net(engine.scheduler(), topo::Torus3D(2, 2, 2),
                        gemini::MachineConfig{});
    // Node 0 reaches node 2 over one link: its y+ link.
    const std::size_t link = topo::link_index(topo::LinkId{0, 1, true});
    Rng rng(10000);
    gemini::TransferRequest req;
    req.mech = gemini::Mechanism::kFmaPut;
    req.initiator_node = 0;
    req.remote_node = 2;
    const Counts c0 = alloc_count::now();
    for (int i = 0; i < 10000; ++i) {
      req.bytes = 64 + rng.next_below(4096);
      req.issue = static_cast<SimTime>(i) * 200 + rng.next_below(40000000);
      net.transfer(req);
    }
    const Counts c1 = alloc_count::now();
    EXPECT_EQ(c1.news - c0.news, 1u);
    EXPECT_EQ(net.link_schedule(link).reservations(), 10000u);
    EXPECT_GT(net.link_schedule(link).waits(), 0u);
    EXPECT_EQ(net.link_schedule(link).intervals().size(),
              gemini::LinkSchedule::kMaxIntervals);
  }
  EXPECT_EQ(alloc_count::now().net_since(start), 0)
      << "allocations outlived the network";
}

// Channel setup at the paper's Table I scale: 3,840 NICs each open
// channels to 128 seeded-random peers, as nqueens does under lazy setup
// (about 950k endpoints).  Endpoints are built in place in the domain's
// slab and the peer tables grow by doubling, so operator new calls per
// created endpoint are well under one; an endpoint allocated on its own
// costs at least one each and fails the bound.  Destroying the domain frees
// everything, including mailbox messages spilled to the heap.
TEST(AllocGate, LazyConnectAllocatesLittlePerEndpoint) {
  constexpr int kNics = 3840;
  constexpr int kPeers = 128;
  const Counts start = alloc_count::now();
  {
    sim::Engine engine;
    gemini::Network net(engine.scheduler(), topo::Torus3D::for_nodes(kNics),
                        gemini::MachineConfig{});
    ugni::Domain dom(net);
    sim::Context ctx(engine.scheduler(), 0);
    sim::ScopedContext guard(ctx);
    std::vector<ugni::gni_nic_handle_t> nic(kNics);
    for (int i = 0; i < kNics; ++i) {
      ugni::gni_cq_handle_t rx = nullptr, tx = nullptr;
      ASSERT_EQ(ugni::GNI_CdmAttach(&dom, i, i, &nic[i]),
                ugni::GNI_RC_SUCCESS);
      ASSERT_EQ(ugni::GNI_CqCreate(nic[i], 64, &rx), ugni::GNI_RC_SUCCESS);
      ASSERT_EQ(ugni::GNI_CqCreate(nic[i], 64, &tx), ugni::GNI_RC_SUCCESS);
      nic[i]->set_smsg_rx_cq(rx);
      nic[i]->set_default_tx_cq(tx);
      nic[i]->set_smsg_attr(ugni::gni_smsg_attr_t{});
    }

    Rng rng(3840);
    const Counts c0 = alloc_count::now();
    for (int a = 0; a < kNics; ++a) {
      for (int j = 0; j < kPeers; ++j) {
        int b = static_cast<int>(rng.next_below(kNics - 1));
        if (b >= a) ++b;
        ASSERT_NE(nic[a]->get_or_connect(b), nullptr);
      }
    }
    const Counts c1 = alloc_count::now();
    std::uint64_t endpoints = 0;  // none destroyed: one per bound peer
    for (const auto* n : nic) endpoints += n->connected_peers();
    const double per_ep = static_cast<double>(c1.news - c0.news) /
                          static_cast<double>(endpoints);
    std::printf("operator new per created endpoint: %.4f (%llu endpoints)\n",
                per_ep, static_cast<unsigned long long>(endpoints));
    EXPECT_GT(endpoints, 900'000u);
    EXPECT_LE(per_ep, 0.1);

    // Leave a message too large to stay inline in some mailboxes.
    std::uint8_t payload[200] = {};
    for (int a = 0; a < kNics; a += 97) {
      ugni::gni_ep_handle_t ep = nic[a]->get_or_connect((a + 1) % kNics);
      ASSERT_EQ(ugni::GNI_SmsgSendWTag(ep, payload, sizeof(payload), nullptr,
                                       0, 0, 1),
                ugni::GNI_RC_SUCCESS);
    }
  }
  EXPECT_EQ(alloc_count::now().net_since(start), 0)
      << "allocations outlived the domain";
}

// A machine destroyed while a rendezvous is in flight frees the heap
// buffers its posts hold: the sender's registered message and the
// receiver's landing buffer.
class AllocTeardown : public ::testing::TestWithParam<bool> {};

TEST_P(AllocTeardown, InFlightRendezvousFreesEverything) {
  const Counts start = alloc_count::now();
  {
    converse::MachineOptions o;
    o.layer = converse::LayerKind::kUgni;
    o.pes = 2;
    o.pes_per_node = 1;
    o.use_pxshm = false;
    o.use_mempool = GetParam();
    auto m = lrts::make_machine(converse::LayerKind::kUgni, o);
    const int h =
        m->register_handler([](void* msg) { converse::CmiFree(msg); });
    converse::Machine* mp = m.get();
    m->start(0, [mp, h] {
      const std::uint32_t total = 64 * 1024;
      void* msg = converse::CmiAlloc(total);
      converse::CmiSetHandler(msg, h);
      converse::CmiSyncSendAndFree(1, total, msg);
      mp->stop();
    });
    m->run();
  }
  EXPECT_EQ(alloc_count::now().net_since(start), 0)
      << "allocations outlived the machine";
}

INSTANTIATE_TEST_SUITE_P(Pool, AllocTeardown, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "mempool" : "heap";
                         });

}  // namespace
}  // namespace ugnirt
