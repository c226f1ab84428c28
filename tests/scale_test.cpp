// Full-machine scale properties (seeded replay + lazy per-peer uGNI
// state).
//
//  * Replay: a seeded run produces a bit-identical event trace when it is
//    run again in the same process (fresh heap addresses, warm arenas).
//  * First-touch channel setup: ugni::Nic::get_or_connect establishes the
//    SMSG channel pair lazily, charges the initiator the exact two-mailbox
//    registration bill once, and is free afterwards.
//  * Mailbox accounting: Nic::mailbox_bytes()/Domain totals reflect only
//    established channels (and shrink again on GNI_EpDestroy) — the basis
//    of the flat-memory claim at 153,216 PEs.
//  * 100k-PE smoke: a ring exchange at 100,000 PEs completes with mailbox
//    bytes/PE at the same small first-touch ceiling as a 1k-PE job.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "converse/machine.hpp"
#include "gemini/machine_config.hpp"
#include "lrts/runtime.hpp"
#include "lrts/ugni_layer.hpp"
#include "sim/context.hpp"
#include "sim/engine.hpp"
#include "trace/events.hpp"
#include "trace/session.hpp"
#include "ugni/ugni.hpp"

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

/// Seeded faulty k-neighbor on the uGNI layer; returns the full event
/// trace CSV.  The workload exercises SMSG, rendezvous, credit stalls and
/// retries — and with `all_subsystems`, aggregation and flow control on
/// top — so any divergence in event order between two runs shows up as a
/// trace mismatch.
std::string traced_run(bool all_subsystems = false) {
  trace::EventTracer tracer(1u << 18);
  trace::SinkScope sinks(&tracer, nullptr);
  MachineOptions o;
  o.pes = 12;
  o.pes_per_node = 1;
  o.fault.enabled = true;
  o.fault.seed = 0x5CA1E;
  o.fault.p_smsg_error = 0.2;
  o.fault.p_post_error = 0.2;
  if (all_subsystems) {
    o.aggregation.enable = true;
    o.flow.enable = true;
    o.flow.adaptive_routing = true;
  }
  auto m = lrts::make_machine(LayerKind::kUgni, o);
  const int pes = o.pes;
  std::vector<int> received(static_cast<std::size_t>(pes), 0);
  int h = m->register_handler([&](void* msg) {
    received[static_cast<std::size_t>(CmiMyPe())]++;
    CmiFree(msg);
  });
  const std::uint32_t small = 256 + kCmiHeaderBytes;
  const std::uint32_t large = (256u << 10) + kCmiHeaderBytes;
  for (int pe = 0; pe < pes; ++pe) {
    m->start(pe, [&m, pe, pes, small, large, h] {
      for (int i = 0; i < 8; ++i) {
        const std::uint32_t total = (i % 4 == 3) ? large : small;
        for (int dest : {(pe + 1) % pes, (pe + pes - 1) % pes}) {
          void* msg = CmiAlloc(total);
          CmiSetHandler(msg, h);
          CmiSyncSendAndFree(dest, total, msg);
        }
      }
    });
  }
  m->run();
  for (int pe = 0; pe < pes; ++pe) {
    EXPECT_EQ(received[static_cast<std::size_t>(pe)], 16) << "pe " << pe;
  }
  std::ostringstream csv;
  tracer.write_csv(csv);
  return csv.str();
}

// --------------------------------------------------- seeded determinism ----

/// The engine's whole-machine determinism claim: event order depends on
/// virtual time and scheduling order only, never on host addresses or on
/// what the event arena and queue blocks recycled from an earlier run.
TEST(SeededReplay, SeededTraceIsBitIdenticalAcrossRuns) {
  const std::string reference = traced_run();
  EXPECT_FALSE(reference.empty());
  EXPECT_EQ(reference, traced_run());
}

/// Same with every optional subsystem armed — faults, aggregation and
/// congestion control all schedule their own timers and reroute traffic.
TEST(SeededReplay, AllSubsystemsTraceIsBitIdenticalAcrossRuns) {
  const std::string reference = traced_run(/*all_subsystems=*/true);
  EXPECT_FALSE(reference.empty());
  EXPECT_EQ(reference, traced_run(true));
}

// ------------------------------------------------- first-touch channels ----

/// Minimal two-NIC harness with the per-NIC defaults a machine layer sets
/// in init_pe (rx/tx CQs + mailbox geometry), so get_or_connect has
/// everything it needs.
class LazyConnectFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = std::make_unique<gemini::Network>(
        engine_.scheduler(), topo::Torus3D::for_nodes(8), gemini::MachineConfig{});
    dom_ = std::make_unique<ugni::Domain>(*net_);
    for (int i = 0; i < 2; ++i) {
      ctx_[i] = std::make_unique<sim::Context>(engine_.scheduler(), i);
      ASSERT_EQ(ugni::GNI_CdmAttach(dom_.get(), i, i, &nic_[i]),
                ugni::GNI_RC_SUCCESS);
      ASSERT_EQ(ugni::GNI_CqCreate(nic_[i], 1024, &rx_cq_[i]),
                ugni::GNI_RC_SUCCESS);
      ASSERT_EQ(ugni::GNI_CqCreate(nic_[i], 1024, &tx_cq_[i]),
                ugni::GNI_RC_SUCCESS);
      nic_[i]->set_smsg_rx_cq(rx_cq_[i]);
      nic_[i]->set_default_tx_cq(tx_cq_[i]);
      ugni::gni_smsg_attr_t attr;  // defaults: 1024 max, 8 credits
      nic_[i]->set_smsg_attr(attr);
    }
  }

  /// Two mailboxes' worth of pinned bytes for the default geometry
  /// (payload cap + 16 B system header, times the credit depth).
  std::uint64_t mailbox_bytes_per_channel() const {
    return 8ull * (1024 + 16);
  }

  sim::Engine engine_;
  std::unique_ptr<gemini::Network> net_;
  std::unique_ptr<ugni::Domain> dom_;
  std::unique_ptr<sim::Context> ctx_[2];
  ugni::gni_nic_handle_t nic_[2] = {};
  ugni::gni_cq_handle_t rx_cq_[2] = {};
  ugni::gni_cq_handle_t tx_cq_[2] = {};
};

TEST_F(LazyConnectFixture, FirstTouchChargesExactSetupCostOnce) {
  sim::ScopedContext guard(*ctx_[0]);
  const SimTime before = ctx_[0]->now();
  bool established = false;
  ugni::gni_ep_handle_t ep = nic_[0]->get_or_connect(1, &established);
  ASSERT_NE(ep, nullptr);
  EXPECT_TRUE(established);
  // The whole bill — both directions' mailbox registrations — lands on the
  // initiator's clock, deterministically.
  const SimTime bill =
      2 * dom_->config().reg_cost(mailbox_bytes_per_channel());
  EXPECT_EQ(ctx_[0]->now() - before, bill);

  // Second touch: same endpoint, no charge, not "established" again.
  const SimTime t1 = ctx_[0]->now();
  established = true;
  EXPECT_EQ(nic_[0]->get_or_connect(1, &established), ep);
  EXPECT_FALSE(established);
  EXPECT_EQ(ctx_[0]->now(), t1);
}

TEST_F(LazyConnectFixture, ConnectWiresBothDirections) {
  sim::ScopedContext guard(*ctx_[0]);
  ASSERT_NE(nic_[0]->get_or_connect(1), nullptr);
  EXPECT_TRUE(nic_[0]->connected(1));
  EXPECT_TRUE(nic_[1]->connected(0));
  EXPECT_EQ(nic_[0]->connected_peers(), 1u);
  EXPECT_EQ(nic_[1]->connected_peers(), 1u);
  // The reverse endpoint is immediately usable by the peer.
  EXPECT_NE(nic_[1]->ep_for_peer(0), nullptr);
}

TEST_F(LazyConnectFixture, UnknownPeerFailsWithoutSideEffects) {
  sim::ScopedContext guard(*ctx_[0]);
  const SimTime before = ctx_[0]->now();
  EXPECT_EQ(nic_[0]->get_or_connect(77), nullptr);
  EXPECT_EQ(ctx_[0]->now(), before);
  EXPECT_EQ(nic_[0]->connected_peers(), 0u);
  EXPECT_EQ(dom_->total_mailbox_bytes(), 0u);
}

TEST_F(LazyConnectFixture, MailboxAccountingTracksEstablishedChannels) {
  sim::ScopedContext guard(*ctx_[0]);
  EXPECT_EQ(dom_->total_mailbox_bytes(), 0u);
  EXPECT_EQ(nic_[0]->mailbox_bytes(), 0u);

  ASSERT_NE(nic_[0]->get_or_connect(1), nullptr);
  const std::uint64_t per_mailbox = mailbox_bytes_per_channel();
  EXPECT_EQ(nic_[0]->mailbox_bytes(), per_mailbox);
  EXPECT_EQ(nic_[1]->mailbox_bytes(), per_mailbox);
  EXPECT_EQ(dom_->total_mailbox_bytes(), 2 * per_mailbox);
  EXPECT_EQ(dom_->smsg_channels(), 2u);

  // Tearing the endpoints down releases exactly what was pinned.
  ASSERT_EQ(ugni::GNI_EpDestroy(nic_[0]->ep_for_peer(1)),
            ugni::GNI_RC_SUCCESS);
  EXPECT_EQ(nic_[0]->mailbox_bytes(), 0u);
  EXPECT_EQ(dom_->total_mailbox_bytes(), per_mailbox);
  ASSERT_EQ(ugni::GNI_EpDestroy(nic_[1]->ep_for_peer(0)),
            ugni::GNI_RC_SUCCESS);
  EXPECT_EQ(nic_[1]->mailbox_bytes(), 0u);
  EXPECT_EQ(dom_->total_mailbox_bytes(), 0u);
  EXPECT_EQ(dom_->smsg_channels(), 0u);
}

// The first send links the two endpoint halves; GNI_EpDestroy on either
// side breaks the link, so the survivor's next send finds no endpoint bound
// back (INVALID_STATE) instead of writing into the destroyed one's mailbox.
// Reconnecting from the side that lost its endpoint pays the setup bill
// again, and the next send re-links the pair.
TEST_F(LazyConnectFixture, EpDestroyOnEitherSideUnlinksAndReconnectRelinks) {
  const SimTime bill = 2 * dom_->config().reg_cost(mailbox_bytes_per_channel());
  const std::uint8_t byte = 7;
  auto send = [&](int from, ugni::gni_ep_handle_t ep) {
    sim::ScopedContext guard(*ctx_[from]);
    return ugni::GNI_SmsgSendWTag(ep, &byte, 1, nullptr, 0, 0, 1);
  };
  for (int side = 0; side < 2; ++side) {
    SCOPED_TRACE(side == 0 ? "destroy the initiator's endpoint"
                           : "destroy the peer's endpoint");
    const int survivor = 1 - side;
    ugni::gni_ep_handle_t ep[2] = {};
    {
      sim::ScopedContext guard(*ctx_[0]);
      ep[0] = nic_[0]->get_or_connect(1);
    }
    ep[1] = nic_[1]->ep_for_peer(0);
    ASSERT_NE(ep[0], nullptr);
    ASSERT_NE(ep[1], nullptr);
    ASSERT_EQ(send(0, ep[0]), ugni::GNI_RC_SUCCESS);
    EXPECT_EQ(ep[0]->reverse(), ep[1]);
    EXPECT_EQ(ep[1]->reverse(), ep[0]);

    ASSERT_EQ(ugni::GNI_EpDestroy(ep[side]), ugni::GNI_RC_SUCCESS);
    EXPECT_EQ(ep[0]->reverse(), nullptr);
    EXPECT_EQ(ep[1]->reverse(), nullptr);
    EXPECT_EQ(send(survivor, ep[survivor]), ugni::GNI_RC_INVALID_STATE);

    bool established = false;
    ugni::gni_ep_handle_t fresh = nullptr;
    {
      sim::ScopedContext guard(*ctx_[side]);
      const SimTime before = ctx_[side]->now();
      fresh = nic_[side]->get_or_connect(survivor, &established);
      EXPECT_EQ(ctx_[side]->now() - before, bill);
    }
    ASSERT_NE(fresh, nullptr);
    EXPECT_NE(fresh, ep[side]);
    EXPECT_TRUE(established);
    ASSERT_EQ(send(side, fresh), ugni::GNI_RC_SUCCESS);
    EXPECT_EQ(fresh->reverse(), ep[survivor]);
    EXPECT_EQ(ep[survivor]->reverse(), fresh);
    EXPECT_EQ(send(survivor, ep[survivor]), ugni::GNI_RC_SUCCESS);
  }
}

// --------------------------------------------------------- 100k-PE ring ----

/// Ring exchange: every PE sends `msgs` small messages to its right
/// neighbor.  Returns mailbox bytes per PE after the run.
double ring_mailbox_bytes_per_pe(int pes, int msgs) {
  MachineOptions o;
  o.pes = pes;
  o.pes_per_node = 1;
  o.use_pxshm = false;
  auto m = lrts::make_machine(LayerKind::kUgni, o);
  std::uint64_t received = 0;
  int h = m->register_handler([&](void* msg) {
    ++received;
    CmiFree(msg);
  });
  const std::uint32_t total = 64 + kCmiHeaderBytes;
  for (int pe = 0; pe < pes; ++pe) {
    m->start(pe, [&m, pe, pes, msgs, total, h] {
      for (int i = 0; i < msgs; ++i) {
        void* msg = CmiAlloc(total);
        CmiSetHandler(msg, h);
        CmiSyncSendAndFree((pe + 1) % pes, total, msg);
      }
    });
  }
  m->run();
  EXPECT_EQ(received, static_cast<std::uint64_t>(pes) * msgs);
  auto* layer = dynamic_cast<lrts::UgniLayer*>(&m->layer());
  EXPECT_NE(layer, nullptr);
  return static_cast<double>(layer->total_mailbox_bytes()) / pes;
}

TEST(FullMachineScale, HundredKPeRingHasFlatMailboxFootprint) {
  // Per PE a ring pins exactly two mailboxes (to the right neighbor,
  // from the left), regardless of job size: credits x (cap + header).
  // At >16k PEs the SMSG cap drops to smsg_max_bytes/8 = 128 B.
  const double small = ring_mailbox_bytes_per_pe(1024, 2);
  const double big = ring_mailbox_bytes_per_pe(100'000, 2);
  const gemini::MachineConfig mc;
  const double cap_small = mc.smsg_max_for_job(1024);
  const double cap_big = mc.smsg_max_for_job(100'000);
  EXPECT_EQ(small, 2.0 * mc.smsg_mailbox_credits * (cap_small + 16));
  EXPECT_EQ(big, 2.0 * mc.smsg_mailbox_credits * (cap_big + 16));
  // The per-PE footprint must not grow with the job — the O(N) eager
  // mailbox wall of paper §II-B is gone.  (With the smaller large-job
  // SMSG cap it actually shrinks.)
  EXPECT_LE(big, small);
  EXPECT_LE(big, 4096.0);  // hard ceiling: a page per PE
}

}  // namespace
}  // namespace ugnirt
