// MSGQ: the per-node shared-queue alternative to SMSG (paper §II-B) —
// API-level semantics plus the machine-layer integration (use_msgq mode).
#include <gtest/gtest.h>

#include <cstring>

#include "lrts/runtime.hpp"
#include "lrts/ugni_layer.hpp"
#include "sim/context.hpp"
#include "sim/engine.hpp"
#include "ugni/msgq.hpp"

namespace ugnirt {
namespace {

// -------------------------------------------------------------- API level ----

class MsgqFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = std::make_unique<gemini::Network>(
        engine_.scheduler(), topo::Torus3D::for_nodes(4), gemini::MachineConfig{});
    dom_ = std::make_unique<ugni::Domain>(*net_);
    for (int i = 0; i < 3; ++i) {
      ctx_.push_back(std::make_unique<sim::Context>(engine_.scheduler(), i));
      sim::ScopedContext g(*ctx_.back());
      ASSERT_EQ(ugni::GNI_CdmAttach(dom_.get(), i, i, &nic_[i]),
                ugni::GNI_RC_SUCCESS);
      ASSERT_EQ(ugni::GNI_MsgqInit(nic_[i], 4096, &msgq_[i]),
                ugni::GNI_RC_SUCCESS);
    }
  }

  sim::Context& ctx(int i) { return *ctx_[static_cast<std::size_t>(i)]; }

  sim::Engine engine_;
  std::unique_ptr<gemini::Network> net_;
  std::unique_ptr<ugni::Domain> dom_;
  std::vector<std::unique_ptr<sim::Context>> ctx_;
  ugni::gni_nic_handle_t nic_[3] = {};
  ugni::gni_msgq_handle_t msgq_[3] = {};
};

TEST_F(MsgqFixture, DeliversFromMultiplePeersWithoutPairSetup) {
  // Senders 1 and 2 hit receiver 0's shared queue with zero channel setup.
  for (int from : {1, 2}) {
    sim::ScopedContext g(ctx(from));
    char payload[16];
    std::snprintf(payload, sizeof(payload), "from-%d", from);
    ASSERT_EQ(ugni::GNI_MsgqSend(nic_[from], 0, payload, 16, nullptr, 0,
                                 static_cast<std::uint8_t>(from)),
              ugni::GNI_RC_SUCCESS);
  }
  sim::ScopedContext g(ctx(0));
  ctx(0).wait_until(10'000'000);
  int got = 0;
  for (;;) {
    void* data = nullptr;
    std::uint32_t len = 0;
    std::uint8_t tag = 0;
    std::int32_t src = -1;
    if (ugni::GNI_MsgqProgress(msgq_[0], &data, &len, &tag, &src) !=
        ugni::GNI_RC_SUCCESS) {
      break;
    }
    EXPECT_EQ(len, 16u);
    EXPECT_EQ(tag, src);
    char expect[16];
    std::snprintf(expect, sizeof(expect), "from-%d", src);
    EXPECT_EQ(std::memcmp(data, expect, 7), 0);
    ++got;
  }
  EXPECT_EQ(got, 2);
  EXPECT_EQ(msgq_[0]->used_bytes(), 0u);
}

TEST_F(MsgqFixture, BackpressureWhenPoolFull) {
  sim::ScopedContext g(ctx(1));
  std::vector<std::uint8_t> big(1500);
  int accepted = 0;
  for (int i = 0; i < 10; ++i) {
    auto rc = ugni::GNI_MsgqSend(nic_[1], 0, big.data(),
                                 static_cast<std::uint32_t>(big.size()),
                                 nullptr, 0, 1);
    if (rc != ugni::GNI_RC_SUCCESS) {
      EXPECT_EQ(rc, ugni::GNI_RC_NOT_DONE);
      break;
    }
    ++accepted;
  }
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, 10);  // pool (4096) cannot hold 10 x 1500

  // Draining frees the pool for more traffic.
  {
    sim::ScopedContext g0(ctx(0));
    ctx(0).wait_until(10'000'000);
    void* data;
    std::uint32_t len;
    std::uint8_t tag;
    std::int32_t src;
    ASSERT_EQ(ugni::GNI_MsgqProgress(msgq_[0], &data, &len, &tag, &src),
              ugni::GNI_RC_SUCCESS);
  }
  EXPECT_EQ(ugni::GNI_MsgqSend(nic_[1], 0, big.data(),
                               static_cast<std::uint32_t>(big.size()),
                               nullptr, 0, 1),
            ugni::GNI_RC_SUCCESS);
}

TEST_F(MsgqFixture, OversizedAndInvalidUses) {
  sim::ScopedContext g(ctx(1));
  std::vector<std::uint8_t> huge(8192);
  EXPECT_EQ(ugni::GNI_MsgqSend(nic_[1], 0, huge.data(), 8192, nullptr, 0, 0),
            ugni::GNI_RC_SIZE_ERROR);
  // Second init on the same NIC is rejected.
  ugni::gni_msgq_handle_t dup = nullptr;
  EXPECT_EQ(ugni::GNI_MsgqInit(nic_[1], 4096, &dup),
            ugni::GNI_RC_INVALID_STATE);
  // Sending to a NIC without a queue fails cleanly.
  ugni::gni_nic_handle_t bare = nullptr;
  ASSERT_EQ(ugni::GNI_CdmAttach(dom_.get(), 9, 3, &bare),
            ugni::GNI_RC_SUCCESS);
  char c = 0;
  EXPECT_EQ(ugni::GNI_MsgqSend(nic_[1], 9, &c, 1, nullptr, 0, 0),
            ugni::GNI_RC_INVALID_STATE);
}

TEST_F(MsgqFixture, SlowerThanSmsgPerMessage) {
  // The §II-B trade: per-message latency is worse than SMSG.
  SimTime send_at;
  {
    sim::ScopedContext g(ctx(1));
    send_at = ctx(1).now();
    char c = 7;
    ASSERT_EQ(ugni::GNI_MsgqSend(nic_[1], 0, &c, 1, nullptr, 0, 0),
              ugni::GNI_RC_SUCCESS);
  }
  SimTime arrival = msgq_[0]->next_arrival();
  gemini::MachineConfig mc;
  // Strictly above the SMSG wire floor for a 1-byte message.
  SimTime smsg_floor = mc.smsg_cpu_send_ns + mc.smsg_wire_startup_ns;
  EXPECT_GT(arrival - send_at, smsg_floor);
}

// ------------------------------------------------------------ layer level ----

TEST(MsgqLayer, EndToEndDeliveryInMsgqMode) {
  converse::MachineOptions o;
  o.pes = 8;
  o.use_msgq = true;
  o.use_pxshm = false;
  o.pes_per_node = 1;
  auto m = lrts::make_machine(converse::LayerKind::kUgni, o);
  int got = 0;
  int h = m->register_handler([&](void* msg) {
    ++got;
    converse::CmiFree(msg);
  });
  for (int pe = 1; pe < 8; ++pe) {
    m->start(pe, [&, h] {
      for (std::uint32_t payload : {16u, 512u, 65536u}) {
        void* msg = converse::CmiAlloc(payload + converse::kCmiHeaderBytes);
        converse::CmiSetHandler(msg, h);
        converse::CmiSyncSendAndFree(0, payload + converse::kCmiHeaderBytes,
                                     msg);
      }
    });
  }
  m->run();
  EXPECT_EQ(got, 21);
}

TEST(MsgqLayer, NoMailboxMemoryCommitted) {
  auto run = [](bool msgq) {
    converse::MachineOptions o;
    o.pes = 16;
    o.use_msgq = msgq;
    o.use_pxshm = false;
    o.pes_per_node = 1;
    auto m = lrts::make_machine(converse::LayerKind::kUgni, o);
    int h = m->register_handler(
        [&](void* msg) { converse::CmiFree(msg); });
    m->start(0, [&, h] {
      for (int dest = 1; dest < 16; ++dest) {
        void* msg = converse::CmiAlloc(converse::kCmiHeaderBytes + 64);
        converse::CmiSetHandler(msg, h);
        converse::CmiSyncSendAndFree(dest, converse::kCmiHeaderBytes + 64,
                                     msg);
      }
    });
    m->run();
    auto* layer = dynamic_cast<lrts::UgniLayer*>(&m->layer());
    return layer->total_mailbox_bytes();
  };
  EXPECT_GT(run(false), 0u);  // SMSG: per-pair mailboxes pile up
  EXPECT_EQ(run(true), 0u);   // MSGQ: none at all
}

TEST(MsgqLayer, MsgqModeSlowerThanSmsgMode) {
  auto one_way = [](bool msgq) {
    converse::MachineOptions o;
    o.pes = 2;
    o.use_msgq = msgq;
    o.pes_per_node = 1;
    auto m = lrts::make_machine(converse::LayerKind::kUgni, o);
    int legs = 0;
    SimTime t0 = 0, t1 = 0;
    int h = -1;
    h = m->register_handler([&](void* msg) {
      ++legs;
      if (legs == 2) t0 = converse::Machine::running()->current_pe().ctx().now();
      if (legs == 10) {
        t1 = converse::Machine::running()->current_pe().ctx().now();
        converse::CmiFree(msg);
        return;
      }
      converse::CmiSetHandler(msg, h);
      converse::CmiSyncSendAndFree(1 - converse::CmiMyPe(),
                                   converse::header_of(msg)->size, msg);
    });
    m->start(0, [&, h] {
      void* msg = converse::CmiAlloc(converse::kCmiHeaderBytes + 64);
      converse::CmiSetHandler(msg, h);
      converse::CmiSyncSendAndFree(1, converse::kCmiHeaderBytes + 64, msg);
    });
    m->run();
    return (t1 - t0) / 8;
  };
  EXPECT_GT(one_way(true), one_way(false));
}

}  // namespace
}  // namespace ugnirt
