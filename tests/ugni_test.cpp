#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <vector>

#include "sim/context.hpp"
#include "sim/engine.hpp"
#include "ugni/ugni.hpp"

namespace ugnirt::ugni {
namespace {

/// Two-NIC harness: inst 0 on node 0, inst 1 on node 1, SMSG channel up in
/// both directions, one rx CQ and one tx CQ per NIC.
class UgniFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = std::make_unique<gemini::Network>(
        engine_.scheduler(), topo::Torus3D::for_nodes(8), gemini::MachineConfig{});
    dom_ = std::make_unique<Domain>(*net_);
    for (int i = 0; i < 2; ++i) {
      ctx_[i] = std::make_unique<sim::Context>(engine_.scheduler(), i);
    }
    sim::ScopedContext guard(*ctx_[0]);
    ASSERT_EQ(GNI_CdmAttach(dom_.get(), 0, 0, &nic_[0]), GNI_RC_SUCCESS);
    ASSERT_EQ(GNI_CdmAttach(dom_.get(), 1, 1, &nic_[1]), GNI_RC_SUCCESS);
    for (int i = 0; i < 2; ++i) {
      ASSERT_EQ(GNI_CqCreate(nic_[i], 1024, &rx_cq_[i]), GNI_RC_SUCCESS);
      ASSERT_EQ(GNI_CqCreate(nic_[i], 1024, &tx_cq_[i]), GNI_RC_SUCCESS);
      nic_[i]->set_smsg_rx_cq(rx_cq_[i]);
    }
    ASSERT_EQ(GNI_EpCreate(nic_[0], tx_cq_[0], &ep01_), GNI_RC_SUCCESS);
    ASSERT_EQ(GNI_EpCreate(nic_[1], tx_cq_[1], &ep10_), GNI_RC_SUCCESS);
    ASSERT_EQ(GNI_EpBind(ep01_, 1), GNI_RC_SUCCESS);
    ASSERT_EQ(GNI_EpBind(ep10_, 0), GNI_RC_SUCCESS);
    gni_smsg_attr_t attr;  // defaults: 1024 max, 8 credits
    ASSERT_EQ(GNI_SmsgInit(ep01_, attr, attr), GNI_RC_SUCCESS);
    ASSERT_EQ(GNI_SmsgInit(ep10_, attr, attr), GNI_RC_SUCCESS);
  }

  /// Send a tagged payload 0 -> 1 and return GNI's status.
  gni_return_t send01(const std::string& payload, std::uint8_t tag) {
    sim::ScopedContext guard(*ctx_[0]);
    return GNI_SmsgSendWTag(ep01_, payload.data(),
                            static_cast<std::uint32_t>(payload.size()),
                            nullptr, 0, 0, tag);
  }

  sim::Engine engine_;
  std::unique_ptr<gemini::Network> net_;
  std::unique_ptr<Domain> dom_;
  std::unique_ptr<sim::Context> ctx_[2];
  gni_nic_handle_t nic_[2] = {};
  gni_cq_handle_t rx_cq_[2] = {};
  gni_cq_handle_t tx_cq_[2] = {};
  gni_ep_handle_t ep01_ = nullptr;
  gni_ep_handle_t ep10_ = nullptr;
};

// ----------------------------------------------------------------- SMSG ----

TEST_F(UgniFixture, SmsgDeliversBytesAndTag) {
  ASSERT_EQ(send01("hello gemini", 7), GNI_RC_SUCCESS);

  sim::ScopedContext guard(*ctx_[1]);
  // Before arrival the receiver sees nothing.
  gni_cq_entry_t ev;
  EXPECT_EQ(GNI_CqGetEvent(rx_cq_[1], &ev), GNI_RC_NOT_DONE);

  ctx_[1]->wait_until(1'000'000);  // well past the ~1.2us flight time
  ASSERT_EQ(GNI_CqGetEvent(rx_cq_[1], &ev), GNI_RC_SUCCESS);
  EXPECT_EQ(ev.type, CqEventType::kSmsg);
  EXPECT_EQ(ev.source_inst, 0);

  void* data = nullptr;
  std::uint8_t tag = 0;
  ASSERT_EQ(GNI_SmsgGetNextWTag(ep10_, &data, &tag), GNI_RC_SUCCESS);
  EXPECT_EQ(tag, 7);
  EXPECT_EQ(std::memcmp(data, "hello gemini", 12), 0);
  EXPECT_EQ(GNI_SmsgRelease(ep10_), GNI_RC_SUCCESS);
}

TEST_F(UgniFixture, SmsgPreservesFifoOrderPerChannel) {
  for (int i = 0; i < 5; ++i) {
    std::string msg = "msg" + std::to_string(i);
    ASSERT_EQ(send01(msg, static_cast<std::uint8_t>(i)), GNI_RC_SUCCESS);
  }
  sim::ScopedContext guard(*ctx_[1]);
  ctx_[1]->wait_until(10'000'000);
  for (int i = 0; i < 5; ++i) {
    void* data = nullptr;
    std::uint8_t tag = 0;
    ASSERT_EQ(GNI_SmsgGetNextWTag(ep10_, &data, &tag), GNI_RC_SUCCESS);
    EXPECT_EQ(tag, i);
    ASSERT_EQ(GNI_SmsgRelease(ep10_), GNI_RC_SUCCESS);
  }
}

TEST_F(UgniFixture, SmsgRunsOutOfCreditsThenRecoversAfterRelease) {
  // Default mailbox has 8 credits.
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(send01("x", 0), GNI_RC_SUCCESS) << i;
  }
  EXPECT_EQ(send01("x", 0), GNI_RC_NOT_DONE);

  // Receiver drains one message; credit flows back to the sender.
  {
    sim::ScopedContext guard(*ctx_[1]);
    ctx_[1]->wait_until(10'000'000);
    void* data = nullptr;
    std::uint8_t tag = 0;
    gni_cq_entry_t ev;
    ASSERT_EQ(GNI_CqGetEvent(rx_cq_[1], &ev), GNI_RC_SUCCESS);
    ASSERT_EQ(GNI_SmsgGetNextWTag(ep10_, &data, &tag), GNI_RC_SUCCESS);
    ASSERT_EQ(GNI_SmsgRelease(ep10_), GNI_RC_SUCCESS);
  }
  engine_.run();  // deliver the credit-return event
  ctx_[0]->wait_until(engine_.now());
  EXPECT_EQ(send01("x", 0), GNI_RC_SUCCESS);
}

TEST_F(UgniFixture, SmsgRejectsOversizedMessages) {
  std::string big(2048, 'a');
  EXPECT_EQ(send01(big, 0), GNI_RC_SIZE_ERROR);
}

TEST_F(UgniFixture, SmsgReleaseWithoutGetIsInvalid) {
  ASSERT_EQ(send01("x", 0), GNI_RC_SUCCESS);
  sim::ScopedContext guard(*ctx_[1]);
  ctx_[1]->wait_until(10'000'000);
  EXPECT_EQ(GNI_SmsgRelease(ep10_), GNI_RC_INVALID_STATE);
}

// Both sides' GNI_SmsgInit must describe the same channel.  A pair whose
// attributes disagree in one field never links, and sends either way fail
// with INVALID_STATE; the pair built with the same attributes links.
TEST(SmsgAttrAgreement, MismatchedAttributesFailTheFirstSend) {
  auto attr = [](std::uint32_t maxsize, std::uint32_t credits) {
    gni_smsg_attr_t a;
    a.msg_maxsize = maxsize;
    a.mbox_maxcredit = credits;
    return a;
  };
  // ep 1 -> 0 is told of a mailbox `told`; ep 0 builds (64, 8).
  auto send_both_ways = [&attr](const gni_smsg_attr_t& told) {
    sim::Engine engine;
    gemini::Network net(engine.scheduler(), topo::Torus3D::for_nodes(2),
                        gemini::MachineConfig{});
    Domain dom(net);
    sim::Context ctx(engine.scheduler(), 0);
    sim::ScopedContext g(ctx);
    gni_nic_handle_t nic[2] = {};
    gni_cq_handle_t rx[2] = {}, tx[2] = {};
    gni_ep_handle_t ep[2] = {};
    for (int i = 0; i < 2; ++i) {
      EXPECT_EQ(GNI_CdmAttach(&dom, i, i, &nic[i]), GNI_RC_SUCCESS);
      EXPECT_EQ(GNI_CqCreate(nic[i], 64, &rx[i]), GNI_RC_SUCCESS);
      EXPECT_EQ(GNI_CqCreate(nic[i], 64, &tx[i]), GNI_RC_SUCCESS);
      nic[i]->set_smsg_rx_cq(rx[i]);
      EXPECT_EQ(GNI_EpCreate(nic[i], tx[i], &ep[i]), GNI_RC_SUCCESS);
      EXPECT_EQ(GNI_EpBind(ep[i], 1 - i), GNI_RC_SUCCESS);
    }
    const gni_smsg_attr_t other = attr(128, 4);
    EXPECT_EQ(GNI_SmsgInit(ep[0], attr(64, 8), other), GNI_RC_SUCCESS);
    EXPECT_EQ(GNI_SmsgInit(ep[1], other, told), GNI_RC_SUCCESS);
    const std::uint8_t byte = 1;
    std::vector<gni_return_t> rc;
    for (int i = 0; i < 2; ++i) {
      rc.push_back(GNI_SmsgSendWTag(ep[i], &byte, 1, nullptr, 0, 0, 1));
    }
    EXPECT_EQ(ep[0]->reverse(), rc[0] == GNI_RC_SUCCESS ? ep[1] : nullptr);
    return rc;
  };
  const std::vector<gni_return_t> ok = {GNI_RC_SUCCESS, GNI_RC_SUCCESS};
  const std::vector<gni_return_t> bad = {GNI_RC_INVALID_STATE,
                                         GNI_RC_INVALID_STATE};
  EXPECT_EQ(send_both_ways(attr(64, 8)), ok);
  EXPECT_EQ(send_both_ways(attr(64, 16)), bad);  // mbox_maxcredit
  EXPECT_EQ(send_both_ways(attr(64, 4)), bad);
  EXPECT_EQ(send_both_ways(attr(1024, 8)), bad);  // msg_maxsize
  EXPECT_EQ(send_both_ways(attr(32, 8)), bad);
  // The same mailbox bytes from other attributes still disagree.
  EXPECT_EQ(send_both_ways(attr(16, 20)), bad);  // 20 * 32 == 8 * 80
}

TEST_F(UgniFixture, MailboxMemoryGrowsLinearlyWithPeers) {
  // Each SmsgInit commits credits * (maxsize + header) bytes: the SMSG
  // scalability problem the paper contrasts with MSGQ.
  std::uint64_t before = nic_[0]->mailbox_bytes();
  EXPECT_GT(before, 0u);
  gni_ep_handle_t extra = nullptr;
  gni_nic_handle_t nic2 = nullptr;
  {
    sim::ScopedContext guard(*ctx_[0]);
    ASSERT_EQ(GNI_CdmAttach(dom_.get(), 2, 2, &nic2), GNI_RC_SUCCESS);
    ASSERT_EQ(GNI_EpCreate(nic_[0], tx_cq_[0], &extra), GNI_RC_SUCCESS);
    ASSERT_EQ(GNI_EpBind(extra, 2), GNI_RC_SUCCESS);
    gni_smsg_attr_t attr;
    ASSERT_EQ(GNI_SmsgInit(extra, attr, attr), GNI_RC_SUCCESS);
  }
  EXPECT_EQ(nic_[0]->mailbox_bytes(), 2 * before);
}

// ----------------------------------------------------- memory handles ----

TEST_F(UgniFixture, RegisterValidatesAndDeregisterInvalidates) {
  sim::ScopedContext guard(*ctx_[0]);
  std::vector<std::uint8_t> buf(4096);
  gni_mem_handle_t h;
  ASSERT_EQ(GNI_MemRegister(nic_[0],
                            reinterpret_cast<std::uint64_t>(buf.data()),
                            buf.size(), nullptr, 0, &h),
            GNI_RC_SUCCESS);
  EXPECT_EQ(nic_[0]->active_regions(), 1u);
  EXPECT_GE(nic_[0]->registered_bytes(), 4096u);
  ASSERT_EQ(GNI_MemDeregister(nic_[0], &h), GNI_RC_SUCCESS);
  EXPECT_EQ(nic_[0]->active_regions(), 0u);
  // Handle is now zeroed; a second deregister fails.
  EXPECT_EQ(GNI_MemDeregister(nic_[0], &h), GNI_RC_INVALID_PARAM);
}

TEST_F(UgniFixture, RegistrationCostGrowsWithSize) {
  sim::ScopedContext guard(*ctx_[0]);
  std::vector<std::uint8_t> small(4096), big(1 << 20);
  gni_mem_handle_t h1, h2;
  SimTime t0 = ctx_[0]->now();
  ASSERT_EQ(GNI_MemRegister(nic_[0],
                            reinterpret_cast<std::uint64_t>(small.data()),
                            small.size(), nullptr, 0, &h1),
            GNI_RC_SUCCESS);
  SimTime small_cost = ctx_[0]->now() - t0;
  t0 = ctx_[0]->now();
  ASSERT_EQ(GNI_MemRegister(nic_[0],
                            reinterpret_cast<std::uint64_t>(big.data()),
                            big.size(), nullptr, 0, &h2),
            GNI_RC_SUCCESS);
  SimTime big_cost = ctx_[0]->now() - t0;
  EXPECT_GT(big_cost, 10 * small_cost);
}

// ------------------------------------------------------------ FMA/RDMA ----

class UgniRdmaFixture : public UgniFixture {
 protected:
  void SetUp() override {
    UgniFixture::SetUp();
    src_.resize(kLen);
    dst_.resize(kLen);
    for (std::size_t i = 0; i < kLen; ++i) {
      src_[i] = static_cast<std::uint8_t>(i * 31 + 7);
    }
    sim::ScopedContext g0(*ctx_[0]);
    ASSERT_EQ(GNI_MemRegister(nic_[0],
                              reinterpret_cast<std::uint64_t>(src_.data()),
                              kLen, nullptr, 0, &src_h_),
              GNI_RC_SUCCESS);
    sim::ScopedContext g1(*ctx_[1]);
    ASSERT_EQ(GNI_MemRegister(nic_[1],
                              reinterpret_cast<std::uint64_t>(dst_.data()),
                              kLen, rx_cq_[1], 0, &dst_h_),
              GNI_RC_SUCCESS);
  }

  gni_post_descriptor_t make_put() {
    gni_post_descriptor_t d;
    d.type = GNI_POST_RDMA_PUT;
    d.local_addr = reinterpret_cast<std::uint64_t>(src_.data());
    d.local_mem_hndl = src_h_;
    d.remote_addr = reinterpret_cast<std::uint64_t>(dst_.data());
    d.remote_mem_hndl = dst_h_;
    d.length = kLen;
    return d;
  }

  static constexpr std::size_t kLen = 32768;
  std::vector<std::uint8_t> src_, dst_;
  gni_mem_handle_t src_h_{}, dst_h_{};
};

TEST_F(UgniRdmaFixture, RdmaPutMovesDataAndCompletesLocally) {
  gni_post_descriptor_t d = make_put();
  d.post_id = 4242;
  {
    sim::ScopedContext guard(*ctx_[0]);
    ASSERT_EQ(GNI_PostRdma(ep01_, &d), GNI_RC_SUCCESS);
  }
  EXPECT_EQ(std::memcmp(src_.data(), dst_.data(), kLen), 0);

  sim::ScopedContext guard(*ctx_[0]);
  ctx_[0]->wait_until(100'000'000);
  gni_cq_entry_t ev;
  ASSERT_EQ(GNI_CqGetEvent(tx_cq_[0], &ev), GNI_RC_SUCCESS);
  EXPECT_EQ(ev.type, CqEventType::kPostLocal);
  gni_post_descriptor_t* done = nullptr;
  ASSERT_EQ(GNI_GetCompleted(tx_cq_[0], ev, &done), GNI_RC_SUCCESS);
  EXPECT_EQ(done, &d);
  EXPECT_EQ(done->post_id, 4242u);
}

TEST_F(UgniRdmaFixture, RemoteEventDeliveredToDstCq) {
  gni_post_descriptor_t d = make_put();
  d.cq_mode = GNI_CQMODE_LOCAL_EVENT | GNI_CQMODE_REMOTE_EVENT;
  d.post_id = 99;
  {
    sim::ScopedContext guard(*ctx_[0]);
    ASSERT_EQ(GNI_PostRdma(ep01_, &d), GNI_RC_SUCCESS);
  }
  sim::ScopedContext guard(*ctx_[1]);
  ctx_[1]->wait_until(100'000'000);
  gni_cq_entry_t ev;
  ASSERT_EQ(GNI_CqGetEvent(rx_cq_[1], &ev), GNI_RC_SUCCESS);
  EXPECT_EQ(ev.type, CqEventType::kPostRemote);
  EXPECT_EQ(ev.data, 99u);
  EXPECT_EQ(ev.source_inst, 0);
}

TEST_F(UgniRdmaFixture, FmaGetPullsRemoteData) {
  gni_post_descriptor_t d;
  d.type = GNI_POST_FMA_GET;
  // Initiator is NIC 1: pulls from src_ (on 0) into dst_ (on 1).
  d.local_addr = reinterpret_cast<std::uint64_t>(dst_.data());
  d.local_mem_hndl = dst_h_;
  d.remote_addr = reinterpret_cast<std::uint64_t>(src_.data());
  d.remote_mem_hndl = src_h_;
  d.length = 1024;
  sim::ScopedContext guard(*ctx_[1]);
  ASSERT_EQ(GNI_PostFma(ep10_, &d), GNI_RC_SUCCESS);
  EXPECT_EQ(std::memcmp(dst_.data(), src_.data(), 1024), 0);
}

TEST_F(UgniRdmaFixture, PostRejectsUnregisteredMemory) {
  std::vector<std::uint8_t> rogue(kLen);
  gni_post_descriptor_t d = make_put();
  d.local_addr = reinterpret_cast<std::uint64_t>(rogue.data());
  sim::ScopedContext guard(*ctx_[0]);
  EXPECT_EQ(GNI_PostRdma(ep01_, &d), GNI_RC_PERMISSION_ERROR);
}

TEST_F(UgniRdmaFixture, PostRejectsStaleHandleAfterDeregister) {
  {
    sim::ScopedContext guard(*ctx_[1]);
    gni_mem_handle_t copy = dst_h_;
    ASSERT_EQ(GNI_MemDeregister(nic_[1], &copy), GNI_RC_SUCCESS);
  }
  gni_post_descriptor_t d = make_put();
  sim::ScopedContext guard(*ctx_[0]);
  EXPECT_EQ(GNI_PostRdma(ep01_, &d), GNI_RC_PERMISSION_ERROR);
}

TEST_F(UgniRdmaFixture, PostRejectsOutOfRangeWindow) {
  gni_post_descriptor_t d = make_put();
  d.remote_addr += kLen - 8;  // runs past the registered region
  d.length = 64;
  d.local_addr = reinterpret_cast<std::uint64_t>(src_.data());
  sim::ScopedContext guard(*ctx_[0]);
  EXPECT_EQ(GNI_PostRdma(ep01_, &d), GNI_RC_PERMISSION_ERROR);
}

TEST_F(UgniRdmaFixture, MismatchedPostFunctionAndTypeFails) {
  gni_post_descriptor_t d = make_put();  // RDMA type
  sim::ScopedContext guard(*ctx_[0]);
  EXPECT_EQ(GNI_PostFma(ep01_, &d), GNI_RC_INVALID_PARAM);
  d.type = GNI_POST_FMA_PUT;
  EXPECT_EQ(GNI_PostRdma(ep01_, &d), GNI_RC_INVALID_PARAM);
}

// ----------------------------------------------------------------- AMO ----

TEST_F(UgniRdmaFixture, AmoFetchAddAndCswap) {
  alignas(8) std::uint64_t counter = 10;
  alignas(8) std::uint64_t fetched = 0;
  gni_mem_handle_t ch;
  sim::ScopedContext guard(*ctx_[0]);
  // Register the counter on NIC 1's side (it lives in shared sim memory).
  {
    sim::ScopedContext g1(*ctx_[1]);
    ASSERT_EQ(GNI_MemRegister(nic_[1],
                              reinterpret_cast<std::uint64_t>(&counter), 8,
                              nullptr, 0, &ch),
              GNI_RC_SUCCESS);
  }
  gni_post_descriptor_t d;
  d.type = GNI_POST_AMO;
  d.amo_cmd = GNI_FMA_ATOMIC_FADD;
  d.remote_addr = reinterpret_cast<std::uint64_t>(&counter);
  d.remote_mem_hndl = ch;
  d.local_addr = reinterpret_cast<std::uint64_t>(&fetched);
  d.length = 8;
  d.first_operand = 5;
  ASSERT_EQ(GNI_PostFma(ep01_, &d), GNI_RC_SUCCESS);
  EXPECT_EQ(counter, 15u);
  EXPECT_EQ(fetched, 10u);

  d.amo_cmd = GNI_FMA_ATOMIC_CSWAP;
  d.first_operand = 15;  // expected
  d.second_operand = 77;
  ASSERT_EQ(GNI_PostFma(ep01_, &d), GNI_RC_SUCCESS);
  EXPECT_EQ(counter, 77u);
  EXPECT_EQ(fetched, 15u);

  // AMO via PostRdma is illegal.
  EXPECT_EQ(GNI_PostRdma(ep01_, &d), GNI_RC_ILLEGAL_OP);
}

// ------------------------------------------------------------- domain ----

TEST_F(UgniFixture, DomainLookupAndDuplicateInstRejected) {
  EXPECT_EQ(dom_->nic_by_inst(0), nic_[0]);
  EXPECT_EQ(dom_->nic_by_inst(1), nic_[1]);
  EXPECT_EQ(dom_->nic_by_inst(42), nullptr);
  gni_nic_handle_t dup = nullptr;
  sim::ScopedContext guard(*ctx_[0]);
  EXPECT_EQ(GNI_CdmAttach(dom_.get(), 0, 0, &dup), GNI_RC_INVALID_STATE);
  EXPECT_EQ(GNI_CdmAttach(dom_.get(), 5, 999, &dup), GNI_RC_INVALID_PARAM);
}

TEST_F(UgniFixture, CqOverrunSetsErrorState) {
  sim::ScopedContext guard(*ctx_[0]);
  gni_cq_handle_t tiny = nullptr;
  ASSERT_EQ(GNI_CqCreate(nic_[1], 2, &tiny), GNI_RC_SUCCESS);
  nic_[1]->set_smsg_rx_cq(tiny);
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(send01("x", 0), GNI_RC_SUCCESS);
  }
  sim::ScopedContext g1(*ctx_[1]);
  ctx_[1]->wait_until(10'000'000);
  gni_cq_entry_t ev;
  EXPECT_EQ(GNI_CqGetEvent(tiny, &ev), GNI_RC_ERROR_RESOURCE);
  EXPECT_TRUE(tiny->overrun());
}

}  // namespace
}  // namespace ugnirt::ugni
