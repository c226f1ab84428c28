// Property-style tests of the uGNI emulation: randomized transaction
// streams across several NICs must preserve data, ordering guarantees, and
// accounting invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <vector>

#include "sim/context.hpp"
#include "sim/engine.hpp"
#include "ugni/ugni.hpp"
#include "util/rng.hpp"

namespace ugnirt::ugni {
namespace {

class UgniPropertyFixture : public ::testing::Test {
 protected:
  static constexpr int kNics = 4;

  void SetUp() override {
    net_ = std::make_unique<gemini::Network>(
        engine_.scheduler(), topo::Torus3D::for_nodes(8), gemini::MachineConfig{});
    dom_ = std::make_unique<Domain>(*net_);
    for (int i = 0; i < kNics; ++i) {
      ctx_.push_back(std::make_unique<sim::Context>(engine_.scheduler(), i));
      sim::ScopedContext g(*ctx_.back());
      ASSERT_EQ(GNI_CdmAttach(dom_.get(), i, i % 4, &nic_[i]),
                GNI_RC_SUCCESS);
      ASSERT_EQ(GNI_CqCreate(nic_[i], 1 << 14, &rx_[i]), GNI_RC_SUCCESS);
      ASSERT_EQ(GNI_CqCreate(nic_[i], 1 << 14, &tx_[i]), GNI_RC_SUCCESS);
      nic_[i]->set_smsg_rx_cq(rx_[i]);
    }
    for (int a = 0; a < kNics; ++a) {
      for (int b = 0; b < kNics; ++b) {
        if (a == b) continue;
        sim::ScopedContext g(*ctx_[static_cast<std::size_t>(a)]);
        ASSERT_EQ(GNI_EpCreate(nic_[a], tx_[a], &ep_[a][b]), GNI_RC_SUCCESS);
        ASSERT_EQ(GNI_EpBind(ep_[a][b], b), GNI_RC_SUCCESS);
        gni_smsg_attr_t attr;
        attr.mbox_maxcredit = 64;
        ASSERT_EQ(GNI_SmsgInit(ep_[a][b], attr, attr), GNI_RC_SUCCESS);
      }
    }
  }

  sim::Context& ctx(int i) { return *ctx_[static_cast<std::size_t>(i)]; }

  sim::Engine engine_;
  std::unique_ptr<gemini::Network> net_;
  std::unique_ptr<Domain> dom_;
  std::vector<std::unique_ptr<sim::Context>> ctx_;
  gni_nic_handle_t nic_[kNics] = {};
  gni_cq_handle_t rx_[kNics] = {}, tx_[kNics] = {};
  gni_ep_handle_t ep_[kNics][kNics] = {};
};

TEST_F(UgniPropertyFixture, RandomSmsgStreamsArriveIntactAndFifoPerPair) {
  Rng rng(4242);
  std::map<std::pair<int, int>, std::vector<std::uint32_t>> sent;
  // Senders fire random tagged sequence numbers at random peers.
  for (int round = 0; round < 200; ++round) {
    int from = static_cast<int>(rng.next_below(kNics));
    int to = static_cast<int>(rng.next_below(kNics));
    if (from == to) continue;
    sim::ScopedContext g(ctx(from));
    std::uint32_t payload[2] = {static_cast<std::uint32_t>(round),
                                rng.next_u64() ? 0xABCD0000u + static_cast<std::uint32_t>(round) : 0u};
    gni_return_t rc = GNI_SmsgSendWTag(ep_[from][to], payload,
                                       sizeof(payload), nullptr, 0, 0, 3);
    if (rc == GNI_RC_NOT_DONE) continue;  // out of credits: skip
    ASSERT_EQ(rc, GNI_RC_SUCCESS);
    sent[{from, to}].push_back(payload[0]);
  }
  engine_.run();
  // Drain every receiver and check per-pair FIFO of sequence numbers.
  std::map<std::pair<int, int>, std::vector<std::uint32_t>> got;
  for (int to = 0; to < kNics; ++to) {
    sim::ScopedContext g(ctx(to));
    ctx(to).wait_until(engine_.now() + 1'000'000'000);
    for (;;) {
      gni_cq_entry_t ev;
      if (GNI_CqGetEvent(rx_[to], &ev) != GNI_RC_SUCCESS) break;
      ASSERT_EQ(ev.type, CqEventType::kSmsg);
      void* data = nullptr;
      std::uint8_t tag = 0;
      ASSERT_EQ(GNI_SmsgGetNextWTag(ep_[to][ev.source_inst], &data, &tag),
                GNI_RC_SUCCESS);
      EXPECT_EQ(tag, 3);
      std::uint32_t seq;
      std::memcpy(&seq, data, sizeof(seq));
      got[{ev.source_inst, to}].push_back(seq);
      ASSERT_EQ(GNI_SmsgRelease(ep_[to][ev.source_inst]), GNI_RC_SUCCESS);
    }
  }
  EXPECT_EQ(got, sent);
}

TEST_F(UgniPropertyFixture, RandomRdmaMatrixMovesExactBytes) {
  Rng rng(99);
  constexpr std::size_t kRegion = 1 << 16;
  std::vector<std::vector<std::uint8_t>> mem(kNics);
  gni_mem_handle_t hndl[kNics];
  for (int i = 0; i < kNics; ++i) {
    mem[static_cast<std::size_t>(i)].resize(kRegion);
    for (std::size_t b = 0; b < kRegion; ++b) {
      mem[static_cast<std::size_t>(i)][b] =
          static_cast<std::uint8_t>(rng.next_below(256));
    }
    sim::ScopedContext g(ctx(i));
    ASSERT_EQ(
        GNI_MemRegister(nic_[i],
                        reinterpret_cast<std::uint64_t>(
                            mem[static_cast<std::size_t>(i)].data()),
                        kRegion, rx_[i], 0, &hndl[i]),
        GNI_RC_SUCCESS);
  }
  // Shadow model of every region.
  auto shadow = mem;

  for (int round = 0; round < 120; ++round) {
    int from = static_cast<int>(rng.next_below(kNics));
    int to = static_cast<int>(rng.next_below(kNics));
    if (from == to) continue;
    bool is_get = rng.next_below(2) == 0;
    bool is_bte = rng.next_below(2) == 0;
    std::uint32_t len = 8u << rng.next_below(10);  // 8 B .. 4 KiB
    std::uint32_t loff = rng.next_below(kRegion - len);
    std::uint32_t roff = rng.next_below(kRegion - len);

    gni_post_descriptor_t d;
    d.type = is_get ? (is_bte ? GNI_POST_RDMA_GET : GNI_POST_FMA_GET)
                    : (is_bte ? GNI_POST_RDMA_PUT : GNI_POST_FMA_PUT);
    d.local_addr = reinterpret_cast<std::uint64_t>(
        mem[static_cast<std::size_t>(from)].data() + loff);
    d.local_mem_hndl = hndl[from];
    d.remote_addr = reinterpret_cast<std::uint64_t>(
        mem[static_cast<std::size_t>(to)].data() + roff);
    d.remote_mem_hndl = hndl[to];
    d.length = len;
    sim::ScopedContext g(ctx(from));
    ASSERT_EQ(is_bte ? GNI_PostRdma(ep_[from][to], &d)
                     : GNI_PostFma(ep_[from][to], &d),
              GNI_RC_SUCCESS);
    // Mirror in the shadow model.
    auto& lmem = shadow[static_cast<std::size_t>(from)];
    auto& rmem = shadow[static_cast<std::size_t>(to)];
    if (is_get) {
      std::memcpy(lmem.data() + loff, rmem.data() + roff, len);
    } else {
      std::memcpy(rmem.data() + roff, lmem.data() + loff, len);
    }
    // Drain local completion.
    gni_cq_entry_t ev;
    ASSERT_EQ(GNI_CqWaitEvent(tx_[from], &ev), GNI_RC_SUCCESS);
    gni_post_descriptor_t* done = nullptr;
    ASSERT_EQ(GNI_GetCompleted(tx_[from], ev, &done), GNI_RC_SUCCESS);
    ASSERT_EQ(done, &d);
  }
  for (int i = 0; i < kNics; ++i) {
    EXPECT_EQ(mem[static_cast<std::size_t>(i)],
              shadow[static_cast<std::size_t>(i)])
        << "region " << i << " diverged";
  }
}

TEST_F(UgniPropertyFixture, RegistrationAccountingNeverLeaks) {
  Rng rng(7);
  std::vector<std::pair<gni_mem_handle_t, std::size_t>> live;
  std::vector<std::vector<std::uint8_t>> buffers;
  buffers.reserve(200);
  sim::ScopedContext g(ctx(0));
  std::uint64_t expected_bytes = 0;
  for (int round = 0; round < 200; ++round) {
    if (live.empty() || rng.next_below(2) == 0) {
      std::size_t len = 256u << rng.next_below(8);
      buffers.emplace_back(len);
      gni_mem_handle_t h;
      ASSERT_EQ(GNI_MemRegister(
                    nic_[0],
                    reinterpret_cast<std::uint64_t>(buffers.back().data()),
                    len, nullptr, 0, &h),
                GNI_RC_SUCCESS);
      live.emplace_back(h, len);
      expected_bytes += len;
    } else {
      std::size_t idx = rng.next_below(static_cast<std::uint32_t>(live.size()));
      ASSERT_EQ(GNI_MemDeregister(nic_[0], &live[idx].first),
                GNI_RC_SUCCESS);
      expected_bytes -= live[idx].second;
      live[idx] = live.back();
      live.pop_back();
    }
    ASSERT_EQ(nic_[0]->registered_bytes(), expected_bytes);
    ASSERT_EQ(nic_[0]->active_regions(), live.size());
  }
}

TEST_F(UgniPropertyFixture, CqWaitEventReturnsNotDoneOnSilence) {
  sim::ScopedContext g(ctx(0));
  gni_cq_entry_t ev;
  EXPECT_EQ(GNI_CqWaitEvent(rx_[0], &ev), GNI_RC_NOT_DONE);
}

TEST_F(UgniPropertyFixture, ApiParameterValidation) {
  sim::ScopedContext g(ctx(0));
  gni_cq_entry_t ev;
  EXPECT_EQ(GNI_CqGetEvent(nullptr, &ev), GNI_RC_INVALID_PARAM);
  EXPECT_EQ(GNI_CqGetEvent(rx_[0], nullptr), GNI_RC_INVALID_PARAM);
  gni_mem_handle_t h;
  EXPECT_EQ(GNI_MemRegister(nic_[0], 0, 100, nullptr, 0, &h),
            GNI_RC_INVALID_PARAM);
  std::uint8_t buf[8];
  EXPECT_EQ(GNI_MemRegister(nic_[0], reinterpret_cast<std::uint64_t>(buf), 0,
                            nullptr, 0, &h),
            GNI_RC_INVALID_PARAM);
  EXPECT_EQ(GNI_EpBind(ep_[0][1], 2), GNI_RC_INVALID_STATE);  // re-bind
  gni_smsg_attr_t attr;
  EXPECT_EQ(GNI_SmsgInit(ep_[0][1], attr, attr), GNI_RC_INVALID_STATE);
  EXPECT_EQ(gni_err_str(GNI_RC_NOT_DONE), std::string("GNI_RC_NOT_DONE"));
  EXPECT_EQ(gni_err_str(GNI_RC_PERMISSION_ERROR),
            std::string("GNI_RC_PERMISSION_ERROR"));
}

TEST_F(UgniPropertyFixture, DomainAggregatesMailboxMemory) {
  std::uint64_t total = dom_->total_mailbox_bytes();
  // 4 NICs x 3 peers each = 12 mailboxes committed at SetUp.
  EXPECT_GT(total, 0u);
  std::uint64_t per = nic_[0]->mailbox_bytes();
  EXPECT_EQ(total, per * kNics);
}

/// Every live (peer, endpoint index) pair the table's iteration yields.
std::map<std::int32_t, std::uint32_t> contents(const PeerTable& t) {
  std::map<std::int32_t, std::uint32_t> out;
  t.for_each([&](std::int32_t peer, std::uint32_t ep) {
    EXPECT_TRUE(out.emplace(peer, ep).second) << "peer " << peer << " twice";
  });
  return out;
}

// Seeded insert/erase/find churn against a std::map oracle.  The key set
// mixes a dense id range (long probe runs, the common machine-layer case)
// with power-of-two strides (ids that collide under a plain mask), and the
// phases grow the table from empty through several doublings, then erase
// it back down so backward-shift erase runs over wrapped, clustered runs.
TEST(PeerTableProperty, MatchesMapOracleUnderSeededChurn) {
  std::vector<std::int32_t> keys;
  for (std::int32_t k = 0; k < 300; ++k) keys.push_back(k);
  for (std::int32_t k = 1; k <= 200; ++k) keys.push_back(k * 4096);
  // Slab indices as an endpoint slot holds them: small ones and ones that
  // use the top bits (the slot must keep all 32).
  const std::uint32_t eps[] = {0,     1,         2,          3,
                               7,     1023,      1024,       1025,
                               65535, 65536,     1u << 20,   (1u << 24) + 5,
                               1u << 31, 0x7fffffffu, 0xfffffff0u, kNoEp - 1};

  PeerTable table;
  EXPECT_EQ(table.capacity(), 0u);  // no storage before the first insert
  EXPECT_EQ(table.find(0), kNoEp);
  EXPECT_EQ(table.erase(0), kNoEp);

  std::map<std::int32_t, std::uint32_t> oracle;
  Rng rng(20120521);
  constexpr int kSteps = 30000;
  std::size_t peak = 0;
  for (int step = 0; step < kSteps; ++step) {
    // Insert-heavy, balanced, then erase-heavy thirds.
    const std::uint32_t insert_pct = step < kSteps / 3       ? 75
                                     : step < 2 * kSteps / 3 ? 50
                                                             : 25;
    const std::int32_t key =
        keys[rng.next_below(static_cast<std::uint32_t>(keys.size()))];
    const auto it = oracle.find(key);
    const std::uint32_t before = it == oracle.end() ? kNoEp : it->second;
    const std::uint32_t op = rng.next_below(100);
    if (op < insert_pct) {
      const std::uint32_t ep =
          eps[rng.next_below(static_cast<std::uint32_t>(std::size(eps)))];
      ASSERT_EQ(table.insert(key, ep), before) << "insert " << key;
      oracle[key] = ep;
    } else if (op < insert_pct + 20) {
      ASSERT_EQ(table.find(key), before) << "find " << key;
    } else {
      ASSERT_EQ(table.erase(key), before) << "erase " << key;
      oracle.erase(key);
    }
    ASSERT_EQ(table.size(), oracle.size());
    ASSERT_LE(2 * table.size(), table.capacity());  // load factor <= 1/2
    peak = std::max(peak, table.size());
    if (step % 211 == 0) {
      ASSERT_EQ(contents(table), oracle) << "step " << step;
      for (std::int32_t k : keys) {
        const auto o = oracle.find(k);
        ASSERT_EQ(table.find(k), o == oracle.end() ? kNoEp : o->second)
            << "find " << k << " at step " << step;
      }
    }
  }
  EXPECT_GT(peak, 200u);  // grew through several doublings
  EXPECT_EQ(contents(table), oracle);

  // Drain completely: every erase must keep the rest reachable.
  while (!oracle.empty()) {
    const std::int32_t key = oracle.begin()->first;
    ASSERT_EQ(table.erase(key), oracle.begin()->second);
    oracle.erase(oracle.begin());
    for (const auto& [k, ep] : oracle) ASSERT_EQ(table.find(k), ep);
  }
  EXPECT_EQ(table.size(), 0u);
  EXPECT_TRUE(contents(table).empty());
}


// The domain's endpoint slab.  Seeded random pairs of 64 NICs connect
// lazily until the slab spans several chunks, and each new channel carries
// a message too large to stay inline, so mailboxes hold heap bytes.  Every
// endpoint keeps its address, slab index and reverse link while later
// chunks are added; an endpoint displaced by a re-bind or destroyed by
// GNI_EpDestroy stays readable (unlinked) until the domain dies; and the
// domain's destructor frees every endpoint with its mailbox (the ASan
// build's leak check fails the test on a miss).
TEST(EpSlabProperty, AddressesAndLinksSurviveGrowthAndTeardown) {
  constexpr int kNics = 64;
  sim::Engine engine;
  gemini::Network net(engine.scheduler(), topo::Torus3D::for_nodes(kNics),
                      gemini::MachineConfig{});
  auto dom = std::make_unique<Domain>(net);
  sim::Context ctx(engine.scheduler(), 0);
  sim::ScopedContext g(ctx);
  gni_nic_handle_t nic[kNics] = {};
  for (int i = 0; i < kNics; ++i) {
    ASSERT_EQ(GNI_CdmAttach(dom.get(), i, i, &nic[i]), GNI_RC_SUCCESS);
    gni_cq_handle_t rx = nullptr, tx = nullptr;
    ASSERT_EQ(GNI_CqCreate(nic[i], 1024, &rx), GNI_RC_SUCCESS);
    ASSERT_EQ(GNI_CqCreate(nic[i], 1024, &tx), GNI_RC_SUCCESS);
    nic[i]->set_smsg_rx_cq(rx);
    nic[i]->set_default_tx_cq(tx);
    gni_smsg_attr_t attr;
    attr.msg_maxsize = 256;
    attr.mbox_maxcredit = 4;
    nic[i]->set_smsg_attr(attr);
  }

  // What an endpoint must still read back after the slab has grown.
  struct Seen {
    Ep* ep;
    std::uint32_t index;
    Nic* nic;
    std::int32_t remote;
    Ep* reverse;
  };
  std::vector<Seen> seen;
  auto record = [&](Ep* ep) {
    seen.push_back({ep, ep->index(), ep->nic(), ep->remote_inst(),
                    ep->reverse()});
  };
  auto check_all = [&](const char* when) {
    for (const Seen& e : seen) {
      SCOPED_TRACE(when);
      ASSERT_EQ(dom->ep_at(e.index), e.ep) << "endpoint " << e.index;
      ASSERT_EQ(e.ep->index(), e.index);
      ASSERT_EQ(e.ep->nic(), e.nic);
      ASSERT_EQ(e.ep->remote_inst(), e.remote);
      ASSERT_EQ(e.ep->reverse(), e.reverse) << "endpoint " << e.index;
      if (e.reverse) {
        ASSERT_EQ(e.reverse->reverse(), e.ep);
      }
    }
  };

  std::vector<std::pair<int, int>> pairs;
  for (int a = 0; a < kNics; ++a) {
    for (int b = a + 1; b < kNics; ++b) pairs.emplace_back(a, b);
  }
  Rng rng(20260517);
  for (std::size_t i = pairs.size(); i > 1; --i) {
    std::swap(pairs[i - 1],
              pairs[rng.next_below(static_cast<std::uint32_t>(i))]);
  }

  std::uint8_t payload[200];
  for (std::size_t i = 0; i < sizeof(payload); ++i) {
    payload[i] = static_cast<std::uint8_t>(i);
  }
  std::size_t displaced = 0, destroyed = 0;
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    auto [a, b] = pairs[p];
    if (rng.next_below(2)) std::swap(a, b);
    Ep* fwd = nic[a]->get_or_connect(b);
    ASSERT_NE(fwd, nullptr);
    Ep* rev = nic[b]->ep_for_peer(a);
    ASSERT_NE(rev, nullptr);
    // The first send links the pair and spills its payload to the heap.
    ASSERT_EQ(GNI_SmsgSendWTag(fwd, payload, sizeof(payload), nullptr, 0, 0,
                               1),
              GNI_RC_SUCCESS);
    ASSERT_EQ(fwd->reverse(), rev);
    if (p % 11 == 3) {
      // Destroyed: unlinked on both sides, unbound, still readable.
      ASSERT_EQ(GNI_EpDestroy(rev), GNI_RC_SUCCESS);
      EXPECT_EQ(rev->remote_inst(), -1);
      EXPECT_EQ(nic[b]->ep_for_peer(a), nullptr);
      ++destroyed;
    } else if (p % 11 == 7) {
      // Displaced by a re-bind: the old endpoint keeps its peer id but is
      // no longer the NIC's endpoint for it, so neither side links to it.
      Ep* fresh = nullptr;
      ASSERT_EQ(GNI_EpCreate(nic[a], fwd->tx_cq(), &fresh), GNI_RC_SUCCESS);
      ASSERT_EQ(GNI_EpBind(fresh, b), GNI_RC_SUCCESS);
      EXPECT_EQ(nic[a]->ep_for_peer(b), fresh);
      EXPECT_EQ(fwd->remote_inst(), b);
      record(fresh);
      ++displaced;
    }
    record(fwd);
    record(rev);
    if (p == pairs.size() / 4) check_all("after the first quarter");
  }
  check_all("after every pair");
  EXPECT_GT(seen.back().index, 3 * Domain::kEpChunk);  // four chunks
  EXPECT_GT(displaced, 100u);
  EXPECT_GT(destroyed, 100u);
  for (int i = 0; i < kNics; ++i) {
    // Every NIC's live endpoints are the ones its table binds.
    EXPECT_EQ(nic[i]->connected_peers(),
              static_cast<std::size_t>(kNics - 1) -
                  static_cast<std::size_t>(std::count_if(
                      seen.begin(), seen.end(), [&](const Seen& e) {
                        return e.nic == nic[i] && e.remote == -1;
                      })));
  }
  dom.reset();  // frees every endpoint and its spilled mailbox bytes
}


// An endpoint keeps its mailbox geometry in narrowed fields: a ring of at
// most Ep::kMaxMailboxCredits messages of at most 4 GiB in all.
// GNI_SmsgInit rejects attributes those cannot hold, changing nothing, and
// accepts the limits themselves; a mailbox at the credit limit fills to it.
TEST(SmsgInitLimits, RejectsAttrsTheEndpointCannotHold) {
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
    ASSERT_EQ(GNI_CdmAttach(&dom, i, i, &nic[i]), GNI_RC_SUCCESS);
    ASSERT_EQ(GNI_CqCreate(nic[i], 1 << 16, &rx[i]), GNI_RC_SUCCESS);
    ASSERT_EQ(GNI_CqCreate(nic[i], 16, &tx[i]), GNI_RC_SUCCESS);
    nic[i]->set_smsg_rx_cq(rx[i]);
  }
  for (int i = 0; i < 2; ++i) {
    ASSERT_EQ(GNI_EpCreate(nic[i], tx[i], &ep[i]), GNI_RC_SUCCESS);
    ASSERT_EQ(GNI_EpBind(ep[i], 1 - i), GNI_RC_SUCCESS);
  }

  constexpr std::uint32_t kMax = Ep::kMaxMailboxCredits;
  static_assert(kMax == 32768);
  auto attr = [](std::uint32_t maxsize, std::uint32_t credits) {
    gni_smsg_attr_t a;
    a.msg_maxsize = maxsize;
    a.mbox_maxcredit = credits;
    return a;
  };
  const gni_smsg_attr_t ok = attr(8, kMax);
  EXPECT_EQ(GNI_SmsgInit(ep[0], attr(8, kMax + 1), ok), GNI_RC_INVALID_PARAM);
  EXPECT_EQ(GNI_SmsgInit(ep[0], ok, attr(8, kMax + 1)), GNI_RC_INVALID_PARAM);
  // (2^31 + 16) * 2 and (2^32 - 1 + 16) * 1 bytes: over 4 GiB.
  EXPECT_EQ(GNI_SmsgInit(ep[0], attr(1u << 31, 2), ok), GNI_RC_INVALID_PARAM);
  EXPECT_EQ(GNI_SmsgInit(ep[0], attr(UINT32_MAX, 1), ok),
            GNI_RC_INVALID_PARAM);
  EXPECT_EQ(nic[0]->mailbox_bytes(), 0u);
  EXPECT_EQ(dom.smsg_channels(), 0u);

  // The largest mailbox that fits: 32768 * (131055 + 16) = 2^32 - 32768.
  const gni_smsg_attr_t largest = attr(131055, kMax);
  ASSERT_EQ(GNI_SmsgInit(ep[0], largest, ok), GNI_RC_SUCCESS);
  EXPECT_EQ(nic[0]->mailbox_bytes(), 4294934528u);
  EXPECT_EQ(GNI_SmsgInit(ep[0], ok, ok), GNI_RC_INVALID_STATE);
  ASSERT_EQ(GNI_SmsgInit(ep[1], ok, largest), GNI_RC_SUCCESS);

  // kMax credits fill ep[0]'s ring to its capacity, and no further.
  const std::uint8_t byte = 5;
  for (std::uint32_t i = 0; i < kMax; ++i) {
    ASSERT_EQ(GNI_SmsgSendWTag(ep[1], &byte, 1, nullptr, 0, 0, 1),
              GNI_RC_SUCCESS)
        << "send " << i;
  }
  EXPECT_EQ(GNI_SmsgSendWTag(ep[1], &byte, 1, nullptr, 0, 0, 1),
            GNI_RC_NOT_DONE);
  ctx.wait_until(ctx.now() + 1'000'000'000);
  for (std::uint32_t i = 0; i < kMax; ++i) {
    void* data = nullptr;
    std::uint8_t tag = 0;
    ASSERT_EQ(GNI_SmsgGetNextWTag(ep[0], &data, &tag), GNI_RC_SUCCESS);
    ASSERT_EQ(*static_cast<std::uint8_t*>(data), byte);
    ASSERT_EQ(GNI_SmsgRelease(ep[0]), GNI_RC_SUCCESS);
  }
  void* data = nullptr;
  std::uint8_t tag = 0;
  EXPECT_EQ(GNI_SmsgGetNextWTag(ep[0], &data, &tag), GNI_RC_NOT_DONE);
}

}  // namespace
}  // namespace ugnirt::ugni
