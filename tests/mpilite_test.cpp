#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <new>
#include <vector>

#include "sim/engine.hpp"
#include "mpilite/mpilite.hpp"
#include "trace/metrics.hpp"

namespace ugnirt::mpilite {
namespace {

/// Driver fixture: 4 ranks, 2 per node (ranks 0,1 on node 0; 2,3 on node 1).
class MpiFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = std::make_unique<gemini::Network>(
        engine_.scheduler(), topo::Torus3D::for_nodes(4), gemini::MachineConfig{});
    comm_ = std::make_unique<MpiComm>(
        *net_, 4, [](int rank) { return rank / 2; }, metrics_);
    for (int r = 0; r < 4; ++r) {
      ctx_.push_back(std::make_unique<sim::Context>(engine_.scheduler(), r));
      sim::ScopedContext guard(*ctx_[static_cast<std::size_t>(r)]);
      comm_->init_rank(r);
    }
  }

  sim::Context& rank_ctx(int r) { return *ctx_[static_cast<std::size_t>(r)]; }

  /// A registry row the library counts into.
  std::uint64_t row(const char* name) { return metrics_.counter(name).value(); }

  /// Wait (in virtual time) until iprobe matches, then recv.
  void probe_recv(int rank, int src, int tag, void* buf, std::uint32_t max,
                  Status* st) {
    sim::ScopedContext guard(rank_ctx(rank));
    for (int spins = 0; spins < 10000; ++spins) {
      if (comm_->iprobe(rank, src, tag, st)) {
        comm_->recv(rank, st->source, st->tag, buf, max, st);
        return;
      }
      rank_ctx(rank).wait_until(rank_ctx(rank).now() + 1000);
    }
    FAIL() << "message never arrived";
  }

  sim::Engine engine_;
  std::unique_ptr<gemini::Network> net_;
  trace::MetricsRegistry metrics_;
  std::unique_ptr<MpiComm> comm_;
  std::vector<std::unique_ptr<sim::Context>> ctx_;
};

std::vector<std::uint8_t> pattern(std::uint32_t n, std::uint8_t seed) {
  std::vector<std::uint8_t> v(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>(i * 7 + seed);
  }
  return v;
}

TEST_F(MpiFixture, EagerE0RoundTripIntact) {
  auto data = pattern(100, 1);
  {
    sim::ScopedContext guard(rank_ctx(0));
    comm_->send(0, 2, 5, data.data(), 100);
  }
  std::vector<std::uint8_t> out(100);
  Status st;
  probe_recv(2, 0, 5, out.data(), 100, &st);
  EXPECT_EQ(st.source, 0);
  EXPECT_EQ(st.tag, 5);
  EXPECT_EQ(st.count, 100u);
  EXPECT_EQ(out, data);
  EXPECT_EQ(row("mpi.sends_e0"), 1u);
}

TEST_F(MpiFixture, EagerE1UsesBouncePool) {
  auto data = pattern(4096, 2);
  {
    sim::ScopedContext guard(rank_ctx(0));
    comm_->send(0, 2, 1, data.data(), 4096);
  }
  std::vector<std::uint8_t> out(4096);
  Status st;
  probe_recv(2, MPI_ANY_SOURCE, MPI_ANY_TAG, out.data(), 4096, &st);
  EXPECT_EQ(out, data);
  EXPECT_EQ(row("mpi.sends_e1"), 1u);
  EXPECT_EQ(row("mpi.udreg_misses"), 0u);  // eager never registers
}

TEST_F(MpiFixture, RendezvousTransfersAndBlocksReceiver) {
  auto data = pattern(262144, 3);
  Request req;
  {
    sim::ScopedContext guard(rank_ctx(0));
    comm_->isend(0, 2, 9, data.data(), 262144, &req);
    EXPECT_FALSE(req.done);  // rendezvous: buffer pinned until ACK
  }
  std::vector<std::uint8_t> out(262144);
  Status st;
  sim::ScopedContext guard(rank_ctx(2));
  // Wait for the RTS.
  while (!comm_->iprobe(2, 0, 9, &st)) {
    rank_ctx(2).wait_until(rank_ctx(2).now() + 1000);
  }
  SimTime before = rank_ctx(2).now();
  comm_->recv(2, 0, 9, out.data(), 262144, &st);
  SimTime blocked = rank_ctx(2).now() - before;
  EXPECT_EQ(out, data);
  // 256 KiB at ~6 GB/s is >40 us: the receiver really blocked.
  EXPECT_GT(blocked, microseconds(30.0));
  EXPECT_EQ(row("mpi.sends_rndv"), 1u);
  EXPECT_GT(row("mpi.udreg_misses"), 0u);

  // The ACK completes the sender's request once the sender's clock passes
  // the ACK arrival (the receiver's clock bounds it from above).
  engine_.run();
  sim::ScopedContext g0(rank_ctx(0));
  rank_ctx(0).wait_until(rank_ctx(2).now() + milliseconds(1.0));
  EXPECT_TRUE(comm_->test(0, &req));
}

TEST_F(MpiFixture, UdregCachesRepeatedBuffers) {
  auto data = pattern(262144, 4);
  std::vector<std::uint8_t> out(262144);
  for (int i = 0; i < 5; ++i) {
    Request req;
    {
      sim::ScopedContext guard(rank_ctx(0));
      comm_->isend(0, 2, 3, data.data(), 262144, &req);
    }
    Status st;
    probe_recv(2, 0, 3, out.data(), 262144, &st);
  }
  // Same send buffer and same recv buffer: 2 misses total, rest hits.
  EXPECT_EQ(row("mpi.udreg_misses"), 2u);
  EXPECT_EQ(row("mpi.udreg_hits"), 8u);
}

// Regression: the cache used to key on base ^ (end << 1) and took any key
// match as a hit.  With p 1 MiB aligned, the page ranges [p+0x30000,
// p+0x50000) and [p+0x50000, p+0x60000) share that key, so the second
// receive was counted as a hit on pages it had never registered.
TEST_F(MpiFixture, UdregHitNeedsExactPageRange) {
  constexpr std::size_t kAlign = 1u << 20;
  auto* send_buf = static_cast<std::uint8_t*>(
      ::operator new(2 * kAlign, std::align_val_t{kAlign}));
  auto* p = static_cast<std::uint8_t*>(
      ::operator new(2 * kAlign, std::align_val_t{kAlign}));
  Request req[2];  // the library completes them on ACK: keep them alive
  auto round = [&](int i, std::uint32_t offset, std::uint32_t bytes) {
    auto data = pattern(bytes, static_cast<std::uint8_t>(i));
    std::memcpy(send_buf, data.data(), bytes);
    {
      sim::ScopedContext guard(rank_ctx(0));
      comm_->isend(0, 2, 6, send_buf, bytes, &req[i]);
    }
    Status st;
    probe_recv(2, 0, 6, p + offset, bytes, &st);
    EXPECT_EQ(std::memcmp(p + offset, data.data(), bytes), 0);
  };
  round(0, 0x30000, 0x20000);  // receive pages [p+0x30000, p+0x50000)
  round(1, 0x50000, 0x10000);  // receive pages [p+0x50000, p+0x60000)
  // Two send ranges and two receive ranges, all distinct: four misses.
  EXPECT_EQ(row("mpi.udreg_misses"), 4u);
  EXPECT_EQ(row("mpi.udreg_hits"), 0u);
  ::operator delete(p, std::align_val_t{kAlign});
  ::operator delete(send_buf, std::align_val_t{kAlign});
}

TEST_F(MpiFixture, IntraNodeShmDoubleCopySmall) {
  auto data = pattern(1024, 5);
  {
    sim::ScopedContext guard(rank_ctx(0));
    comm_->send(0, 1, 2, data.data(), 1024);  // ranks 0,1 share node 0
  }
  std::vector<std::uint8_t> out(1024);
  Status st;
  probe_recv(1, 0, 2, out.data(), 1024, &st);
  EXPECT_EQ(out, data);
  // No NIC traffic for intra-node messages.
  EXPECT_EQ(net_->stats().transfers, 0u);
}

TEST_F(MpiFixture, IntraNodeXpmemSingleCopyLarge) {
  auto data = pattern(65536, 6);
  {
    sim::ScopedContext guard(rank_ctx(0));
    comm_->send(0, 1, 2, data.data(), 65536);
  }
  std::vector<std::uint8_t> out(65536);
  Status st;
  SimTime before;
  {
    sim::ScopedContext guard(rank_ctx(1));
    while (!comm_->iprobe(1, 0, 2, &st)) {
      rank_ctx(1).wait_until(rank_ctx(1).now() + 500);
    }
    before = rank_ctx(1).now();
    comm_->recv(1, 0, 2, out.data(), 65536, &st);
  }
  EXPECT_EQ(out, data);
  // Single copy: roughly one memcpy (16 us at 4 GB/s) plus XPMEM overhead,
  // well under two copies.
  SimTime cost = rank_ctx(1).now() - before;
  EXPECT_LT(cost, microseconds(16.0 + 2.8 + 8.0));
}

TEST_F(MpiFixture, TagAndSourceMatchingSelectsRightMessage) {
  auto a = pattern(64, 7);
  auto b = pattern(64, 8);
  {
    sim::ScopedContext guard(rank_ctx(0));
    comm_->send(0, 2, 1, a.data(), 64);
  }
  {
    sim::ScopedContext guard(rank_ctx(1));
    comm_->send(1, 2, 2, b.data(), 64);
  }
  std::vector<std::uint8_t> out(64);
  Status st;
  // Receive tag 2 first even though tag 1 arrived first.
  probe_recv(2, MPI_ANY_SOURCE, 2, out.data(), 64, &st);
  EXPECT_EQ(st.source, 1);
  EXPECT_EQ(out, b);
  probe_recv(2, MPI_ANY_SOURCE, 1, out.data(), 64, &st);
  EXPECT_EQ(st.source, 0);
  EXPECT_EQ(out, a);
}

TEST_F(MpiFixture, IprobeReturnsFalseWhenNothingMatches) {
  sim::ScopedContext guard(rank_ctx(3));
  Status st;
  EXPECT_FALSE(comm_->iprobe(3, MPI_ANY_SOURCE, MPI_ANY_TAG, &st));
  EXPECT_FALSE(comm_->has_pending(3));
}

TEST_F(MpiFixture, ManyMessagesPreserveOrderDespiteCreditStalls) {
  // 30 sends against 16 mailbox credits: the library's internal send queue
  // must kick in, and order must survive.  Interleave receiver progress
  // with sender progress the way two real processes would run.
  {
    sim::ScopedContext guard(rank_ctx(0));
    for (int i = 0; i < 30; ++i) {
      std::uint32_t v = static_cast<std::uint32_t>(i);
      comm_->send(0, 2, 4, &v, sizeof(v));
    }
    EXPECT_TRUE(comm_->has_send_backlog(0));
  }
  for (int i = 0; i < 30; ++i) {
    std::uint32_t v = 0;
    Status st;
    probe_recv(2, 0, 4, &v, sizeof(v), &st);
    EXPECT_EQ(v, static_cast<std::uint32_t>(i));
    // Let credit-return events fire, then give the sender a progress slice.
    engine_.run();
    sim::ScopedContext guard(rank_ctx(0));
    rank_ctx(0).wait_until(rank_ctx(2).now());
    comm_->advance(0);
  }
  EXPECT_FALSE(comm_->has_send_backlog(0));
}

}  // namespace
}  // namespace ugnirt::mpilite
