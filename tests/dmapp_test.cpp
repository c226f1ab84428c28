// DMAPP (PGAS-style one-sided API over the simulated Gemini) tests.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

#include "sim/context.hpp"
#include "sim/engine.hpp"
#include "ugni/dmapp.hpp"

namespace ugnirt::dmapp {
namespace {

class DmappFixture : public ::testing::Test {
 protected:
  static constexpr int kPes = 4;
  static constexpr std::uint64_t kHeap = 64 * 1024;

  void SetUp() override {
    net_ = std::make_unique<gemini::Network>(
        engine_.scheduler(), topo::Torus3D::for_nodes(4), gemini::MachineConfig{});
    dom_ = std::make_unique<ugni::Domain>(*net_);
    for (int i = 0; i < kPes; ++i) {
      ctx_.push_back(std::make_unique<sim::Context>(engine_.scheduler(), i));
    }
    sim::ScopedContext g(*ctx_[0]);
    job_ = std::make_unique<DmappJob>(*dom_, kPes, kHeap);
  }

  sim::Context& ctx(int i) { return *ctx_[static_cast<std::size_t>(i)]; }

  sim::Engine engine_;
  std::unique_ptr<gemini::Network> net_;
  std::unique_ptr<ugni::Domain> dom_;
  std::vector<std::unique_ptr<sim::Context>> ctx_;
  std::unique_ptr<DmappJob> job_;
};

TEST_F(DmappFixture, SymmetricMallocGivesSameOffsetEverywhere) {
  std::uint64_t a = 0, b = 0;
  EXPECT_EQ(job_->sheap_malloc(100, &a), DMAPP_RC_SUCCESS);
  EXPECT_EQ(job_->sheap_malloc(100, &b), DMAPP_RC_SUCCESS);
  EXPECT_NE(a, b);
  EXPECT_EQ(b % 16, 0u);  // aligned
  // Exhaustion reports NO_SPACE.
  std::uint64_t big = 0;
  EXPECT_EQ(job_->sheap_malloc(kHeap, &big), DMAPP_RC_NO_SPACE);
}

TEST_F(DmappFixture, BlockingPutGetRoundTrip) {
  std::uint64_t off = 0;
  ASSERT_EQ(job_->sheap_malloc(4096, &off), DMAPP_RC_SUCCESS);
  std::vector<std::uint8_t> src(4096), dst(4096);
  std::iota(src.begin(), src.end(), 1);

  sim::ScopedContext g(ctx(0));
  SimTime before = ctx(0).now();
  ASSERT_EQ(job_->put(0, 2, off, src.data(), src.size()), DMAPP_RC_SUCCESS);
  EXPECT_GT(ctx(0).now(), before);  // blocking put took time
  EXPECT_EQ(std::memcmp(job_->addr_of(2, off), src.data(), 4096), 0);

  ASSERT_EQ(job_->get(0, 2, off, dst.data(), dst.size()), DMAPP_RC_SUCCESS);
  EXPECT_EQ(dst, src);
}

TEST_F(DmappFixture, NbiPutsOverlapThenFence) {
  std::uint64_t off = 0;
  ASSERT_EQ(job_->sheap_malloc(1 << 20, &off), DMAPP_RC_NO_SPACE);
  ASSERT_EQ(job_->sheap_malloc(32 * 1024, &off), DMAPP_RC_SUCCESS);
  std::vector<std::uint8_t> chunk(16 * 1024, 0x5A);

  sim::ScopedContext g(ctx(1));
  SimTime t0 = ctx(1).now();
  ASSERT_EQ(job_->put_nbi(1, 3, off, chunk.data(), chunk.size()),
            DMAPP_RC_SUCCESS);
  ASSERT_EQ(job_->put_nbi(1, 2, off, chunk.data(), chunk.size()),
            DMAPP_RC_SUCCESS);
  SimTime after_posts = ctx(1).now() - t0;
  ASSERT_EQ(job_->gsync_wait(1), DMAPP_RC_SUCCESS);
  SimTime after_fence = ctx(1).now() - t0;
  // NBI initiation is cheaper than waiting for the data to land.
  EXPECT_GT(after_fence, after_posts);
  EXPECT_EQ(std::memcmp(job_->addr_of(3, off), chunk.data(), chunk.size()),
            0);
  EXPECT_EQ(std::memcmp(job_->addr_of(2, off), chunk.data(), chunk.size()),
            0);
}

TEST_F(DmappFixture, AtomicFetchAddSerializesCounters) {
  std::uint64_t off = 0;
  ASSERT_EQ(job_->sheap_malloc(8, &off), DMAPP_RC_SUCCESS);
  *reinterpret_cast<std::int64_t*>(job_->addr_of(0, off)) = 100;

  std::int64_t seen[3] = {};
  for (int pe = 1; pe < 4; ++pe) {
    sim::ScopedContext g(ctx(pe));
    ASSERT_EQ(job_->afadd_qw(pe, 0, off, 10, &seen[pe - 1]),
              DMAPP_RC_SUCCESS);
  }
  EXPECT_EQ(*reinterpret_cast<std::int64_t*>(job_->addr_of(0, off)), 130);
  EXPECT_EQ(seen[0], 100);
  EXPECT_EQ(seen[1], 110);
  EXPECT_EQ(seen[2], 120);
  // Misaligned or out-of-range atomics are rejected.
  std::int64_t dummy;
  EXPECT_EQ(job_->afadd_qw(1, 0, off + 4, 1, &dummy),
            DMAPP_RC_INVALID_PARAM);
  EXPECT_EQ(job_->afadd_qw(1, 0, kHeap, 1, &dummy), DMAPP_RC_INVALID_PARAM);
}

TEST_F(DmappFixture, OutOfRangeTransfersRejected) {
  std::vector<std::uint8_t> buf(128);
  sim::ScopedContext g(ctx(0));
  EXPECT_EQ(job_->put(0, 1, kHeap - 64, buf.data(), 128),
            DMAPP_RC_INVALID_PARAM);
  EXPECT_EQ(job_->get(0, 9, 0, buf.data(), 128), DMAPP_RC_INVALID_PARAM);
  EXPECT_EQ(job_->put(-1, 1, 0, buf.data(), 128), DMAPP_RC_INVALID_PARAM);
}

TEST_F(DmappFixture, LargePutUsesBteAndReachesFullBandwidth) {
  std::uint64_t off = 0;
  ASSERT_EQ(job_->sheap_malloc(48 * 1024, &off), DMAPP_RC_SUCCESS);
  std::vector<std::uint8_t> big(48 * 1024, 0x7);
  sim::ScopedContext g(ctx(0));
  SimTime t0 = ctx(0).now();
  ASSERT_EQ(job_->put(0, 1, off, big.data(), big.size()), DMAPP_RC_SUCCESS);
  SimTime took = ctx(0).now() - t0;
  // ~48 KiB at ~5.9 GB/s plus startup: one-digit microseconds x ~2.
  EXPECT_GT(took, microseconds(8.0));
  EXPECT_LT(took, microseconds(40.0));
}

}  // namespace
}  // namespace ugnirt::dmapp
