#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <deque>
#include <map>
#include <set>
#include <vector>

#include "util/config.hpp"
#include "util/inline_bytes.hpp"
#include "util/ring_fifo.hpp"
#include "util/rng.hpp"
#include "util/slot_map.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace ugnirt {
namespace {

using namespace ugnirt::literals;

// ---------------------------------------------------------------- units ----

TEST(Units, Conversions) {
  EXPECT_EQ(microseconds(1.5), 1500);
  EXPECT_EQ(milliseconds(2.0), 2'000'000);
  EXPECT_EQ(seconds(1.0), 1'000'000'000);
  EXPECT_DOUBLE_EQ(to_us(1500), 1.5);
  EXPECT_DOUBLE_EQ(to_ms(2'000'000), 2.0);
  EXPECT_EQ(3_us, 3000);
}

TEST(Units, TransferTimeRoundsUpAndHandlesZeroBandwidth) {
  EXPECT_EQ(transfer_time(1000, 1.0), 1000);
  EXPECT_EQ(transfer_time(1001, 2.0), 501);  // 500.5 rounds up
  EXPECT_EQ(transfer_time(0, 5.0), 0);
  EXPECT_EQ(transfer_time(12345, 0.0), 0);
}

TEST(Units, GbPerSecondIsBytesPerNanosecond) {
  EXPECT_DOUBLE_EQ(gb_per_s(6.0), 6.0);
  // 6 GB/s moves 6 KB in 1 us.
  EXPECT_EQ(transfer_time(6000, gb_per_s(6.0)), 1000);
}

// ------------------------------------------------------------------ rng ----

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng r(7);
  for (std::uint32_t bound : {1u, 2u, 3u, 17u, 1000u, 1u << 30}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(r.next_below(bound), bound);
  }
  EXPECT_EQ(r.next_below(0), 0u);
}

TEST(Rng, NextBelowCoversAllValues) {
  Rng r(99);
  std::set<std::uint32_t> seen;
  for (int i = 0; i < 400; ++i) seen.insert(r.next_below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) {
    double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, DerivedStreamsAreIndependentAndStable) {
  Rng root(1234);
  Rng a1 = root.derive(1);
  Rng a2 = root.derive(1);
  Rng b = root.derive(2);
  EXPECT_EQ(a1.next_u64(), a2.next_u64());
  EXPECT_NE(a1.next_u64(), b.next_u64());
}

TEST(Rng, ExponentialHasRoughlyRightMean) {
  Rng r(5);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.next_exponential(10.0);
  double mean = sum / n;
  EXPECT_NEAR(mean, 10.0, 0.5);
}

// --------------------------------------------------------------- config ----

// parse_into leaves the field alone when the text does not parse.
TEST(ParseInto, NumbersRejectGarbageAndKeepTheField) {
  std::int64_t i = 7;
  double d = 7.5;
  EXPECT_FALSE(parse_into("notanumber", i));
  EXPECT_FALSE(parse_into("12abc", i));
  EXPECT_FALSE(parse_into("notanumber", d));
  EXPECT_EQ(i, 7);
  EXPECT_EQ(d, 7.5);
}

TEST(ParseInto, BoolSpellingsAndUnparsableKeepsTheField) {
  bool b = false;
  EXPECT_TRUE(parse_into("true", b) && b);
  EXPECT_TRUE(parse_into("FALSE", b) && !b);
  EXPECT_TRUE(parse_into("1", b) && b);
  EXPECT_TRUE(parse_into("off", b) && !b);
  b = true;
  EXPECT_FALSE(parse_into("maybe", b));
  EXPECT_TRUE(b);  // unparsable -> unchanged
}

// Two knobs in the shape overlay_env() expects (see util/config.hpp).
struct SomeKnobs {
  static constexpr const char* kConfigPrefix = "some";
  int key = 0;
  std::int64_t extra_key = 0;
  template <class V>
  void fields(V&& v) {
    v("key", key);
    v("extra_key", extra_key);
  }
};

// The environment overrides a knob set in code and one left at its
// default.
TEST(Config, EnvOverrideAppliesToKnownAndExtraKeys) {
  SomeKnobs k;
  k.key = 1;
  ::setenv("UGNIRT_SOME_KEY", "42", 1);
  ::setenv("UGNIRT_SOME_EXTRA_KEY", "7", 1);
  overlay_env(k);
  ::unsetenv("UGNIRT_SOME_KEY");
  ::unsetenv("UGNIRT_SOME_EXTRA_KEY");
  EXPECT_EQ(k.key, 42);
  EXPECT_EQ(k.extra_key, 7);
}

// ---------------------------------------------------------------- stats ----

TEST(Stats, RunningStatBasics) {
  RunningStat s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
  EXPECT_NEAR(s.stddev(), 1.29099, 1e-4);
}

TEST(Stats, EmptyRunningStatIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

// ------------------------------------------------------------ RingFifo ----

// Seeded push / positional insert / pop bursts against a std::deque
// oracle: order is kept across wrap-around, growth and inserts.  Returns
// how often the FIFO drained; `on_drain` checks the ring at each drain.
template <bool kKeep, typename OnDrain>
int ring_fifo_churn(RingFifo<std::vector<int>, kKeep>& q, OnDrain on_drain) {
  std::deque<int> oracle;
  Rng rng(6316);
  int next = 0;
  int drains = 0;
  for (int step = 0; step < 20000; ++step) {
    // Bursts of mostly-push or mostly-pop so the queue both grows past
    // several capacities and drains to empty again.
    const bool pushing = (step / 64) % 2 == 0;
    if (oracle.empty() || rng.next_below(4) < (pushing ? 3u : 1u)) {
      if (rng.next_below(4) == 0) {  // sorted-insert path the CQs use
        const auto pos =
            rng.next_below(static_cast<std::uint32_t>(oracle.size()) + 1);
        q.insert(pos, std::vector<int>{next});
        oracle.insert(oracle.begin() + pos, next++);
      } else {
        q.push_back(std::vector<int>{next});
        oracle.push_back(next++);
      }
    } else {
      EXPECT_EQ(q.front().at(0), oracle.front());
      q.pop_front();
      oracle.pop_front();
      if (oracle.empty()) {
        ++drains;
        on_drain(q);
      }
    }
    EXPECT_EQ(q.size(), oracle.size());
    EXPECT_EQ(q.empty(), oracle.empty());
    EXPECT_GE(q.capacity(), q.size());
    if (!oracle.empty()) {
      EXPECT_EQ(q[q.size() - 1].at(0), oracle.back());
    }
    if (step % 97 == 0) {
      for (std::size_t i = 0; i < oracle.size(); ++i) {
        EXPECT_EQ(q[i].at(0), oracle[i]) << "position " << i;
      }
    }
    if (::testing::Test::HasFailure()) return drains;
  }
  while (!oracle.empty()) {
    EXPECT_EQ(q.front().at(0), oracle.front());
    q.pop_front();
    oracle.pop_front();
  }
  return drains;
}

// The queues of idle mailboxes, CQs and backlogs: an empty FIFO holds no
// storage, and the ring is released on every drain.
TEST(RingFifoProperty, KeepsOrderAndReleasesStorageWhenDrained) {
  RingFifo<std::vector<int>> q;  // elements own heap memory, like Msg
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.capacity(), 0u);
  const int drains = ring_fifo_churn(q, [](const auto& r) {
    EXPECT_EQ(r.capacity(), 0u) << "drained FIFO kept its ring";
  });
  EXPECT_GT(drains, 10);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.capacity(), 0u);
}

// The scheduler queue's mode: storage is still taken on the first push,
// but a drain keeps the ring at its high-water capacity.
TEST(RingFifoProperty, KeepGrownModeKeepsItsRingWhenDrained) {
  RingFifo<std::vector<int>, /*kKeepGrown=*/true> q;
  EXPECT_EQ(q.capacity(), 0u);
  std::size_t high = 0;
  const int drains = ring_fifo_churn(q, [&high](const auto& r) {
    EXPECT_GE(r.capacity(), high) << "drained FIFO shrank its ring";
    high = r.capacity();
  });
  EXPECT_GT(drains, 10);
  EXPECT_TRUE(q.empty());
  EXPECT_GE(q.capacity(), high);
  EXPECT_GE(high, 64u);  // grew through several doublings
}

// ------------------------------------------------------------- SlotMap ----

// Seeded insert/erase churn against a std::map reference: live ids
// resolve to their records at unchanged addresses across growth, erased
// ids never resolve again, and every id has bit 63 clear.
TEST(SlotMapProperty, MatchesReferenceAndKeepsAddressesStable) {
  struct Rec {
    std::uint64_t value = 0;
    std::uint32_t pad[6] = {};
  };
  SlotMap<Rec> map;
  std::map<std::uint64_t, std::pair<std::uint64_t, const Rec*>> live;
  std::vector<std::uint64_t> dead;
  Rng rng(2012);
  std::uint64_t next = 0;
  std::size_t peak = 0;
  for (int step = 0; step < 40000; ++step) {
    // Phases that grow the map past several chunks, then shrink it.
    const bool growing = (step / 4000) % 2 == 0;
    if (live.empty() || rng.next_below(8) < (growing ? 6u : 2u)) {
      Rec r;
      r.value = next++;
      const std::uint64_t id = map.insert(r);
      ASSERT_NE(id, 0u);
      ASSERT_EQ(id >> 63, 0u) << "id uses bit 63";
      ASSERT_EQ(live.count(id), 0u) << "id issued twice while live";
      live[id] = {r.value, map.find(id)};
    } else {
      auto it = live.begin();
      std::advance(it, rng.next_below(static_cast<std::uint32_t>(
                           std::min<std::size_t>(live.size(), 64))));
      map.erase(it->first);
      dead.push_back(it->first);
      live.erase(it);
    }
    peak = std::max(peak, live.size());
    ASSERT_EQ(map.size(), live.size());
    if (step % 101 == 0) {
      for (const auto& [id, ref] : live) {
        const Rec* r = map.find(id);
        ASSERT_EQ(r, ref.second) << "live record moved";
        ASSERT_EQ(r->value, ref.first);
      }
      for (std::uint64_t id : dead) {
        ASSERT_EQ(map.find(id), nullptr) << "stale id resolved";
      }
    }
  }
  EXPECT_GT(peak, 1000u);  // several chunks
  std::size_t visited = 0;
  map.for_each([&](std::uint64_t id, Rec& r) {
    ++visited;
    ASSERT_EQ(live.at(id).first, r.value);
  });
  EXPECT_EQ(visited, live.size());
  EXPECT_EQ(map.find(0), nullptr);
}

// ---------------------------------------------------------- InlineBytes ----

TEST(InlineBytes, HoldsControlPayloadsInlineAndSpillsLargerOnes) {
  for (std::uint32_t n : {0u, 8u, 40u, 48u, 49u, 1024u}) {
    std::vector<std::uint8_t> src(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      src[i] = static_cast<std::uint8_t>(i * 7);
    }
    InlineBytes b;
    b.assign(src.data(), n);
    ASSERT_EQ(b.size(), n);
    const auto at = reinterpret_cast<std::uintptr_t>(b.data());
    const auto self = reinterpret_cast<std::uintptr_t>(&b);
    const bool inline_held = at >= self && at < self + sizeof(b);
    EXPECT_EQ(inline_held, n <= InlineBytes::kInline) << n << " B";
    InlineBytes moved(std::move(b));
    EXPECT_EQ(b.size(), 0u);
    ASSERT_EQ(moved.size(), n);
    EXPECT_EQ(std::vector<std::uint8_t>(moved.data(), moved.data() + n), src);
    InlineBytes assigned;
    assigned.assign("x", 1);
    assigned = std::move(moved);
    ASSERT_EQ(assigned.size(), n);
    EXPECT_EQ(std::vector<std::uint8_t>(assigned.data(), assigned.data() + n),
              src);
  }
}

}  // namespace
}  // namespace ugnirt
