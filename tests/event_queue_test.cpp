// The engine's radix pending set against a reference binary heap.
//
//  * Differential churn: a seeded workload drives sim::Engine and a
//    reference std::priority_queue on (time, seq); the two executed
//    (time, id) sequences must match exactly.  The workload mixes
//    equal-time bursts, zero-delay schedules from inside callbacks, delays
//    from 1 ns to past 2^40 ns, superseded events (an owner generation
//    bumped while its events wait; they fire and return at once), stop(),
//    nested run_until()/run(), and run_until(t) horizons followed by
//    schedules in [now, next event).
//  * Memory: steady churn recycles a couple of blocks, a burst stays
//    within the block bound (255 events per 8 KiB block), and a second
//    identical burst after a drain takes no new blocks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "sim/engine.hpp"

namespace ugnirt::sim {
namespace {

/// Executed (time, id) sequence of one run.
using Log = std::vector<std::pair<SimTime, int>>;

std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// sim::Engine behind the interface the churn drives.
class EngineSim {
 public:
  SimTime now() const { return e_.now(); }
  void schedule_at(SimTime when, SmallFn fn) { e_.schedule_at(when, fn); }
  std::uint64_t run_until(SimTime until) { return e_.run_until(until); }
  std::uint64_t run() { return e_.run(); }
  void stop() { e_.stop(); }
  std::size_t pending() const { return e_.pending(); }

 private:
  Engine e_;
};

/// The reference: a binary min-heap on (time, seq) with the engine's
/// clamp and horizon rules.
class RefSim {
 public:
  SimTime now() const { return now_; }
  void schedule_at(SimTime when, std::function<void()> fn) {
    if (when < now_) when = now_;
    heap_.push(Entry{when, seq_++, std::move(fn)});
  }
  std::uint64_t run_until(SimTime until) {
    stopped_ = false;
    std::uint64_t ran = 0;
    while (!stopped_) {
      if (heap_.empty() || heap_.top().time > until) {
        if (until != kNever && now_ < until) now_ = until;
        break;
      }
      Entry ev = heap_.top();
      heap_.pop();
      now_ = ev.time;
      ++ran;
      ev.fn();
    }
    return ran;
  }
  std::uint64_t run() { return run_until(kNever); }
  void stop() { stopped_ = true; }
  std::size_t pending() const { return heap_.size(); }

 private:
  struct Entry {
    SimTime time;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  SimTime now_ = 0;
  std::uint64_t seq_ = 0;
  bool stopped_ = false;
};

/// Seeded churn.  Every decision comes from the seed and the order in
/// which events fire, so two simulators that pop in the same order make
/// the same decisions and log the same sequence.
template <class Sim>
class Churn {
 public:
  Churn(std::uint64_t seed, int budget) : rng_(seed), budget_(budget) {}

  Log run() {
    for (int i = 0; i < 64; ++i) schedule(sim_.now() + delay());
    while (sim_.pending() > 0 && next_id_ < budget_) {
      // A horizon, then schedules in [now, next event): at the new clock
      // itself, just after it, and in the past (clamped to the clock).
      sim_.run_until(sim_.now() + delay());
      const int n = static_cast<int>(below(4));
      for (int i = 0; i < n; ++i) {
        const SimTime t = sim_.now();
        switch (below(3)) {
          case 0: schedule(t); break;
          case 1: schedule(t + 1 + static_cast<SimTime>(below(8))); break;
          default: schedule(t - static_cast<SimTime>(below(100))); break;
        }
      }
    }
    sim_.run();
    return std::move(log_);
  }

  /// Events that fired after their owner superseded them.
  int superseded() const { return superseded_; }

 private:
  std::uint64_t below(std::uint64_t n) { return splitmix(rng_) % n; }

  /// 0 ns, 1 ns .. 1 us, 1 KiB .. 1 TiB-scale powers, and >= 2^40 ns.
  SimTime delay() {
    const std::uint64_t r = below(100);
    if (r < 30) return 0;
    if (r < 65) return 1 + static_cast<SimTime>(below(1000));
    if (r < 93) {
      const int k = 10 + static_cast<int>(below(31));
      return (SimTime{1} << k) + static_cast<SimTime>(below(1u << 10));
    }
    const int k = 40 + static_cast<int>(below(5));
    return (SimTime{1} << k) + static_cast<SimTime>(below(1u << 20));
  }

  /// Event `id` belongs to owner id % kOwners and carries that owner's
  /// generation at schedule time.
  void schedule(SimTime when) {
    const int id = next_id_++;
    const std::uint32_t gen = gens_[static_cast<std::size_t>(id % kOwners)];
    sim_.schedule_at(when, [this, id, gen] { fire(id, gen); });
  }

  void fire(int id, std::uint32_t gen) {
    // Superseded: the owner's generation moved on while this waited.  It
    // is logged as -1 - id, so its pop position is checked too.
    if (gen != gens_[static_cast<std::size_t>(id % kOwners)]) {
      ++superseded_;
      log_.emplace_back(sim_.now(), -1 - id);
      return;
    }
    log_.emplace_back(sim_.now(), id);
    if (next_id_ < budget_) {
      const std::uint64_t shape = below(100);
      if (shape < 10) {
        // Equal-time burst at the next multiple of 64 ns.
        const SimTime at = (sim_.now() / 64 + 1) * 64;
        const int n = 2 + static_cast<int>(below(12));
        for (int i = 0; i < n; ++i) schedule(at);
      } else {
        const int n = static_cast<int>(below(4));
        for (int i = 0; i < n; ++i) schedule(sim_.now() + delay());
      }
    }
    if (below(100) < 6) {
      // Supersede every pending event of a random owner, this event's
      // own owner included.
      ++gens_[below(kOwners)];
    }
    if (depth_ == 0) {
      const std::uint64_t r = below(1000);
      ++depth_;
      if (r < 10) {
        sim_.run_until(sim_.now() + delay());
      } else if (r < 12 && next_id_ >= budget_ / 2 && !nested_drain_) {
        nested_drain_ = true;
        sim_.run();
      } else if (r < 20) {
        sim_.stop();
      }
      --depth_;
    }
  }

  static constexpr int kOwners = 1024;

  Sim sim_;
  std::uint32_t gens_[kOwners] = {};
  std::uint64_t rng_;
  int budget_;
  int next_id_ = 0;
  int depth_ = 0;
  int superseded_ = 0;
  bool nested_drain_ = false;
  Log log_;
};

class EventQueueChurn : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventQueueChurn, PopOrderMatchesReferenceHeap) {
  constexpr int kBudget = 30000;
  Churn<RefSim> ref(GetParam(), kBudget);
  Churn<EngineSim> engine(GetParam(), kBudget);
  const Log expected = ref.run();
  const Log got = engine.run();
  ASSERT_GT(expected.size(), static_cast<std::size_t>(kBudget / 2));
  const std::size_t n = std::min(expected.size(), got.size());
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(expected[i], got[i]) << "first divergence at pop " << i;
  }
  EXPECT_EQ(expected.size(), got.size());
  EXPECT_GT(ref.superseded(), 0);
  EXPECT_EQ(ref.superseded(), engine.superseded());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueChurn,
                         ::testing::Values(1u, 2u, 3u, 64023u));

// ------------------------------------------------------------ invariant ----

TEST(EventQueue, SchedulesAfterAnEarlyHorizonRunBeforeTheLaterEvent) {
  struct Run {
    Engine e;
    Log log;
  } r;
  Engine& e = r.e;
  auto at = [&r](SimTime t, int id) {
    r.e.schedule_at(t, [&r, id] { r.log.emplace_back(r.e.now(), id); });
  };
  at(100, 0);
  at(1 << 20, 1);
  e.run_until(500);  // stops before the event at 2^20
  EXPECT_EQ(e.now(), 500);
  // Had the horizon run moved the queue's base up to 2^20, this one would
  // file in bucket 1, below the events at 500, and pop first.
  at((1 << 20) + 1, 6);
  at(500, 2);  // exactly at the clock
  at(400, 3);  // in the past: clamped to 500, behind id 2
  at(600, 4);
  e.run_until(500);
  at(500, 5);  // zero-delay after a horizon run that fired events
  e.run();
  EXPECT_EQ(r.log, (Log{{100, 0}, {500, 2}, {500, 3}, {500, 5}, {600, 4},
                      {1 << 20, 1}, {(1 << 20) + 1, 6}}));
}

// --------------------------------------------------------------- memory ----

TEST(EventQueue, SteadyChurnRecyclesBlocks) {
  Engine e;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 100000) {
      e.schedule_after(count % 3 == 0 ? 0 : 1 + count % 97,
                       [&chain] { chain(); });
    }
  };
  e.schedule_at(0, [&chain] { chain(); });
  e.run();
  EXPECT_EQ(count, 100000);
  // One event in flight: the bucket it waits in and, while it moves down,
  // the one it leaves.
  EXPECT_LE(e.queue().blocks(), 2u);
}

TEST(EventQueue, SecondIdenticalBurstTakesNoNewBlocks) {
  constexpr int kBurst = 60000;
  constexpr SimTime kSpan = SimTime{1} << 41;
  std::vector<SimTime> offsets;
  std::uint64_t rng = 7;
  for (int i = 0; i < kBurst; ++i) {
    // A quarter of the burst piles onto 16 shared timestamps.
    offsets.push_back(i % 4 == 0
                          ? static_cast<SimTime>(splitmix(rng) % 16) * 1000
                          : static_cast<SimTime>(splitmix(rng) % kSpan));
  }
  Engine e;
  int ran = 0;
  auto burst = [&](SimTime origin) {
    for (SimTime off : offsets) e.schedule_at(origin + off, [&ran] { ++ran; });
  };
  burst(0);
  const std::size_t peak = e.queue().blocks();
  e.run();
  const std::size_t high_water = e.queue().blocks();
  EXPECT_GE(high_water, peak);
  // queued/255 in the buckets, plus a part-filled block per bucket and
  // per redistribution target.
  EXPECT_LE(high_water, static_cast<std::size_t>(kBurst) / 255 + 2 * 64);
  // Move the queue's base to an origin that agrees with 0 on every bit an
  // offset uses, so the second burst lands in the same buckets.
  e.schedule_at(4 * kSpan, [] {});
  e.run();
  burst(4 * kSpan);
  e.run();
  EXPECT_EQ(ran, 2 * kBurst);
  EXPECT_EQ(e.queue().blocks(), high_water);
  EXPECT_TRUE(e.queue().empty());
}

}  // namespace
}  // namespace ugnirt::sim
