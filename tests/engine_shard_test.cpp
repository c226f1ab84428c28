// The sharded engine.
//
//  * EngineOptions: explicit construction, env round-trip via from_env().
//  * Replay: the executed (time, seq) sequence is bit-identical for any
//    shard count — sharding is invisible.
//  * pending() counts live events only (cancelled tombstones excluded).
#include <gtest/gtest.h>

#include <cstdlib>
#include <utility>
#include <vector>

#include "sim/engine.hpp"

namespace ugnirt::sim {
namespace {

/// (time, tag) execution log of one run.
using Log = std::vector<std::pair<SimTime, int>>;

/// A shard-confined workload: `chains` event chains, chain c pinned to
/// shard c % shards, each hop advancing by a pseudo-random stride.
/// Equal-time ties across shards are broken by seq.
Log run_chains(const EngineOptions& options, int chains, int hops) {
  Engine e(options);
  Log log;
  for (int c = 0; c < chains; ++c) {
    const int shard = c % e.shards();
    struct Hop {
      Engine* e;
      Log* log;
      int shard, c, hops;
      int i = 0;
      void operator()() {
        Scheduler& s = e->scheduler(shard);
        log->emplace_back(s.now(), c * 1000 + i);
        if (++i < hops) {
          s.schedule_after(((c * 7 + i * 13) % 5) * 10, *this);
        }
      }
    };
    e.scheduler(shard).schedule_at((c * 3) % 7, Hop{&e, &log, shard, c, hops});
  }
  e.run();
  return log;
}

// ----------------------------------------------------------- options ----

TEST(EngineOptions, FromEnvReadsShardKnobs) {
  ::setenv("UGNIRT_SIM_SHARDS", "4", 1);
  EngineOptions o = EngineOptions::from_env();
  ::unsetenv("UGNIRT_SIM_SHARDS");
  EXPECT_EQ(o.shards, 4);

  Engine e(o);
  EXPECT_EQ(e.shards(), 4);
}

TEST(EngineOptions, DefaultsAreHermeticSequential) {
  ::setenv("UGNIRT_SIM_SHARDS", "16", 1);
  Engine e{EngineOptions{}};  // must NOT sniff the environment
  ::unsetenv("UGNIRT_SIM_SHARDS");
  EXPECT_EQ(e.shards(), 1);
}

TEST(EngineOptions, DegenerateValuesAreClamped) {
  EngineOptions o;
  o.shards = -3;
  Engine e(o);
  EXPECT_EQ(e.shards(), 1);
}

// ------------------------------------------------------------ replay ----

TEST(ShardedReplay, ExecutionIsBitIdenticalAcrossShardCounts) {
  EngineOptions o;
  o.shards = 1;
  const Log reference = run_chains(o, 24, 40);
  EXPECT_EQ(reference.size(), 24u * 40u);
  for (int shards : {2, 3, 8}) {
    o.shards = shards;
    EXPECT_EQ(reference, run_chains(o, 24, 40)) << "shards=" << shards;
  }
}

TEST(ShardedReplay, CrossShardSchedulingKeepsGlobalOrder) {
  EngineOptions o;
  o.shards = 4;
  Engine e(o);
  Log log;
  // Every event on shard s schedules the next on shard (s+1)%4 at the
  // SAME time: replay must still run them in scheduling (seq) order.
  struct Ring {
    Engine* e;
    Log* log;
    int s, i;
    void operator()() {
      log->emplace_back(e->scheduler(s).now(), i);
      if (i < 20) {
        e->scheduler((s + 1) % 4).schedule_at(e->now(), Ring{e, log, (s + 1) % 4, i + 1});
      }
    }
  };
  e.scheduler(0).schedule_at(5, Ring{&e, &log, 0, 0});
  e.run();
  ASSERT_EQ(log.size(), 21u);
  for (int i = 0; i <= 20; ++i) {
    EXPECT_EQ(log[static_cast<std::size_t>(i)], std::make_pair(SimTime{5}, i));
  }
}

// ------------------------------------------------- pending() accuracy ----

TEST(Pending, ExcludesCancelledTombstones) {
  Engine e{EngineOptions{}};
  auto h1 = e.schedule_at(10, [] {});
  auto h2 = e.schedule_at(20, [] {});
  e.schedule_at(30, [] {});
  EXPECT_EQ(e.pending(), 3u);
  h1.cancel();
  EXPECT_EQ(e.pending(), 2u);
  h1.cancel();  // double-cancel must not double-decrement
  EXPECT_EQ(e.pending(), 2u);
  (void)h2;
  EXPECT_FALSE(e.empty());
  EXPECT_EQ(e.run(), 2u);
  EXPECT_EQ(e.pending(), 0u);
  EXPECT_TRUE(e.empty());
}

TEST(Pending, SelfCancelDuringExecutionStaysConsistent) {
  Engine e{EngineOptions{}};
  EventHandle h;
  h = e.schedule_at(10, [&e, &h] {
    h.cancel();  // cancelling the event that is firing: no-op
    EXPECT_EQ(e.pending(), 0u);
  });
  EXPECT_EQ(e.run(), 1u);
  EXPECT_EQ(e.pending(), 0u);
}

TEST(Pending, SumsLiveEventsAcrossShards) {
  EngineOptions o;
  o.shards = 4;
  Engine e(o);
  std::vector<EventHandle> handles;
  for (int s = 0; s < 4; ++s) {
    handles.push_back(e.scheduler(s).schedule_at(10 + s, [] {}));
    e.scheduler(s).schedule_at(20 + s, [] {});
  }
  EXPECT_EQ(e.pending(), 8u);
  for (auto& h : handles) h.cancel();
  EXPECT_EQ(e.pending(), 4u);
  EXPECT_EQ(e.run(), 4u);
  EXPECT_TRUE(e.empty());
}

// ------------------------------------------------ run control, sharded ----

TEST(ShardedRun, RunUntilAdvancesAllShardClocks) {
  EngineOptions o;
  o.shards = 4;
  Engine e(o);
  std::vector<SimTime> fired;
  for (int s = 0; s < 4; ++s) {
    for (SimTime t : {10, 20, 30, 40}) {
      e.scheduler(s).schedule_at(t + s, [&fired, &e] {
        fired.push_back(e.now());
      });
    }
  }
  e.run_until(25);
  EXPECT_EQ(fired.size(), 8u);  // 10..13, 20..23
  EXPECT_EQ(e.now(), 25);
  e.run_until(1000);
  EXPECT_EQ(fired.size(), 16u);
}

TEST(ShardedRun, StopInterruptsAndResumes) {
  EngineOptions o;
  o.shards = 2;
  Engine e(o);
  int count = 0;
  for (int i = 0; i < 10; ++i) {
    e.scheduler(i % 2).schedule_at(i * 10, [&] {
      if (++count == 3) e.stop();
    });
  }
  e.run();
  EXPECT_EQ(count, 3);
  EXPECT_EQ(e.pending(), 7u);
  e.run();
  EXPECT_EQ(count, 10);
}

}  // namespace
}  // namespace ugnirt::sim
