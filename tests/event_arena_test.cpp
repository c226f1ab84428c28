#include <gtest/gtest.h>

#include <cstdint>
#include <functional>

#include "sim/engine.hpp"

namespace ugnirt::sim {
namespace {

// ------------------------------------------- event arena (zero-alloc path) --

TEST(EventArena, SteadyChurnRecyclesOneSlab) {
  Engine e;
  int count = 0;
  const int kEvents = static_cast<int>(EventArena::kSlabRecords) * 5;
  std::function<void()> chain = [&] {
    if (++count < kEvents) e.schedule_after(3, chain);
  };
  e.schedule_at(0, chain);
  e.run();
  EXPECT_EQ(count, kEvents);
  // Sequential churn far past one slab's capacity: every record recycled
  // through the freelist, the heap untouched after the first slab.
  EXPECT_EQ(e.arena().slabs(), 1u);
  EXPECT_EQ(e.arena().in_use(), 0u);
  EXPECT_EQ(e.arena().acquires(), static_cast<std::uint64_t>(kEvents));
}

TEST(EventArena, GrowsPastOneSlabUnderPendingLoad) {
  Engine e;
  const int kPending = static_cast<int>(EventArena::kSlabRecords) + 100;
  int ran = 0;
  for (int i = 0; i < kPending; ++i) {
    e.schedule_at(i, [&ran] { ++ran; });
  }
  EXPECT_GE(e.arena().slabs(), 2u);
  EXPECT_EQ(e.arena().in_use(), static_cast<std::size_t>(kPending));
  e.run();
  EXPECT_EQ(ran, kPending);
  EXPECT_EQ(e.arena().in_use(), 0u);
  // Slabs are never returned: the high-water footprint is stable and a
  // second burst of the same size reuses it without growing further.
  const std::size_t high_water = e.arena().slabs();
  for (int i = 0; i < kPending; ++i) {
    e.schedule_after(1, [&ran] { ++ran; });
  }
  e.run();
  EXPECT_EQ(e.arena().slabs(), high_water);
}

TEST(EventArena, CancelFromInsideHandlerTombstones) {
  Engine e;
  bool late = false;
  EventHandle victim;
  e.schedule_at(10, [&] { victim.cancel(); });
  victim = e.schedule_at(20, [&late] { late = true; });
  e.run();
  EXPECT_FALSE(late);
  // The tombstoned record is still released when it surfaces.
  EXPECT_EQ(e.arena().in_use(), 0u);
  EXPECT_FALSE(victim.valid());
}

TEST(EventArena, SelfCancelDuringDispatchIsNoOp) {
  Engine e;
  int runs = 0;
  EventHandle self;
  self = e.schedule_at(5, [&] {
    ++runs;
    self.cancel();  // already firing: alive was flipped before dispatch
  });
  e.run();
  EXPECT_EQ(runs, 1);
  EXPECT_FALSE(self.valid());
  EXPECT_EQ(e.arena().in_use(), 0u);
}

TEST(EventArena, StaleHandleCannotCancelRecycledRecord) {
  Engine e;
  bool first = false, second = false;
  EventHandle h = e.schedule_at(10, [&first] { first = true; });
  e.run();
  EXPECT_TRUE(first);
  EXPECT_FALSE(h.valid());
  // The LIFO freelist hands the very same record to the next schedule,
  // one generation later; the stale handle must not kill it.
  e.schedule_at(20, [&second] { second = true; });
  h.cancel();
  e.run();
  EXPECT_TRUE(second);
}

TEST(EventArena, EngineCallbacksStayInline) {
  const std::uint64_t before = SmallFn::heap_fallbacks();
  Engine e;
  std::uint64_t sink = 0;
  struct Timer {
    Engine* eng;
    std::uint64_t* sink;
    std::uint32_t lcg;
    int left;
    void operator()() {
      *sink += lcg;
      lcg = lcg * 1664525u + 1013904223u;
      if (--left > 0) eng->scheduler().schedule_after(1 + (lcg >> 27), *this);
    }
  };
  for (int i = 0; i < 64; ++i) {
    e.schedule_at(i, Timer{&e, &sink, static_cast<std::uint32_t>(i), 100});
  }
  e.run();
  EXPECT_GT(sink, 0u);
  // Engine-typical captures (a couple of pointers + scalars) must fit the
  // inline buffer — the zero-alloc claim dies if they spill to the heap.
  EXPECT_EQ(SmallFn::heap_fallbacks(), before);
}

}  // namespace
}  // namespace ugnirt::sim
