#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>

#include "sim/engine.hpp"

namespace ugnirt::sim {
namespace {

// ------------------------------------------- event arena (zero-alloc path) --

TEST(EventArena, SteadyChurnRecyclesOneSlab) {
  Engine e;
  int count = 0;
  const int kEvents = static_cast<int>(EventArena::kSlabRecords) * 5;
  std::function<void()> chain = [&] {
    if (++count < kEvents) e.schedule_after(3, [&chain] { chain(); });
  };
  e.schedule_at(0, [&chain] { chain(); });
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
  // Engine-typical captures (a couple of pointers + scalars) fit the
  // inline buffer; anything else does not compile.
  static_assert(std::is_constructible_v<SmallFn, Timer>);
  for (int i = 0; i < 64; ++i) {
    e.schedule_at(i, Timer{&e, &sink, static_cast<std::uint32_t>(i), 100});
  }
  e.run();
  EXPECT_GT(sink, 0u);
  EXPECT_EQ(e.executed(), 64u * 100u);
}

// A protocol callback's usual shape: [this, ptr, SimTime].
struct Owner {
  SimTime last = 0;
  auto callback(int* hits, SimTime t) {
    return [this, hits, t] {
      ++*hits;
      last = t;
    };
  }
};
using OwnerCallback =
    decltype(std::declval<Owner&>().callback(nullptr, SimTime{}));

struct Capture32 {
  std::uint64_t words[4];
  void operator()() {}
};
struct NonTrivialDtor {
  ~NonTrivialDtor() {}
  void operator()() {}
};

TEST(EventArena, SmallFnTakesOnlyTrivialThreeWordCaptures) {
  // What SmallFn stores is decided at compile time: the capture shapes
  // the engine's callers use fit, and the ones that would need a heap
  // copy or a destructor do not compile.
  static_assert(sizeof(OwnerCallback) == SmallFn::kInlineBytes);
  static_assert(std::is_constructible_v<SmallFn, OwnerCallback>);
  static_assert(!std::is_constructible_v<SmallFn, std::function<void()>>);
  static_assert(!std::is_constructible_v<SmallFn, Capture32>);
  static_assert(!std::is_constructible_v<SmallFn, NonTrivialDtor>);

  Engine e;
  Owner owner;
  int hits = 0;
  e.schedule_at(5, owner.callback(&hits, 42));
  e.run();
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(owner.last, 42);
}

}  // namespace
}  // namespace ugnirt::sim
