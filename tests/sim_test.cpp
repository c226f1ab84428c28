#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/context.hpp"
#include "sim/engine.hpp"

namespace ugnirt::sim {
namespace {

TEST(Engine, RunsEventsInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(30, [&] { order.push_back(3); });
  e.schedule_at(10, [&] { order.push_back(1); });
  e.schedule_at(20, [&] { order.push_back(2); });
  EXPECT_EQ(e.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 30);
}

TEST(Engine, TiesBreakInSchedulingOrder) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    e.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  e.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Engine, PastTimesClampToNow) {
  Engine e;
  SimTime seen = -1;
  e.schedule_at(100, [&] {
    e.schedule_at(50, [&] { seen = e.now(); });  // in the past
  });
  e.run();
  EXPECT_EQ(seen, 100);
}

TEST(Engine, EventsCanScheduleMoreEvents) {
  Engine e;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) e.schedule_after(10, [&chain] { chain(); });
  };
  e.schedule_at(0, [&chain] { chain(); });
  e.run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(e.now(), 40);
}

TEST(Engine, StopInterruptsRun) {
  Engine e;
  int count = 0;
  for (int i = 0; i < 10; ++i) {
    e.schedule_at(i * 10, [&] {
      if (++count == 3) e.stop();
    });
  }
  e.run();
  EXPECT_EQ(count, 3);
  EXPECT_EQ(e.pending(), 7u);
  // run() again resumes.
  e.run();
  EXPECT_EQ(count, 10);
}

TEST(Engine, StopInterruptsAndResumes) {
  // The engine and the log in one struct: a callback captures one pointer
  // to both, plus its index.
  struct Run {
    Engine e;
    std::vector<int> order;
  } r;
  // Equal-time events: stop() lands between two events of the same
  // timestamp, and the resumed run continues in scheduling order.
  for (int i = 0; i < 10; ++i) {
    r.e.schedule_at((i / 4) * 10, [&r, i] {
      r.order.push_back(i);
      if (i == 2 || i == 5) r.e.stop();
    });
  }
  r.e.run();
  EXPECT_EQ(r.order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(r.e.pending(), 7u);
  EXPECT_EQ(r.e.now(), 0);
  r.e.run();
  EXPECT_EQ(r.order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(r.e.now(), 10);
  r.e.run();
  EXPECT_EQ(r.order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(r.order[static_cast<size_t>(i)], i);
}

TEST(Engine, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Engine e;
  std::vector<SimTime> fired;
  for (SimTime t : {10, 20, 30, 40}) {
    e.schedule_at(t, [&fired, &e] { fired.push_back(e.now()); });
  }
  e.run_until(25);
  EXPECT_EQ(fired, (std::vector<SimTime>{10, 20}));
  EXPECT_EQ(e.now(), 25);  // clock advanced to the horizon
  e.run_until(100);
  EXPECT_EQ(fired.size(), 4u);
}

TEST(Engine, DeterministicAcrossRuns) {
  struct Run {
    Engine e;
    std::vector<std::pair<SimTime, int>> log;
  };
  auto run_once = [] {
    Run r;
    for (int i = 0; i < 50; ++i) {
      r.e.schedule_at((i * 7) % 13, [&r, i] {
        r.log.emplace_back(r.e.now(), i);
        if (i % 3 == 0) {
          r.e.schedule_after(2, [&r, i] { r.log.emplace_back(r.e.now(), 100 + i); });
        }
      });
    }
    r.e.run();
    return r.log;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Engine, CallbackSeesTheTimeItWasScheduledFor) {
  // Callbacks that need their firing time (the SMSG credit return) read
  // now() instead of capturing it.
  Engine e;
  std::vector<SimTime> seen;
  for (SimTime t : {SimTime{40}, SimTime{7}, SimTime{7}, SimTime{1} << 33,
                    SimTime{0}}) {
    e.schedule_at(t, [&seen, &e] { seen.push_back(e.now()); });
  }
  e.schedule_at(100, [&seen, &e] {
    e.schedule_after(25, [&seen, &e] { seen.push_back(e.now()); });
  });
  e.run();
  EXPECT_EQ(seen, (std::vector<SimTime>{0, 7, 7, 40, 125, SimTime{1} << 33}));
}

TEST(Pending, CountsQueuedEvents) {
  // An owner that re-arms its step earlier supersedes the pending one
  // through a generation, as Pe::wake does.  The superseded step stays
  // queued and counted until it fires and returns at once.
  struct Owner {
    std::uint64_t gen = 0;
    int steps = 0;
  } owner;
  Engine e;
  auto arm = [&e, &owner](SimTime t) {
    const std::uint64_t gen = ++owner.gen;
    e.schedule_at(t, [o = &owner, gen] {
      if (gen == o->gen) ++o->steps;
    });
  };
  EXPECT_TRUE(e.empty());
  arm(1000);
  arm(100);
  e.schedule_at(500, [] {});
  EXPECT_EQ(e.pending(), 3u);
  EXPECT_EQ(e.run_until(500), 2u);
  EXPECT_EQ(owner.steps, 1);
  EXPECT_EQ(e.pending(), 1u);
  EXPECT_FALSE(e.empty());
  EXPECT_EQ(e.run(), 1u);
  EXPECT_EQ(owner.steps, 1);
  EXPECT_EQ(e.executed(), 3u);
  EXPECT_EQ(e.now(), 1000);
  EXPECT_EQ(e.pending(), 0u);
  EXPECT_TRUE(e.empty());
}

// ------------------------------------------------ SmallFn (inline only) --

TEST(SmallFn, EngineCallbacksStayInline) {
  Engine e;
  struct Timer {
    Engine* eng;
    std::uint32_t lcg;
    int left;
    void operator()() {
      lcg = lcg * 1664525u + 1013904223u;
      if (--left > 0) eng->scheduler().schedule_after(1 + (lcg >> 27), *this);
    }
  };
  // Engine-typical captures (a pointer and scalars) fit the inline
  // buffer; anything else does not compile.
  static_assert(std::is_constructible_v<SmallFn, Timer>);
  for (int i = 0; i < 64; ++i) {
    e.schedule_at(i, Timer{&e, static_cast<std::uint32_t>(i), 100});
  }
  e.run();
  EXPECT_EQ(e.executed(), 64u * 100u);
  EXPECT_GT(e.now(), 99);
}

// A protocol callback's usual shape: [this, ptr].
struct Owner {
  int hits = 0;
  auto callback(int* n) {
    return [this, n] {
      ++hits;
      ++*n;
    };
  }
};
using OwnerCallback = decltype(std::declval<Owner&>().callback(nullptr));

template <std::size_t N>
struct CaptureBytes {
  unsigned char bytes[N];
  void operator()() {}
};
struct NonTrivialDtor {
  ~NonTrivialDtor() {}
  void operator()() {}
};
struct NonTrivialCopy {
  NonTrivialCopy() = default;
  NonTrivialCopy(const NonTrivialCopy&) {}
  void operator()() {}
};

TEST(SmallFn, TakesOnlyTrivialTwoWordCaptures) {
  // What SmallFn stores is decided at compile time: captures of up to 16
  // trivial bytes fit, and one that would need a heap copy or a
  // destructor does not compile.
  static_assert(SmallFn::kInlineBytes == 16);
  static_assert(sizeof(OwnerCallback) == SmallFn::kInlineBytes);
  static_assert(std::is_constructible_v<SmallFn, OwnerCallback>);
  static_assert(std::is_constructible_v<SmallFn, CaptureBytes<16>>);
  static_assert(!std::is_constructible_v<SmallFn, CaptureBytes<17>>);
  static_assert(!std::is_constructible_v<SmallFn, std::function<void()>>);
  static_assert(!std::is_constructible_v<SmallFn, NonTrivialDtor>);
  static_assert(!std::is_constructible_v<SmallFn, NonTrivialCopy>);

  Engine e;
  Owner owner;
  int n = 0;
  e.schedule_at(5, owner.callback(&n));
  e.run();
  EXPECT_EQ(owner.hits, 1);
  EXPECT_EQ(n, 1);
}

TEST(Context, ChargeAdvancesCursorAndTotals) {
  Engine e;
  Context c(e.scheduler(), 3);
  EXPECT_EQ(c.pe(), 3);
  EXPECT_EQ(c.now(), 0);
  c.charge(100);
  c.charge_app(50);
  EXPECT_EQ(c.now(), 150);
  EXPECT_EQ(c.overhead_total(), 100);
  EXPECT_EQ(c.app_total(), 50);
}

TEST(Context, WaitUntilOnlyMovesForward) {
  Engine e;
  Context c(e.scheduler(), 0);
  c.set_now(100);
  c.wait_until(50);  // no-op
  EXPECT_EQ(c.now(), 100);
  c.wait_until(200);
  EXPECT_EQ(c.now(), 200);
  EXPECT_EQ(c.overhead_total(), 100);  // waiting counts as non-app time
}

TEST(Context, ScopedContextNestsCorrectly) {
  Engine e;
  Context outer(e.scheduler(), 1);
  Context inner(e.scheduler(), 2);
  EXPECT_EQ(current(), nullptr);
  {
    ScopedContext s1(outer);
    EXPECT_EQ(current(), &outer);
    {
      ScopedContext s2(inner);
      EXPECT_EQ(current(), &inner);
    }
    EXPECT_EQ(current(), &outer);
  }
  EXPECT_EQ(current(), nullptr);
}

}  // namespace
}  // namespace ugnirt::sim
