#include <gtest/gtest.h>

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

TEST(Engine, CancelPreventsExecution) {
  Engine e;
  bool ran = false;
  auto h = e.schedule_at(10, [&] { ran = true; });
  h.cancel();
  e.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(e.executed(), 0u);
}

TEST(Engine, CancelAfterFireIsSafe) {
  Engine e;
  bool ran = false;
  auto h = e.schedule_at(10, [&] { ran = true; });
  e.run();
  EXPECT_TRUE(ran);
  h.cancel();  // no-op
  EXPECT_FALSE(h.valid());
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
  Engine e;
  std::vector<int> order;
  // Equal-time events: stop() lands between two events of the same
  // timestamp, and the resumed run continues in scheduling order.
  for (int i = 0; i < 10; ++i) {
    e.schedule_at((i / 4) * 10, [&order, &e, i] {
      order.push_back(i);
      if (i == 2 || i == 5) e.stop();
    });
  }
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(e.pending(), 7u);
  EXPECT_EQ(e.now(), 0);
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(e.now(), 10);
  e.run();
  EXPECT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
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
  auto run_once = [] {
    Engine e;
    std::vector<std::pair<SimTime, int>> log;
    for (int i = 0; i < 50; ++i) {
      e.schedule_at((i * 7) % 13, [&log, i, &e] {
        log.emplace_back(e.now(), i);
        if (i % 3 == 0) {
          e.schedule_after(2, [&log, i, &e] { log.emplace_back(e.now(), 100 + i); });
        }
      });
    }
    e.run();
    return log;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Pending, ExcludesCancelledTombstones) {
  Engine e;
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
  Engine e;
  EventHandle h;
  h = e.schedule_at(10, [&e, &h] {
    h.cancel();  // cancelling the event that is firing: no-op
    EXPECT_EQ(e.pending(), 0u);
  });
  EXPECT_EQ(e.run(), 1u);
  EXPECT_EQ(e.pending(), 0u);
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
