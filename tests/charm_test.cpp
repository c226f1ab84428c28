#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "charm/array.hpp"
#include "charm/charm.hpp"
#include "charm/lb.hpp"
#include "lrts/runtime.hpp"

namespace ugnirt::charm {
namespace {

using converse::LayerKind;
using converse::MachineOptions;
using lrts::make_machine;

MachineOptions opts(int pes) {
  MachineOptions o;
  o.pes = pes;
  return o;
}

// ------------------------------------------------------------ reductions ----

TEST(CharmReduction, SumsAcrossAllPes) {
  auto m = make_machine(LayerKind::kUgni, opts(13));
  Charm charm(*m);
  std::uint64_t result = 0;
  int red = charm.register_reduction_sum([&](std::uint64_t v) { result = v; });
  for (int pe = 0; pe < 13; ++pe) {
    m->start(pe, [&charm, red, pe] {
      charm.contribute(red, static_cast<std::uint64_t>(pe + 1));
    });
  }
  m->run();
  EXPECT_EQ(result, 13u * 14u / 2u);
}

TEST(CharmReduction, DoubleSum) {
  auto m = make_machine(LayerKind::kUgni, opts(7));
  Charm charm(*m);
  double result = 0;
  int red = charm.register_reduction_sum_d([&](double v) { result = v; });
  for (int pe = 0; pe < 7; ++pe) {
    m->start(pe, [&charm, red, pe] { charm.contribute_d(red, 0.5 * pe); });
  }
  m->run();
  EXPECT_DOUBLE_EQ(result, 0.5 * (0 + 1 + 2 + 3 + 4 + 5 + 6));
}

TEST(CharmReduction, MultipleRoundsStaySeparated) {
  auto m = make_machine(LayerKind::kUgni, opts(5));
  Charm charm(*m);
  std::vector<std::uint64_t> results;
  int red = charm.register_reduction_sum(
      [&](std::uint64_t v) { results.push_back(v); });
  for (int pe = 0; pe < 5; ++pe) {
    m->start(pe, [&charm, red] {
      charm.contribute(red, 1);  // round 0
      charm.contribute(red, 10); // round 1
    });
  }
  m->run();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0], 5u);
  EXPECT_EQ(results[1], 50u);
}

// Reduction partials and QD reports carry 8-byte fields, but a message
// delivered inside an aggregated batch is only 4-byte aligned: the
// handlers must copy them out.  The sanitizer build (UBSan) checks it.
TEST(CharmReduction, SumAndQuiescenceThroughAggregatedBatches) {
  MachineOptions o = opts(13);
  o.aggregation.enable = true;
  auto m = make_machine(LayerKind::kUgni, o);
  Charm charm(*m);
  double result = 0;
  bool quiet = false;
  int red = charm.register_reduction_sum_d([&](double v) {
    result = v;
    charm.start_quiescence([&] { quiet = true; });
  });
  for (int pe = 0; pe < 13; ++pe) {
    m->start(pe, [&charm, red, pe] { charm.contribute_d(red, 0.25 * pe); });
  }
  m->run();
  EXPECT_DOUBLE_EQ(result, 0.25 * (12 * 13 / 2));
  EXPECT_TRUE(quiet);
  EXPECT_GT(m->metrics().counter("agg.batched").value(), 0u);
}

// ------------------------------------------------------------------- QD ----

TEST(CharmQd, FiresForImmediateQuiet) {
  auto m = make_machine(LayerKind::kUgni, opts(6));
  Charm charm(*m);
  bool fired = false;
  m->start(0, [&] { charm.start_quiescence([&] { fired = true; }); });
  m->run();
  EXPECT_TRUE(fired);
}

TEST(CharmQd, WaitsForOutstandingWork) {
  // A chain of 50 hops must fully complete before QD fires.
  auto m = make_machine(LayerKind::kUgni, opts(8));
  Charm charm(*m);
  int hops_done = 0;
  bool fired = false;
  int task = -1;
  task = charm.register_task([&](const void* p, std::uint32_t) {
    int ttl = *static_cast<const int*>(p);
    converse::CmiChargeWork(5'000);  // keep the chain slow vs QD waves
    ++hops_done;
    if (ttl > 0) {
      int next = ttl - 1;
      charm.seed_task(task, &next, sizeof(next));
    }
  });
  m->start(0, [&] {
    int ttl = 49;
    charm.seed_task(task, &ttl, sizeof(ttl));
    charm.start_quiescence([&] {
      fired = true;
      EXPECT_EQ(hops_done, 50);
    });
  });
  m->run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(hops_done, 50);
  EXPECT_GE(charm.qd_waves(), 2);
}

TEST(CharmQd, WorksOnMpiLayerToo) {
  auto m = make_machine(LayerKind::kMpi, opts(4));
  Charm charm(*m);
  int done = 0;
  bool fired = false;
  int task = charm.register_task([&](const void*, std::uint32_t) { ++done; });
  m->start(0, [&] {
    for (int i = 0; i < 20; ++i) charm.seed_task(task, nullptr, 0);
    charm.start_quiescence([&] {
      fired = true;
      EXPECT_EQ(done, 20);
    });
  });
  m->run();
  EXPECT_TRUE(fired);
}

// ------------------------------------------------------------ seed tasks ----

TEST(CharmSeeds, RandomSeedingSpreadsAcrossPes) {
  auto m = make_machine(LayerKind::kUgni, opts(16));
  Charm charm(*m);
  std::vector<int> per_pe(16, 0);
  int task = charm.register_task([&](const void*, std::uint32_t) {
    per_pe[static_cast<std::size_t>(converse::CmiMyPe())]++;
  });
  m->start(0, [&] {
    for (int i = 0; i < 1600; ++i) charm.seed_task(task, nullptr, 0);
    charm.start_quiescence([] {});
  });
  m->run();
  int total = std::accumulate(per_pe.begin(), per_pe.end(), 0);
  EXPECT_EQ(total, 1600);
  for (int pe = 0; pe < 16; ++pe) {
    EXPECT_GT(per_pe[static_cast<std::size_t>(pe)], 40) << "pe " << pe;
    EXPECT_LT(per_pe[static_cast<std::size_t>(pe)], 200) << "pe " << pe;
  }
}

TEST(CharmSeeds, PayloadTravelsIntact) {
  auto m = make_machine(LayerKind::kUgni, opts(4));
  Charm charm(*m);
  struct Payload {
    int a;
    double b;
    char c[16];
  };
  int seen = 0;
  int task = charm.register_task([&](const void* p, std::uint32_t bytes) {
    ASSERT_EQ(bytes, sizeof(Payload));
    Payload pl;
    std::memcpy(&pl, p, sizeof(pl));
    EXPECT_EQ(pl.a, 42);
    EXPECT_DOUBLE_EQ(pl.b, 3.25);
    EXPECT_STREQ(pl.c, "hello");
    ++seen;
  });
  m->start(0, [&] {
    Payload pl{42, 3.25, "hello"};
    charm.seed_task_to(3, task, &pl, sizeof(pl));
    charm.start_quiescence([] {});
  });
  m->run();
  EXPECT_EQ(seen, 1);
}

// ---------------------------------------------------------------- arrays ----

struct EchoElem final : ArrayElement {
  void receive(int method, const void* payload, std::uint32_t bytes) override {
    last_method = method;
    last_bytes = bytes;
    if (bytes >= sizeof(int)) {
      std::memcpy(&last_value, payload, sizeof(int));
    }
    ++invocations;
    converse::CmiChargeWork(work_ns);
  }
  int last_method = -1;
  std::uint32_t last_bytes = 0;
  int last_value = 0;
  int invocations = 0;
  SimTime work_ns = 1000;
};

TEST(CharmArray, InvokeRoutesToElements) {
  auto m = make_machine(LayerKind::kUgni, opts(4));
  Charm charm(*m);
  ArrayManager arr(charm, 10, [](int) { return std::make_unique<EchoElem>(); });
  m->start(0, [&] {
    for (int i = 0; i < 10; ++i) {
      int v = i * 7;
      arr.invoke(i, 3, &v, sizeof(v));
    }
    charm.start_quiescence([] {});
  });
  m->run();
  for (int i = 0; i < 10; ++i) {
    auto* e = static_cast<EchoElem*>(arr.element(i));
    EXPECT_EQ(e->invocations, 1);
    EXPECT_EQ(e->last_method, 3);
    EXPECT_EQ(e->last_value, i * 7);
  }
}

TEST(CharmArray, BlockPlacementCoversAllPes) {
  auto m = make_machine(LayerKind::kUgni, opts(4));
  Charm charm(*m);
  ArrayManager arr(charm, 16, [](int) { return std::make_unique<EchoElem>(); });
  std::vector<int> count(4, 0);
  for (int i = 0; i < 16; ++i) count[static_cast<std::size_t>(arr.location_of(i))]++;
  for (int pe = 0; pe < 4; ++pe) EXPECT_EQ(count[static_cast<std::size_t>(pe)], 4);
}

TEST(CharmArray, LoadMeasurementAndMigration) {
  auto m = make_machine(LayerKind::kUgni, opts(4));
  Charm charm(*m);
  ArrayManager arr(charm, 8, [](int idx) {
    auto e = std::make_unique<EchoElem>();
    e->work_ns = (idx == 0) ? 50'000 : 1'000;  // one heavy element
    return e;
  });
  m->start(0, [&] {
    arr.invoke_all(1, nullptr, 0);
    charm.start_quiescence([] {});
  });
  m->run();
  const auto& load = arr.measured_load();
  EXPECT_GT(load[0], load[1] * 10);

  // Migrate everything to PE 3 and verify routing still works.
  std::vector<int> everywhere(8, 3);
  int moves = arr.migrate_to(everywhere);
  EXPECT_GT(moves, 0);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(arr.location_of(i), 3);

  auto m2_done = 0;
  (void)m2_done;
  m->start(0, [&] {
    arr.invoke_all(2, nullptr, 0);
    charm.start_quiescence([] {});
  });
  m->run();
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(static_cast<EchoElem*>(arr.element(i))->invocations, 2);
  }
}

// -------------------------------------------------------------------- LB ----

TEST(LoadBalancer, GreedyBalancesHeavyTail) {
  std::vector<double> loads{100, 1, 1, 1, 1, 1, 1, 1, 50, 40};
  std::vector<int> current(10, 0);  // everything on PE 0
  LbResult r = greedy_lb(loads, current, 4);
  EXPECT_DOUBLE_EQ(r.max_load_before, 197.0);
  EXPECT_LE(r.max_load_after, 100.0 + 1.0);
  auto pl = pe_loads(loads, r.assignment, 4);
  for (double l : pl) EXPECT_LE(l, 100.0 + 1e-9);
}

TEST(LoadBalancer, GreedyIsDeterministic) {
  std::vector<double> loads{5, 3, 3, 2, 8, 1, 9, 4};
  std::vector<int> current(8, 0);
  auto a = greedy_lb(loads, current, 3).assignment;
  auto b = greedy_lb(loads, current, 3).assignment;
  EXPECT_EQ(a, b);
}

TEST(LoadBalancer, PeLoadsSumsMatch) {
  std::vector<double> loads{1, 2, 3, 4};
  std::vector<int> assign{0, 1, 0, 1};
  auto pl = pe_loads(loads, assign, 2);
  EXPECT_DOUBLE_EQ(pl[0], 4.0);
  EXPECT_DOUBLE_EQ(pl[1], 6.0);
}

}  // namespace
}  // namespace ugnirt::charm
