#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <vector>

#include "gemini/machine_config.hpp"
#include "gemini/network.hpp"
#include "sim/engine.hpp"
#include "util/config.hpp"
#include "util/rng.hpp"

namespace ugnirt::gemini {
namespace {

Network make_net(int nodes = 8) {
  static sim::Engine* engine = new sim::Engine();  // shared across cases
  return Network(engine->scheduler(), topo::Torus3D::for_nodes(nodes), MachineConfig{});
}

TransferTimes do_transfer(Network& net, Mechanism mech, std::uint64_t bytes,
                          SimTime issue = 0, int from = 0, int to = 1) {
  TransferRequest req;
  req.mech = mech;
  req.initiator_node = from;
  req.remote_node = to;
  req.bytes = bytes;
  req.issue = issue;
  return net.transfer(req);
}

// ------------------------------------------------------------- config ----

TEST(MachineConfig, DefaultsMatchPaperAnchors) {
  MachineConfig m;
  EXPECT_EQ(m.smsg_max_bytes, 1024u);   // §III-C default SMSG cap
  EXPECT_EQ(m.cores_per_node, 24);      // Hopper XE6 nodes
  EXPECT_EQ(m.mpi_eager_threshold, 8192u);
  // BTE beats FMA somewhere in the 2-8 KiB window (§II-A).
  double fma_8k = static_cast<double>(m.fma_put_startup_ns) + 8192 / m.fma_bw;
  double bte_8k = static_cast<double>(m.bte_put_startup_ns) + 8192 / m.bte_bw;
  double fma_2k = static_cast<double>(m.fma_put_startup_ns) + 2048 / m.fma_bw;
  double bte_2k = static_cast<double>(m.bte_put_startup_ns) + 2048 / m.bte_bw;
  EXPECT_GT(fma_8k, bte_8k) << "BTE must win by 8 KiB";
  EXPECT_LT(fma_2k, bte_2k) << "FMA must win at 2 KiB";
}

TEST(MachineConfig, SmsgCapShrinksWithJobSize) {
  MachineConfig m;
  EXPECT_EQ(m.smsg_max_for_job(24), 1024u);
  EXPECT_EQ(m.smsg_max_for_job(1024), 1024u);
  EXPECT_EQ(m.smsg_max_for_job(2048), 512u);
  EXPECT_EQ(m.smsg_max_for_job(15360), 256u);
  EXPECT_EQ(m.smsg_max_for_job(120000), 128u);
}

TEST(MachineConfig, CostHelpers) {
  MachineConfig m;
  EXPECT_EQ(m.pages(1), 1u);
  EXPECT_EQ(m.pages(4096), 1u);
  EXPECT_EQ(m.pages(4097), 2u);
  EXPECT_EQ(m.reg_cost(4096), m.mem_reg_base_ns + m.mem_reg_per_page_ns);
  EXPECT_GT(m.reg_cost(1 << 20), m.reg_cost(4096));
  EXPECT_GT(m.memcpy_cost(1 << 20), m.memcpy_cost(1024));
}

TEST(MachineConfig, ConfigOverridesApply) {
  ::setenv("UGNIRT_GEMINI_HOP_NS", "500", 1);
  ::setenv("UGNIRT_GEMINI_BTE_BW", "12.5", 1);
  ::setenv("UGNIRT_GEMINI_SMSG_MAX_BYTES", "2048", 1);
  MachineConfig m;
  overlay_env(m);
  ::unsetenv("UGNIRT_GEMINI_HOP_NS");
  ::unsetenv("UGNIRT_GEMINI_BTE_BW");
  ::unsetenv("UGNIRT_GEMINI_SMSG_MAX_BYTES");
  EXPECT_EQ(m.hop_ns, 500);
  EXPECT_DOUBLE_EQ(m.bte_bw, 12.5);
  EXPECT_EQ(m.smsg_max_bytes, 2048u);
  // Untouched values keep defaults.
  EXPECT_EQ(m.cq_poll_ns, MachineConfig{}.cq_poll_ns);
}

// ------------------------------------------------------------ network ----

TEST(Network, SmallSmsgLatencyNearPaperAnchor) {
  Network net = make_net();
  auto t = do_transfer(net, Mechanism::kSmsg, 8 + 16);
  // Pure uGNI 8-byte one-way latency is ~1.2 us on Hopper (Fig 9a); the
  // receive-side CPU cost is paid by the poller, so wire-side arrival must
  // land around 1.0-1.2 us.
  EXPECT_GT(t.data_arrival, 800);
  EXPECT_LT(t.data_arrival, 1400);
}

TEST(Network, LatencyMonotonicInSize) {
  for (Mechanism m : {Mechanism::kSmsg, Mechanism::kFmaPut,
                      Mechanism::kBtePut, Mechanism::kFmaGet,
                      Mechanism::kBteGet}) {
    Network net = make_net();
    SimTime prev = 0;
    for (std::uint64_t size : {64ull, 1024ull, 16384ull, 262144ull}) {
      auto t = do_transfer(net, m, size, /*issue=*/1'000'000'000 + 10'000'000 *
                            static_cast<SimTime>(size));
      SimTime lat = t.data_arrival - (1'000'000'000 + 10'000'000 *
                    static_cast<SimTime>(size));
      EXPECT_GE(lat, prev) << mechanism_name(m) << " size " << size;
      prev = lat;
    }
  }
}

TEST(Network, FmaOccupiesCpuButBteDoesNot) {
  Network net = make_net();
  const std::uint64_t size = 1 << 20;
  auto fma = do_transfer(net, Mechanism::kFmaPut, size, 0);
  auto bte = do_transfer(net, Mechanism::kBtePut, size, 1'000'000'000);
  // FMA: CPU busy for the whole push (>= size/fma_bw).
  EXPECT_GT(fma.cpu_done, static_cast<SimTime>(size / 3));
  // BTE: CPU free almost immediately (descriptor cost only).
  EXPECT_LT(bte.cpu_done - 1'000'000'000, 1000);
  // Both eventually deliver.
  EXPECT_GT(bte.data_arrival, bte.cpu_done);
}

TEST(Network, BteBeatsFmaForLargeAndLosesForSmall) {
  Network net1 = make_net();
  Network net2 = make_net();
  auto fma_small = do_transfer(net1, Mechanism::kFmaPut, 1024);
  auto bte_small = do_transfer(net2, Mechanism::kBtePut, 1024);
  EXPECT_LT(fma_small.data_arrival, bte_small.data_arrival);

  Network net3 = make_net();
  Network net4 = make_net();
  auto fma_big = do_transfer(net3, Mechanism::kFmaPut, 1 << 20);
  auto bte_big = do_transfer(net4, Mechanism::kBtePut, 1 << 20);
  EXPECT_GT(fma_big.data_arrival, bte_big.data_arrival);
}

TEST(Network, BandwidthApproachesConfiguredPeak) {
  Network net = make_net();
  const std::uint64_t size = 4 << 20;
  auto t = do_transfer(net, Mechanism::kBtePut, size);
  double bw = static_cast<double>(size) /
              static_cast<double>(t.data_arrival);  // bytes/ns
  EXPECT_GT(bw, net.config().bte_bw * 0.9);
  EXPECT_LE(bw, net.config().bte_bw * 1.01);
}

TEST(Network, BteEngineSerializesBackToBackTransfers) {
  Network net = make_net();
  const std::uint64_t size = 1 << 20;
  auto a = do_transfer(net, Mechanism::kBtePut, size, 0, 0, 1);
  // Second DMA from the same node posted immediately after must queue
  // behind the first on the BTE engine even though it goes elsewhere.
  auto b = do_transfer(net, Mechanism::kBtePut, size, 10, 0, 2);
  EXPECT_GE(b.data_arrival, a.data_arrival);
  EXPECT_GT(b.data_arrival - b.cpu_done, a.data_arrival - a.cpu_done);
}

TEST(Network, SharedLinksContend) {
  // Two big transfers sharing a route between different ASICs must queue
  // on the wire (ASIC-sibling pairs 0/1 bypass the torus entirely).
  Network net = make_net(8);
  const std::uint64_t size = 1 << 20;
  auto a = do_transfer(net, Mechanism::kFmaPut, size, 0, 0, 2);
  auto b = do_transfer(net, Mechanism::kFmaPut, size, 0, 0, 2);
  EXPECT_GT(net.stats().link_conflicts, 0u);
  // The second transfer is delayed by at least the first's link occupancy.
  EXPECT_GE(b.data_arrival,
            a.data_arrival + transfer_time(size, net.config().link_bw) / 2);
}

TEST(Network, AsicSiblingsBypassTorusLinks) {
  Network net = make_net(8);
  const std::uint64_t size = 1 << 20;
  do_transfer(net, Mechanism::kFmaPut, size, 0, 0, 1);  // same ASIC
  do_transfer(net, Mechanism::kFmaPut, size, 0, 0, 1);
  EXPECT_EQ(net.stats().link_conflicts, 0u);
}

TEST(Network, LoopbackUsesNoLinks) {
  Network net = make_net();
  auto t = do_transfer(net, Mechanism::kBtePut, 4096, 0, 2, 2);
  EXPECT_EQ(net.stats().link_conflicts, 0u);
  EXPECT_GT(t.data_arrival, 0);
  // And again: no queueing against torus links.
  do_transfer(net, Mechanism::kBtePut, 4096, 1, 2, 2);
  EXPECT_EQ(net.stats().link_conflicts, 0u);
}

TEST(Network, StatsAccumulateByMechanism) {
  Network net = make_net();
  do_transfer(net, Mechanism::kSmsg, 100);
  do_transfer(net, Mechanism::kFmaPut, 200);
  do_transfer(net, Mechanism::kBteGet, 300);
  EXPECT_EQ(net.stats().transfers, 3u);
  EXPECT_EQ(net.stats().bytes_smsg, 100u);
  EXPECT_EQ(net.stats().bytes_fma, 200u);
  EXPECT_EQ(net.stats().bytes_bte, 300u);
}

TEST(Network, GetRoundTripCostsMoreThanPut) {
  Network net1 = make_net();
  Network net2 = make_net();
  auto put = do_transfer(net1, Mechanism::kFmaPut, 4096);
  auto get = do_transfer(net2, Mechanism::kFmaGet, 4096);
  EXPECT_GT(get.data_arrival, put.data_arrival);
}

TEST(Network, BackfillLetsEarlyTransfersPassFutureReservations) {
  // A transfer issued with a far-future cursor must not block the link for
  // traffic that happens before it.
  Network net = make_net(8);
  const std::uint64_t size = 1 << 20;
  auto future = do_transfer(net, Mechanism::kFmaPut, size,
                            /*issue=*/5'000'000, 0, 2);
  auto early = do_transfer(net, Mechanism::kFmaPut, size, /*issue=*/0, 0, 2);
  // The early transfer backfills the idle gap and completes first.
  EXPECT_LT(early.data_arrival, future.data_arrival);
  EXPECT_LT(early.data_arrival, 2'000'000);
}

TEST(Network, SmsgChannelStaysFifoUnderCongestion) {
  // Even when link occupancy could let a later SMSG overtake, per-channel
  // FIFO must hold (verified at the uGNI level).
  sim::Engine engine;
  Network net(engine.scheduler(), topo::Torus3D::for_nodes(8), MachineConfig{});
  // Covered end-to-end by UgniPropertyFixture FIFO test; here we at least
  // confirm SMSG arrivals are monotonic for back-to-back sends.
  SimTime prev = 0;
  for (int i = 0; i < 10; ++i) {
    TransferRequest req;
    req.mech = Mechanism::kSmsg;
    req.initiator_node = 0;
    req.remote_node = 2;
    req.bytes = 64 + static_cast<std::uint64_t>(i) * 1000;
    req.issue = i;  // nearly simultaneous
    auto t = net.transfer(req);
    EXPECT_GE(t.data_arrival, prev - 2000)
        << "gross reordering at message " << i;
    prev = t.data_arrival;
  }
}

TEST(Network, DeterministicTransferTimes) {
  auto run = [] {
    Network net = make_net();
    std::vector<SimTime> v;
    for (int i = 0; i < 20; ++i) {
      auto t = do_transfer(net, i % 2 ? Mechanism::kBtePut
                                      : Mechanism::kFmaGet,
                           1024u << (i % 5), i * 100, i % 4, (i + 1) % 4);
      v.push_back(t.data_arrival);
    }
    return v;
  };
  EXPECT_EQ(run(), run());
}

// ---------------------------------------------------------- link observer ----

/// Records every hop; reports `loads[link]` to route steering.
struct RecordingObserver final : LinkObserver {
  struct Hop {
    std::size_t link;
    int initiator;
    SimTime wait;
  };
  void on_link_reserve(std::size_t link, int initiator_node, SimTime wait_ns,
                       SimTime, SimTime) override {
    hops.push_back({link, initiator_node, wait_ns});
  }
  double link_load(std::size_t link) const override { return loads[link]; }

  std::vector<Hop> hops;
  std::vector<double> loads = std::vector<double>(16 * 6, 0.0);
};

// One call per hop, in route order, naming the link and the initiator (a
// GET initiates at its reader); per link, the calls' counts and waits
// sum to the LinkSchedule totals.  Loopback and ASIC-sibling transfers
// reserve no link and make no call.
TEST(LinkObserver, OneCallPerHopSummingToTheLinkSchedules) {
  Network net = make_net(16);
  RecordingObserver obs;
  net.set_link_observer(&obs);
  do_transfer(net, Mechanism::kBtePut, 4096, 0, 2, 2);   // loopback
  do_transfer(net, Mechanism::kFmaPut, 4096, 0, 5, 4);   // ASIC siblings
  EXPECT_TRUE(obs.hops.empty());
  const int legs[][2] = {{0, 5}, {0, 5}, {7, 2}, {3, 12}};
  std::size_t at = 0;
  for (const auto& [from, to] : legs) {
    do_transfer(net, from == 7 ? Mechanism::kBteGet : Mechanism::kFmaPut,
                1 << 20, 0, from, to);
    const std::vector<topo::LinkId> route = net.torus().route(from, to);
    ASSERT_EQ(obs.hops.size(), at + route.size());
    for (const topo::LinkId& link : route) {
      EXPECT_EQ(obs.hops[at].link, topo::link_index(link));
      EXPECT_EQ(obs.hops[at++].initiator, from);
    }
  }
  // The repeated put queues behind the first on its first hop.
  EXPECT_EQ(obs.hops[0].wait, 0);
  EXPECT_GT(obs.hops[net.torus().route(0, 5).size()].wait, 0);
  std::vector<std::uint64_t> calls(net.torus().total_links(), 0);
  std::vector<SimTime> wait_ns(net.torus().total_links(), 0);
  for (const RecordingObserver::Hop& hop : obs.hops) {
    ++calls[hop.link];
    wait_ns[hop.link] += hop.wait;
  }
  for (std::size_t l = 0; l < calls.size(); ++l) {
    EXPECT_EQ(calls[l], net.link_schedule(l).reservations()) << l;
    EXPECT_EQ(wait_ns[l], net.link_schedule(l).wait_ns()) << l;
  }
}

// Only the observer installed as route steering is asked for link load:
// the same loads on a plain observer leave the stock x->y->z route.
TEST(LinkObserver, OnlyTheSteeringObserverMovesRoutes) {
  RecordingObserver obs;
  Network plain = make_net(16);
  for (const topo::LinkId& link : plain.torus().route(0, 5)) {
    obs.loads[topo::link_index(link)] = 1.0;  // the stock route is hot
  }
  plain.set_link_observer(&obs);
  do_transfer(plain, Mechanism::kFmaPut, 4096, 0, 0, 5);
  EXPECT_EQ(plain.stats().adaptive_reroutes, 0u);
  Network steered = make_net(16);
  steered.set_route_steering(&obs);
  do_transfer(steered, Mechanism::kFmaPut, 4096, 0, 0, 5);
  EXPECT_EQ(steered.stats().adaptive_reroutes, 1u);
}

// ---------------------------------------------------------- route oracle ----

/// The links topo::Torus3D::for_each_link visits, as link indices.
std::vector<std::size_t> torus_links(const topo::Torus3D& t, int a, int b,
                                     const std::array<int, 3>& order) {
  std::vector<std::size_t> links;
  t.for_each_link(a, b, order, [&links](const topo::LinkId& l) {
    links.push_back(topo::link_index(l));
  });
  return links;
}

/// The order route steering must pick for a -> b under `loads`: the lowest
/// summed load, the first of the six in a tie.
std::array<int, 3> coolest_order(const topo::Torus3D& t, int a, int b,
                                 const RecordingObserver& loads) {
  static constexpr std::array<std::array<int, 3>, 6> kOrders = {{
      {0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0},
  }};
  std::array<int, 3> best = kOrders[0];
  double best_load = 0.0;
  for (std::size_t i = 0; i < kOrders.size(); ++i) {
    double load = 0.0;
    for (std::size_t l : torus_links(t, a, b, kOrders[i])) {
      load += loads.link_load(l);
    }
    if (i == 0 || load < best_load) {
      best = kOrders[i];
      best_load = load;
    }
  }
  return best;
}

/// Checks one pair: Network::hops equals Torus3D::hops, and the transfer
/// reserves exactly the links for_each_link visits, in order (none between
/// ASIC siblings).  With `steered`, the network steers routes by the
/// observer's loads and the links are those of the coolest order.
void check_route(Network& net, RecordingObserver& obs, int a, int b,
                 bool steered) {
  const topo::Torus3D& t = net.torus();
  ASSERT_EQ(net.hops(a, b), t.hops(a, b)) << a << " -> " << b;
  obs.hops.clear();
  do_transfer(net, Mechanism::kFmaPut, 64, 0, a, b);
  std::vector<std::size_t> got;
  for (const RecordingObserver::Hop& hop : obs.hops) got.push_back(hop.link);
  std::vector<std::size_t> want;
  if (a / 2 != b / 2) {
    want = torus_links(t, a, b,
                       steered ? coolest_order(t, a, b, obs)
                               : std::array<int, 3>{0, 1, 2});
  }
  ASSERT_EQ(got, want) << a << " -> " << b;
}

// The network computes a route's geometry from its own coordinate table
// and walks link indices; topo::Torus3D is the oracle.  Every pair of
// 2x2x2, 2x3x5 and the 160-node torus of Tables I and II, stock and
// steered by a fixed pseudo-random load per link.
TEST(RouteOracle, EveryPairOfSmallToriMatchesTorus3D) {
  for (const topo::Torus3D& torus :
       {topo::Torus3D(2, 2, 2), topo::Torus3D(2, 3, 5),
        topo::Torus3D::for_nodes(160)}) {
    for (const bool steered : {false, true}) {
      sim::Engine engine;
      Network net(engine.scheduler(), torus, MachineConfig{});
      RecordingObserver obs;
      obs.loads.resize(torus.total_links());
      for (std::size_t l = 0; l < obs.loads.size(); ++l) {
        obs.loads[l] = static_cast<double>((l * 0x9E3779B97F4A7C15ull) >> 58);
      }
      net.set_link_observer(&obs);
      if (steered) net.set_route_steering(&obs);
      for (int a = 0; a < torus.nodes(); ++a) {
        for (int b = 0; b < torus.nodes(); ++b) {
          ASSERT_NO_FATAL_FAILURE(check_route(net, obs, a, b, steered));
        }
      }
    }
  }
}

// 20,000 seeded pairs of the 65,536-node torus, on a fresh network every
// 1,000 pairs so the touched link schedules stay few.
TEST(RouteOracle, SeededPairsOfTheLargeTorusMatchTorus3D) {
  const topo::Torus3D torus = topo::Torus3D::for_nodes(65536);
  sim::Engine engine;
  RecordingObserver obs;
  Rng rng(65536);
  for (int batch = 0; batch < 20; ++batch) {
    Network net(engine.scheduler(), torus, MachineConfig{});
    net.set_link_observer(&obs);
    for (int i = 0; i < 1000; ++i) {
      const int a = static_cast<int>(rng.next_below(65536));
      const int b = static_cast<int>(rng.next_below(65536));
      ASSERT_NO_FATAL_FAILURE(check_route(net, obs, a, b, false));
    }
  }
}

}  // namespace
}  // namespace ugnirt::gemini
