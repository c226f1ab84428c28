#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "topo/torus.hpp"

namespace ugnirt::topo {
namespace {

TEST(Torus, CoordinateRoundTrip) {
  Torus3D t(4, 3, 2);
  EXPECT_EQ(t.nodes(), 24);
  for (int n = 0; n < t.nodes(); ++n) {
    EXPECT_EQ(t.node_of(t.coord_of(n)), n);
  }
}

TEST(Torus, FactoringCoversNodesWithNearCubicVolume) {
  for (int n : {1, 2, 3, 5, 8, 16, 24, 64, 100, 128, 160, 640, 6384}) {
    Torus3D t = Torus3D::for_nodes(n);
    auto d = t.dims();
    // Enough slots for the job, without gross overallocation, and no
    // degenerate 1-wide dimensions past the 2-node case (real jobs sit on
    // slices of a genuinely 3-D torus).
    EXPECT_GE(d[0] * d[1] * d[2], n) << "n=" << n;
    EXPECT_LE(d[0] * d[1] * d[2], std::max(8, 2 * n)) << "n=" << n;
    if (n > 2) {
      EXPECT_GE(d[0], 2) << "n=" << n;
      EXPECT_GE(d[1], 2) << "n=" << n;
    }
  }
  // Perfect cubes factor perfectly.
  auto d = Torus3D::for_nodes(64).dims();
  EXPECT_EQ(d[0], 4);
  EXPECT_EQ(d[1], 4);
  EXPECT_EQ(d[2], 4);
}

TEST(Torus, HopsAreSymmetricAndZeroOnSelf) {
  Torus3D t(4, 4, 4);
  for (int a = 0; a < t.nodes(); a += 7) {
    EXPECT_EQ(t.hops(a, a), 0);
    for (int b = 0; b < t.nodes(); b += 5) {
      EXPECT_EQ(t.hops(a, b), t.hops(b, a));
    }
  }
}

TEST(Torus, WraparoundShortensRoutes) {
  Torus3D t(8, 1, 1);
  // 0 -> 7 is one hop backwards around the ring, not 7 forward.
  EXPECT_EQ(t.hops(0, 7), 1);
  EXPECT_EQ(t.hops(0, 4), 4);  // antipodal
  EXPECT_EQ(t.hops(1, 6), 3);
}

TEST(Torus, RouteLengthMatchesHopsAndEndsAtTarget) {
  Torus3D t(4, 3, 5);
  for (int a = 0; a < t.nodes(); a += 3) {
    for (int b = 0; b < t.nodes(); b += 7) {
      auto route = t.route(a, b);
      EXPECT_EQ(static_cast<int>(route.size()), t.hops(a, b));
      // Walk the route and confirm it lands on b.
      int cur = a;
      for (const auto& link : route) {
        EXPECT_EQ(link.node, cur);
        cur = t.neighbor(cur, link.dim, link.positive);
      }
      EXPECT_EQ(cur, b);
    }
  }
}

TEST(Torus, RouteIsDimensionOrdered) {
  Torus3D t(4, 4, 4);
  auto route = t.route(0, t.node_of({2, 1, 3}));
  // x links first, then y, then z.
  int last_dim = -1;
  for (const auto& link : route) {
    EXPECT_GE(static_cast<int>(link.dim), last_dim);
    last_dim = link.dim;
  }
}

TEST(Torus, SelfRouteIsEmpty) {
  Torus3D t(3, 3, 3);
  EXPECT_TRUE(t.route(5, 5).empty());
}

// Every dimension-order permutation yields a minimal route that walks to
// the destination — the invariant congestion-aware adaptive routing
// relies on when it picks among them by estimated link load.
TEST(Torus, RouteOrderAllPermutationsMinimalAndCorrect) {
  constexpr std::array<std::array<int, 3>, 6> kOrders = {{{0, 1, 2},
                                                          {0, 2, 1},
                                                          {1, 0, 2},
                                                          {1, 2, 0},
                                                          {2, 0, 1},
                                                          {2, 1, 0}}};
  Torus3D t(4, 3, 5);
  for (int a = 0; a < t.nodes(); a += 5) {
    for (int b = 0; b < t.nodes(); b += 3) {
      for (const auto& order : kOrders) {
        auto route = t.route_order(a, b, order);
        EXPECT_EQ(static_cast<int>(route.size()), t.hops(a, b));
        int cur = a;
        std::size_t pos = 0;  // dims must be corrected in `order` order
        for (const auto& link : route) {
          EXPECT_EQ(link.node, cur);
          while (pos < 3 && order[pos] != static_cast<int>(link.dim)) ++pos;
          ASSERT_LT(pos, 3u) << "dim " << int(link.dim)
                             << " out of permutation order";
          cur = t.neighbor(cur, link.dim, link.positive);
        }
        EXPECT_EQ(cur, b);
      }
    }
  }
}

// route() is the stock permutation, and for every permutation the
// allocation-free visitor and route_order() walk the same links in the
// same order as an independent hop-by-hop walk over neighbor().
TEST(Torus, RouteOrderStockPermutationMatchesRoute) {
  constexpr std::array<std::array<int, 3>, 6> kOrders = {{{0, 1, 2},
                                                          {0, 2, 1},
                                                          {1, 0, 2},
                                                          {1, 2, 0},
                                                          {2, 0, 1},
                                                          {2, 1, 0}}};
  Torus3D t(4, 4, 2);
  auto reference = [&t](int a, int b, const std::array<int, 3>& order) {
    const Coord ca = t.coord_of(a);
    const Coord cb = t.coord_of(b);
    const int from[3] = {ca.x, ca.y, ca.z};
    const int to[3] = {cb.x, cb.y, cb.z};
    std::vector<LinkId> links;
    int cur = a;
    for (int dim : order) {
      const int n = t.dims()[static_cast<std::size_t>(dim)];
      const int fwd = (to[dim] - from[dim] + n) % n;
      const bool positive = fwd <= n - fwd;  // ties go positive
      for (int s = positive ? fwd : n - fwd; s > 0; --s) {
        links.push_back(LinkId{cur, static_cast<std::uint8_t>(dim), positive});
        cur = t.neighbor(cur, dim, positive);
      }
    }
    return links;
  };
  for (int a = 0; a < t.nodes(); a += 3) {
    for (int b = 0; b < t.nodes(); b += 5) {
      EXPECT_EQ(t.route_order(a, b, {0, 1, 2}), t.route(a, b));
      for (const auto& order : kOrders) {
        const std::vector<LinkId> expected = reference(a, b, order);
        std::vector<LinkId> visited;
        t.for_each_link(a, b, order, [&visited](const LinkId& link) {
          visited.push_back(link);
        });
        EXPECT_EQ(visited, expected) << a << "->" << b;
        EXPECT_EQ(t.route_order(a, b, order), expected) << a << "->" << b;
      }
    }
  }
}

TEST(Torus, NeighborWrapsBothDirections) {
  Torus3D t(3, 1, 1);
  EXPECT_EQ(t.neighbor(2, 0, true), 0);
  EXPECT_EQ(t.neighbor(0, 0, false), 2);
}

TEST(Torus, LinkIndexIsDenseAndUnique) {
  Torus3D t(2, 2, 2);
  std::vector<bool> seen(t.total_links(), false);
  for (int n = 0; n < t.nodes(); ++n) {
    for (std::uint8_t dim = 0; dim < 3; ++dim) {
      for (bool pos : {false, true}) {
        std::size_t idx = link_index(LinkId{n, dim, pos});
        ASSERT_LT(idx, t.total_links());
        EXPECT_FALSE(seen[idx]);
        seen[idx] = true;
      }
    }
  }
}

TEST(Torus, DiameterBoundsHops) {
  Torus3D t(6, 4, 4);
  int max_hops = 0;
  for (int a = 0; a < t.nodes(); a += 5) {
    for (int b = 0; b < t.nodes(); ++b) {
      max_hops = std::max(max_hops, t.hops(a, b));
    }
  }
  EXPECT_LE(max_hops, t.diameter());
  EXPECT_EQ(t.diameter(), 3 + 2 + 2);
}

TEST(Torus, DegenerateSingleNode) {
  Torus3D t = Torus3D::for_nodes(1);
  EXPECT_EQ(t.nodes(), 1);
  EXPECT_EQ(t.hops(0, 0), 0);
  EXPECT_TRUE(t.route(0, 0).empty());
}

}  // namespace
}  // namespace ugnirt::topo
