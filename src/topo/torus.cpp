#include "topo/torus.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>

namespace ugnirt::topo {

Torus3D::Torus3D(int dim_x, int dim_y, int dim_z)
    : dims_{dim_x, dim_y, dim_z} {
  assert(dim_x >= 1 && dim_y >= 1 && dim_z >= 1);
}

Torus3D Torus3D::for_nodes(int nodes) {
  assert(nodes >= 1);
  if (nodes <= 2) return Torus3D(1, 1, nodes);
  // Jobs on a real XE6 land on a slice of a genuinely 3-D torus with full
  // 6-way connectivity; a degenerate 1-D factorization (e.g. 5 = 1x1x5)
  // would starve the job of links it physically has.  Choose the smallest
  // near-cubic torus with every dimension >= 2 that holds `nodes`; slots
  // beyond `nodes` are simply unoccupied.
  int best_x = 2, best_y = 2, best_z = (nodes + 3) / 4;
  long best_volume = 4L * best_z;
  for (int x = 2; x * x * x <= 4 * nodes; ++x) {
    for (int y = x; x * y * y <= 4 * nodes; ++y) {
      int z = std::max(y, (nodes + x * y - 1) / (x * y));
      long volume = static_cast<long>(x) * y * z;
      if (volume < best_volume ||
          (volume == best_volume && z - x < best_z - best_x)) {
        best_volume = volume;
        best_x = x;
        best_y = y;
        best_z = z;
      }
    }
  }
  return Torus3D(best_x, best_y, best_z);
}

Coord Torus3D::coord_of(int node) const {
  assert(node >= 0 && node < nodes());
  Coord c;
  c.x = node % dims_[0];
  c.y = (node / dims_[0]) % dims_[1];
  c.z = node / (dims_[0] * dims_[1]);
  return c;
}

int Torus3D::node_of(const Coord& c) const {
  assert(c.x >= 0 && c.x < dims_[0]);
  assert(c.y >= 0 && c.y < dims_[1]);
  assert(c.z >= 0 && c.z < dims_[2]);
  return c.x + dims_[0] * (c.y + dims_[1] * c.z);
}

int Torus3D::ring_delta(int a, int b, int n) {
  int fwd = (b - a + n) % n;   // hops going positive
  int bwd = n - fwd;           // hops going negative
  if (fwd == 0) return 0;
  return (fwd <= bwd) ? fwd : -bwd;
}

int Torus3D::hops(int from, int to) const {
  Coord a = coord_of(from);
  Coord b = coord_of(to);
  return std::abs(ring_delta(a.x, b.x, dims_[0])) +
         std::abs(ring_delta(a.y, b.y, dims_[1])) +
         std::abs(ring_delta(a.z, b.z, dims_[2]));
}

int Torus3D::neighbor(int node, int dim, bool positive) const {
  Coord c = coord_of(node);
  int* axis = dim == 0 ? &c.x : dim == 1 ? &c.y : &c.z;
  int n = dims_[dim];
  *axis = (*axis + (positive ? 1 : n - 1)) % n;
  return node_of(c);
}

std::vector<LinkId> Torus3D::route(int from, int to) const {
  return route_order(from, to, {0, 1, 2});
}

std::vector<LinkId> Torus3D::route_order(int from, int to,
                                         const std::array<int, 3>& order)
    const {
  std::vector<LinkId> links;
  for_each_link(from, to, order,
                [&links](const LinkId& link) { links.push_back(link); });
  return links;
}

int Torus3D::diameter() const {
  return dims_[0] / 2 + dims_[1] / 2 + dims_[2] / 2;
}

}  // namespace ugnirt::topo
