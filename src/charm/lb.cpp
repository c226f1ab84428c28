#include "charm/lb.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <queue>

namespace ugnirt::charm {

std::vector<double> pe_loads(const std::vector<double>& loads,
                             const std::vector<int>& assignment, int pes) {
  std::vector<double> out(static_cast<std::size_t>(pes), 0.0);
  for (std::size_t i = 0; i < loads.size(); ++i) {
    out[static_cast<std::size_t>(assignment[i])] += loads[i];
  }
  return out;
}

namespace {

double max_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

int count_moves(const std::vector<int>& a, const std::vector<int>& b) {
  int moves = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) ++moves;
  }
  return moves;
}

}  // namespace

LbResult greedy_lb(const std::vector<double>& loads,
                   const std::vector<int>& current, int pes) {
  assert(loads.size() == current.size());
  LbResult r;
  r.max_load_before = max_of(pe_loads(loads, current, pes));

  std::vector<std::size_t> order(loads.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (loads[a] != loads[b]) return loads[a] > loads[b];
    return a < b;  // deterministic ties
  });

  // Min-heap of (pe_load, pe).
  using Slot = std::pair<double, int>;
  std::priority_queue<Slot, std::vector<Slot>, std::greater<>> heap;
  for (int p = 0; p < pes; ++p) heap.emplace(0.0, p);

  r.assignment.assign(loads.size(), 0);
  for (std::size_t i : order) {
    auto [load, pe] = heap.top();
    heap.pop();
    r.assignment[i] = pe;
    heap.emplace(load + loads[i], pe);
  }
  r.max_load_after = max_of(pe_loads(loads, r.assignment, pes));
  r.migrations = count_moves(current, r.assignment);
  return r;
}

}  // namespace ugnirt::charm
