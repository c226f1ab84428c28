#include "gemini/network.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <ostream>

#include "fault/fault.hpp"

namespace ugnirt::gemini {

const char* mechanism_name(Mechanism m) {
  switch (m) {
    case Mechanism::kSmsg:
      return "SMSG";
    case Mechanism::kFmaPut:
      return "FMA_PUT";
    case Mechanism::kFmaGet:
      return "FMA_GET";
    case Mechanism::kBtePut:
      return "BTE_PUT";
    case Mechanism::kBteGet:
      return "BTE_GET";
  }
  return "?";
}

Network::Network(sim::Scheduler& sched, topo::Torus3D torus,
                 MachineConfig config)
    : sched_(&sched),
      torus_(std::move(torus)),
      config_(config),
      links_(torus_.total_links()),
      bte_free_(static_cast<std::size_t>(torus_.nodes()), 0),
      dims_(torus_.dims()) {
  // Node ids run x fastest, then y, then z (topo::Torus3D::node_of).
  coords_.reserve(static_cast<std::size_t>(torus_.nodes()));
  for (int z = 0; z < dims_[2]; ++z) {
    for (int y = 0; y < dims_[1]; ++y) {
      for (int x = 0; x < dims_[0]; ++x) coords_.push_back({x, y, z});
    }
  }
  // So one hop along a dimension moves the node id by the product of the
  // lower dimensions, and there are six links per node (topo::link_index).
  link_stride_ = {6, 6 * static_cast<std::size_t>(dims_[0]),
                  6 * static_cast<std::size_t>(dims_[0]) *
                      static_cast<std::size_t>(dims_[1])};
}

SimTime LinkSchedule::reserve(SimTime earliest, SimTime duration,
                              bool* waited) {
  if (!b_) {
    b_ = std::make_unique<Block>();
    std::fill_n(b_->start, kSlots, kNever);
    std::fill_n(b_->end, kSlots, kNever);
  }
  Block& b = *b_;
  SimTime* const s = b.start;
  SimTime* const e = b.end;
  // The list is sorted, disjoint and non-touching, so the ends are sorted
  // too.  An interval that ends at or before `earliest` can neither delay
  // the candidate nor fit it: count them (unused slots end at kNever, so
  // every slot can be counted) and start the search after them.
  std::size_t at = 0;
  for (std::size_t i = 0; i < kSlots; ++i) at += e[i] <= earliest;
  // Find the first idle gap of `duration` at or after `earliest`.  Every
  // interval from here on ends after the candidate (the first by the count
  // above, the others by the gaps), so one that leaves no room pushes the
  // candidate to its end.  At most kMaxIntervals slots are live, so the
  // search stops at the first unused slot, which starts at kNever.
  SimTime candidate = earliest;
  for (; candidate + duration > s[at]; ++at) candidate = e[at];
  if (candidate > earliest) {
    *waited = true;
    ++b.waits;
    b.wait_ns += candidate - earliest;
  }
  ++b.reservations;
  b.busy_ns += duration;
  // Everything before `at` ends at or before the candidate and `at`
  // starts at or after its end, so the new interval can only touch its
  // two neighbours: merge with them, or insert it between them.
  std::size_t n = b.n;
  auto erase = [s, e, &n](std::size_t i) {
    std::copy(s + i + 1, s + n, s + i);
    std::copy(e + i + 1, e + n, e + i);
    --n;
    s[n] = kNever;
    e[n] = kNever;
  };
  const SimTime end = candidate + duration;
  const bool left = at > 0 && e[at - 1] == candidate;
  const bool right = s[at] == end;
  if (left && right) {
    e[at - 1] = e[at];
    erase(at);
  } else if (left) {
    e[at - 1] = end;
  } else if (right) {
    s[at] = candidate;
  } else {
    std::copy_backward(s + at, s + n, s + n + 1);
    std::copy_backward(e + at, e + n, e + n + 1);
    s[at] = candidate;
    e[at] = end;
    ++n;
  }
  if (n > kMaxIntervals) {
    // Bound the bookkeeping: merge the pair with the smallest gap (the
    // first such pair; over-reserves slightly).  One insert adds at most
    // one interval, so one merge restores the bound.
    std::size_t best = 0;
    SimTime best_gap = s[1] - e[0];
    for (std::size_t i = 1; i < kMaxIntervals; ++i) {
      const SimTime gap = s[i + 1] - e[i];
      const bool smaller = gap < best_gap;
      best = smaller ? i : best;
      best_gap = smaller ? gap : best_gap;
    }
    e[best] = e[best + 1];
    erase(best + 1);
  }
  b.n = n;
  return candidate;
}

std::vector<LinkSchedule::Busy> LinkSchedule::intervals() const {
  std::vector<Busy> out;
  if (b_) {
    for (std::size_t i = 0; i < b_->n; ++i) {
      out.push_back(Busy{b_->start[i], b_->end[i]});
    }
  }
  return out;
}

const std::array<int, 3>& Network::pick_order(int from, int to) {
  // Minimal adaptive routing: every permutation of the dimension
  // correction order is a minimal route; score each by the summed
  // estimated load of its links and keep the coolest.  The stock x->y->z order is
  // scored first and wins ties, so an unloaded network routes exactly
  // as stock (and so does any route confined to one dimension, where
  // all permutations coincide).
  static constexpr std::array<std::array<int, 3>, 6> kOrders = {{
      {0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0},
  }};
  if (!steering_) return kOrders[0];
  auto score = [&](const std::array<int, 3>& order) {
    double s = 0.0;
    torus_.for_each_link(from, to, order, [&](const topo::LinkId& link) {
      s += steering_->link_load(topo::link_index(link));
    });
    return s;
  };
  std::size_t best = 0;
  double best_score = score(kOrders[0]);
  for (std::size_t i = 1; i < kOrders.size(); ++i) {
    const double s = score(kOrders[i]);
    if (s < best_score) {
      best = i;
      best_score = s;
    }
  }
  if (best != 0) ++stats_.adaptive_reroutes;
  return kOrders[best];
}

SimTime Network::reserve_route(int from, int to, const Route& r,
                               SimTime duration, SimTime earliest) {
  // NIC loopback uses no torus link, and each Gemini ASIC serves two nodes
  // over the Netlink (paper Fig 2): traffic between ASIC siblings never
  // enters the torus.
  if (from / 2 == to / 2) return earliest;
  // Cut-through pipelining: the head flit claims each link as it reaches
  // it, so congestion on a link only delays *downstream* hops, and idle
  // gaps before future-dated reservations are backfilled.
  SimTime cursor = earliest;
  bool waited = false;
  auto hop = [&](std::size_t idx) {
    const SimTime start = links_[idx].reserve(cursor, duration, &waited);
    if (observer_) {
      observer_->on_link_reserve(idx, from, start - cursor, duration,
                                 earliest);
    }
    cursor = start;
  };
  // The walk topo::Torus3D::for_each_link makes, on link indices: a hop
  // along `dim` moves the current node's first link by that dimension's
  // stride, and back by a whole ring when it wraps.
  const std::array<int, 3>& at = coords_[static_cast<std::size_t>(from)];
  std::size_t node_link = static_cast<std::size_t>(from) * 6;
  for (int dim : pick_order(from, to)) {
    const int last = dims_[dim] - 1;
    const std::size_t stride = link_stride_[dim];
    const std::size_t wrap = stride * static_cast<std::size_t>(last);
    int c = at[dim];  // unchanged by the dimensions walked before it
    const std::size_t dir = static_cast<std::size_t>(dim) * 2;
    for (int d = r.delta[dim]; d > 0; --d) {
      hop(node_link + dir + 1);
      if (c == last) {
        c = 0;
        node_link -= wrap;
      } else {
        ++c;
        node_link += stride;
      }
    }
    for (int d = r.delta[dim]; d < 0; ++d) {
      hop(node_link + dir);
      if (c == 0) {
        c = last;
        node_link += wrap;
      } else {
        --c;
        node_link -= stride;
      }
    }
  }
  assert(node_link == static_cast<std::size_t>(to) * 6);
  if (waited) ++stats_.link_conflicts;
  return cursor;
}

TransferTimes Network::transfer(const TransferRequest& req) {
  const MachineConfig& c = config_;
  TransferTimes t;
  ++stats_.transfers;

  // The route's geometry, once: its hop count sets the one-way wire
  // propagation, and reserve_route walks its links.
  const Route path = route(req.initiator_node, req.remote_node);
  const SimTime prop = static_cast<SimTime>(path.hops) * c.hop_ns;

  // Link faults: a blackout delays the route reservation, degradation
  // stretches serialization (both the link occupancy and the payload
  // stream, which is bottlenecked by the slowest hop).
  SimTime fault_delay = 0;
  double slowdown = 1.0;
  if (fault_ && req.initiator_node != req.remote_node) {
    fault::LinkFault lf =
        fault_->link_fault(req.initiator_node, req.remote_node, req.issue);
    fault_delay = lf.delay;
    slowdown = lf.slowdown;
  }
  auto scaled = [slowdown](SimTime d) {
    return static_cast<SimTime>(static_cast<double>(d) * slowdown);
  };

  switch (req.mech) {
    case Mechanism::kSmsg: {
      stats_.bytes_smsg += req.bytes;
      // Sender CPU writes header+payload through the FMA window.
      t.cpu_done = req.issue + c.smsg_cpu_send_ns;
      SimTime payload =
          scaled(static_cast<SimTime>(static_cast<double>(req.bytes) *
                                      c.smsg_per_byte_ns));
      SimTime wire = c.smsg_wire_startup_ns + payload;
      // Links are occupied only for the packet's wire serialization at the
      // link rate; the NIC pipeline startup is not a link resource.
      SimTime start = reserve_route(req.initiator_node, req.remote_node, path,
                                    scaled(transfer_time(req.bytes, c.link_bw)),
                                    t.cpu_done + fault_delay);
      t.data_arrival = start + wire + prop;
      // Delivery ack (SSID completion) returns to the sender's TX CQ.
      t.initiator_complete = t.data_arrival + prop;
      break;
    }
    case Mechanism::kFmaPut:
    case Mechanism::kFmaGet: {
      stats_.bytes_fma += req.bytes;
      const bool is_get = req.mech == Mechanism::kFmaGet;
      SimTime startup = is_get ? c.fma_get_startup_ns : c.fma_put_startup_ns;
      SimTime stream = scaled(transfer_time(req.bytes, c.fma_bw));
      // The CPU owns the FMA window for the entire payload push/pull.
      t.cpu_done = req.issue + c.fma_desc_ns + startup + stream;
      SimTime start =
          reserve_route(req.initiator_node, req.remote_node, path,
                        scaled(transfer_time(req.bytes, c.link_bw)),
                        req.issue + c.fma_desc_ns + startup + fault_delay);
      if (is_get) {
        // Request travels out, responses stream back to the initiator.
        t.data_arrival = start + stream + 2 * prop;
        t.initiator_complete = t.data_arrival;
        t.cpu_done = std::max(t.cpu_done, t.data_arrival);
      } else {
        t.data_arrival = start + stream + prop;
        t.initiator_complete = t.data_arrival + prop;  // network-level ack
      }
      break;
    }
    case Mechanism::kBtePut:
    case Mechanism::kBteGet: {
      stats_.bytes_bte += req.bytes;
      const bool is_get = req.mech == Mechanism::kBteGet;
      SimTime startup = is_get ? c.bte_get_startup_ns : c.bte_put_startup_ns;
      // CPU only writes the descriptor; the NIC's DMA engine does the rest.
      t.cpu_done = req.issue + c.bte_desc_ns;
      std::size_t nic = static_cast<std::size_t>(req.initiator_node);
      SimTime engine_ready = std::max(t.cpu_done, bte_free_[nic]);
      SimTime stream = scaled(transfer_time(req.bytes, c.bte_bw));
      // The DMA engine streams queued descriptors back to back; the
      // startup pipeline adds latency per transfer but does not idle the
      // engine between them.
      SimTime start = reserve_route(req.initiator_node, req.remote_node, path,
                                    scaled(transfer_time(req.bytes, c.link_bw)),
                                    engine_ready + fault_delay);
      bte_free_[nic] = start + stream;
      if (is_get) {
        t.data_arrival = start + startup + stream + 2 * prop;
        t.initiator_complete = t.data_arrival;
      } else {
        t.data_arrival = start + startup + stream + prop;
        t.initiator_complete = t.data_arrival + prop;
      }
      break;
    }
  }
  assert(t.data_arrival >= req.issue);
  return t;
}

void Network::collect_metrics(trace::MetricsRegistry& reg) const {
  reg.counter("net.transfers").set(stats_.transfers);
  reg.counter("net.bytes_smsg").set(stats_.bytes_smsg);
  reg.counter("net.bytes_fma").set(stats_.bytes_fma);
  reg.counter("net.bytes_bte").set(stats_.bytes_bte);
  reg.counter("net.link_conflicts").set(stats_.link_conflicts);
  std::uint64_t waits = 0;
  SimTime wait_ns = 0;
  // Refilled on every collect, so collecting twice reads the same.
  RunningStat& busy = reg.stat("net.link_busy_ns");
  busy = RunningStat{};
  for (const LinkSchedule& link : links_) {
    if (link.reservations() == 0) continue;  // untouched links skew the mean
    waits += link.waits();
    wait_ns += link.wait_ns();
    busy.add(static_cast<double>(link.busy_ns()));
  }
  reg.counter("net.link_waits").set(waits);
  reg.counter("net.link_wait_ns").set(static_cast<std::uint64_t>(wait_ns));
  if (fault_) fault_->collect_metrics(reg);
}

void Network::write_link_csv(std::ostream& out) const {
  out << "link,node,x,y,z,dim,dir,reservations,busy_ns,waits,wait_ns\n";
  for (std::size_t idx = 0; idx < links_.size(); ++idx) {
    const LinkSchedule& link = links_[idx];
    if (link.reservations() == 0) continue;
    // Inverse of topo::link_index: 6 directional links per node.
    int node = static_cast<int>(idx / 6);
    int dim = static_cast<int>((idx % 6) / 2);
    bool positive = (idx % 2) != 0;
    topo::Coord c = torus_.coord_of(node);
    out << idx << ',' << node << ',' << c.x << ',' << c.y << ',' << c.z
        << ',' << "xyz"[dim] << ',' << (positive ? '+' : '-') << ','
        << link.reservations() << ',' << link.busy_ns() << ','
        << link.waits() << ',' << link.wait_ns() << '\n';
  }
}

}  // namespace ugnirt::gemini
