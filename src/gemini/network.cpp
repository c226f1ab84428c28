#include "gemini/network.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <ostream>

#include "fault/fault.hpp"
#include "flowcontrol/flowcontrol.hpp"

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
      bte_free_(static_cast<std::size_t>(torus_.nodes()), 0) {}

SimTime LinkSchedule::reserve(SimTime earliest, SimTime duration,
                              bool* waited) {
  // Find the first idle gap of `duration` at or after `earliest`.
  SimTime candidate = earliest;
  std::size_t insert_at = 0;
  for (; insert_at < busy_.size(); ++insert_at) {
    const Busy& b = busy_[insert_at];
    if (candidate + duration <= b.start) break;  // fits before this interval
    if (b.end > candidate) candidate = b.end;    // pushed past it
  }
  if (candidate > earliest) {
    *waited = true;
    ++waits_;
    wait_ns_ += candidate - earliest;
  }
  ++reservations_;
  busy_ns_ += duration;
  busy_.insert(busy_.begin() + static_cast<std::ptrdiff_t>(insert_at),
               Busy{candidate, candidate + duration});
  // Merge touching neighbors and bound the bookkeeping.
  for (std::size_t i = 0; i + 1 < busy_.size();) {
    if (busy_[i].end >= busy_[i + 1].start) {
      busy_[i].end = std::max(busy_[i].end, busy_[i + 1].end);
      busy_.erase(busy_.begin() + static_cast<std::ptrdiff_t>(i) + 1);
    } else {
      ++i;
    }
  }
  while (busy_.size() > kMaxIntervals) {
    // Merge the pair with the smallest gap (over-reserves slightly).
    std::size_t best = 0;
    SimTime best_gap = kNever;
    for (std::size_t i = 0; i + 1 < busy_.size(); ++i) {
      SimTime gap = busy_[i + 1].start - busy_[i].end;
      if (gap < best_gap) {
        best_gap = gap;
        best = i;
      }
    }
    busy_[best].end = busy_[best + 1].end;
    busy_.erase(busy_.begin() + static_cast<std::ptrdiff_t>(best) + 1);
  }
  return candidate;
}

const std::array<int, 3>& Network::pick_order(int from, int to) {
  // Minimal adaptive routing: every permutation of the dimension
  // correction order is a minimal route; score each by the summed EWMA
  // load of its links and keep the coolest.  The stock x->y->z order is
  // scored first and wins ties, so an unloaded network routes exactly
  // as stock (and so does any route confined to one dimension, where
  // all permutations coincide).
  static constexpr std::array<std::array<int, 3>, 6> kOrders = {{
      {0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0},
  }};
  if (!estimator_ || !estimator_->config().adaptive_routing) {
    return kOrders[0];
  }
  auto score = [&](const std::array<int, 3>& order) {
    double s = 0.0;
    torus_.for_each_link(from, to, order, [&](const topo::LinkId& link) {
      s += estimator_->link_load(topo::link_index(link));
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

SimTime Network::reserve_route(int from, int to, SimTime duration,
                               SimTime earliest) {
  if (from == to) return earliest;  // NIC loopback: no torus links used
  // Each Gemini ASIC serves two nodes over the Netlink (paper Fig 2):
  // traffic between ASIC siblings never enters the torus.
  if (from / 2 == to / 2) return earliest;
  // Cut-through pipelining: the head flit claims each link as it reaches
  // it, so congestion on a link only delays *downstream* hops, and idle
  // gaps before future-dated reservations are backfilled.
  SimTime cursor = earliest;
  bool waited = false;
  SimTime route_wait = 0;
  std::size_t hops = 0;
  const std::array<int, 3>& order = pick_order(from, to);
  torus_.for_each_link(from, to, order, [&](const topo::LinkId& link) {
    const std::size_t idx = topo::link_index(link);
    const SimTime start = links_[idx].reserve(cursor, duration, &waited);
    if (estimator_) {
      estimator_->on_link_reserve(idx, from, start - cursor, duration,
                                  earliest);
    }
    route_wait += start - cursor;
    cursor = start;
    ++hops;
  });
  if (waited) ++stats_.link_conflicts;
  if (!job_of_node_.empty()) {
    // Tenancy attribution: charge the reservation (and its queueing) to
    // the initiating node's job.  Rendezvous GETs initiate at the
    // receiver, which for intra-job traffic is the same job either way.
    const std::int16_t job = job_of_node_[static_cast<std::size_t>(from)];
    if (job >= 0) {
      JobLinkStats& js = job_link_[static_cast<std::size_t>(job)];
      js.reservations += hops;
      js.wait_ns += route_wait;
    }
  }
  return cursor;
}

void Network::set_job_of_node(std::vector<std::int16_t> jobs, int num_jobs) {
  job_of_node_ = std::move(jobs);
  job_link_.assign(static_cast<std::size_t>(num_jobs), JobLinkStats{});
}

TransferTimes Network::transfer(const TransferRequest& req) {
  const MachineConfig& c = config_;
  TransferTimes t;
  ++stats_.transfers;

  const SimTime prop = propagation(req.initiator_node, req.remote_node);

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
      SimTime start = reserve_route(req.initiator_node, req.remote_node,
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
          reserve_route(req.initiator_node, req.remote_node,
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
      SimTime start = reserve_route(req.initiator_node, req.remote_node,
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
  // Per-job link rows, only in multi-tenant runs (attribution installed)
  // so stock metric dumps stay byte-identical to single-job output.
  for (std::size_t j = 0; j < job_link_.size(); ++j) {
    const std::string prefix = "job." + std::to_string(j) + ".";
    reg.counter(prefix + "link_reservations")
        .set(job_link_[j].reservations);
    reg.counter(prefix + "link_wait_ns")
        .set(static_cast<std::uint64_t>(job_link_[j].wait_ns));
  }
  if (estimator_) {
    // Flow metrics appear only when the subsystem is installed, so stock
    // metric dumps stay byte-identical to the seed.
    reg.counter("net.adaptive_reroutes").set(stats_.adaptive_reroutes);
    estimator_->collect_metrics(reg);
  }
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
