// Timing model of the Gemini interconnect.
//
// The Network answers one question for the uGNI emulation layer: given a
// transfer (mechanism, endpoints, size) issued at a virtual instant, when is
// the initiating CPU free, when does the data land, and when does the
// initiator's completion event fire?  Resource occupancy is tracked for:
//
//   * each directional torus link (FIFO reservation at message granularity,
//     so concurrent transfers crossing the same link queue up — this is what
//     makes the kNeighbor and one-to-all benchmarks show contention), and
//   * each NIC's BTE engine (one DMA channel per NIC: posted descriptors
//     execute back-to-back, matching "the responsibility of the transaction
//     is completely offloaded to the NIC").
//
// FMA transfers occupy the *initiating CPU* for the duration of the payload
// push — the paper's reason why BTE gives better overlap — which the caller
// observes through TransferTimes::cpu_done.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

#include "gemini/machine_config.hpp"
#include "sim/scheduler.hpp"
#include "topo/torus.hpp"
#include "trace/metrics.hpp"
#include "util/units.hpp"

namespace ugnirt::fault {
class FaultInjector;
}

namespace ugnirt::gemini {

enum class Mechanism : std::uint8_t {
  kSmsg,    // small-message mailbox write (FMA under the hood)
  kFmaPut,  // CPU-driven put
  kFmaGet,  // CPU-driven get
  kBtePut,  // DMA-engine put
  kBteGet,  // DMA-engine get
};

const char* mechanism_name(Mechanism m);

struct TransferRequest {
  Mechanism mech = Mechanism::kSmsg;
  int initiator_node = 0;  // node whose CPU/NIC issues the transaction
  int remote_node = 0;     // the other end
  std::uint64_t bytes = 0;
  SimTime issue = 0;       // initiator's local time at the post
};

struct TransferTimes {
  /// When the initiating CPU can proceed (FMA: after pushing the payload;
  /// BTE: right after writing the descriptor; SMSG: after the mailbox write).
  SimTime cpu_done = 0;
  /// When the last byte is available at the data destination
  /// (the remote node for puts/smsg, the initiator for gets).
  SimTime data_arrival = 0;
  /// When the initiator's local CQ event fires (puts: after the network-level
  /// ack returns; gets: at data arrival).
  SimTime initiator_complete = 0;
};

struct NetworkStats {
  std::uint64_t transfers = 0;
  std::uint64_t bytes_smsg = 0;
  std::uint64_t bytes_fma = 0;
  std::uint64_t bytes_bte = 0;
  std::uint64_t link_conflicts = 0;  // transfers that had to wait for a link
  std::uint64_t adaptive_reroutes = 0;  // routes steered off the stock order
};

/// Busy intervals of one directional link, kept sorted and bounded.
/// Backfill is allowed: a transfer may slot into an idle gap before a
/// future-dated reservation (work-conserving FIFO would otherwise let one
/// late-cursor sender block the link for everyone — an artifact, not
/// physics).
///
/// A link that never carried traffic is one null pointer.  The first
/// reservation allocates the link's one block: its counters and the
/// interval starts and ends as two fixed arrays with room for the one
/// interval an insert adds before the bound is restored.  Unused slots
/// hold kNever, so whole-array scans need no length check.
class LinkSchedule {
 public:
  struct Busy {
    SimTime start;
    SimTime end;
  };
  static constexpr std::size_t kMaxIntervals = 16;

  /// Earliest start >= earliest with `duration` of idle link time;
  /// reserves it.  Sets *waited when the start had to move.
  SimTime reserve(SimTime earliest, SimTime duration, bool* waited);

  std::uint64_t reservations() const { return b_ ? b_->reservations : 0; }
  SimTime busy_ns() const { return b_ ? b_->busy_ns : 0; }
  std::uint64_t waits() const { return b_ ? b_->waits : 0; }
  SimTime wait_ns() const { return b_ ? b_->wait_ns : 0; }

  /// Copy of the busy list (sorted by start, with a gap between
  /// neighbours, at most kMaxIntervals entries) — introspection for
  /// property tests.
  std::vector<Busy> intervals() const;

 private:
  static constexpr std::size_t kSlots = kMaxIntervals + 1;
  struct Block {
    std::uint64_t reservations = 0;  // transfers routed over this link
    SimTime busy_ns = 0;             // total reserved wire time
    std::uint64_t waits = 0;         // reservations pushed past `earliest`
    SimTime wait_ns = 0;             // total queueing delay incurred
    std::size_t n = 0;               // live intervals, <= kMaxIntervals
    SimTime start[kSlots];           // sorted, non-touching; kNever unused
    SimTime end[kSlots];
  };
  std::unique_ptr<Block> b_;
};

/// What sees the wire's link reservations.  The congestion estimator
/// (src/flowcontrol) and tenancy's per-job link totals (src/tenancy)
/// implement it, so the wire names neither.
class LinkObserver {
 public:
  /// One hop of a route: `link` carried `duration_ns` of traffic after
  /// `wait_ns` of queueing, for a transfer initiated by `initiator_node`
  /// whose route asked to start at `earliest`.
  virtual void on_link_reserve(std::size_t link, int initiator_node,
                               SimTime wait_ns, SimTime duration_ns,
                               SimTime earliest) = 0;
  /// Estimated load of one link.  Asked only of the observer installed
  /// with Network::set_route_steering.
  virtual double link_load(std::size_t /*link*/) const { return 0.0; }

 protected:
  ~LinkObserver() = default;
};

class Network {
 public:
  Network(sim::Scheduler& sched, topo::Torus3D torus, MachineConfig config);

  /// Compute the timing of a transfer and reserve the resources it uses.
  /// Deterministic: identical call sequences give identical times.
  TransferTimes transfer(const TransferRequest& req);

  const topo::Torus3D& torus() const { return torus_; }
  const MachineConfig& config() const { return config_; }
  /// The scheduling surface for completion/notify events.  Deliberately
  /// not the whole sim::Engine: the network is a protocol state machine,
  /// not a simulation driver.
  sim::Scheduler& scheduler() const { return *sched_; }
  const NetworkStats& stats() const { return stats_; }

  /// Minimal hop count between two nodes; equals torus().hops(a, b).
  int hops(int a, int b) const { return route(a, b).hops; }

  /// Install (or with nullptr, remove) a fault injector.  Not owned.  When
  /// set, transfer() consults it for per-route degradation/blackout windows
  /// and the uGNI emulation reaches it through its Domain's network for
  /// post/registration/CQ/SMSG faults.
  void set_fault_injector(fault::FaultInjector* f) { fault_ = f; }
  fault::FaultInjector* fault_injector() const { return fault_; }

  /// Install (or with nullptr, remove) the link observer.  Not owned.
  /// reserve_route calls it once per link reservation; loopback and
  /// ASIC-sibling transfers reserve none.  There is one slot: an
  /// observer installed over another reads it with link_observer(),
  /// forwards every call to it and puts it back on removal.  With none
  /// installed the send path is bit-identical to stock.
  void set_link_observer(LinkObserver* o) { observer_ = o; }
  LinkObserver* link_observer() const { return observer_; }

  /// Adaptive routing: pick the minimal dimension-order permutation whose
  /// links have the lowest summed `s->link_load`.  Not owned; nullptr
  /// (the default) keeps the stock x->y->z order.
  void set_route_steering(const LinkObserver* s) { steering_ = s; }

  /// Introspection for tests: the schedule of one directional link.
  const LinkSchedule& link_schedule(std::size_t idx) const {
    return links_[idx];
  }

  /// Publish network-wide counters (net.transfers, net.bytes_*,
  /// net.link_conflicts, net.link_waits) plus per-link occupancy as a
  /// "net.link_busy_ns" distribution over links that carried traffic.
  void collect_metrics(trace::MetricsRegistry& reg) const;

  /// Per-link occupancy rows for congestion heatmaps:
  /// `link,node,x,y,z,dim,dir,reservations,busy_ns,waits,wait_ns`.
  /// Links that never carried traffic are omitted.
  void write_link_csv(std::ostream& out) const;

 private:
  /// A minimal route's geometry: the signed displacement along each
  /// dimension (the positive direction wins ties, as in topo::Torus3D)
  /// and the hop count.
  struct Route {
    std::array<int, 3> delta;
    int hops;
  };

  /// The geometry of the route from `from` to `to`, read from the
  /// coordinate table: no division on the send path.
  Route route(int from, int to) const {
    const std::array<int, 3>& a = coords_[static_cast<std::size_t>(from)];
    const std::array<int, 3>& b = coords_[static_cast<std::size_t>(to)];
    Route r{};
    for (int d = 0; d < 3; ++d) {
      const int n = dims_[d];
      int fwd = b[d] - a[d];
      if (fwd < 0) fwd += n;  // hops going positive, in [0, n)
      r.delta[d] = fwd <= n - fwd ? fwd : fwd - n;
      r.hops += r.delta[d] < 0 ? -r.delta[d] : r.delta[d];
    }
    return r;
  }

  /// Reserve every link of route `r` from `from` to `to` for `duration`
  /// starting no earlier than `earliest`; returns the actual start
  /// (>= earliest) honoring occupancy.
  SimTime reserve_route(int from, int to, const Route& r, SimTime duration,
                        SimTime earliest);

  /// The dimension order a transfer's route corrects in: the stock
  /// x->y->z order, or — with route steering installed — the permutation
  /// whose minimal route has the lowest estimated load (stock order wins
  /// ties, so an idle network routes exactly as stock).
  const std::array<int, 3>& pick_order(int from, int to);

  sim::Scheduler* sched_;
  topo::Torus3D torus_;
  MachineConfig config_;
  std::vector<LinkSchedule> links_;  // per directional link
  std::vector<SimTime> bte_free_;    // per node's BTE engine
  std::vector<std::array<int, 3>> coords_;  // per node: its x, y, z
  std::array<int, 3> dims_;                 // torus_.dims()
  std::array<std::size_t, 3> link_stride_;  // link-index step per hop
  NetworkStats stats_;
  fault::FaultInjector* fault_ = nullptr;
  LinkObserver* observer_ = nullptr;
  const LinkObserver* steering_ = nullptr;
};

}  // namespace ugnirt::gemini
