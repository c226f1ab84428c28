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
#include <vector>

#include "gemini/machine_config.hpp"
#include "sim/scheduler.hpp"
#include "topo/torus.hpp"
#include "trace/metrics.hpp"
#include "util/units.hpp"

namespace ugnirt::fault {
class FaultInjector;
}
namespace ugnirt::flowcontrol {
class CongestionEstimator;
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

  std::uint64_t reservations() const { return reservations_; }
  SimTime busy_ns() const { return busy_ns_; }
  std::uint64_t waits() const { return waits_; }
  SimTime wait_ns() const { return wait_ns_; }

  /// Snapshot of the busy list (sorted by start, with a gap between
  /// neighbours, at most kMaxIntervals entries) — introspection for
  /// property tests.
  const std::vector<Busy>& intervals() const { return busy_; }

 private:
  std::vector<Busy> busy_;  // sorted by start, non-touching
  std::uint64_t reservations_ = 0;  // transfers routed over this link
  SimTime busy_ns_ = 0;             // total reserved wire time
  std::uint64_t waits_ = 0;         // reservations pushed past `earliest`
  SimTime wait_ns_ = 0;             // total queueing delay incurred
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

  int hops(int a, int b) const { return torus_.hops(a, b); }

  /// Install (or with nullptr, remove) a fault injector.  Not owned.  When
  /// set, transfer() consults it for per-route degradation/blackout windows
  /// and the uGNI emulation reaches it through its Domain's network for
  /// post/registration/CQ/SMSG faults.
  void set_fault_injector(fault::FaultInjector* f) { fault_ = f; }
  fault::FaultInjector* fault_injector() const { return fault_; }

  /// Install (or with nullptr, remove) a congestion estimator.  Not
  /// owned.  When set, reserve_route feeds it one O(1) EWMA update per
  /// link reservation, and — when the estimator's config asks for
  /// adaptive routing — consults it to pick among minimal dimension-
  /// order route permutations by estimated link load.  When null the
  /// send path is bit-identical to stock.
  void set_congestion_estimator(flowcontrol::CongestionEstimator* e) {
    estimator_ = e;
  }
  flowcontrol::CongestionEstimator* congestion_estimator() const {
    return estimator_;
  }

  /// Introspection for tests: the schedule of one directional link.
  const LinkSchedule& link_schedule(std::size_t idx) const {
    return links_[idx];
  }

  /// Install per-node job attribution (tenancy): `jobs[node]` is the job
  /// id whose traffic initiates from that node, or -1 for unattributed
  /// (mixed or idle) nodes.  When set, reserve_route accumulates per-job
  /// link reservations and queueing, published by collect_metrics as
  /// `job.<id>.link_reservations` / `job.<id>.link_wait_ns` rows.  Empty
  /// map = stock behavior and stock metric output, bit for bit.
  void set_job_of_node(std::vector<std::int16_t> jobs, int num_jobs);

  /// Per-job link-queueing totals (tenancy introspection); index = job id.
  std::uint64_t job_link_reservations(int job) const {
    return job_link_[static_cast<std::size_t>(job)].reservations;
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
  /// Reserve every link on the route for `duration` starting no earlier than
  /// `earliest`; returns the actual start (>= earliest) honoring occupancy.
  SimTime reserve_route(int from, int to, SimTime duration, SimTime earliest);

  /// The dimension order a transfer's route corrects in: the stock
  /// x->y->z order, or — under flow.adaptive_routing — the permutation
  /// whose minimal route has the lowest estimated load (stock order wins
  /// ties, so an idle network routes exactly as stock).
  const std::array<int, 3>& pick_order(int from, int to);

  /// One-way wire propagation between the nodes.
  SimTime propagation(int from, int to) const {
    return static_cast<SimTime>(torus_.hops(from, to)) * config_.hop_ns;
  }

  sim::Scheduler* sched_;
  topo::Torus3D torus_;
  MachineConfig config_;
  std::vector<LinkSchedule> links_;  // per directional link
  std::vector<SimTime> bte_free_;    // per node's BTE engine
  NetworkStats stats_;
  fault::FaultInjector* fault_ = nullptr;
  flowcontrol::CongestionEstimator* estimator_ = nullptr;
  // Tenancy attribution: per-initiator-node job ids and the per-job link
  // accounting they key.  Both empty (and free) outside multi-tenant runs.
  struct JobLinkStats {
    std::uint64_t reservations = 0;
    SimTime wait_ns = 0;
  };
  std::vector<std::int16_t> job_of_node_;
  std::vector<JobLinkStats> job_link_;
};

}  // namespace ugnirt::gemini
