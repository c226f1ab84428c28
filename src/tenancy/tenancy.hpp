// Multi-tenant job management over one simulated torus.
//
// The paper evaluates the runtime with a single job owning the machine,
// but on production Gemini systems the dominant tail-latency driver is
// *other jobs'* traffic sharing the torus (Jha et al., PAPERS.md).  This
// subsystem reproduces that regime without forking the runtime: one
// Machine (shared Network + Engine) hosts many jobs, each owning a
// disjoint set of PEs.
//
//   * JobManager — owns the job table and the PE allocation.  place()
//     carves the machine's PE space by policy (compact slab, scattered
//     round-robin deal, or seeded random-fragmented — the allocation
//     shapes Jha et al. measure), pushes each job's QoS class into the
//     InjectionGovernor as per-PE window bounds + drain quotas, and
//     installs itself as the Network's gemini::LinkObserver, charging
//     each link reservation (and its queueing) to the initiating node's
//     job.
//     Trace rows carry no job: their `pe` column joins job_map().
//   * QoS classes — `latency` jobs get an AIMD window floor so hotspot
//     backoff cannot starve them; `bulk` and `scavenger` jobs get window
//     ceilings and deferred-GET drain quotas so their storms cannot
//     monopolize links.  Enforcement lives entirely in the existing
//     governor (flowcontrol::QosParams); with flow control off, QoS is
//     silently skipped and jobs only partition the PE space.
//   * Metrics — per-job rows (`job.<id>.pes`, `job.<id>.msgs_executed`,
//     `job.<id>.delivery_us`, `job.<id>.link_wait_ns`, ...) ride the
//     existing MetricsRegistry CSV/JSON pipeline, so a victim job's p99
//     reads straight out of the standard exports.
//
// The caller owns the TenancyConfig: it overlays the UGNIRT_TENANCY_* env
// knobs itself (overlay_env) and hands the result to JobManager.  A
// machine without a JobManager never reads a tenancy knob.
//
// Everything is a deterministic function of the seeds, so multi-tenant
// runs are bit-reproducible.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "converse/machine.hpp"
#include "gemini/network.hpp"
#include "tenancy/config.hpp"
#include "trace/metrics.hpp"

namespace ugnirt::tenancy {

/// Per-job service class, mapped onto governor window bounds by place().
enum class QosClass : std::uint8_t {
  kLatency,    // tail-latency sensitive: window floor, unbounded drain
  kBulk,       // throughput batch: window ceiling + drain quota
  kScavenger,  // background filler: tight ceiling, trickle drain
};

/// How a job's PEs are carved out of the machine (Jha et al.'s
/// allocation shapes).
enum class Placement : std::uint8_t {
  kCompact,  // contiguous slab of PE ids
  kScatter,  // round-robin deal across the PE space
  kRandom,   // seeded shuffle: fragmented all over the torus
};

bool placement_from_string(const std::string& s, Placement* out);

using JobId = int;

struct JobSpec {
  std::string name;
  int pes = 0;
  QosClass qos = QosClass::kBulk;
};

/// One placed job: its spec plus the global PEs it owns (ascending, so
/// job-local rank order is deterministic under every placement).
class Job {
 public:
  Job(JobId id, JobSpec spec) : id_(id), spec_(std::move(spec)) {}

  JobId id() const { return id_; }
  const JobSpec& spec() const { return spec_; }
  const std::string& name() const { return spec_.name; }
  QosClass qos() const { return spec_.qos; }
  int size() const { return spec_.pes; }
  /// Global PE of job-local rank `r`.
  int pe(int r) const { return pes_[static_cast<std::size_t>(r)]; }
  const std::vector<int>& pes() const { return pes_; }

 private:
  friend class JobManager;
  JobId id_;
  JobSpec spec_;
  std::vector<int> pes_;
};

/// Owns the jobs of one machine.  Placed, it is also the network's link
/// observer: each hop is charged to the initiating node's job, then
/// forwarded to the observer it was installed over (the congestion
/// estimator under flow control).
class JobManager final : private gemini::LinkObserver {
 public:
  /// Binds to `m` (not owned; must outlive the manager); jobs are added
  /// with add_job.  An unknown cfg.placement falls back to compact.
  JobManager(converse::Machine& m, const TenancyConfig& cfg);
  /// Publishes the final per-job link rows and takes the manager's link
  /// observer off the network.
  ~JobManager();
  JobManager(const JobManager&) = delete;
  JobManager& operator=(const JobManager&) = delete;

  /// Add one job before place(); returns its id (dense, 0-based).
  JobId add_job(JobSpec spec);

  /// Carve the PE space by the configured placement, push QoS into the
  /// governor (when flow control is on and cfg.qos_enable), and install
  /// per-job link accounting on the network.  Call exactly once, after
  /// every add_job.
  void place();
  bool placed() const { return placed_; }

  int num_jobs() const { return static_cast<int>(jobs_.size()); }
  const Job& job(JobId id) const {
    return jobs_[static_cast<std::size_t>(id)];
  }
  Placement placement() const { return placement_; }
  converse::Machine& machine() { return *m_; }

  /// Owning job of a global PE, -1 when unassigned.
  int job_of_pe(int pe) const {
    return job_of_pe_[static_cast<std::size_t>(pe)];
  }
  /// Job-local rank of a global PE, -1 when unassigned.
  int rank_of_pe(int pe) const {
    return rank_of_pe_[static_cast<std::size_t>(pe)];
  }
  /// The per-PE job map (indexed by global PE; -1 = unassigned): joins
  /// the `pe` column of trace exports to jobs.  Valid after place().
  const std::vector<std::int16_t>& job_map() const { return job_of_pe_; }

  /// "job.<id>.<suffix>" — the registry naming scheme for per-job rows.
  static std::string metric_name(JobId id, const char* suffix);

  /// Per-message delivery-latency histogram of a job
  /// ("job.<id>.delivery_us" in the machine registry): generators feed
  /// it, and its p50/p90/p99 ride the standard CSV/JSON exports.
  trace::Histogram& delivery_hist(JobId id);

  /// Publish job.<id>.pes / job.<id>.msgs_executed and, once placed,
  /// job.<id>.link_reservations / job.<id>.link_wait_ns for every job
  /// (zeros included).  Call before Machine::collect_metrics-driven dumps.
  void collect_metrics();

 private:
  void on_link_reserve(std::size_t link, int initiator_node, SimTime wait_ns,
                       SimTime duration_ns, SimTime earliest) override;
  void assign_pes();
  void apply_qos();
  void install_link_observer();
  void publish_link_metrics();

  converse::Machine* m_;
  TenancyConfig cfg_;
  Placement placement_ = Placement::kCompact;
  std::vector<Job> jobs_;
  std::vector<std::int16_t> job_of_pe_;
  std::vector<int> rank_of_pe_;
  // Job of each node, -1 for a node that is idle or shared by jobs.
  std::vector<std::int16_t> job_of_node_;
  struct LinkTotals {
    std::uint64_t reservations = 0;
    SimTime wait_ns = 0;
  };
  std::vector<LinkTotals> job_links_;
  gemini::LinkObserver* next_observer_ = nullptr;
  bool placed_ = false;
};

}  // namespace ugnirt::tenancy
