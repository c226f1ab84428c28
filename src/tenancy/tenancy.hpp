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
//     installs job attribution on the Network (per-job link queueing) and
//     the EventTracer (a `job` column on exported trace rows).
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
// Everything is a deterministic function of the seeds, so multi-tenant
// runs are bit-reproducible.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "converse/machine.hpp"
#include "tenancy/config.hpp"
#include "trace/metrics.hpp"

namespace ugnirt::tenancy {

/// Per-job service class, mapped onto governor window bounds by place().
enum class QosClass : std::uint8_t {
  kLatency,    // tail-latency sensitive: window floor, unbounded drain
  kBulk,       // throughput batch: window ceiling + drain quota
  kScavenger,  // background filler: tight ceiling, trickle drain
};

const char* qos_name(QosClass q);

/// How a job's PEs are carved out of the machine (Jha et al.'s
/// allocation shapes).
enum class Placement : std::uint8_t {
  kCompact,  // contiguous slab of PE ids
  kScatter,  // round-robin deal across the PE space
  kRandom,   // seeded shuffle: fragmented all over the torus
};

const char* placement_name(Placement p);
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

class JobManager {
 public:
  /// Binds to `m` (not owned; must outlive the manager); jobs are added
  /// with add_job.
  JobManager(converse::Machine& m, const TenancyConfig& cfg);

  /// Add one job before place(); returns its id (dense, 0-based).
  JobId add_job(JobSpec spec);

  /// Carve the PE space by the configured placement, push QoS into the
  /// governor (when flow control is on and cfg.qos_enable), and install
  /// job attribution on the network and tracer.  Call exactly once, after
  /// every add_job.
  void place();
  bool placed() const { return placed_; }

  int num_jobs() const { return static_cast<int>(jobs_.size()); }
  const Job& job(JobId id) const {
    return jobs_[static_cast<std::size_t>(id)];
  }
  Placement placement() const { return placement_; }
  const TenancyConfig& config() const { return cfg_; }
  converse::Machine& machine() { return *m_; }

  /// Owning job of a global PE, -1 when unassigned.
  int job_of_pe(int pe) const {
    return job_of_pe_[static_cast<std::size_t>(pe)];
  }
  /// Job-local rank of a global PE, -1 when unassigned.
  int rank_of_pe(int pe) const {
    return rank_of_pe_[static_cast<std::size_t>(pe)];
  }
  /// The per-PE job map (indexed by global PE; -1 = unassigned), as
  /// installed on the tracer/network.  Valid after place().
  const std::vector<std::int16_t>& job_map() const { return job_of_pe_; }

  /// "job.<id>.<suffix>" — the registry naming scheme for per-job rows.
  static std::string metric_name(JobId id, const char* suffix);

  /// Per-message delivery-latency histogram of a job
  /// ("job.<id>.delivery_us" in the machine registry): generators feed
  /// it, and its p50/p90/p99 ride the standard CSV/JSON exports.
  trace::Histogram& delivery_hist(JobId id);

  /// Publish job.<id>.pes / job.<id>.msgs_executed; the per-job link
  /// rows come from Network::collect_metrics once attribution is
  /// installed.  Call before Machine::collect_metrics-driven dumps.
  void collect_metrics();

 private:
  void assign_pes();
  void apply_qos();
  void install_attribution();

  converse::Machine* m_;
  TenancyConfig cfg_;
  Placement placement_ = Placement::kCompact;
  std::vector<Job> jobs_;
  std::vector<std::int16_t> job_of_pe_;
  std::vector<int> rank_of_pe_;
  bool placed_ = false;
};

}  // namespace ugnirt::tenancy
