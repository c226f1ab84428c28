// Multi-tenancy configuration.
//
// Lives in its own header so converse/machine.hpp can embed it in
// MachineOptions without pulling in the JobManager/generator machinery.
// Keys live under "tenancy.*" and are overridable via UGNIRT_TENANCY_*
// environment variables; `lrts::make_machine` applies them automatically,
// same as the gemini/fault/agg/flow knobs.
//
// Every default preserves stock behavior bit-for-bit: with `enable`
// false no JobManager is constructed and nothing in the send path even
// looks at this struct.
#pragma once

#include <cstdint>
#include <string>

namespace ugnirt::tenancy {

/// bulk-class per-drain-pass deferred-GET quota.
inline constexpr std::uint32_t kQosBulkQuota = 2;
/// scavenger-class window ceiling and drain quota: background jobs that
/// only soak up idle capacity.
inline constexpr std::uint32_t kQosScavengerCeiling = 2;
inline constexpr std::uint32_t kQosScavengerQuota = 1;

struct TenancyConfig {
  /// Master switch (UGNIRT_TENANCY_ENABLE).  Off by default: the paper's
  /// runs own the whole machine, and drivers that want tenancy construct
  /// a JobManager explicitly.
  bool enable = false;

  /// Placement policy for every job's PE allocation
  /// (UGNIRT_TENANCY_PLACEMENT): "compact" (contiguous slab), "scatter"
  /// (round-robin deal across the PE space) or "random" (seeded shuffle —
  /// the fragmented allocations Jha et al. measure on production Gemini
  /// systems).
  std::string placement = "compact";

  /// Seed for the "random" placement shuffle (UGNIRT_TENANCY_SEED).
  /// 0 derives it from the machine seed so one knob reseeds everything.
  std::uint64_t seed = 0;

  /// Declarative job list (UGNIRT_TENANCY_JOBS): comma-separated
  /// `name:qos:pes` triples, e.g. "victim:latency:8,storm:bulk:24".
  /// Empty means jobs are added programmatically via JobManager::add_job.
  std::string jobs;

  /// Enforce per-job QoS classes in the InjectionGovernor
  /// (UGNIRT_TENANCY_QOS_ENABLE).  Requires flow.enable — without a
  /// governor there is no window to bound; JobManager::place then skips
  /// QoS silently (the A/B the multitenant ablation measures).
  bool qos_enable = true;

  /// latency-class AIMD window floor (UGNIRT_TENANCY_QOS_LATENCY_FLOOR):
  /// hotspot backoff cannot shrink a latency job's window below this.
  std::uint32_t qos_latency_floor = 8;

  /// bulk-class window ceiling (UGNIRT_TENANCY_QOS_BULK_CEILING); its
  /// drain quota is kQosBulkQuota.
  std::uint32_t qos_bulk_ceiling = 8;

  /// Each knob once: key "tenancy.<name>", env UGNIRT_TENANCY_<NAME>.
  static constexpr const char* kConfigPrefix = "tenancy";
  template <class V>
  void fields(V&& v) {
    v("enable", enable);
    v("placement", placement);
    v("seed", seed);
    v("jobs", jobs);
    v("qos_enable", qos_enable);
    v("qos_latency_floor", qos_latency_floor);
    v("qos_bulk_ceiling", qos_bulk_ceiling);
  }

  /// Floors and ceilings >= 1 (0 would demote latency jobs to best-effort
  /// or wedge bulk jobs); an unknown placement falls back to "compact".
  void sanitize();
};

}  // namespace ugnirt::tenancy
