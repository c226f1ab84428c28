// Multi-tenancy configuration.
//
// Lives in its own header, free of the JobManager/generator machinery, so
// the config-key freeze test can list it.  Keys live under "tenancy.*";
// a multi-tenant program overlays the UGNIRT_TENANCY_* environment onto
// its own TenancyConfig (`overlay_env`) and passes it to JobManager.
// `lrts::make_machine` does not read these knobs: they are not machine
// options.
//
// Nothing in the send path looks at this struct: until a program
// constructs a JobManager a machine runs as a stock single-job one.
#pragma once

#include <cstdint>
#include <string>

namespace ugnirt::tenancy {

/// latency-class AIMD window floor: hotspot backoff cannot shrink a
/// latency job's window below this.
inline constexpr std::uint32_t kQosLatencyFloor = 8;
/// bulk-class window ceiling and per-drain-pass deferred-GET quota.
inline constexpr std::uint32_t kQosBulkCeiling = 8;
inline constexpr std::uint32_t kQosBulkQuota = 2;
/// scavenger-class window ceiling and drain quota: background jobs that
/// only soak up idle capacity.
inline constexpr std::uint32_t kQosScavengerCeiling = 2;
inline constexpr std::uint32_t kQosScavengerQuota = 1;

struct TenancyConfig {
  /// Placement policy for every job's PE allocation
  /// (UGNIRT_TENANCY_PLACEMENT): "compact" (contiguous slab), "scatter"
  /// (round-robin deal across the PE space) or "random" (seeded shuffle —
  /// the fragmented allocations Jha et al. measure on production Gemini
  /// systems, seeded from the machine seed).  JobManager places any
  /// other value as "compact".
  std::string placement = "compact";

  /// Enforce per-job QoS classes in the InjectionGovernor
  /// (UGNIRT_TENANCY_QOS_ENABLE).  Requires flow.enable — without a
  /// governor there is no window to bound; JobManager::place then skips
  /// QoS silently (the A/B the multitenant ablation measures).
  bool qos_enable = true;

  /// Each knob once: key "tenancy.<name>", env UGNIRT_TENANCY_<NAME>.
  static constexpr const char* kConfigPrefix = "tenancy";
  template <class V>
  void fields(V&& v) {
    v("placement", placement);
    v("qos_enable", qos_enable);
  }
};

}  // namespace ugnirt::tenancy
