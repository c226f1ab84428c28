// Multi-tenancy configuration.
//
// Lives in its own header so converse/machine.hpp can embed it in
// MachineOptions without pulling in the JobManager/generator machinery.
// Keys live under "tenancy.*" and are overridable via UGNIRT_TENANCY_*
// environment variables; `lrts::make_machine` applies them automatically,
// same as the gemini/fault/agg/flow knobs.
//
// Every default preserves stock behavior bit-for-bit: until a driver
// constructs a JobManager nothing in the send path even looks at this
// struct.
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
  /// systems, seeded from the machine seed).
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

  /// An unknown placement falls back to "compact".
  void sanitize();
};

}  // namespace ugnirt::tenancy
