// Congestion-control (flow) configuration.
//
// Lives in its own header so converse/machine.hpp can embed it in
// MachineOptions without pulling in the estimator/governor machinery.
// Keys live under "flow.*" and are overridable via UGNIRT_FLOW_*
// environment variables; `lrts::make_machine` applies them automatically,
// same as the gemini/fault/agg knobs.
//
// Every default preserves stock behavior bit-for-bit: with `enable`
// false no estimator or governor is even constructed, so the hot paths
// stay on the exact seed code (a single null-pointer test, the same
// pattern as the fault injector).
#pragma once

#include <cstdint>

#include "util/units.hpp"

namespace ugnirt::flowcontrol {

/// A NIC (node) whose smoothed wait fraction is at or above this is
/// "hot": the AIMD window backs off, thresholds adapt, routing avoids its
/// loaded links.
inline constexpr double kHotThreshold = 0.25;
/// AIMD additive increase per completion-window while the path is cool,
/// and the multiplicative factor applied while it is hot.
inline constexpr double kAimdIncrease = 1.0;
inline constexpr double kAimdDecrease = 0.5;
/// Rate limit (per link, virtual ns) on kCongestionSample trace events.
inline constexpr SimTime kSamplePeriodNs = 5000;

struct FlowConfig {
  /// Master switch (UGNIRT_FLOW_ENABLE).  Off by default: congestion
  /// control only pays for itself under contention, and the stock
  /// behavior is the paper's calibrated baseline.
  bool enable = false;

  /// EWMA smoothing factor for per-link / per-NIC load estimates
  /// (UGNIRT_FLOW_EWMA_ALPHA).  Each reserve folds in one sample:
  /// load' = (1-a)*load + a*wait/(wait+duration).
  double ewma_alpha = 0.125;

  /// AIMD window bounds on outstanding governed transactions per PE
  /// (UGNIRT_FLOW_WINDOW_MIN / _MAX / _START).
  std::uint32_t window_min = 2;
  std::uint32_t window_max = 64;
  std::uint32_t window_start = 8;

  /// Choose among minimal dimension-order route permutations by
  /// estimated link load instead of fixed x->y->z order
  /// (UGNIRT_FLOW_ADAPTIVE_ROUTING).  Off keeps stock routes even when
  /// the subsystem is otherwise enabled.
  bool adaptive_routing = false;

  /// Each knob once: key "flow.<name>", env UGNIRT_FLOW_<NAME>.
  static constexpr const char* kConfigPrefix = "flow";
  template <class V>
  void fields(V&& v) {
    v("enable", enable);
    v("ewma_alpha", ewma_alpha);
    v("window_min", window_min);
    v("window_max", window_max);
    v("window_start", window_start);
    v("adaptive_routing", adaptive_routing);
  }

  /// Keep the window sane whatever the overrides say: min >= 1 so the
  /// governor can never wedge a PE, and start inside [min, max].
  void sanitize();
};

}  // namespace ugnirt::flowcontrol
