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
/// EWMA smoothing factor for per-link / per-NIC load estimates.  Each
/// reserve folds in one sample: load' = (1-a)*load + a*wait/(wait+duration).
inline constexpr double kEwmaAlpha = 0.125;
/// AIMD window bounds on outstanding governed transactions per PE, and
/// the window every PE starts at.
inline constexpr std::uint32_t kWindowMin = 2;
inline constexpr std::uint32_t kWindowMax = 64;
inline constexpr std::uint32_t kWindowStart = 8;
static_assert(1 <= kWindowMin && kWindowMin <= kWindowStart &&
              kWindowStart <= kWindowMax);

struct FlowConfig {
  /// Master switch (UGNIRT_FLOW_ENABLE).  Off by default: congestion
  /// control only pays for itself under contention, and the stock
  /// behavior is the paper's calibrated baseline.
  bool enable = false;

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
    v("adaptive_routing", adaptive_routing);
  }
};

}  // namespace ugnirt::flowcontrol
