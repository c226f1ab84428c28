// Aggregation (TRAM-lite) configuration.
//
// Lives in its own header so converse/machine.hpp can embed it in
// MachineOptions without pulling in the Aggregator engine (which itself
// depends on the Machine).  Its one key, "agg.enable", is overridable via
// UGNIRT_AGG_ENABLE; `lrts::make_machine` applies it automatically, same
// as the fault/gemini knobs.  The batch geometry is fixed below.
#pragma once

#include <cstdint>

#include "util/units.hpp"

namespace ugnirt::aggregation {

/// Messages strictly smaller than this (total bytes, envelope included)
/// are eligible for coalescing; a message of exactly kThreshold bytes
/// bypasses the aggregator.
inline constexpr std::uint32_t kThreshold = 256;
/// Upper bound on one batch message (total bytes, envelope + frame).  The
/// effective per-destination buffer is the min of this and what the active
/// layer can move in a single transaction.
inline constexpr std::uint32_t kBufferBytes = 4096;
/// A partially-filled buffer flushes at most this much virtual time after
/// its first message was packed.  An idle PE (empty scheduler queue)
/// flushes everything at once: holding messages back buys it nothing.
inline constexpr SimTime kMaxDelayNs = 20000;

struct AggregationConfig {
  /// Master switch (UGNIRT_AGG_ENABLE).  Off by default: aggregation
  /// trades per-message latency for throughput, which is the right deal
  /// only for fine-grained traffic.
  bool enable = false;

  /// Each knob once: key "agg.<name>", env UGNIRT_AGG_<NAME>.
  static constexpr const char* kConfigPrefix = "agg";
  template <class V>
  void fields(V&& v) {
    v("enable", enable);
  }
};

}  // namespace ugnirt::aggregation
