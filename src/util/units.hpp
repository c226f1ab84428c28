// Virtual-time units used throughout the simulator.
//
// All simulated time is kept in integer nanoseconds (SimTime).  Helper
// constructors make cost-model code read like the paper's equations
// ("Tregister = 600ns + pages * 350ns").
#pragma once

#include <cstdint>

namespace ugnirt {

/// Virtual time in nanoseconds.  Signed so durations/differences are safe.
using SimTime = std::int64_t;

constexpr SimTime kNever = INT64_MAX;

constexpr SimTime nanoseconds(std::int64_t v) { return v; }
constexpr SimTime microseconds(double v) {
  return static_cast<SimTime>(v * 1000.0);
}
constexpr SimTime milliseconds(double v) {
  return static_cast<SimTime>(v * 1000.0 * 1000.0);
}
constexpr SimTime seconds(double v) {
  return static_cast<SimTime>(v * 1e9);
}

/// Convert back for reporting.
constexpr double to_us(SimTime t) { return static_cast<double>(t) / 1e3; }
constexpr double to_ms(SimTime t) { return static_cast<double>(t) / 1e6; }
constexpr double to_s(SimTime t) { return static_cast<double>(t) / 1e9; }

namespace literals {
constexpr SimTime operator""_ns(unsigned long long v) {
  return static_cast<SimTime>(v);
}
constexpr SimTime operator""_us(unsigned long long v) {
  return static_cast<SimTime>(v) * 1000;
}
constexpr SimTime operator""_us(long double v) {
  return static_cast<SimTime>(v * 1000.0L);
}
}  // namespace literals

/// Bytes-per-nanosecond bandwidth helper: GB/s -> bytes/ns is the identity
/// (1 GB/s == 1 byte/ns), which makes config values pleasantly readable.
constexpr double gb_per_s(double v) { return v; }

/// Time to move `bytes` at `bw` bytes/ns, rounded up, never negative.
inline SimTime transfer_time(std::uint64_t bytes, double bytes_per_ns) {
  if (bytes_per_ns <= 0.0) return 0;
  double t = static_cast<double>(bytes) / bytes_per_ns;
  return static_cast<SimTime>(t + 0.999999);
}

}  // namespace ugnirt
