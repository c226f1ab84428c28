// Runtime-wide metrics registry (the "counters" half of Projections-full).
//
// Every machine layer, the mempool, the uGNI emulation and the Gemini
// network model publish named metrics here instead of keeping private
// ad-hoc stats structs.  Three metric flavors:
//
//   * Counter — monotonically increasing event count; cheap enough to stay
//     always-on (one pointer-indirect increment on the hot path).
//   * Gauge   — point-in-time value sampled at collection time (mailbox
//     bytes, CQ depth, pool slab bytes); tracks its high-water mark.
//   * Stat    — RunningStat-backed distribution (per-sample count / mean /
//     min / max), for quantities like per-link occupancy.
//   * Histogram — log-bucketed distribution with mergeable buckets and
//     quantile estimates (p50/p90/p99), for latency-style quantities where
//     the tail matters and mean/min/max hide it.
//
// Naming convention is dotted lowercase, `<subsystem>.<what>`:
// "ugni.smsg_sends", "mempool.freelist_hits", "net.link_conflicts",
// "cq.max_depth".  The registry dumps a sorted text table and a CSV with
// header `metric,kind,count,sum,mean,min,max,p50,p90,p99` at end of run,
// plus a JSON object mirroring the same data for machine consumers.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "util/stats.hpp"

namespace ugnirt::trace {

class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  void set(std::uint64_t v) { value_ = v; }
  std::uint64_t value() const { return value_; }
  void reset() { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void set(double v) {
    value_ = v;
    if (v > max_) max_ = v;
  }
  double value() const { return value_; }
  double max() const { return max_; }
  void reset() { value_ = max_ = 0.0; }

 private:
  double value_ = 0.0;
  double max_ = 0.0;
};

/// Log-bucketed histogram: bucket 0 covers [0,1), then 8 sub-buckets per
/// power-of-two octave, so the relative quantile error is bounded by one
/// sub-bucket width (12.5%).  Buckets are plain counts, which makes merge()
/// exact (element-wise add) and associative — per-PE histograms fold into a
/// run-wide one without losing tail resolution the way mean/stddev do.
class Histogram {
 public:
  void add(double v);
  void merge(const Histogram& other);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }

  /// Quantile estimate for p in [0,100]; linear interpolation inside the
  /// selected bucket, clamped to the exact observed [min,max].
  double quantile(double p) const;
  double p50() const { return quantile(50.0); }
  double p90() const { return quantile(90.0); }
  double p99() const { return quantile(99.0); }

  void reset();

 private:
  static constexpr int kSubBuckets = 8;       // per octave
  static constexpr int kOctaves = 64;         // covers doubles up to 2^64
  static constexpr int kBucketCount = 1 + kOctaves * kSubBuckets;

  static int bucket_index(double v);
  static double bucket_lo(int idx);
  static double bucket_hi(int idx);

  std::vector<std::uint64_t> buckets_;  // lazily sized to kBucketCount
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

class MetricsRegistry {
 public:
  /// Find-or-create.  Returned references stay valid for the registry's
  /// lifetime (std::map nodes are address-stable), so hot paths cache the
  /// pointer once and increment without a lookup.
  Counter& counter(const std::string& name) { return counters_[name]; }
  Gauge& gauge(const std::string& name) { return gauges_[name]; }
  RunningStat& stat(const std::string& name) { return stats_[name]; }
  Histogram& histogram(const std::string& name) { return histograms_[name]; }

  std::size_t size() const {
    return counters_.size() + gauges_.size() + stats_.size() +
           histograms_.size();
  }
  std::size_t counter_count() const { return counters_.size(); }

  const Counter* find_counter(const std::string& name) const;
  const Gauge* find_gauge(const std::string& name) const;
  const Histogram* find_histogram(const std::string& name) const;

  /// Fold another registry into this one: counters add, gauges keep the
  /// maximum observed value, stats merge their sample moments, histograms
  /// add their buckets.  Used by the trace session to aggregate per-Machine
  /// registries over a whole bench.
  void merge_from(const MetricsRegistry& other);

  /// Human-readable sorted table ("== metrics ==" plus one row per metric).
  void dump_table(std::ostream& out) const;

  /// Machine-readable dump: `metric,kind,count,sum,mean,min,max,p50,p90,p99`.
  /// Counters and gauges repeat their value across the distribution columns;
  /// stats repeat their mean in the quantile columns (no shape information);
  /// histograms report true quantile estimates.
  void write_csv(std::ostream& out) const;

  /// JSON object keyed by kind then metric name; same data as the CSV.
  void write_json(std::ostream& out) const;

  void reset();

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, RunningStat> stats_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace ugnirt::trace
