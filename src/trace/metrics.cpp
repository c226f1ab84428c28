#include "trace/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <vector>

namespace ugnirt::trace {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "0";
  std::ostringstream os;
  os << std::setprecision(15) << v;
  return os.str();
}

}  // namespace

int Histogram::bucket_index(double v) {
  if (!(v >= 1.0)) return 0;  // [0,1), negatives, and NaN all land in 0
  int octave;
  double frac = std::frexp(v, &octave);  // v = frac * 2^octave, frac in [0.5,1)
  --octave;                              // now v = (2*frac) * 2^octave
  if (octave >= kOctaves) return kBucketCount - 1;
  int sub = static_cast<int>((2.0 * frac - 1.0) * kSubBuckets);
  if (sub >= kSubBuckets) sub = kSubBuckets - 1;
  return 1 + octave * kSubBuckets + sub;
}

double Histogram::bucket_lo(int idx) {
  if (idx <= 0) return 0.0;
  int octave = (idx - 1) / kSubBuckets;
  int sub = (idx - 1) % kSubBuckets;
  return std::ldexp(1.0 + static_cast<double>(sub) / kSubBuckets, octave);
}

double Histogram::bucket_hi(int idx) {
  if (idx <= 0) return 1.0;
  int octave = (idx - 1) / kSubBuckets;
  int sub = (idx - 1) % kSubBuckets;
  return std::ldexp(1.0 + static_cast<double>(sub + 1) / kSubBuckets, octave);
}

void Histogram::add(double v) {
  if (buckets_.empty()) buckets_.assign(kBucketCount, 0);
  if (std::isnan(v)) return;
  if (v < 0.0) v = 0.0;
  ++buckets_[static_cast<std::size_t>(bucket_index(v))];
  ++count_;
  sum_ += v;
  min_ = std::min(min_, v);
  max_ = std::max(max_, v);
}

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0) return;
  if (buckets_.empty()) buckets_.assign(kBucketCount, 0);
  for (std::size_t i = 0; i < other.buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double Histogram::quantile(double p) const {
  if (count_ == 0) return 0.0;
  if (p <= 0.0) return min_;
  if (p >= 100.0) return max_;
  // Rank in [0, count-1]; find the bucket holding that rank and interpolate
  // within its bounds.
  const double rank = p / 100.0 * static_cast<double>(count_ - 1);
  std::uint64_t below = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const std::uint64_t n = buckets_[i];
    if (n == 0) continue;
    if (rank < static_cast<double>(below + n)) {
      const double lo = bucket_lo(static_cast<int>(i));
      const double hi = bucket_hi(static_cast<int>(i));
      const double within =
          (rank - static_cast<double>(below)) / static_cast<double>(n);
      double v = lo + (hi - lo) * within;
      return std::clamp(v, min_, max_);
    }
    below += n;
  }
  return max_;
}

void Histogram::reset() {
  buckets_.clear();
  count_ = 0;
  sum_ = 0.0;
  min_ = std::numeric_limits<double>::infinity();
  max_ = -std::numeric_limits<double>::infinity();
}

const Counter* MetricsRegistry::find_counter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

const Gauge* MetricsRegistry::find_gauge(const std::string& name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : &it->second;
}

const Histogram* MetricsRegistry::find_histogram(
    const std::string& name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

void MetricsRegistry::merge_from(const MetricsRegistry& other) {
  for (const auto& [name, c] : other.counters_) {
    counters_[name].inc(c.value());
  }
  for (const auto& [name, g] : other.gauges_) {
    Gauge& mine = gauges_[name];
    // Keep the larger of the two high-water marks; the merged "current"
    // value is the max as well (per-machine gauges are peak-style).
    mine.set(std::max(mine.max(), g.max()));
  }
  for (const auto& [name, s] : other.stats_) {
    stats_[name].merge(s);
  }
  for (const auto& [name, h] : other.histograms_) {
    histograms_[name].merge(h);
  }
}

void MetricsRegistry::dump_table(std::ostream& out) const {
  out << "== metrics ==\n";
  for (const auto& [name, c] : counters_) {
    out << "  " << std::left << std::setw(36) << name << std::right
        << std::setw(16) << c.value() << "\n";
  }
  for (const auto& [name, g] : gauges_) {
    out << "  " << std::left << std::setw(36) << name << std::right
        << std::setw(16) << g.value() << "  (max " << g.max() << ")\n";
  }
  for (const auto& [name, s] : stats_) {
    out << "  " << std::left << std::setw(36) << name << std::right
        << std::setw(16) << s.mean() << "  (n=" << s.count()
        << " min=" << s.min() << " max=" << s.max() << ")\n";
  }
  for (const auto& [name, h] : histograms_) {
    out << "  " << std::left << std::setw(36) << name << std::right
        << std::setw(16) << h.p50() << "  (n=" << h.count()
        << " p99=" << h.p99() << " max=" << h.max() << ")\n";
  }
  out << std::left;
}

void MetricsRegistry::write_csv(std::ostream& out) const {
  out << "metric,kind,count,sum,mean,min,max,p50,p90,p99\n";
  for (const auto& [name, c] : counters_) {
    out << name << ",counter," << c.value() << ',' << c.value() << ','
        << c.value() << ',' << c.value() << ',' << c.value() << ','
        << c.value() << ',' << c.value() << ',' << c.value() << '\n';
  }
  for (const auto& [name, g] : gauges_) {
    out << name << ",gauge,1," << g.value() << ',' << g.value() << ','
        << g.value() << ',' << g.max() << ',' << g.value() << ','
        << g.value() << ',' << g.value() << '\n';
  }
  for (const auto& [name, s] : stats_) {
    out << name << ",stat," << s.count() << ',' << s.sum() << ',' << s.mean()
        << ',' << s.min() << ',' << s.max() << ',' << s.mean() << ','
        << s.mean() << ',' << s.mean() << '\n';
  }
  for (const auto& [name, h] : histograms_) {
    out << name << ",histogram," << h.count() << ',' << h.sum() << ','
        << h.mean() << ',' << h.min() << ',' << h.max() << ',' << h.p50()
        << ',' << h.p90() << ',' << h.p99() << '\n';
  }
}

void MetricsRegistry::write_json(std::ostream& out) const {
  out << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    out << (first ? "" : ",") << "\n    \"" << json_escape(name)
        << "\": " << c.value();
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    out << (first ? "" : ",") << "\n    \"" << json_escape(name)
        << "\": {\"value\": " << json_num(g.value())
        << ", \"max\": " << json_num(g.max()) << "}";
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"stats\": {";
  first = true;
  for (const auto& [name, s] : stats_) {
    out << (first ? "" : ",") << "\n    \"" << json_escape(name)
        << "\": {\"count\": " << s.count() << ", \"sum\": " << json_num(s.sum())
        << ", \"mean\": " << json_num(s.mean())
        << ", \"min\": " << json_num(s.min())
        << ", \"max\": " << json_num(s.max()) << "}";
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    out << (first ? "" : ",") << "\n    \"" << json_escape(name)
        << "\": {\"count\": " << h.count() << ", \"sum\": " << json_num(h.sum())
        << ", \"mean\": " << json_num(h.mean())
        << ", \"min\": " << json_num(h.min())
        << ", \"max\": " << json_num(h.max())
        << ", \"p50\": " << json_num(h.p50())
        << ", \"p90\": " << json_num(h.p90())
        << ", \"p99\": " << json_num(h.p99()) << "}";
    first = false;
  }
  out << (first ? "" : "\n  ") << "}\n}\n";
}

void MetricsRegistry::reset() {
  counters_.clear();
  gauges_.clear();
  stats_.clear();
  histograms_.clear();
}

}  // namespace ugnirt::trace
