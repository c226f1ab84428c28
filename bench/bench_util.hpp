// Shared plumbing for the per-figure/per-table benchmark binaries.
//
// Every binary prints a human-readable table shaped like the paper's plot
// (one row per x-value, one column per curve) and, when UGNIRT_CSV=1,
// additionally writes `<bench>.csv` next to the working directory.
// UGNIRT_JSON=1 additionally writes `<bench>.json` (same rows, keyed by
// column label) for machine consumers such as tools/bench_report.py.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "trace/session.hpp"
#include "util/units.hpp"

namespace ugnirt::benchtool {

inline bool csv_enabled() {
  const char* v = std::getenv("UGNIRT_CSV");
  return v && v[0] == '1';
}

inline bool json_enabled() {
  const char* v = std::getenv("UGNIRT_JSON");
  return v && v[0] == '1';
}

inline void json_escape_to(std::ostream& out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') out << '\\';
    out << c;
  }
}

/// One BENCH_*.json metric for tools/bench_report.py.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  const char* better = "lower";  // "lower" | "higher" | "info"
};

/// The `"name": {"value": .., "unit": .., "better": ..}` members of a
/// metrics object, one per line, each line prefixed by `indent`.
inline void write_metrics(std::ostream& out, const std::vector<Metric>& ms,
                          const char* indent) {
  for (std::size_t i = 0; i < ms.size(); ++i) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.9g", ms[i].value);
    out << indent << '"';
    json_escape_to(out, ms[i].name);
    out << "\": {\"value\": " << buf << ", \"unit\": \"" << ms[i].unit
        << "\", \"better\": \"" << ms[i].better << "\"}";
    if (i + 1 < ms.size()) out << ',';
    out << '\n';
  }
}

/// A BENCH_*.json file holding one metrics object.
inline void write_suite_json(const char* path, const char* suite,
                             const std::vector<Metric>& ms) {
  std::ofstream out(path);
  out << "{\n  \"suite\": \"" << suite
      << "\",\n  \"schema\": 1,\n  \"metrics\": {\n";
  write_metrics(out, ms, "    ");
  out << "  }\n}\n";
}

/// Column-oriented result table; prints aligned text and optional CSV.
class Table {
 public:
  Table(std::string name, std::string x_label)
      : name_(std::move(name)), x_label_(std::move(x_label)) {
    // When UGNIRT_TRACE is on, name the trace output after the benchmark so
    // each figure gets its own <name>.trace.json / .metrics.csv set.
    if (trace::TraceSession* session = trace::TraceSession::active())
      session->set_output_base(name_);
  }

  void add_column(std::string label) { columns_.push_back(std::move(label)); }

  void add_row(std::string x, const std::vector<double>& values) {
    rows_.push_back({std::move(x), values});
  }

  void print() const {
    std::printf("== %s ==\n", name_.c_str());
    std::printf("%-12s", x_label_.c_str());
    for (const auto& c : columns_) std::printf(" %16s", c.c_str());
    std::printf("\n");
    for (const auto& row : rows_) {
      std::printf("%-12s", row.x.c_str());
      for (double v : row.values) std::printf(" %16.3f", v);
      std::printf("\n");
    }
    std::printf("\n");
    if (csv_enabled()) write_csv();
    if (json_enabled()) write_json(name_ + ".json");
  }

  /// Machine-readable dump: one object per row, values keyed by column
  /// label.  `{"name": ..., "x_label": ..., "rows": [{"x": "32", "values":
  /// {"col": 1.25, ...}}, ...]}`.
  void write_json(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"name\":\"";
    json_escape_to(out, name_);
    out << "\",\"x_label\":\"";
    json_escape_to(out, x_label_);
    out << "\",\"rows\":[";
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      if (r) out << ',';
      out << "{\"x\":\"";
      json_escape_to(out, rows_[r].x);
      out << "\",\"values\":{";
      for (std::size_t c = 0;
           c < rows_[r].values.size() && c < columns_.size(); ++c) {
        if (c) out << ',';
        out << '"';
        json_escape_to(out, columns_[c]);
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.9g", rows_[r].values[c]);
        out << "\":" << buf;
      }
      out << "}}";
    }
    out << "]}\n";
  }

 private:
  void write_csv() const {
    std::ofstream out(name_ + ".csv");
    out << x_label_;
    for (const auto& c : columns_) out << ',' << c;
    out << '\n';
    for (const auto& row : rows_) {
      out << row.x;
      for (double v : row.values) out << ',' << v;
      out << '\n';
    }
  }

  struct Row {
    std::string x;
    std::vector<double> values;
  };
  std::string name_;
  std::string x_label_;
  std::vector<std::string> columns_;
  std::vector<Row> rows_;
};

inline std::string size_label(std::uint64_t bytes) {
  char buf[32];
  if (bytes >= 1024 * 1024 && bytes % (1024 * 1024) == 0) {
    std::snprintf(buf, sizeof(buf), "%lluM",
                  static_cast<unsigned long long>(bytes / (1024 * 1024)));
  } else if (bytes >= 1024 && bytes % 1024 == 0) {
    std::snprintf(buf, sizeof(buf), "%lluK",
                  static_cast<unsigned long long>(bytes / 1024));
  } else {
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(bytes));
  }
  return buf;
}

/// Geometric size sweep [lo, hi], factor 2.
inline std::vector<std::uint64_t> size_sweep(std::uint64_t lo,
                                             std::uint64_t hi) {
  std::vector<std::uint64_t> out;
  for (std::uint64_t s = lo; s <= hi; s *= 2) out.push_back(s);
  return out;
}

}  // namespace ugnirt::benchtool
