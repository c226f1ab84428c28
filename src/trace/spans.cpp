#include "trace/spans.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <string>

#include "trace/metrics.hpp"

namespace ugnirt::trace {

const char* stage_name(Stage s) {
  switch (s) {
    case Stage::kSubmit:
      return "submit";
    case Stage::kAggEnqueue:
      return "agg_enqueue";
    case Stage::kAggFlush:
      return "agg_flush";
    case Stage::kGovDefer:
      return "gov_defer";
    case Stage::kGovAdmit:
      return "gov_admit";
    case Stage::kTransportPost:
      return "transport_post";
    case Stage::kRxArrive:
      return "rx_arrive";
    case Stage::kCqComplete:
      return "cq_complete";
    case Stage::kDeliver:
      return "deliver";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// SpanCollector
// ---------------------------------------------------------------------------

std::uint32_t SpanCollector::begin(std::int32_t src_pe, std::int32_t dst_pe,
                                   std::uint32_t bytes, SimTime t) {
  if (cfg_.sample == 0) return 0;
  const std::uint64_t seq = submit_seq_++;
  if (seq % cfg_.sample != 0) return 0;
  if (spans_.size() >= cfg_.max_spans) return 0;
  Span sp;
  sp.id = static_cast<std::uint32_t>(spans_.size()) + 1;
  sp.bytes = bytes;
  sp.src_pe = src_pe;
  sp.dst_pe = dst_pe;
  sp.marks.push_back(SpanMark{Stage::kSubmit, src_pe, t});
  spans_.push_back(std::move(sp));
  return spans_.back().id;
}

void SpanCollector::mark(std::uint32_t id, Stage stage, std::int32_t pe,
                         SimTime t) {
  if (id == 0 || id > spans_.size()) return;
  spans_[id - 1].marks.push_back(SpanMark{stage, pe, t});
}

const Span* SpanCollector::find(std::uint32_t id) const {
  if (id == 0 || id > spans_.size()) return nullptr;
  return &spans_[id - 1];
}

void SpanCollector::fill_histograms(MetricsRegistry& reg) const {
  // Reset-then-fill so a second flush of the same session stays idempotent.
  Histogram* stage_hist[kStageCount] = {};
  for (int i = 0; i < kStageCount; ++i) {
    stage_hist[i] = &reg.histogram(std::string("span.stage.") +
                                   stage_name(static_cast<Stage>(i)));
    stage_hist[i]->reset();
  }
  Histogram& total = reg.histogram("span.total_ns");
  total.reset();
  for (const Span& sp : spans_) {
    if (sp.marks.size() < 2) continue;  // never progressed past submit
    for (std::size_t i = 1; i < sp.marks.size(); ++i) {
      const SimTime d = sp.marks[i].t - sp.marks[i - 1].t;
      stage_hist[static_cast<int>(sp.marks[i].stage)]->add(
          static_cast<double>(d));
    }
    total.add(static_cast<double>(sp.marks.back().t - sp.marks.front().t));
  }
}

void SpanCollector::write_chrome_json(std::ostream& out) const {
  // Async ("b"/"n"/"e") events share an id namespace per category; each
  // span becomes one async track named by its size class.
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const Span& sp : spans_) {
    if (sp.marks.empty()) continue;
    const double ts0 = static_cast<double>(sp.marks.front().t) / 1000.0;
    const double ts1 = static_cast<double>(sp.marks.back().t) / 1000.0;
    if (!first) out << ",";
    first = false;
    out << "{\"ph\":\"b\",\"cat\":\"span\",\"id\":" << sp.id
        << ",\"name\":\"msg " << sp.bytes << "B\",\"pid\":0,\"tid\":"
        << sp.src_pe << ",\"ts\":" << ts0 << ",\"args\":{\"src\":"
        << sp.src_pe << ",\"dst\":" << sp.dst_pe << ",\"bytes\":" << sp.bytes
        << "}}";
    for (std::size_t i = 1; i + 1 < sp.marks.size(); ++i) {
      const SpanMark& mk = sp.marks[i];
      out << ",{\"ph\":\"n\",\"cat\":\"span\",\"id\":" << sp.id
          << ",\"name\":\"" << stage_name(mk.stage)
          << "\",\"pid\":0,\"tid\":" << mk.pe
          << ",\"ts\":" << static_cast<double>(mk.t) / 1000.0 << "}";
    }
    out << ",{\"ph\":\"e\",\"cat\":\"span\",\"id\":" << sp.id
        << ",\"name\":\"msg " << sp.bytes << "B\",\"pid\":0,\"tid\":"
        << sp.marks.back().pe << ",\"ts\":" << ts1 << ",\"args\":{\"last\":\""
        << stage_name(sp.marks.back().stage) << "\"}}";
  }
  out << "]}";
}

void SpanCollector::write_breakdown(std::ostream& out) const {
  Histogram per_stage[kStageCount];
  Histogram total;
  std::uint64_t complete = 0;
  for (const Span& sp : spans_) {
    if (sp.marks.size() < 2) continue;
    for (std::size_t i = 1; i < sp.marks.size(); ++i) {
      per_stage[static_cast<int>(sp.marks[i].stage)].add(
          static_cast<double>(sp.marks[i].t - sp.marks[i - 1].t));
    }
    total.add(static_cast<double>(sp.marks.back().t - sp.marks.front().t));
    ++complete;
  }
  out << "== span breakdown (" << complete << " of " << spans_.size()
      << " sampled spans progressed past submit) ==\n";
  if (complete == 0) return;
  out << "  " << std::left << std::setw(16) << "stage" << std::right
      << std::setw(10) << "count" << std::setw(12) << "mean_ns"
      << std::setw(12) << "p50_ns" << std::setw(12) << "p99_ns"
      << std::setw(12) << "sum_ns" << std::setw(8) << "share" << "\n";
  const double grand = total.sum() > 0 ? total.sum() : 1.0;
  for (int i = 0; i < kStageCount; ++i) {
    const Histogram& h = per_stage[i];
    if (h.count() == 0) continue;
    out << "  " << std::left << std::setw(16)
        << stage_name(static_cast<Stage>(i)) << std::right << std::setw(10)
        << h.count() << std::setw(12) << std::llround(h.mean())
        << std::setw(12) << std::llround(h.p50()) << std::setw(12)
        << std::llround(h.p99()) << std::setw(12)
        << std::llround(h.sum()) << std::setw(7) << std::fixed
        << std::setprecision(1) << 100.0 * h.sum() / grand << "%"
        << std::defaultfloat << "\n";
  }
  out << "  " << std::left << std::setw(16) << "end-to-end" << std::right
      << std::setw(10) << total.count() << std::setw(12)
      << std::llround(total.mean()) << std::setw(12)
      << std::llround(total.p50()) << std::setw(12)
      << std::llround(total.p99()) << std::setw(12)
      << std::llround(total.sum()) << std::setw(8) << "100.0%" << "\n"
      << std::left;
}

namespace detail {
constinit thread_local SpanCollector* t_spans = nullptr;
}  // namespace detail

}  // namespace ugnirt::trace
