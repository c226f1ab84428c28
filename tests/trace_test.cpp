// Unit tests for the trace module: metrics registry, event rings, the
// Chrome-trace exporter and the Projections-lite utilization tracer.
#include <cctype>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "converse/machine.hpp"
#include "lrts/runtime.hpp"
#include "trace/events.hpp"
#include "trace/metrics.hpp"
#include "trace/session.hpp"
#include "trace/spans.hpp"
#include "trace/tracer.hpp"
#include "util/config.hpp"
#include "util/stats.hpp"

#include <algorithm>
#include <cstdlib>
#include <vector>

namespace ugnirt {
namespace {

// ---------------------------------------------------------------------------
// Minimal JSON well-formedness checker (recursive descent, values only).
// ---------------------------------------------------------------------------

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool number() {
    std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const char* word) {
    std::string w(word);
    if (s_.compare(pos_, w.size(), w) != 0) return false;
    pos_ += w.size();
    return true;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(Metrics, CounterFindOrCreateAndCachedPointer) {
  trace::MetricsRegistry reg;
  trace::Counter* c = &reg.counter("ugni.smsg_sends");
  c->inc();
  c->inc(4);
  // Lookup by the same name returns the same node (map addresses stable).
  EXPECT_EQ(&reg.counter("ugni.smsg_sends"), c);
  EXPECT_EQ(reg.counter("ugni.smsg_sends").value(), 5u);
  EXPECT_EQ(reg.counter_count(), 1u);
  ASSERT_NE(reg.find_counter("ugni.smsg_sends"), nullptr);
  EXPECT_EQ(reg.find_counter("no.such.metric"), nullptr);
}

TEST(Metrics, GaugeTracksHighWaterMark) {
  trace::MetricsRegistry reg;
  trace::Gauge& g = reg.gauge("cq.max_depth");
  g.set(3.0);
  g.set(10.0);
  g.set(2.0);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
  EXPECT_DOUBLE_EQ(g.max(), 10.0);
}

TEST(Metrics, MergeSemantics) {
  trace::MetricsRegistry a;
  trace::MetricsRegistry b;
  a.counter("c").inc(3);
  b.counter("c").inc(4);
  a.gauge("g").set(5.0);
  b.gauge("g").set(2.0);
  a.stat("s").add(1.0);
  a.stat("s").add(3.0);
  b.stat("s").add(5.0);

  a.merge_from(b);
  EXPECT_EQ(a.counter("c").value(), 7u);       // counters add
  EXPECT_DOUBLE_EQ(a.gauge("g").max(), 5.0);   // gauges keep the max
  EXPECT_EQ(a.stat("s").count(), 3u);          // stats merge samples
  EXPECT_DOUBLE_EQ(a.stat("s").mean(), 3.0);
  // Metrics only present in `b` appear after the merge.
  b.counter("only_b").inc();
  a.merge_from(b);
  ASSERT_NE(a.find_counter("only_b"), nullptr);
}

TEST(Metrics, CsvHeaderAndRows) {
  trace::MetricsRegistry reg;
  reg.counter("x.count").inc(2);
  reg.gauge("x.depth").set(7.0);
  reg.stat("x.lat").add(10.0);
  std::ostringstream out;
  reg.write_csv(out);
  std::istringstream in(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "metric,kind,count,sum,mean,min,max,p50,p90,p99");
  int rows = 0;
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, 3);
}

TEST(RunningStatMerge, MatchesSequentialAccumulation) {
  RunningStat all, left, right;
  for (int i = 0; i < 40; ++i) {
    double x = 0.37 * i * i - 3.0 * i + 1.5;
    all.add(x);
    (i % 2 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
  EXPECT_NEAR(left.sum(), all.sum(), 1e-9);
}

TEST(RunningStatMerge, EmptySidesAreIdentity) {
  RunningStat a, empty;
  a.add(2.0);
  a.add(4.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 3.0);
  RunningStat b;
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 3.0);
}

// ---------------------------------------------------------------------------
// EventRing
// ---------------------------------------------------------------------------

trace::Event make_event(SimTime t) {
  trace::Event ev;
  ev.t = t;
  ev.type = trace::Ev::kSmsgSend;
  return ev;
}

TEST(EventRing, FillsToCapacityWithoutDropping) {
  trace::EventRing ring(4);
  for (SimTime t = 0; t < 4; ++t) ring.push(make_event(t));
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.dropped(), 0u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(ring.at(i).t, static_cast<SimTime>(i));
  }
}

TEST(EventRing, WrapsOverwritingOldestAndCountsDrops) {
  trace::EventRing ring(4);
  for (SimTime t = 0; t < 10; ++t) ring.push(make_event(t));
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.dropped(), 6u);
  // Retained entries are the newest four, oldest-first.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(ring.at(i).t, static_cast<SimTime>(6 + i));
  }
}

TEST(EventRing, ZeroCapacityClampsToOne) {
  trace::EventRing ring(0);
  ring.push(make_event(1));
  ring.push(make_event(2));
  EXPECT_EQ(ring.capacity(), 1u);
  EXPECT_EQ(ring.size(), 1u);
  EXPECT_EQ(ring.dropped(), 1u);
  EXPECT_EQ(ring.at(0).t, 2);
}

// ---------------------------------------------------------------------------
// EventTracer + exporters
// ---------------------------------------------------------------------------

TEST(EventTracer, RecordsPerPeAndCountsTypes) {
  trace::EventTracer tracer(16);
  tracer.record(0, trace::Ev::kSmsgSend, 100, 50, 1, 64);
  tracer.record(0, trace::Ev::kSmsgRecv, 200);
  tracer.record(1, trace::Ev::kRdvGet, 300, 0, 0, 4096);
  tracer.record(-1001, trace::Ev::kRdvAck, 400);  // comm-thread actor

  EXPECT_EQ(tracer.pe_count(), 3u);
  EXPECT_EQ(tracer.total_events(), 4u);
  EXPECT_EQ(tracer.count_of(trace::Ev::kSmsgSend), 1u);
  EXPECT_EQ(tracer.count_of(trace::Ev::kRdvGet), 1u);
  EXPECT_EQ(tracer.count_of(trace::Ev::kBtePost), 0u);
  ASSERT_NE(tracer.ring(0), nullptr);
  EXPECT_EQ(tracer.ring(0)->size(), 2u);
  EXPECT_EQ(tracer.ring(42), nullptr);
}

TEST(EventTracer, ChromeJsonIsWellFormed) {
  trace::EventTracer tracer(8);
  tracer.record(0, trace::Ev::kSmsgSend, 1000, 500, 1, 64);
  tracer.record(1, trace::Ev::kMemReg, 2000, 250, -1, 8192);
  tracer.record(-1000, trace::Ev::kRdvGet, 3000, 0, 0, 1 << 20);
  std::ostringstream out;
  tracer.write_chrome_json(out);
  std::string json = out.str();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"smsg_send\""), std::string::npos);
  EXPECT_NE(json.find("\"mem_register\""), std::string::npos);
  // Complete events carry microsecond timestamps: 1000 ns -> 1 us.
  EXPECT_NE(json.find("\"ts\":1"), std::string::npos);
}

TEST(EventTracer, EmptyTracerStillEmitsValidJson) {
  trace::EventTracer tracer(8);
  std::ostringstream out;
  tracer.write_chrome_json(out);
  EXPECT_TRUE(JsonChecker(out.str()).valid()) << out.str();
}

TEST(EventTracer, CsvHeaderAndRowCount) {
  trace::EventTracer tracer(8);
  tracer.record(0, trace::Ev::kPoolHit, 10, 0, -1, 256);
  tracer.record(0, trace::Ev::kPoolMiss, 20, 0, -1, 512);
  std::ostringstream out;
  tracer.write_csv(out);
  std::istringstream in(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "pe,t_ns,dur_ns,event,peer,size");
  int rows = 0;
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, 2);
}

TEST(EventTracer, AllEventTypesHaveDistinctNames) {
  for (int i = 0; i < trace::kEvCount; ++i) {
    for (int j = i + 1; j < trace::kEvCount; ++j) {
      EXPECT_STRNE(trace::event_name(static_cast<trace::Ev>(i)),
                   trace::event_name(static_cast<trace::Ev>(j)));
    }
  }
}

TEST(EmitGuard, DisabledByDefaultAndScopeRestoresPrevious) {
  ASSERT_FALSE(trace::enabled());
  ASSERT_FALSE(trace::spans_enabled());
  trace::EventTracer outer(8);
  trace::EventTracer inner(8);
  trace::SpanCollector spans(trace::SpanConfig{/*sample=*/1});
  {
    trace::SinkScope scope(&outer, &spans);
    EXPECT_TRUE(trace::enabled());
    EXPECT_TRUE(trace::spans_enabled());
    // emit records under the PE id its caller passes.
    trace::emit(7, trace::Ev::kSmsgSend, 100, 40, 3, 96);
    {
      trace::SinkScope nested(&inner, nullptr);
      EXPECT_EQ(trace::tracer(), &inner);
      EXPECT_FALSE(trace::spans_enabled());
      trace::emit(2, trace::Ev::kSmsgRecv, 150);
    }
    // Closing the nested scope put back the sinks it replaced.
    EXPECT_EQ(trace::tracer(), &outer);
    EXPECT_EQ(trace::spans(), &spans);
    // Sinks belong to the thread that installed them.
    bool other_thread_traced = true;
    std::thread([&] {
      other_thread_traced = trace::enabled() || trace::spans_enabled();
    }).join();
    EXPECT_FALSE(other_thread_traced);
  }
  EXPECT_FALSE(trace::enabled());
  EXPECT_FALSE(trace::spans_enabled());
  EXPECT_EQ(outer.total_events(), 1u);
  ASSERT_NE(outer.ring(7), nullptr);
  EXPECT_EQ(outer.ring(7)->at(0).peer, 3);
  EXPECT_EQ(inner.total_events(), 1u);
  EXPECT_NE(inner.ring(2), nullptr);
}

// ---------------------------------------------------------------------------
// Projections-lite utilization tracer
// ---------------------------------------------------------------------------

TEST(Tracer, SpanCrossingBinsIsApportioned) {
  trace::Tracer tr(1000);  // 1 us bins
  tr.set_pe_count(1);
  // 500 ns in bin 0, all of bin 1, 250 ns in bin 2.
  tr.record(0, 500, 2250, trace::SpanKind::kApp);
  tr.finalize(3000);
  ASSERT_EQ(tr.bins(), 3u);
  EXPECT_DOUBLE_EQ(tr.app_ns(0), 500.0);
  EXPECT_DOUBLE_EQ(tr.app_ns(1), 1000.0);
  EXPECT_DOUBLE_EQ(tr.app_ns(2), 250.0);
  EXPECT_DOUBLE_EQ(tr.idle_ns(2), 750.0);
}

TEST(Tracer, ZeroLengthSpanIsIgnored) {
  trace::Tracer tr(1000);
  tr.set_pe_count(1);
  tr.record(0, 400, 400, trace::SpanKind::kOverhead);
  tr.finalize(1000);
  EXPECT_DOUBLE_EQ(tr.overhead_ns(0), 0.0);
  EXPECT_DOUBLE_EQ(tr.idle_ns(0), 1000.0);
}

TEST(Tracer, RecordAfterFinalizeIsIgnored) {
  trace::Tracer tr(1000);
  tr.set_pe_count(1);
  tr.record(0, 0, 600, trace::SpanKind::kApp);
  tr.finalize(1000);
  double before = tr.app_ns(0);
  tr.record(0, 0, 400, trace::SpanKind::kApp);  // must be a no-op
  EXPECT_DOUBLE_EQ(tr.app_ns(0), before);
}

TEST(Tracer, PercentagesStackToHundred) {
  trace::Tracer tr(1000);
  tr.set_pe_count(2);
  tr.record(0, 0, 600, trace::SpanKind::kApp);
  tr.record(1, 200, 900, trace::SpanKind::kOverhead);
  tr.record(0, 1100, 1900, trace::SpanKind::kApp);
  tr.finalize(2000);
  for (std::size_t b = 0; b < tr.bins(); ++b) {
    EXPECT_NEAR(tr.app_pct(b) + tr.overhead_pct(b) + tr.idle_pct(b), 100.0,
                1e-9);
  }
  EXPECT_NEAR(tr.total_app_pct() + tr.total_overhead_pct() +
                  tr.total_idle_pct(),
              100.0, 1e-9);
}

TEST(Tracer, CsvHasHeaderAndOneRowPerBin) {
  trace::Tracer tr(1000);
  tr.set_pe_count(1);
  tr.record(0, 0, 1500, trace::SpanKind::kApp);
  tr.finalize(2000);
  std::ostringstream out;
  tr.write_csv(out);
  std::istringstream in(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "time_ms,app_pct,overhead_pct,idle_pct");
  int rows = 0;
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, 2);
}


// ---------------------------------------------------------------------------
// Histogram (log-bucketed)
// ---------------------------------------------------------------------------

TEST(Histogram, EmptyIsAllZero) {
  trace::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.p50(), 0.0);
  EXPECT_EQ(h.p99(), 0.0);
}

TEST(Histogram, ExactForSingleValue) {
  trace::Histogram h;
  h.add(1234.0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 1234.0);
  EXPECT_EQ(h.max(), 1234.0);
  // A one-element histogram clamps every quantile to [min, max].
  EXPECT_EQ(h.p50(), 1234.0);
  EXPECT_EQ(h.p99(), 1234.0);
}

TEST(Histogram, QuantilesWithinBucketResolution) {
  // 8 sub-buckets per octave bound the relative width of any bucket by
  // 1/8 = 12.5%; interpolation keeps the estimate inside the bucket, so
  // the estimate can never be off by more than one bucket width.
  trace::Histogram h;
  std::vector<double> vals;
  std::uint64_t x = 88172645463325252ull;  // xorshift64, fixed seed
  for (int i = 0; i < 20000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    // Span ~6 decades, heavily skewed like latency data.
    double v = 1.0 + static_cast<double>(x % 1000000u);
    vals.push_back(v);
    h.add(v);
  }
  std::sort(vals.begin(), vals.end());
  for (double p : {50.0, 90.0, 99.0}) {
    const double exact =
        vals[static_cast<std::size_t>(p / 100.0 * (vals.size() - 1))];
    const double est = h.quantile(p);
    EXPECT_NEAR(est, exact, 0.125 * exact)
        << "p" << p << ": est " << est << " vs exact " << exact;
  }
  EXPECT_EQ(h.count(), vals.size());
  EXPECT_EQ(h.min(), vals.front());
  EXPECT_EQ(h.max(), vals.back());
}

TEST(Histogram, MergeMatchesSequentialAndIsAssociative) {
  auto fill = [](trace::Histogram& h, int lo, int n, double scale) {
    for (int i = 0; i < n; ++i) h.add(scale * (lo + i));
  };
  trace::Histogram a, b, c, seq;
  fill(a, 1, 100, 1.0);
  fill(b, 50, 200, 3.5);
  fill(c, 1, 50, 1000.0);
  fill(seq, 1, 100, 1.0);
  fill(seq, 50, 200, 3.5);
  fill(seq, 1, 50, 1000.0);

  trace::Histogram ab_c = a;   // (a + b) + c
  ab_c.merge(b);
  ab_c.merge(c);
  trace::Histogram bc = b;     // a + (b + c)
  bc.merge(c);
  trace::Histogram a_bc = a;
  a_bc.merge(bc);

  for (const trace::Histogram* m : {&ab_c, &a_bc}) {
    EXPECT_EQ(m->count(), seq.count());
    EXPECT_DOUBLE_EQ(m->sum(), seq.sum());
    EXPECT_EQ(m->min(), seq.min());
    EXPECT_EQ(m->max(), seq.max());
    // Bucket-exact merge: every quantile matches, not just within error.
    for (double p : {10.0, 50.0, 90.0, 99.0, 99.9}) {
      EXPECT_DOUBLE_EQ(m->quantile(p), seq.quantile(p)) << "p" << p;
    }
  }
}

TEST(Histogram, RegistryExportsCsvAndJson) {
  trace::MetricsRegistry reg;
  trace::Histogram& h = reg.histogram("lat");
  for (int i = 1; i <= 100; ++i) h.add(i);
  std::ostringstream csv;
  reg.write_csv(csv);
  EXPECT_NE(csv.str().find("lat,histogram,100,"), std::string::npos)
      << csv.str();
  std::ostringstream js;
  reg.write_json(js);
  EXPECT_TRUE(JsonChecker(js.str()).valid()) << js.str();
  EXPECT_NE(js.str().find("\"histograms\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// SpanCollector
// ---------------------------------------------------------------------------

TEST(Spans, SamplesEveryNthSubmit) {
  trace::SpanCollector col(trace::SpanConfig{/*sample=*/3});
  int sampled = 0;
  for (int i = 0; i < 9; ++i) {
    std::uint32_t id = col.begin(0, 1, 64, 100 * i);
    if (i % 3 == 0) {
      EXPECT_NE(id, 0u) << i;
      ++sampled;
    } else {
      EXPECT_EQ(id, 0u) << i;
    }
  }
  EXPECT_EQ(sampled, 3);
  EXPECT_EQ(col.span_count(), 3u);
  EXPECT_EQ(col.submits_seen(), 9u);
}

TEST(Spans, SampleZeroNeverRetainsAnything) {
  trace::SpanCollector col;  // sample defaults to 0: off
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(col.begin(0, 1, 64, i), 0u);
  }
  EXPECT_EQ(col.span_count(), 0u);
}

TEST(Spans, MaxSpansCapStopsSampling) {
  trace::SpanCollector col(trace::SpanConfig{1, /*max_spans=*/2});
  EXPECT_NE(col.begin(0, 1, 8, 0), 0u);
  EXPECT_NE(col.begin(0, 1, 8, 1), 0u);
  EXPECT_EQ(col.begin(0, 1, 8, 2), 0u);
  EXPECT_EQ(col.span_count(), 2u);
}

TEST(Spans, MarkOnUnknownIdIsNoop) {
  trace::SpanCollector col(trace::SpanConfig{1});
  col.mark(0, trace::Stage::kDeliver, 0, 10);    // id 0: unsampled
  col.mark(999, trace::Stage::kDeliver, 0, 10);  // never issued
  EXPECT_EQ(col.span_count(), 0u);
}

TEST(Spans, TelescopedStageSumsReconcileWithTotal) {
  trace::SpanCollector col(trace::SpanConfig{1});
  std::uint32_t id = col.begin(0, 1, 64, 100);
  col.mark(id, trace::Stage::kTransportPost, 0, 150);
  col.mark(id, trace::Stage::kRxArrive, 1, 400);
  col.mark(id, trace::Stage::kDeliver, 1, 450);
  trace::MetricsRegistry reg;
  col.fill_histograms(reg);
  double stage_sum = 0;
  for (int s = 0; s < trace::kStageCount; ++s) {
    const trace::Histogram* h = reg.find_histogram(
        std::string("span.stage.") +
        trace::stage_name(static_cast<trace::Stage>(s)));
    if (h) stage_sum += h->sum();
  }
  const trace::Histogram* total = reg.find_histogram("span.total_ns");
  ASSERT_NE(total, nullptr);
  EXPECT_DOUBLE_EQ(total->sum(), 450 - 100);
  EXPECT_DOUBLE_EQ(stage_sum, total->sum());
}

TEST(Spans, ChromeJsonIsWellFormed) {
  trace::SpanCollector col(trace::SpanConfig{1});
  std::uint32_t id = col.begin(0, 3, 128, 10);
  col.mark(id, trace::Stage::kTransportPost, 0, 20);
  col.mark(id, trace::Stage::kDeliver, 3, 55);
  std::ostringstream out;
  col.write_chrome_json(out);
  EXPECT_TRUE(JsonChecker(out.str()).valid()) << out.str();
  EXPECT_NE(out.str().find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(out.str().find("\"ph\":\"e\""), std::string::npos);
}

TEST(Spans, EnvOverridesValuesSetInCode) {
  trace::SpanConfig rt;
  rt.sample = 7;
  rt.max_spans = 12345;

  // UGNIRT_SPAN_SAMPLE overrides the value set in code via the standard
  // "span.sample" -> env-name mapping; max_spans empty keeps the value it
  // had, and 0 restores the default.
  setenv("UGNIRT_SPAN_SAMPLE", "31", 1);
  setenv("UGNIRT_SPAN_MAX_SPANS", "", 1);
  overlay_env(rt);
  EXPECT_EQ(rt.sample, 31u);
  EXPECT_EQ(rt.max_spans, 12345u);
  setenv("UGNIRT_SPAN_MAX_SPANS", "0", 1);
  overlay_env(rt);
  unsetenv("UGNIRT_SPAN_SAMPLE");
  unsetenv("UGNIRT_SPAN_MAX_SPANS");
  EXPECT_EQ(rt.max_spans, trace::SpanConfig{}.max_spans);
}

// ---------------------------------------------------------------------------
// Spans end-to-end on a real machine
// ---------------------------------------------------------------------------

namespace spane2e {

struct RunResult {
  SimTime end_time = 0;
  std::uint64_t events = 0;
};

/// 4-PE inter-node ping-pong across the SMSG (64 B) and rendezvous
/// (256 KiB) regimes; identical seeds and traffic every call.
RunResult run_traffic() {
  converse::MachineOptions o;
  o.pes = 4;
  o.pes_per_node = 2;
  auto m = lrts::make_machine(converse::LayerKind::kUgni, o);
  int bounces = 0;
  int h = m->register_handler([&](void* msg) {
    ++bounces;
    std::uint32_t total = converse::header_of(msg)->size;
    int me = converse::CmiMyPe();
    if (bounces < 8) {
      void* reply = converse::CmiAlloc(total);
      converse::CmiSetHandler(reply, h);
      converse::CmiSyncSendAndFree(3 - me, total, reply);
    }
    converse::CmiFree(msg);
  });
  for (std::uint32_t payload : {64u, 262144u}) {
    bounces = 0;
    const std::uint32_t total = payload + converse::kCmiHeaderBytes;
    m->start(0, [&, total] {
      void* msg = converse::CmiAlloc(total);
      converse::CmiSetHandler(msg, h);
      converse::CmiSyncSendAndFree(3, total, msg);
    });
    m->run();
  }
  return {m->engine().now(), m->engine().executed()};
}

}  // namespace spane2e

TEST(SpanE2E, StagesAreOrderedAndSpansComplete) {
  trace::SpanCollector col(trace::SpanConfig{/*sample=*/1});
  {
    trace::SinkScope sinks(nullptr, &col);
    spane2e::run_traffic();
  }

  ASSERT_GT(col.span_count(), 0u);
  std::size_t delivered = 0, with_transport = 0;
  for (std::uint32_t id = 1; id <= col.span_count(); ++id) {
    const trace::Span* sp = col.find(id);
    ASSERT_NE(sp, nullptr);
    ASSERT_FALSE(sp->marks.empty());
    EXPECT_EQ(sp->marks.front().stage, trace::Stage::kSubmit);
    // Virtual time is monotone along the journey.  (Stage enum values are
    // NOT monotone for rendezvous: the INIT control arrives at the
    // receiver before the GET is posted, so rx_arrive precedes
    // transport_post there.)
    for (std::size_t i = 1; i < sp->marks.size(); ++i) {
      EXPECT_GE(sp->marks[i].t, sp->marks[i - 1].t) << "span " << id;
      EXPECT_NE(sp->marks[i].stage, trace::Stage::kSubmit) << "span " << id;
    }
    if (sp->marks.back().stage == trace::Stage::kDeliver) ++delivered;
    for (const trace::SpanMark& mk : sp->marks) {
      if (mk.stage == trace::Stage::kTransportPost) ++with_transport;
    }
  }
  // Every ping-pong leg is a real delivery; all cross the NIC.
  EXPECT_GT(delivered, 0u);
  EXPECT_GT(with_transport, 0u);
}

TEST(SpanE2E, SamplingOffLeavesVirtualTimeBitIdentical) {
  // Run the identical seeded workload with spans fully off and with every
  // message sampled: the instrumentation must add zero virtual-time
  // charges and zero extra events.
  ASSERT_FALSE(trace::spans_enabled());
  spane2e::RunResult off = spane2e::run_traffic();

  trace::SpanCollector col(trace::SpanConfig{/*sample=*/1});
  spane2e::RunResult on;
  {
    trace::SinkScope sinks(nullptr, &col);
    on = spane2e::run_traffic();
  }

  EXPECT_GT(col.span_count(), 0u);
  EXPECT_EQ(off.end_time, on.end_time);
  EXPECT_EQ(off.events, on.events);
}

}  // namespace
}  // namespace ugnirt

