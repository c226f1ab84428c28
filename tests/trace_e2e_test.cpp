// End-to-end test of the UGNIRT_TRACE session: run real machine traffic
// with tracing enabled, flush, and validate the emitted artifacts.
//
// This binary has its own main() so it can set UGNIRT_TRACE in the
// environment before the lazily-initialized TraceSession first reads it.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include <algorithm>

#include "converse/machine.hpp"
#include "lrts/runtime.hpp"
#include "trace/events.hpp"
#include "trace/metrics.hpp"
#include "trace/session.hpp"
#include "trace/spans.hpp"

namespace ugnirt::converse {
namespace {

/// Per-test artifact base "trace_e2e_out.<test name>", removed when the
/// test ends.  ctest runs each discovered test in its own process, in
/// parallel under -j, and every process flushes its session: with one
/// shared base, one test's flush truncated files another was reading.
class ScopedOutputBase {
 public:
  explicit ScopedOutputBase(trace::TraceSession& session)
      : base_(std::string("trace_e2e_out.") +
              ::testing::UnitTest::GetInstance()->current_test_info()->name()) {
    session.set_output_base(base_);
  }
  ~ScopedOutputBase() {
    for (const char* ext : {".trace.json", ".events.csv", ".metrics.csv",
                            ".metrics.json", ".spans.json"}) {
      std::remove((base_ + ext).c_str());
    }
  }
  ScopedOutputBase(const ScopedOutputBase&) = delete;
  ScopedOutputBase& operator=(const ScopedOutputBase&) = delete;

  std::string path(const char* ext) const { return base_ + ext; }

 private:
  std::string base_;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Drive ping-pong traffic across both protocol regimes (SMSG and
/// GET-based rendezvous) on the uGNI layer, then destroy the machine so
/// its metrics are absorbed into the trace session.
void run_traffic() {
  MachineOptions o;
  o.pes = 4;
  o.pes_per_node = 2;  // two nodes; PE 0 <-> PE 3 is inter-node traffic
  auto m = lrts::make_machine(LayerKind::kUgni, o);
  int bounces = 0;
  int h = m->register_handler([&](void* msg) {
    ++bounces;
    std::uint32_t total = header_of(msg)->size;
    int me = CmiMyPe();
    if (bounces < 8) {
      void* reply = CmiAlloc(total);
      CmiSetHandler(reply, h);
      CmiSyncSendAndFree(3 - me, total, reply);
    }
    CmiFree(msg);
  });
  for (std::uint32_t payload : {64u, 262144u}) {
    bounces = 0;
    const std::uint32_t total = payload + kCmiHeaderBytes;
    m->start(0, [&, total] {
      void* msg = CmiAlloc(total);
      CmiSetHandler(msg, h);
      CmiSyncSendAndFree(3, total, msg);
    });
    m->run();
    EXPECT_EQ(bounces, 8);
  }
}

TEST(TraceE2E, SessionIsActiveAndRecords) {
  trace::TraceSession* session = trace::TraceSession::active();
  ASSERT_NE(session, nullptr) << "UGNIRT_TRACE=1 not honored";
  ASSERT_TRUE(trace::enabled());
  ScopedOutputBase out(*session);

  run_traffic();

  // Protocol events from both regimes landed in the tracer.
  trace::EventTracer& ev = session->events();
  EXPECT_GT(ev.count_of(trace::Ev::kSmsgSend), 0u);
  EXPECT_GT(ev.count_of(trace::Ev::kRdvInit), 0u);
  EXPECT_GT(ev.count_of(trace::Ev::kRdvGet), 0u);
  EXPECT_GT(ev.count_of(trace::Ev::kRdvAck), 0u);
  EXPECT_GT(ev.count_of(trace::Ev::kMsgExec), 0u);
  EXPECT_GT(ev.count_of(trace::Ev::kMemReg), 0u);
  session->flush();  // now, so the exit flush leaves no files behind
}

// Self-sufficient (gtest_discover_tests may run it in its own process):
// generates traffic, flushes, then validates every artifact.
TEST(TraceE2E, FlushedArtifactsAreValid) {
  trace::TraceSession* session = trace::TraceSession::active();
  ASSERT_NE(session, nullptr);
  ScopedOutputBase out(*session);
  run_traffic();
  session->flush();

  // ---- Chrome trace JSON: structural sanity (Perfetto-loadable shape).
  std::string json = slurp(out.path(".trace.json"));
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u) << json.substr(0, 40);
  std::int64_t braces = 0, brackets = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    char c = json[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '{') ++braces;
    else if (c == '}') --braces;
    else if (c == '[') ++brackets;
    else if (c == ']') --brackets;
    ASSERT_GE(braces, 0);
    ASSERT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_FALSE(in_string);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"smsg_send\""), std::string::npos);

  // ---- Events CSV.
  std::string events = slurp(out.path(".events.csv"));
  EXPECT_EQ(events.rfind("pe,t_ns,dur_ns,event,peer,size", 0), 0u);

  // ---- Metrics CSV: header plus a broad counter set spanning the uGNI
  // layer, the mempool, the Gemini network model and the CQs.
  std::string metrics = slurp(out.path(".metrics.csv"));
  std::istringstream in(metrics);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "metric,kind,count,sum,mean,min,max,p50,p90,p99");
  std::set<std::string> counters;
  std::set<std::string> categories;
  while (std::getline(in, line)) {
    std::size_t c1 = line.find(',');
    ASSERT_NE(c1, std::string::npos) << line;
    std::string name = line.substr(0, c1);
    std::size_t c2 = line.find(',', c1 + 1);
    if (line.substr(c1 + 1, c2 - c1 - 1) == "counter") {
      counters.insert(name);
    }
    categories.insert(name.substr(0, name.find('.')));
  }
  EXPECT_GE(counters.size(), 12u) << metrics;
  for (const char* want : {"ugni", "mempool", "net", "cq", "converse"}) {
    EXPECT_TRUE(categories.count(want)) << "no " << want << ".* metrics";
  }
  EXPECT_TRUE(counters.count("ugni.smsg_sends"));
  EXPECT_TRUE(counters.count("ugni.rendezvous_gets"));
  EXPECT_TRUE(counters.count("mempool.freelist_hits"));
  EXPECT_TRUE(counters.count("net.transfers"));
}

// Span sampling was enabled via UGNIRT_SPAN_SAMPLE=1 in main(), so the
// flushed session must additionally produce the span artifacts: the
// Chrome async-span JSON, the machine-readable metrics JSON, and
// span.stage.* histogram rows whose telescoped sums reconcile with the
// end-to-end total.
TEST(TraceE2E, SpanArtifactsReconcile) {
  trace::TraceSession* session = trace::TraceSession::active();
  ASSERT_NE(session, nullptr);
  ASSERT_TRUE(trace::spans_enabled()) << "UGNIRT_SPAN_SAMPLE=1 not honored";
  ScopedOutputBase out(*session);
  run_traffic();
  session->flush();

  trace::SpanCollector* col = session->span_collector();
  ASSERT_NE(col, nullptr);
  EXPECT_GT(col->span_count(), 0u);
  // sample=1: every submit was sampled.
  EXPECT_EQ(col->span_count(),
            std::min<std::uint64_t>(col->submits_seen(),
                                    col->config().max_spans));

  std::string spans = slurp(out.path(".spans.json"));
  EXPECT_EQ(spans.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(spans.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(spans.find("\"ph\":\"e\""), std::string::npos);
  EXPECT_NE(spans.find("\"deliver\""), std::string::npos);

  std::string mjson = slurp(out.path(".metrics.json"));
  EXPECT_NE(mjson.find("\"histograms\""), std::string::npos);
  EXPECT_NE(mjson.find("\"span.total_ns\""), std::string::npos);

  std::string metrics = slurp(out.path(".metrics.csv"));
  EXPECT_NE(metrics.find("span.stage.transport_post,histogram"),
            std::string::npos);
  EXPECT_NE(metrics.find("span.stage.deliver,histogram"),
            std::string::npos);

  // Telescoped per-stage sums reconcile exactly with the end-to-end sum.
  trace::MetricsRegistry reg;
  col->fill_histograms(reg);
  double stage_sum = 0;
  for (int st = 0; st < trace::kStageCount; ++st) {
    const trace::Histogram* h = reg.find_histogram(
        std::string("span.stage.") +
        trace::stage_name(static_cast<trace::Stage>(st)));
    if (h) stage_sum += h->sum();
  }
  const trace::Histogram* total = reg.find_histogram("span.total_ns");
  ASSERT_NE(total, nullptr);
  EXPECT_GT(total->count(), 0u);
  EXPECT_DOUBLE_EQ(stage_sum, total->sum());
}

// A scope opened while the session is open, as suite_runner's span probes
// do, samples every submit of its run into its own collector, and closing
// it puts the session's collector back for the runs that follow.
TEST(TraceE2E, ScopedCollectorRestoresSessionCollector) {
  trace::TraceSession* session = trace::TraceSession::active();
  ASSERT_NE(session, nullptr);
  ScopedOutputBase out(*session);
  trace::SpanCollector* session_col = session->span_collector();
  ASSERT_NE(session_col, nullptr);
  ASSERT_EQ(trace::spans(), session_col);
  const std::uint64_t before = session_col->submits_seen();

  trace::SpanCollector col(trace::SpanConfig{/*sample=*/1});
  {
    trace::SinkScope sinks(trace::tracer(), &col);
    run_traffic();
  }
  // Two payloads, eight legs each.
  EXPECT_EQ(col.submits_seen(), 16u);
  EXPECT_EQ(col.span_count(), 16u);
  EXPECT_EQ(session_col->submits_seen(), before);

  EXPECT_EQ(trace::spans(), session_col);
  EXPECT_EQ(trace::tracer(), &session->events());
  run_traffic();
  EXPECT_EQ(session_col->submits_seen(), before + 16);
  EXPECT_EQ(col.submits_seen(), 16u);
  session->flush();
}

}  // namespace
}  // namespace ugnirt::converse

int main(int argc, char** argv) {
  // Must happen before the first TraceSession::active() call anywhere.
  // UGNIRT_TRACE_FILE would override every test's own output base.
  setenv("UGNIRT_TRACE", "1", 1);
  unsetenv("UGNIRT_TRACE_FILE");
  setenv("UGNIRT_SPAN_SAMPLE", "1", 1);  // sample every message lifecycle
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
