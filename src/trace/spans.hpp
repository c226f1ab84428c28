// Sampled per-message lifecycle spans (the "critical path" half of
// Projections-full).
//
// Counters say HOW OFTEN each protocol action ran; event rings say WHEN.
// Neither answers the question the paper's Fig 6 asks — *where did one
// message spend its time* once submit(), aggregation, the AIMD injection
// governor, and the transport all sit on the send path.  A span follows a
// single sampled message from Machine::submit() to scheduler delivery,
// stamping virtual time at every stage it crosses:
//
//   submit ─► agg_enqueue ─► agg_flush ─► transport_post ─► rx_arrive
//        └──────────(bypass)──────► gov_defer ─► gov_admit ──┘    │
//                                        cq_complete ◄────────────┘
//                                             └─► deliver
//
// Stage durations telescope: each mark's duration is the gap back to the
// previous mark, so the per-stage sums reconcile *exactly* with the
// end-to-end latency (last mark minus first).
//
// Sampling is controlled by `UGNIRT_SPAN_SAMPLE=N` (every Nth submitted
// message starts a span; 0 = off) and is *zero-cost when off*: every
// emission site is guarded by `spans_enabled()`, one inlined test of the
// calling thread's collector (installed by a `trace::SinkScope`), and no
// allocation or atomic happens on the unsampled path.  The span id rides
// in the Converse envelope (CmiMsgHeader::span_id), so it survives every
// memcpy-based hop — aggregation frame packing, mailbox copies,
// rendezvous GETs — without side tables.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "util/units.hpp"

namespace ugnirt::trace {

class MetricsRegistry;

enum class Stage : std::uint8_t {
  kSubmit = 0,      // converse::Machine::submit accepted the message
  kAggEnqueue,      // aggregation packed it into a per-destination frame
  kAggFlush,        // the batch carrying it shipped to the layer
  kGovDefer,        // injection governor deferred the rendezvous GET
  kGovAdmit,        // injection governor (re-)admitted it into the window
  kTransportPost,   // SMSG/FMA/BTE/pxshm transaction issued at the NIC
  kRxArrive,        // message observed at the receiver NIC / shm queue
  kCqComplete,      // completion event consumed from the receiver's CQ
  kDeliver,         // scheduler handed the message to its handler
};
constexpr int kStageCount = static_cast<int>(Stage::kDeliver) + 1;

const char* stage_name(Stage s);

struct SpanConfig {
  std::uint64_t sample = 0;            // start a span every Nth submit; 0=off
  std::uint64_t max_spans = 1u << 20;  // retained-span cap (memory bound)

  /// Each knob once: key "span.<name>", env UGNIRT_SPAN_<NAME>.
  static constexpr const char* kConfigPrefix = "span";
  template <class V>
  void fields(V&& v) {
    v("sample", sample);
    v("max_spans", max_spans);
  }
  /// A cap of 0 would retain nothing; it means the default.
  void sanitize() {
    if (max_spans == 0) max_spans = SpanConfig{}.max_spans;
  }
};

struct SpanMark {
  Stage stage = Stage::kSubmit;
  std::int32_t pe = -1;  // PE on which the stage executed
  SimTime t = 0;
};

struct Span {
  std::uint32_t id = 0;
  std::uint32_t bytes = 0;
  std::int32_t src_pe = -1;
  std::int32_t dst_pe = -1;
  std::vector<SpanMark> marks;  // in mark order (virtual time is monotone)
};

/// Owns the spans sampled while it is installed, by dense 1-based id (0
/// means "not sampled"), so lookup is an index, not a hash.
class SpanCollector {
 public:
  explicit SpanCollector(SpanConfig cfg = {}) : cfg_(cfg) {}

  /// Called once per Machine::submit.  Returns a fresh span id when this
  /// message is sampled, 0 otherwise (not sampled, sampling off, or the
  /// max_spans cap was reached).
  std::uint32_t begin(std::int32_t src_pe, std::int32_t dst_pe,
                      std::uint32_t bytes, SimTime t);

  /// Append a stage mark to span `id`; no-op for id 0 or unknown ids.
  void mark(std::uint32_t id, Stage stage, std::int32_t pe, SimTime t);

  const Span* find(std::uint32_t id) const;
  std::size_t span_count() const { return spans_.size(); }
  std::uint64_t submits_seen() const { return submit_seq_; }
  const SpanConfig& config() const { return cfg_; }

  /// Telescoped per-stage durations into `span.stage.<name>` histograms
  /// plus the end-to-end `span.total_ns` histogram.
  void fill_histograms(MetricsRegistry& reg) const;

  /// Chrome trace_event async spans: one "b"/"e" pair per span with an "n"
  /// instant per intermediate stage (load in chrome://tracing / Perfetto).
  void write_chrome_json(std::ostream& out) const;

  /// Human-readable critical-path breakdown: per-stage count, mean, p50,
  /// p99 and share of total sampled latency.
  void write_breakdown(std::ostream& out) const;

 private:
  SpanConfig cfg_;
  std::uint64_t submit_seq_ = 0;
  std::vector<Span> spans_;  // id -> spans_[id - 1]
};

// ---- per-thread installation (mirrors events.hpp) ----------------------

namespace detail {
extern constinit thread_local SpanCollector* t_spans;
}  // namespace detail

/// True when this thread has a SpanCollector; the one test hot paths make.
inline bool spans_enabled() { return detail::t_spans != nullptr; }

inline SpanCollector* spans() { return detail::t_spans; }

/// Instrumentation sites call these after checking spans_enabled(); with
/// no collector they do nothing.
inline std::uint32_t span_begin(std::int32_t src_pe, std::int32_t dst_pe,
                                std::uint32_t bytes, SimTime t) {
  SpanCollector* c = detail::t_spans;
  return c ? c->begin(src_pe, dst_pe, bytes, t) : 0;
}
inline void span_mark(std::uint32_t id, Stage stage, std::int32_t pe,
                      SimTime t) {
  if (SpanCollector* c = detail::t_spans) c->mark(id, stage, pe, t);
}

}  // namespace ugnirt::trace
