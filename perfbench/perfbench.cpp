// One benchmark run of one workload, printed as one JSON object.
//
//   perfbench <workload> --seed <n> [--layers]
//
// The workloads are fixed-size batch jobs (README.md says why each one):
//
//   kneighbor-65k   65,536 PEs, one per node, no pxshm: every PE sends 4
//                   bursts of 1 KiB to its 2 ring neighbours on each side
//   nqueens-17      Table I row: 17-Queens on 3,840 PEs (sampled model)
//   namd-apoa1      Table II row: ApoA1 NAMD model on 3,840 PEs
//   namd-apoa1-smp  the same inputs in SMP mode
//
// The run generates its inputs from the seed, then runs the workload once
// (wall_s: first call into the program until the result has been returned
// and checked, teardown included) and checks it with the workload's oracle.
// setup_s is the lrts::make_machine call with the workload's options:
// kneighbor-65k times the one inside its measured run; the other workloads
// cannot reach theirs, so after the measured run they time kSetupReps
// separate calls (none with --layers).  The program is measured from
// outside: only public calls are timed and only counters it already exports
// are read.
//
// With --layers the run also reads the trace session the environment
// switched on (UGNIRT_SPAN_SAMPLE / UGNIRT_TRACE_RING; run.py sets them)
// and reports per-layer metrics.  Any other UGNIRT_* variable is refused:
// make_machine would apply it as an override and the inputs would no
// longer be the benchmark's.
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <queue>
#include <string>
#include <string_view>
#include <vector>

#include "apps/namdmodel/namdmodel.hpp"
#include "apps/nqueens/parallel.hpp"
#include "apps/nqueens/subtree_model.hpp"
#include "converse/machine.hpp"
#include "lrts/runtime.hpp"
#include "trace/session.hpp"
#include "util/rng.hpp"

extern char** environ;

namespace {

using namespace ugnirt;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// What one run reports.  `app` holds deterministic results that must
/// repeat exactly across runs of one seed; `host` holds host-clock
/// measurements; `layer` holds the per-layer metrics (--layers only).
struct Outcome {
  std::vector<double> setup_s;
  double wall_s = 0;
  double peak_rss_mb = 0;
  double virtual_result_us = 0;
  std::uint64_t attempted = 0;
  std::uint64_t unverified = 0;
  std::vector<std::string> failures;
  std::map<std::string, double> app;
  std::map<std::string, double> host;
  std::map<std::string, double> layer;

  /// Record a failed check: `ops` operations could not be verified.
  void fail(const std::string& what, std::uint64_t ops) {
    failures.push_back(what);
    unverified += ops;
  }
  std::uint64_t failed() const { return std::min(unverified, attempted); }
};

// ---- host-speed probe --------------------------------------------------------

/// Seconds for a fixed piece of host work that shares no code with the
/// runtime: first-touch page faults and dependent loads over 64 MiB, a
/// binary-heap queue and small allocations, the kinds of work the
/// simulator's hot path does.  Shared machines drift in speed by up to 2x
/// over minutes; run.py scales host times by the probe, taken in the same
/// process: the mean of two probes before the measured run and one after.
/// One probe alone is as noisy as the run, and a fresh process's first one
/// is the noisiest.  main() resets the peak-RSS mark after the first two
/// and reads it before the last, so peak_rss_mb leaves the probe out.
double probe_seconds() {
  constexpr std::uint32_t kWords = 1u << 24;  // 64 MiB of uint32
  constexpr int kSteps = 1 << 20;
  const auto t0 = Clock::now();
  // next[i] = i * a + c (mod 2^24) is one cycle over all words (Hull-Dobell),
  // so the walk below is a chain of cache- and TLB-missing loads.
  std::vector<std::uint32_t> next(kWords);
  for (std::uint32_t i = 0; i < kWords; ++i) {
    next[i] = (i * 1'103'515'245u + 12'345u) & (kWords - 1);
  }
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                      std::greater<>>
      heap;
  std::uint32_t at = 0;
  std::uint64_t sink = 0;
  for (int step = 0; step < kSteps; ++step) {
    at = next[at];
    heap.push((static_cast<std::uint64_t>(at) << 20) |
              static_cast<std::uint32_t>(step));
    if (heap.size() > 4096) {
      sink += heap.top();
      heap.pop();
    }
    auto block = std::make_unique<std::uint8_t[]>(32 + (at & 255));
    block[0] = static_cast<std::uint8_t>(at);
    sink += block[0];
  }
  const double s = seconds_between(t0, Clock::now());
  // Keep the work observable so it cannot be optimised away.
  return sink == 0x5eed ? s + 1e-12 : s;
}

// ---- workloads ------------------------------------------------------------

constexpr int kKnPes = 65'536;
constexpr int kKnBurst = 4;
constexpr int kKnK = 2;                       // neighbours on each side
constexpr int kKnSlots = kKnBurst * 2 * kKnK;  // messages per PE (16)
constexpr std::uint32_t kKnBytes = 1024;

constexpr int kPaperPes = 3840;  // Table I / Table II uGNI column
constexpr int kNqN = 17;
constexpr int kNqThreshold = 5;  // task depth the Table I bench uses at N=17
constexpr int kNqSamples = 1000;
/// Messages the ApoA1 model sends at 3,840 PEs, in either mode.
constexpr std::uint64_t kNamdMessages = 119'994;

converse::MachineOptions kneighbor_options(std::uint64_t seed) {
  converse::MachineOptions o;
  o.pes = kKnPes;
  o.pes_per_node = 1;
  o.use_pxshm = false;
  o.seed = seed;
  return o;
}

converse::MachineOptions paper_options(std::uint64_t seed, bool smp) {
  converse::MachineOptions o;
  o.pes = kPaperPes;
  o.smp_mode = smp;
  o.seed = seed;
  return o;
}

/// Per-call host timer for the calls the benchmark-owned kNeighbor
/// handlers make; off (a plain call) outside --layers runs.
struct CallTimer {
  bool on = false;
  std::uint64_t calls = 0;
  std::uint64_t ns = 0;
  template <typename Fn>
  void operator()(Fn&& fn) {
    if (!on) return fn();
    const auto t0 = Clock::now();
    fn();
    ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             t0)
            .count());
    ++calls;
  }
  double mean_ns() const {
    return calls ? static_cast<double>(ns) / static_cast<double>(calls) : 0;
  }
};

/// Payload head and tail: who sent it, which of the sender's 16 sends it
/// is, and the seeded tag the receiver checks.
struct KnHead {
  std::int32_t src;
  std::int32_t slot;
  std::uint64_t tag;
};

/// Receiver of `src`'s send `slot`, in the BENCH_scale.json send order:
/// burst-major, then +1, -1, +2, -2.  A receiver hears each (burst,
/// offset) pair from exactly one sender, so the sender's slot also names
/// one of the receiver's 16 expected arrivals.
int kn_dest(int src, int slot) {
  const int j = slot % (2 * kKnK);
  const int d = j / 2 + 1;
  return j % 2 == 0 ? (src + d) % kKnPes : (src + kKnPes - d) % kKnPes;
}

/// setup_s samples for the workloads whose application builds its own
/// machine: kSetupReps make_machine calls, each timed on its own.  They run
/// after the measured run, so wall_s starts in a cold process.
constexpr int kSetupReps = 5;

void time_setup(const converse::MachineOptions& opts, Outcome& out) {
  for (int i = 0; i < kSetupReps; ++i) {
    const auto t0 = Clock::now();
    auto m = lrts::make_machine(opts.layer, opts);
    out.setup_s.push_back(seconds_between(t0, Clock::now()));
  }
}

void run_kneighbor(std::uint64_t seed, bool layers, Outcome& out) {
  const converse::MachineOptions opts = kneighbor_options(seed);
  const std::uint64_t msgs = static_cast<std::uint64_t>(kKnPes) * kKnSlots;
  out.attempted = msgs;

  // Input generation: one seeded tag per message.
  std::vector<std::uint64_t> tags(msgs);
  Rng rng(seed);
  for (auto& t : tags) t = rng.next_u64();
  std::vector<std::uint16_t> seen(kKnPes, 0);
  std::uint64_t misrouted = 0, duplicates = 0;
  CallTimer alloc_timer{layers}, send_timer{layers};

  const std::uint32_t total = kKnBytes + converse::kCmiHeaderBytes;
  const auto t0 = Clock::now();
  auto m = lrts::make_machine(converse::LayerKind::kUgni, opts);
  out.setup_s.push_back(seconds_between(t0, Clock::now()));
  const int handler = m->register_handler([&](void* msg) {
    const int me = converse::CmiMyPe();
    KnHead head;
    std::uint64_t tail;
    const auto* p = static_cast<const std::uint8_t*>(converse::payload_of(msg));
    std::memcpy(&head, p, sizeof(head));
    std::memcpy(&tail, p + kKnBytes - sizeof(tail), sizeof(tail));
    const bool ok = head.src >= 0 && head.src < kKnPes && head.slot >= 0 &&
                    head.slot < kKnSlots && kn_dest(head.src, head.slot) == me &&
                    head.tag == tags[static_cast<std::size_t>(head.src) *
                                         kKnSlots + head.slot] &&
                    tail == head.tag;
    if (!ok) {
      ++misrouted;
    } else {
      const auto bit = static_cast<std::uint16_t>(1u << head.slot);
      std::uint16_t& s = seen[static_cast<std::size_t>(me)];
      if (s & bit) ++duplicates;
      s = static_cast<std::uint16_t>(s | bit);
    }
    converse::CmiFree(msg);
  });
  for (int pe = 0; pe < kKnPes; ++pe) {
    m->start(pe, [&, pe] {
      for (int slot = 0; slot < kKnSlots; ++slot) {
        void* msg = nullptr;
        alloc_timer([&] { msg = converse::CmiAlloc(total); });
        converse::CmiSetHandler(msg, handler);
        auto* p = static_cast<std::uint8_t*>(converse::payload_of(msg));
        const KnHead head{pe, slot,
                          tags[static_cast<std::size_t>(pe) * kKnSlots + slot]};
        std::memcpy(p, &head, sizeof(head));
        std::memcpy(p + kKnBytes - sizeof(head.tag), &head.tag,
                    sizeof(head.tag));
        send_timer([&] {
          converse::CmiSyncSendAndFree(kn_dest(pe, slot), total, msg);
        });
      }
    });
  }
  const auto run0 = Clock::now();
  m->run();
  const auto run1 = Clock::now();

  // Oracle: every PE heard all 16 expected messages, each exactly once.
  std::uint64_t missing = 0;
  for (std::uint16_t s : seen) {
    missing += static_cast<std::uint64_t>(kKnSlots - std::popcount(s));
  }
  if (missing) out.fail("kneighbor: messages never delivered", missing);
  if (duplicates) out.fail("kneighbor: messages delivered twice", duplicates);
  if (misrouted) out.fail("kneighbor: misrouted or corrupt payloads", misrouted);
  m->collect_metrics();
  const trace::Gauge* outstanding =
      m->metrics().find_gauge("mempool.outstanding");
  if (!outstanding || outstanding->value() != 0) {
    out.fail("kneighbor: mempool buffers outstanding at teardown", msgs);
  }
  out.virtual_result_us = static_cast<double>(m->engine().now()) / 1e3;
  const std::uint64_t events = m->engine().executed();
  for (const char* name : {"converse.msgs_executed", "ugni.smsg_sends",
                           "ugni.rendezvous_gets", "net.transfers",
                           "mempool.allocs"}) {
    const trace::Counter* c = m->metrics().find_counter(name);
    out.app[name] = c ? static_cast<double>(c->value()) : -1;
  }
  out.app["sim.events"] = static_cast<double>(events);
  const auto td0 = Clock::now();
  m.reset();
  const auto t1 = Clock::now();

  out.wall_s = seconds_between(t0, t1);
  out.host["run_s"] = seconds_between(run0, run1);
  out.host["teardown_s"] = seconds_between(td0, t1);
  if (layers) {
    out.layer["converse.host_ns_per_send"] = send_timer.mean_ns();
    out.layer["converse.host_ns_per_alloc"] = alloc_timer.mean_ns();
  }
}

/// Sequential walk of the same task tree the parallel search spawns: the
/// reference task, node and solution totals for the N-Queens oracle.
struct NqTotals {
  std::uint64_t tasks = 0, nodes = 0, solutions = 0;
};

void nq_walk(const apps::nqueens::SubtreeCostModel& model, int n,
             int threshold, int depth, std::uint32_t cols,
             std::uint32_t diag_l, std::uint32_t diag_r, NqTotals& acc) {
  ++acc.tasks;
  if (depth >= threshold) {
    const apps::nqueens::SolveResult r =
        model.subtree(n, depth, cols, diag_l, diag_r);
    acc.nodes += r.nodes;
    acc.solutions += r.solutions;
    return;
  }
  ++acc.nodes;
  const std::uint32_t all = (1u << n) - 1;
  std::uint32_t free = all & ~(cols | diag_l | diag_r);
  while (free) {
    const std::uint32_t bit = free & (0u - free);
    free ^= bit;
    nq_walk(model, n, threshold, depth + 1, cols | bit,
            ((diag_l | bit) << 1) & all, (diag_r | bit) >> 1, acc);
  }
}

void run_nqueens_17(std::uint64_t seed, bool layers, Outcome& out) {
  // Input generation: the sampled subtree model and the oracle's walk.
  const auto model =
      apps::nqueens::SampledModel::build(kNqN, kNqThreshold, kNqSamples);
  NqTotals want;
  nq_walk(*model, kNqN, kNqThreshold, 0, 0, 0, 0, want);
  out.attempted = want.tasks;

  const converse::MachineOptions opts = paper_options(seed, false);

  apps::nqueens::NQueensConfig cfg;
  cfg.n = kNqN;
  cfg.threshold = kNqThreshold;
  cfg.model = model.get();
  const auto t0 = Clock::now();
  const apps::nqueens::NQueensResult r = apps::nqueens::run_nqueens(opts, cfg);
  const bool ok = r.tasks == want.tasks && r.nodes == want.nodes &&
                  r.solutions == want.solutions && r.elapsed > 0;
  out.wall_s = seconds_between(t0, Clock::now());
  if (!ok) out.fail("nqueens: totals differ from the sequential walk", want.tasks);
  if (!layers) time_setup(opts, out);

  out.virtual_result_us = static_cast<double>(r.elapsed) / 1e3;
  out.app["tasks"] = static_cast<double>(r.tasks);
  out.app["nodes"] = static_cast<double>(r.nodes);
  out.app["solutions"] = static_cast<double>(r.solutions);
  out.app["qd_waves"] = r.qd_waves;
}

void run_namd(std::uint64_t seed, bool smp, bool layers, Outcome& out) {
  out.attempted = kNamdMessages;
  const converse::MachineOptions opts = paper_options(seed, smp);

  apps::namdmodel::NamdConfig cfg;
  cfg.system = apps::namdmodel::apoa1();
  const auto t0 = Clock::now();
  const apps::namdmodel::NamdResult r =
      apps::namdmodel::run_namd_model(opts, cfg);
  // Every step completed (the measured window closed with a positive
  // length) and the message count is the one both modes must produce.
  const bool ok = r.ms_per_step > 0 && r.messages == kNamdMessages;
  out.wall_s = seconds_between(t0, Clock::now());
  if (!ok) out.fail("namd: incomplete steps or wrong message count", kNamdMessages);
  if (!layers) time_setup(opts, out);

  out.virtual_result_us = r.ms_per_step * 1e3;
  out.app["messages"] = static_cast<double>(r.messages);
  out.app["migrations"] = r.migrations;
  out.app["patches"] = r.patches;
  out.app["computes"] = r.computes;
}

// ---- per-layer metrics from the trace session ------------------------------

double counter(const trace::MetricsRegistry& reg, const char* name) {
  const trace::Counter* c = reg.find_counter(name);
  return c ? static_cast<double>(c->value()) : 0;
}

double gauge(const trace::MetricsRegistry& reg, const char* name) {
  const trace::Gauge* g = reg.find_gauge(name);
  return g ? g->value() : 0;
}

void put_quantiles(const trace::MetricsRegistry& reg, const char* hist,
                   const std::string& name, Outcome& out) {
  const trace::Histogram* h = reg.find_histogram(hist);
  out.layer[name + ".p50"] = h ? h->p50() : 0;
  out.layer[name + ".p99"] = h ? h->p99() : 0;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Span self-check: every sampled message reached its handler with its
/// marks in virtual-time order, and the program's per-stage histograms
/// telescope exactly to its end-to-end latency histogram.  A span with a
/// mark earlier than the mark before it (a backward span) cannot telescope,
/// because the histograms clamp its negative stage to 0.  Backward spans
/// are failed operations beyond `allowed_backward`, the count of a known
/// defect; the telescoping check applies when there are none.
void check_spans(const trace::SpanCollector& spans,
                 const trace::MetricsRegistry& reg,
                 std::uint64_t allowed_backward, Outcome& out) {
  std::uint64_t incomplete = 0, backward = 0;
  for (std::size_t id = 1; id <= spans.span_count(); ++id) {
    const trace::Span* sp = spans.find(static_cast<std::uint32_t>(id));
    if (!sp || sp->marks.size() < 2 ||
        sp->marks.back().stage != trace::Stage::kDeliver) {
      ++incomplete;
      continue;
    }
    for (std::size_t i = 1; i < sp->marks.size(); ++i) {
      if (sp->marks[i].t < sp->marks[i - 1].t) {
        ++backward;
        break;
      }
    }
  }
  out.layer["trace.backward_spans"] = static_cast<double>(backward);
  if (incomplete) out.fail("trace: sampled spans never delivered", incomplete);
  if (backward > allowed_backward) {
    out.fail("trace: spans with marks out of virtual-time order", backward);
  }
  if (backward) return;
  double stage_sum = 0;
  for (int i = 0; i < trace::kStageCount; ++i) {
    const std::string name = std::string("span.stage.") +
                             trace::stage_name(static_cast<trace::Stage>(i));
    if (const trace::Histogram* h = reg.find_histogram(name)) {
      stage_sum += h->sum();
    }
  }
  const trace::Histogram* total = reg.find_histogram("span.total_ns");
  if (!total || spans.span_count() == 0 || stage_sum != total->sum()) {
    out.fail("trace: stage durations do not telescope to msg.latency_ns",
             spans.span_count());
  }
}

void collect_layers(int pes, std::uint64_t allowed_backward, Outcome& out) {
  trace::TraceSession* session = trace::TraceSession::active();
  if (!session->span_collector()) {
    out.fail("trace: --layers needs UGNIRT_SPAN_SAMPLE", out.attempted);
    return;
  }
  trace::MetricsRegistry reg;
  reg.merge_from(session->metrics());
  const trace::SpanCollector& spans = *session->span_collector();
  spans.fill_histograms(reg);
  check_spans(spans, reg, allowed_backward, out);

  auto& L = out.layer;
  L["converse.msgs_executed"] = counter(reg, "converse.msgs_executed");
  L["converse.sched_steps"] = counter(reg, "converse.sched_steps");
  put_quantiles(reg, "span.stage.deliver", "converse.deliver_wait_ns", out);

  L["ugni.smsg_sends"] = counter(reg, "ugni.smsg_sends");
  L["ugni.rendezvous_gets"] =
      counter(reg, "ugni.rendezvous_gets") + counter(reg, "smp.rendezvous_gets");
  L["ugni.pxshm_msgs"] = counter(reg, "ugni.pxshm_msgs");
  L["ugni.credit_stalls"] = counter(reg, "ugni.credit_stalls");
  L["ugni.smsg_channels"] = gauge(reg, "ugni.smsg_channels");
  L["ugni.mailbox_bytes_per_pe"] = gauge(reg, "ugni.mailbox_bytes") / pes;
  put_quantiles(reg, "span.stage.cq_complete", "ugni.cq_wait_ns", out);
  L["cq.max_depth"] = gauge(reg, "cq.max_depth");
  L["smp.comm_thread_sends"] = counter(reg, "smp.comm_thread_sends");
  L["smp.intra_node_ptr_msgs"] = counter(reg, "smp.intra_node_ptr_msgs");

  put_quantiles(reg, "span.stage.transport_post", "lrts.send_ns", out);
  L["lrts.retries"] = counter(reg, "retry_smsg") + counter(reg, "retry_post") +
                      counter(reg, "retry_mem_register") +
                      counter(reg, "retry_escalations");
  L["lrts.fallbacks"] = counter(reg, "fallback_rendezvous") +
                        counter(reg, "fallback_heap_send");

  const double allocs = counter(reg, "mempool.allocs");
  L["mempool.allocs"] = allocs;
  L["mempool.expansions"] = counter(reg, "mempool.expansions");
  L["mempool.freelist_hit_ratio"] =
      ratio(counter(reg, "mempool.freelist_hits"), allocs);
  L["mempool.slab_bytes_per_pe"] = gauge(reg, "mempool.slab_bytes") / pes;
  L["mempool.outstanding_end"] = gauge(reg, "mempool.outstanding");
  if (L["mempool.outstanding_end"] != 0) {
    out.fail("mempool buffers outstanding at teardown", out.attempted);
  }

  const double transfers = counter(reg, "net.transfers");
  L["net.transfers"] = transfers;
  L["net.bytes_smsg"] = counter(reg, "net.bytes_smsg");
  L["net.bytes_fma"] = counter(reg, "net.bytes_fma");
  L["net.bytes_bte"] = counter(reg, "net.bytes_bte");
  L["net.link_waits"] = counter(reg, "net.link_waits");
  L["net.link_wait_ns_per_transfer"] =
      ratio(counter(reg, "net.link_wait_ns"), transfers);
  put_quantiles(reg, "span.stage.rx_arrive", "gemini.wire_ns", out);
  put_quantiles(reg, "span.total_ns", "msg.latency_ns", out);
  L["trace.spans"] = static_cast<double>(spans.span_count());
}

// ---- output -----------------------------------------------------------------

void put_json_string(const std::string& s) {
  std::putchar('"');
  for (char c : s) {
    if (c == '"' || c == '\\') std::putchar('\\');
    std::putchar(c);
  }
  std::putchar('"');
}

void put_json_map(const char* key, const std::map<std::string, double>& m) {
  std::printf(",\"%s\":{", key);
  bool first = true;
  for (const auto& [k, v] : m) {
    if (!first) std::putchar(',');
    first = false;
    put_json_string(k);
    std::printf(":%.17g", v);
  }
  std::putchar('}');
}

/// Forget the peak RSS so far (Linux: clear_refs 5 sets VmHWM to the
/// current RSS).  False if the kernel refuses.
bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

/// Peak RSS in MB since the last reset_peak_rss(), or over the process
/// lifetime (ru_maxrss) if VmHWM cannot be read.
double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.starts_with("VmHWM:")) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void print(const std::string& workload, std::uint64_t seed,
           const Outcome& out) {
  std::printf("{\"workload\":");
  put_json_string(workload);
  std::printf(",\"seed\":%llu,\"wall_s\":%.9g,\"setup_s\":[",
              static_cast<unsigned long long>(seed), out.wall_s);
  for (std::size_t i = 0; i < out.setup_s.size(); ++i) {
    std::printf("%s%.9g", i ? "," : "", out.setup_s[i]);
  }
  std::printf("],\"peak_rss_mb\":%.6f,\"virtual_result_us\":%.17g",
              out.peak_rss_mb, out.virtual_result_us);
  std::printf(",\"attempted\":%llu,\"failed\":%llu,\"failures\":[",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed()));
  for (std::size_t i = 0; i < out.failures.size(); ++i) {
    if (i) std::putchar(',');
    put_json_string(out.failures[i]);
  }
  std::putchar(']');
  put_json_map("app", out.app);
  put_json_map("host", out.host);
  put_json_map("layer", out.layer);
  std::printf("}\n");
}

/// make_machine applies UGNIRT_* variables as overrides; only the trace
/// switches of a --layers run may be set.
bool environment_is_hermetic(bool layers) {
  static constexpr std::string_view kTraceVars[] = {
      "UGNIRT_SPAN_SAMPLE=", "UGNIRT_TRACE_RING=", "UGNIRT_TRACE_FILE="};
  bool ok = true;
  for (char** e = environ; *e; ++e) {
    const std::string_view var(*e);
    if (!var.starts_with("UGNIRT_")) continue;
    const bool allowed =
        layers && std::any_of(std::begin(kTraceVars), std::end(kTraceVars),
                              [&](std::string_view p) {
                                return var.starts_with(p);
                              });
    if (!allowed) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n", *e);
      ok = false;
    }
  }
  return ok;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench <kneighbor-65k|nqueens-17|namd-apoa1|"
               "namd-apoa1-smp> --seed <n> [--layers]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string workload = argv[1];
  std::uint64_t seed = 1;
  bool layers = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--layers") {
      layers = true;
    } else {
      return usage();
    }
  }
  if (!environment_is_hermetic(layers)) return 2;
  // The session installs the event and span collectors on first use; that
  // must happen before the first machine exists.
  if (layers && !trace::TraceSession::active()) {
    std::fprintf(stderr, "perfbench: --layers needs UGNIRT_SPAN_SAMPLE\n");
    return 2;
  }

  Outcome out;
  const double probes_before = probe_seconds() + probe_seconds();
  if (!reset_peak_rss()) {
    std::fprintf(stderr,
                 "perfbench: cannot reset the peak-RSS mark; peak_rss_mb "
                 "includes the probe\n");
  }
  int pes = kPaperPes;
  // Backward spans the traced run tolerates: namd-apoa1-smp stamps 750 of
  // its 7,500 sampled spans out of order (mostly submit -> deliver on the
  // intra-node pointer handoff), a known SMP-layer defect.
  std::uint64_t allowed_backward = 0;
  if (workload == "kneighbor-65k") {
    pes = kKnPes;
    run_kneighbor(seed, layers, out);
  } else if (workload == "nqueens-17") {
    run_nqueens_17(seed, layers, out);
  } else if (workload == "namd-apoa1") {
    run_namd(seed, false, layers, out);
  } else if (workload == "namd-apoa1-smp") {
    allowed_backward = 750;
    run_namd(seed, true, layers, out);
  } else {
    return usage();
  }
  if (layers) collect_layers(pes, allowed_backward, out);
  out.peak_rss_mb = peak_rss_mb();
  out.host["probe_s"] = (probes_before + probe_seconds()) / 3;
  print(workload, seed, out);
  return 0;
}
