// Machine-readable benchmark suite for regression tracking.
//
// Runs the core paper scenarios (ping-pong, bandwidth, one-to-all,
// kNeighbor, small-message flood; ping-pong and kNeighbor again in SMP
// mode) plus a ring and kNeighbor PE-count
// sweep (1k -> 153,216 PEs) and writes two JSON files for
// tools/bench_report.py:
//
//   BENCH_core.json   one metrics object (latency/bandwidth/throughput and
//                     per-stage span percentiles of an instrumented
//                     ping-pong)
//   BENCH_scale.json  one metrics object per sweep point (virtual elapsed,
//                     msgs/sec, simulator events/sec, SMSG mailbox
//                     bytes/PE, peak payload host bytes/PE, operator new
//                     calls per message)
//
// Every metric carries a "better" direction ("lower" / "higher" / "info");
// the comparator gates on the first two and reports the rest.  Virtual-time
// results are deterministic, so the committed baselines are exact; wall-
// clock numbers are machine-dependent and always informational.
//
// Usage: suite_runner [core|scale|all]   (default: all)
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "apps/microbench/microbench.hpp"
#include "bench_util.hpp"
#include "converse/machine.hpp"
#include "lrts/runtime.hpp"
#include "lrts/ugni_layer.hpp"
#include "trace/metrics.hpp"
#include "trace/session.hpp"
#include "trace/spans.hpp"
#include "util/alloc_count.hpp"

using namespace ugnirt;

namespace {

using benchtool::Metric;
using benchtool::write_metrics;

double wall_ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

converse::MachineOptions ugni_options(int pes = 2) {
  converse::MachineOptions o;
  o.layer = converse::LayerKind::kUgni;
  o.pes = pes;
  o.pes_per_node = 1;  // all traffic crosses the NIC (one-to-all needs
                       // remote nodes; keeps every scenario apples-to-apples)
  return o;
}

/// The same placement in SMP mode: one worker per node, so every message
/// goes through the nodes' comm threads.
converse::MachineOptions smp_options(int pes = 2) {
  converse::MachineOptions o = ugni_options(pes);
  o.smp_mode = true;
  return o;
}

// ---- core suite ---------------------------------------------------------

/// Run `fn` with every submit sampled into a private SpanCollector and
/// append `<prefix>.<stage>.{p50,p99}_ns` metrics for each stage that saw
/// traffic, plus the end-to-end total.  A trace session's collector is
/// back in place once `fn` returns.
template <typename Fn>
void with_span_metrics(const std::string& prefix, std::vector<Metric>& out,
                       Fn&& fn) {
  trace::SpanCollector col(trace::SpanConfig{/*sample=*/1});
  {
    trace::SinkScope sinks(trace::tracer(), &col);
    fn();
  }

  trace::MetricsRegistry reg;
  col.fill_histograms(reg);
  for (int s = 0; s < trace::kStageCount; ++s) {
    const char* name = trace::stage_name(static_cast<trace::Stage>(s));
    const trace::Histogram* h =
        reg.find_histogram(std::string("span.stage.") + name);
    if (!h || h->count() == 0) continue;
    out.push_back({prefix + "." + name + ".p50_ns", h->p50(), "ns", "lower"});
    out.push_back({prefix + "." + name + ".p99_ns", h->p99(), "ns", "lower"});
  }
  if (const trace::Histogram* t = reg.find_histogram("span.total_ns")) {
    if (t->count() > 0) {
      out.push_back({prefix + ".total.p50_ns", t->p50(), "ns", "lower"});
      out.push_back({prefix + ".total.p99_ns", t->p99(), "ns", "lower"});
    }
  }
}

std::vector<Metric> run_core() {
  std::vector<Metric> ms;

  apps::bench::PingPongOptions small;
  small.payload = 8;
  ms.push_back({"pingpong_8b_ns",
                static_cast<double>(
                    apps::bench::charm_pingpong(ugni_options(), small)),
                "ns", "lower"});

  apps::bench::PingPongOptions large;
  large.payload = 64 * 1024;
  ms.push_back({"pingpong_64k_ns",
                static_cast<double>(
                    apps::bench::charm_pingpong(ugni_options(), large)),
                "ns", "lower"});

  ms.push_back({"bandwidth_1m_mbps",
                apps::bench::charm_bandwidth(ugni_options(), 1024 * 1024),
                "MB/s", "higher"});

  ms.push_back({"onetoall_1k_ns",
                static_cast<double>(apps::bench::charm_onetoall(
                    ugni_options(16), 1024)),
                "ns", "lower"});

  ms.push_back({"kneighbor_1k_ns",
                static_cast<double>(apps::bench::charm_kneighbor(
                    ugni_options(16), 1024)),
                "ns", "lower"});

  // SMP twins of the latency rows: the comm-thread path in virtual time.
  ms.push_back({"smp_pingpong_8b_ns",
                static_cast<double>(
                    apps::bench::charm_pingpong(smp_options(), small)),
                "ns", "lower"});
  ms.push_back({"smp_pingpong_64k_ns",
                static_cast<double>(
                    apps::bench::charm_pingpong(smp_options(), large)),
                "ns", "lower"});
  ms.push_back({"smp_kneighbor_1k_ns",
                static_cast<double>(apps::bench::charm_kneighbor(
                    smp_options(16), 1024)),
                "ns", "lower"});

  const auto t0 = std::chrono::steady_clock::now();
  apps::bench::KNeighborFloodResult flood =
      apps::bench::charm_kneighbor_flood(ugni_options(16), 64);
  const double flood_wall = wall_ms_since(t0);
  ms.push_back({"flood_msgs_per_sec", flood.msgs_per_sec, "msgs/s",
                "higher"});
  ms.push_back({"flood_wall_ms", flood_wall, "ms", "info"});
  ms.push_back(
      {"flood_sim_msgs_per_wall_sec",
       flood_wall > 0
           ? static_cast<double>(flood.messages) / (flood_wall / 1000.0)
           : 0,
       "msgs/s", "info"});

  // Per-stage critical path of a small-message ping-pong, every message
  // sampled (paper Fig 6's question, asked of the simulator itself).
  with_span_metrics("pingpong_span", ms, [] {
    apps::bench::PingPongOptions pp;
    pp.payload = 8;
    apps::bench::charm_pingpong(ugni_options(), pp);
  });

  return ms;
}

// ---- scale sweep --------------------------------------------------------

/// One sweep point: `pattern` traffic at `pes` PEs.  Patterns:
///
///   ring       every PE fires kBurst 1 KiB messages at each ring
///              neighbor (left and right)
///   kneighbor  every PE fires kBurst 1 KiB messages at each of its
///              k=2 neighbors on both sides (4 destinations)
///
/// Direct machine build so the point can report simulator events/sec, the
/// layer's mailbox and payload host bytes/PE and the engine's pending-set
/// bytes/PE (the full-machine memory curves) and the operator new calls
/// inside run() per message (this binary counts them,
/// util/alloc_count.hpp).
std::vector<Metric> run_scale_point(int pes, const std::string& pattern) {
  constexpr int kBurst = 4;
  constexpr std::uint32_t kBytes = 1024;
  const int k = pattern == "kneighbor" ? 2 : 1;

  converse::MachineOptions o = ugni_options(pes);
  o.pes_per_node = 1;
  o.use_pxshm = false;
  auto m = lrts::make_machine(converse::LayerKind::kUgni, o);
  int h = m->register_handler([](void* msg) { converse::CmiFree(msg); });

  const std::uint32_t total = kBytes + converse::kCmiHeaderBytes;
  const auto t0 = std::chrono::steady_clock::now();
  for (int pe = 0; pe < pes; ++pe) {
    m->start(pe, [&m, pe, pes, k, h, total] {
      for (int i = 0; i < kBurst; ++i) {
        for (int d = 1; d <= k; ++d) {
          for (int dest : {(pe + d) % pes, (pe + pes - d) % pes}) {
            void* msg = converse::CmiAlloc(total);
            converse::CmiSetHandler(msg, h);
            converse::CmiSyncSendAndFree(dest, total, msg);
          }
        }
      }
    });
  }
  const alloc_count::Counts a0 = alloc_count::now();
  m->run();
  const double allocs =
      static_cast<double>(alloc_count::now().news - a0.news);
  const double wall = wall_ms_since(t0);

  const double elapsed_ns = static_cast<double>(m->engine().now());
  const double events = static_cast<double>(m->engine().executed());
  const std::uint64_t msgs =
      static_cast<std::uint64_t>(pes) * 2 * k * kBurst;
  auto* layer = dynamic_cast<lrts::UgniLayer*>(&m->layer());
  const double mailbox_per_pe =
      layer ? static_cast<double>(layer->total_mailbox_bytes()) / pes : 0;
  // Payload bytes the layer's HostArena held at its peak: deterministic,
  // unlike RSS, so it is gated exactly.
  m->collect_metrics();
  const double host_peak_per_pe =
      m->metrics().gauge("mempool.host_bytes_peak").value() / pes;

  std::vector<Metric> ms;
  ms.push_back({"elapsed_ns", elapsed_ns, "ns", "lower"});
  ms.push_back({"msgs_per_sec",
                elapsed_ns > 0
                    ? static_cast<double>(msgs) / (elapsed_ns * 1e-9)
                    : 0,
                "msgs/s", "higher"});
  ms.push_back({"mailbox_bytes_per_pe", mailbox_per_pe, "B", "lower"});
  ms.push_back({"host_bytes_peak_per_pe", host_peak_per_pe, "B", "lower"});
  // The pending set's high-water block bytes: as deterministic as the
  // payload peak, and gated the same way.
  ms.push_back({"engine_bytes_peak_per_pe",
                static_cast<double>(m->engine().queue().bytes()) / pes, "B",
                "lower"});
  // Deterministic (counts, not bytes or time), so it is gated exactly.
  ms.push_back({"host_allocs_per_msg", allocs / static_cast<double>(msgs),
                "allocs", "lower"});
  ms.push_back({"sim_events", events, "events", "info"});
  ms.push_back({"wall_ms", wall, "ms", "info"});
  ms.push_back({"sim_events_per_wall_sec",
                wall > 0 ? events / (wall / 1000.0) : 0, "events/s",
                "info"});
  return ms;
}

// ---- output -------------------------------------------------------------

void write_core(const char* path) {
  const std::vector<Metric> ms = run_core();
  benchtool::write_suite_json(path, "core", ms);
  std::printf("wrote %s (%zu metrics)\n", path, ms.size());
}

/// The committed sweep: ring and kNeighbor at 1k -> full Hopper (153,216
/// PEs).
constexpr std::array<int, 5> kSweepPes = {1024, 4096, 16384, 65536, 153216};
constexpr std::array<const char*, 2> kSweepPatterns = {"ring", "kneighbor"};

void write_scale(const char* path) {
  std::ofstream out(path);
  out << "{\n  \"suite\": \"scale\",\n  \"schema\": 1,\n  \"sweep\": [\n";
  bool first = true;
  for (int pes : kSweepPes) {
    for (const char* pattern : kSweepPatterns) {
      const std::vector<Metric> ms = run_scale_point(pes, pattern);
      if (!first) out << ",\n";
      first = false;
      out << "    {\"pes\": " << pes << ", \"pattern\": \"" << pattern
          << "\", \"metrics\": {\n";
      write_metrics(out, ms, "      ");
      out << "    }}";
      std::printf("scale: %d PEs %s done\n", pes, pattern);
      std::fflush(stdout);
    }
  }
  out << "\n  ]\n}\n";
  std::printf("wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string which = argc > 1 ? argv[1] : "all";
  // A session the environment asks for installs its sinks before the first
  // machine runs, so with_span_metrics' scope nests inside them.
  trace::TraceSession::active();
  if (which == "core" || which == "all") write_core("BENCH_core.json");
  if (which == "scale" || which == "all") write_scale("BENCH_scale.json");
  if (which == "scalepoint") {
    // One point, metrics to stdout — for profiling and ad-hoc probing.
    // Usage: suite_runner scalepoint <pes> [ring|kneighbor]
    const int pes = argc > 2 ? std::atoi(argv[2]) : 16384;
    const std::string pattern = argc > 3 ? argv[3] : "ring";
    const std::vector<Metric> ms = run_scale_point(pes, pattern);
    for (const Metric& m : ms) {
      std::printf("%s = %.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    return 0;
  }
  if (which != "core" && which != "scale" && which != "all") {
    std::fprintf(stderr,
                 "usage: suite_runner [core|scale|all|scalepoint ...]\n");
    return 2;
  }
  return 0;
}
