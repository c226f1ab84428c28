// Multi-tenant ablation: what per-job QoS classes buy a latency-sensitive
// victim that shares one torus with aggressor jobs (the Jha et al. regime
// the tenancy subsystem reproduces).
//
// On a 32-PE machine (4 PEs per node, so jobs share NICs and BTE
// engines wherever placement mixes them on a node), three jobs share the
// PE space:
//
//   victim    8 PEs, kNeighbor halo, QoS class `latency`
//   shuffle  16 PEs, all-to-all storm, QoS class `bulk`
//   ckpt      8 PEs, checkpoint-IO bursts, QoS class `scavenger`
//
// For each placement policy (compact slab / scattered deal / seeded
// random-fragmented) three legs run:
//
//   alone   the victim with the rest of the machine idle — the floor
//   noqos   victim + aggressors, flow control on, QoS classes OFF
//   qos     victim + aggressors, flow control on, QoS classes ON
//
// The victim's per-message delivery p99 comes straight out of the
// standard per-job metrics row (`job.0.delivery_us`).  Results land in
// BENCH_multitenant.json for tools/bench_report.py; the scatter leg is
// guard-railed in-binary (QoS must cut victim p99 by >= 1.5x vs noqos)
// and in CI (`bench_report.py check --min`).  Why scatter: compact never
// shares a node (isolated by construction, QoS moot) and random strands
// lone victim PEs on fully saturated nodes that no window bound can
// rescue; the dealt placement is where per-job classes earn their keep —
// bulk/scavenger ceilings keep each shared node's EWMA load below the
// governor's hot threshold, so the victim's 2 KiB rendezvous pulls are
// never demoted off the FMA fast path into the storm's BTE backlog.
//
// A final leg asserts the zero-cost claim: a single-job run on a machine
// built while the environment sets both UGNIRT_TENANCY_* knobs (no
// JobManager) finishes at the same virtual instant as stock, bit for bit.
//
// The tenancy knobs are not machine options: this program overlays the
// UGNIRT_TENANCY_* environment onto its own TenancyConfig and hands that
// to JobManager.
//
// `ablation_multitenant soak` instead runs a two-job faulted kNeighbor
// soak (fault plan from UGNIRT_FAULT_* env) and exits nonzero on any
// victim or aggressor message loss — a CI sanitizer-job workload.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "converse/machine.hpp"
#include "lrts/runtime.hpp"
#include "tenancy/generators.hpp"
#include "tenancy/tenancy.hpp"
#include "trace/metrics.hpp"
#include "util/config.hpp"

using namespace ugnirt;

namespace {

constexpr int kPes = 32;
constexpr int kVictimPes = 8;
constexpr int kShufflePes = 16;
constexpr int kCkptPes = 8;

using benchtool::Metric;

converse::MachineOptions leg_options(int pes = kPes) {
  converse::MachineOptions o;
  o.layer = converse::LayerKind::kUgni;
  o.pes = pes;
  o.pes_per_node = 4;  // nodes are shared: placement decides which jobs
                       // split a NIC/BTE engine — the multi-tenant coupling
  // Flow control is on in BOTH contended legs; the QoS classes riding the
  // governor are the only delta between noqos and qos.
  o.flow.enable = true;
  return o;
}

/// The legs' tenancy knobs, with UGNIRT_TENANCY_* env overrides on top.
tenancy::TenancyConfig tenancy_config(const std::string& placement,
                                      bool qos_on) {
  tenancy::TenancyConfig t;
  t.placement = placement;
  t.qos_enable = qos_on;
  overlay_env(t);
  return t;
}

struct LegResult {
  double p99_us = 0;
  double mean_us = 0;
  std::uint64_t msgs = 0;
  SimTime end_ns = 0;
};

/// Place the victim (plus aggressors when asked), drive every job with
/// its generator, and report the victim's delivery-latency stats from
/// the per-job histogram.
LegResult run_leg(const std::string& placement, bool aggressors,
                  bool qos_on) {
  auto m = lrts::make_machine(converse::LayerKind::kUgni, leg_options());
  tenancy::JobManager jobs(*m, tenancy_config(placement, qos_on));
  const tenancy::JobId victim = jobs.add_job(
      {"victim", kVictimPes, tenancy::QosClass::kLatency});
  tenancy::JobId shuffle = -1;
  tenancy::JobId ckpt = -1;
  if (aggressors) {
    shuffle = jobs.add_job(
        {"shuffle", kShufflePes, tenancy::QosClass::kBulk});
    ckpt = jobs.add_job({"ckpt", kCkptPes, tenancy::QosClass::kScavenger});
  }
  jobs.place();

  std::vector<std::unique_ptr<tenancy::TrafficGenerator>> gens;
  {
    tenancy::GeneratorOptions vo;
    vo.pattern = tenancy::TrafficPattern::kKNeighborHalo;
    vo.iterations = 8;
    vo.k = 2;
    // Small rendezvous messages: above the SMSG cap (so the governor
    // paces them) but under the FMA/BTE threshold even after the hot-node
    // demotion halves it — the victim's pulls stay on the latency-optimal
    // CPU-driven path as long as its node stays cool.  QoS is what keeps
    // the node cool.
    vo.payload = 2048;
    gens.push_back(
        std::make_unique<tenancy::TrafficGenerator>(jobs, victim, vo));
  }
  if (aggressors) {
    tenancy::GeneratorOptions so;
    so.pattern = tenancy::TrafficPattern::kAllToAllShuffle;
    so.iterations = 8;
    so.payload = 32 * 1024;  // BTE bulk pulls: each hold of a shared DMA
                             // engine also carries its route's link waits
    gens.push_back(
        std::make_unique<tenancy::TrafficGenerator>(jobs, shuffle, so));
    tenancy::GeneratorOptions co;
    co.pattern = tenancy::TrafficPattern::kCheckpointBurst;
    co.iterations = 8;
    co.io_ranks = 2;
    co.payload = 32 * 1024;
    gens.push_back(
        std::make_unique<tenancy::TrafficGenerator>(jobs, ckpt, co));
  }
  for (auto& g : gens) g->launch();
  m->run();

  for (auto& g : gens) {
    if (g->received() != g->expected_messages()) {
      std::printf("FAIL: job %d lost messages (%llu/%llu)\n", g->job(),
                  static_cast<unsigned long long>(g->received()),
                  static_cast<unsigned long long>(g->expected_messages()));
      std::exit(1);
    }
  }
  const trace::Histogram& h = jobs.delivery_hist(victim);
  LegResult res;
  res.p99_us = h.p99();
  res.mean_us = h.count() ? h.mean() : 0;
  res.msgs = h.count();
  res.end_ns = m->engine().now();
  return res;
}

/// Virtual end time of a fixed single-job workload; `mention_tenancy`
/// sets both UGNIRT_TENANCY_* knobs in the environment while the machine
/// is built, without building a JobManager, which must not move the clock
/// by a single tick.
SimTime run_stock_probe(bool mention_tenancy) {
  converse::MachineOptions o;
  o.layer = converse::LayerKind::kUgni;
  o.pes = 8;
  o.pes_per_node = 1;
  o.flow.enable = true;
  const char* const kKnobs[2][2] = {{"UGNIRT_TENANCY_PLACEMENT", "random"},
                                    {"UGNIRT_TENANCY_QOS_ENABLE", "0"}};
  std::optional<std::string> saved[2];
  for (int i = 0; mention_tenancy && i < 2; ++i) {
    if (const char* v = std::getenv(kKnobs[i][0])) saved[i] = v;
    ::setenv(kKnobs[i][0], kKnobs[i][1], 1);
  }
  auto m = lrts::make_machine(converse::LayerKind::kUgni, o);
  for (int i = 0; mention_tenancy && i < 2; ++i) {
    if (saved[i]) {
      ::setenv(kKnobs[i][0], saved[i]->c_str(), 1);
    } else {
      ::unsetenv(kKnobs[i][0]);
    }
  }
  int h_sink = m->register_handler([](void* msg) { converse::CmiFree(msg); });
  const std::uint32_t total = 4096 + converse::kCmiHeaderBytes;
  for (int pe = 0; pe < 8; ++pe) {
    m->start(pe, [pe, total, h_sink] {
      for (int i = 0; i < 8; ++i) {
        void* msg = converse::CmiAlloc(total);
        converse::CmiSetHandler(msg, h_sink);
        converse::CmiSyncSendAndFree((pe + 1 + i) % 8, total, msg);
      }
    });
  }
  m->run();
  return m->engine().now();
}

/// Two-tenant faulted soak: victim halo + shuffle storm on 16 PEs, fault
/// plan from UGNIRT_FAULT_* env (applied inside make_machine), QoS on.
/// Exits nonzero on any message loss in either job.
int run_soak() {
  auto m = lrts::make_machine(converse::LayerKind::kUgni, leg_options(16));
  tenancy::JobManager jobs(*m, tenancy_config("scatter", true));
  const tenancy::JobId victim =
      jobs.add_job({"victim", 8, tenancy::QosClass::kLatency});
  const tenancy::JobId aggr =
      jobs.add_job({"shuffle", 8, tenancy::QosClass::kBulk});
  jobs.place();

  tenancy::GeneratorOptions vo;
  vo.pattern = tenancy::TrafficPattern::kKNeighborHalo;
  vo.iterations = 12;
  vo.k = 2;
  vo.payload = 2048;
  tenancy::TrafficGenerator vgen(jobs, victim, vo);
  tenancy::GeneratorOptions so;
  so.pattern = tenancy::TrafficPattern::kAllToAllShuffle;
  so.iterations = 6;
  so.payload = 16 * 1024;
  tenancy::TrafficGenerator agen(jobs, aggr, so);
  vgen.launch();
  agen.launch();
  m->run();

  bool ok = true;
  for (const tenancy::TrafficGenerator* g : {&vgen, &agen}) {
    std::printf("soak: job %d delivered %llu/%llu\n", g->job(),
                static_cast<unsigned long long>(g->received()),
                static_cast<unsigned long long>(g->expected_messages()));
    if (g->received() != g->expected_messages()) ok = false;
  }
  const bool faulted = m->options().fault.enabled && m->options().fault.any();
  std::printf("soak: faults %s, victim p99 %.1f us -> %s\n",
              faulted ? "armed" : "off",
              jobs.delivery_hist(victim).p99(), ok ? "OK" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "soak") == 0) return run_soak();

  benchtool::Table table("ablation_multitenant", "placement");
  table.add_column("alone_p99_us");
  table.add_column("noqos_p99_us");
  table.add_column("qos_p99_us");
  table.add_column("speedup_x");

  std::vector<Metric> ms;
  double scatter_speedup = 0;
  for (const char* placement : {"compact", "scatter", "random"}) {
    const LegResult alone = run_leg(placement, false, true);
    const LegResult noqos = run_leg(placement, true, false);
    const LegResult qos = run_leg(placement, true, true);
    const double speedup =
        qos.p99_us > 0 ? noqos.p99_us / qos.p99_us : 0;
    // Scatter is the guard-railed point: compact never shares a node
    // (isolation by construction, QoS moot) and random's fragmentation
    // leaves lone victim PEs on saturated nodes QoS can only partly
    // rescue — the dealt placement is where the classes pay off.
    if (std::strcmp(placement, "scatter") == 0) scatter_speedup = speedup;
    table.add_row(placement,
                  {alone.p99_us, noqos.p99_us, qos.p99_us, speedup});
    const std::string p = placement;
    ms.push_back({p + ".victim_alone_p99_us", alone.p99_us, "us", "info"});
    ms.push_back({p + ".noqos_p99_us", noqos.p99_us, "us", "info"});
    ms.push_back({p + ".qos_p99_us", qos.p99_us, "us", "lower"});
    ms.push_back(
        {p + ".qos_isolation_speedup_x", speedup, "x", "higher"});
    std::printf("multitenant: %s done (victim %llu msgs, %.1f -> %.1f us "
                "p99, %.2fx)\n",
                placement, static_cast<unsigned long long>(qos.msgs),
                noqos.p99_us, qos.p99_us, speedup);
    std::fflush(stdout);
  }
  table.print();

  // Zero-cost claim: mentioning tenancy without a JobManager must not
  // move virtual time at all.
  const SimTime plain = run_stock_probe(false);
  const SimTime mention = run_stock_probe(true);
  ms.push_back({"tenancy_off_end_ns_delta",
                static_cast<double>(plain > mention ? plain - mention
                                                    : mention - plain),
                "ns", "lower"});
  benchtool::write_suite_json("BENCH_multitenant.json", "multitenant", ms);
  std::printf("wrote BENCH_multitenant.json\n");

  bool ok = true;
  if (scatter_speedup < 1.5) {
    std::printf("FAIL: scatter QoS isolation speedup %.2fx < 1.5x\n",
                scatter_speedup);
    ok = false;
  }
  if (plain != mention) {
    std::printf("FAIL: tenancy-off run moved virtual time (%llu != %llu)\n",
                static_cast<unsigned long long>(plain),
                static_cast<unsigned long long>(mention));
    ok = false;
  }
  std::printf(
      "Shape: with QoS classes on, the victim's kNeighbor p99 under the\n"
      "all-to-all storm recovers toward its alone floor on every\n"
      "placement; with classes off the storm owns the links.\n");
  return ok ? 0 : 1;
}
