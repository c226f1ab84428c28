// Multi-tenancy subsystem tests: placement properties (partition/inverse-
// map invariants for every policy, seeded determinism of the random
// shuffle, the compact fallback for an unknown policy), QoS classes
// landing in the InjectionGovernor as window bounds + drain quotas,
// generator message accounting, seeded determinism of full two-tenant
// timelines across runs, the 7-class fault-matrix rerun with two tenants
// (zero loss in both jobs), and per-job metrics with link attribution
// that sums to the network's totals.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "converse/machine.hpp"
#include "fault/fault.hpp"
#include "flowcontrol/flowcontrol.hpp"
#include "lrts/runtime.hpp"
#include "tenancy/generators.hpp"
#include "tenancy/tenancy.hpp"
#include "trace/events.hpp"
#include "trace/metrics.hpp"
#include "trace/session.hpp"

namespace ugnirt {
namespace {

using converse::LayerKind;
using converse::MachineOptions;
using tenancy::GeneratorOptions;
using tenancy::JobManager;
using tenancy::JobSpec;
using tenancy::Placement;
using tenancy::QosClass;
using tenancy::TenancyConfig;
using tenancy::TrafficGenerator;
using tenancy::TrafficPattern;

// -------------------------------------------------------------- placement ----

MachineOptions tenant_options(int pes, int ppn = 1) {
  MachineOptions o;
  o.layer = LayerKind::kUgni;
  o.pes = pes;
  o.pes_per_node = ppn;
  return o;
}

TenancyConfig tenancy_config(const std::string& placement,
                             bool qos_enable = true) {
  TenancyConfig t;
  t.placement = placement;
  t.qos_enable = qos_enable;
  return t;
}

/// Build a 3-job manager on `pes` PEs under `placement` and return it
/// placed, with its machine (seeded with `seed`) in `*m`.  The caller
/// declares `*m` first, so the machine outlives the manager.
std::unique_ptr<JobManager> placed(const std::string& placement,
                                   std::unique_ptr<converse::Machine>* m,
                                   int pes = 16,
                                   std::uint64_t seed = 0x5eed) {
  auto o = tenant_options(pes);
  o.seed = seed;
  *m = lrts::make_machine(LayerKind::kUgni, o);
  auto jobs = std::make_unique<JobManager>(**m, tenancy_config(placement));
  jobs->add_job({"a", pes / 4, QosClass::kLatency});
  jobs->add_job({"b", pes / 2, QosClass::kBulk});
  jobs->add_job({"c", pes / 4, QosClass::kScavenger});
  jobs->place();
  return jobs;
}

/// Partition + inverse-map invariants every placement must uphold: each
/// PE owned by exactly one job, per-job PE lists ascending, and
/// job_of_pe/rank_of_pe inverting Job::pe(r).
void check_partition(const JobManager& jobs, int pes) {
  std::set<int> seen;
  for (int j = 0; j < jobs.num_jobs(); ++j) {
    const tenancy::Job& job = jobs.job(j);
    ASSERT_EQ(static_cast<int>(job.pes().size()), job.size());
    for (int r = 0; r < job.size(); ++r) {
      const int pe = job.pe(r);
      EXPECT_TRUE(seen.insert(pe).second) << "pe " << pe << " double-owned";
      EXPECT_EQ(jobs.job_of_pe(pe), j);
      EXPECT_EQ(jobs.rank_of_pe(pe), r);
      if (r > 0) {
        EXPECT_LT(job.pe(r - 1), pe);
      }
    }
  }
  EXPECT_EQ(static_cast<int>(seen.size()), pes);
}

TEST(TenancyPlacement, CompactIsContiguousSlabs) {
  std::unique_ptr<converse::Machine> m;
  auto jobs = placed("compact", &m);
  check_partition(*jobs, 16);
  EXPECT_EQ(jobs->placement(), Placement::kCompact);
  for (int j = 0; j < jobs->num_jobs(); ++j) {
    const tenancy::Job& job = jobs->job(j);
    EXPECT_EQ(job.pe(job.size() - 1) - job.pe(0), job.size() - 1)
        << "job " << j << " not contiguous";
  }
}

TEST(TenancyPlacement, ScatterDealsRoundRobin) {
  std::unique_ptr<converse::Machine> m;
  auto jobs = placed("scatter", &m);
  check_partition(*jobs, 16);
  EXPECT_EQ(jobs->placement(), Placement::kScatter);
  // A deal never hands one job a contiguous slab (sizes here are all
  // smaller than the PE count, so strides must exceed 1 somewhere).
  for (int j = 0; j < jobs->num_jobs(); ++j) {
    const tenancy::Job& job = jobs->job(j);
    EXPECT_GT(job.pe(job.size() - 1) - job.pe(0), job.size() - 1)
        << "job " << j << " unexpectedly compact";
  }
}

TEST(TenancyPlacement, RandomIsSeededDeterministic) {
  std::unique_ptr<converse::Machine> ma, mb, mc;
  auto a = placed("random", &ma, 16, 42);
  auto b = placed("random", &mb, 16, 42);
  auto c = placed("random", &mc, 16, 43);
  check_partition(*a, 16);
  EXPECT_EQ(a->job_map(), b->job_map());  // same seed, same carve
  EXPECT_NE(a->job_map(), c->job_map());  // reseeding moves the carve
}

// An unknown placement carves exactly as compact: JobManager is the one
// place that decides, and make_machine never sees the knob.
TEST(TenancyPlacement, UnknownPlacementFallsBackToCompact) {
  std::unique_ptr<converse::Machine> mj, mc;
  auto junk = placed("diagonal", &mj);
  auto compact = placed("compact", &mc);
  EXPECT_EQ(junk->placement(), Placement::kCompact);
  check_partition(*junk, 16);
  EXPECT_EQ(junk->job_map(), compact->job_map());
}

// --------------------------------------------------------------------- qos ----

// Placing QoS-classed jobs on a flow-controlled machine must bound every
// PE's governor window: latency floors lift the AIMD minimum, bulk and
// scavenger ceilings cap it (clamping the live cwnd down immediately),
// and drain quotas land per PE.
TEST(TenancyQos, ClassesLandInGovernorWindows) {
  auto o = tenant_options(16);
  o.flow.enable = true;  // window start 8, bounds [2, 64]
  auto m = lrts::make_machine(LayerKind::kUgni, o);
  flowcontrol::InjectionGovernor* gov = m->layer().governor();
  ASSERT_NE(gov, nullptr);
  JobManager jobs(*m, tenancy_config("compact"));
  jobs.add_job({"lat", 4, QosClass::kLatency});
  jobs.add_job({"blk", 8, QosClass::kBulk});
  jobs.add_job({"scv", 4, QosClass::kScavenger});
  jobs.place();
  for (int pe : jobs.job(0).pes()) {
    EXPECT_GE(gov->window(pe), tenancy::kQosLatencyFloor)
        << "latency pe " << pe;
    EXPECT_EQ(gov->drain_quota(pe), 0u);  // latency drains unbounded
  }
  for (int pe : jobs.job(1).pes()) {
    EXPECT_LE(gov->window(pe), tenancy::kQosBulkCeiling)
        << "bulk pe " << pe;
    EXPECT_EQ(gov->drain_quota(pe), 2u);
  }
  for (int pe : jobs.job(2).pes()) {
    EXPECT_LE(gov->window(pe), tenancy::kQosScavengerCeiling)
        << "scavenger pe " << pe;
    EXPECT_EQ(gov->drain_quota(pe), 1u);
  }
}

// qos_enable=false partitions the PE space but leaves the governor
// byte-identical to stock — the ablation's noqos leg.
TEST(TenancyQos, DisabledLeavesGovernorStock) {
  auto o = tenant_options(8);
  o.flow.enable = true;
  auto m = lrts::make_machine(LayerKind::kUgni, o);
  flowcontrol::InjectionGovernor* gov = m->layer().governor();
  ASSERT_NE(gov, nullptr);
  JobManager jobs(*m, tenancy_config("scatter", /*qos_enable=*/false));
  jobs.add_job({"a", 4, QosClass::kLatency});
  jobs.add_job({"b", 4, QosClass::kScavenger});
  jobs.place();
  for (int pe = 0; pe < 8; ++pe) {
    EXPECT_EQ(gov->window(pe), flowcontrol::kWindowStart);
    EXPECT_EQ(gov->drain_quota(pe), 0u);
  }
  m->collect_metrics();
  std::ostringstream csv;
  m->metrics().write_csv(csv);
  EXPECT_EQ(csv.str().find("flow.qos_pes"), std::string::npos);
}

// -------------------------------------------------------------- generators ----

// expected_messages() is the zero-loss oracle; pin the per-pattern
// counting rules it encodes.
TEST(TenancyGenerators, ExpectedMessageFormulas) {
  auto o = tenant_options(12);
  auto m = lrts::make_machine(LayerKind::kUgni, o);
  JobManager jobs(*m, tenancy_config("compact"));
  jobs.add_job({"a", 6, QosClass::kLatency});
  jobs.add_job({"b", 4, QosClass::kBulk});
  jobs.add_job({"c", 2, QosClass::kScavenger});
  jobs.place();
  GeneratorOptions halo;
  halo.pattern = TrafficPattern::kKNeighborHalo;
  halo.iterations = 3;
  halo.k = 2;
  TrafficGenerator g1(jobs, 0, halo);
  EXPECT_EQ(g1.expected_messages(), 6u * 2 * 2 * 3);  // n * 2k * it
  GeneratorOptions shuf;
  shuf.pattern = TrafficPattern::kAllToAllShuffle;
  shuf.iterations = 5;
  TrafficGenerator g2(jobs, 1, shuf);
  EXPECT_EQ(g2.expected_messages(), 4u * 3 * 5);  // n * (n-1) * it
  GeneratorOptions ckpt;
  ckpt.pattern = TrafficPattern::kCheckpointBurst;
  ckpt.iterations = 4;
  ckpt.io_ranks = 1;
  TrafficGenerator g3(jobs, 2, ckpt);
  EXPECT_EQ(g3.expected_messages(), 1u * 4);  // (n - io) * it
}

/// One full two-tenant-plus-background run (all three patterns live) with
/// the event tracer on; returns timeline CSV + metrics CSV, the
/// bit-identity witness for the determinism test.
std::string traced_tenant_run() {
  trace::EventTracer tracer(1u << 18);
  trace::SinkScope sinks(&tracer, nullptr);
  auto o = tenant_options(16, 4);
  o.flow.enable = true;
  auto m = lrts::make_machine(LayerKind::kUgni, o);
  JobManager jobs(*m, tenancy_config("scatter"));
  jobs.add_job({"victim", 6, QosClass::kLatency});
  jobs.add_job({"storm", 6, QosClass::kBulk});
  jobs.add_job({"ckpt", 4, QosClass::kScavenger});
  jobs.place();
  std::vector<std::unique_ptr<TrafficGenerator>> gens;
  GeneratorOptions vo;
  vo.pattern = TrafficPattern::kKNeighborHalo;
  vo.iterations = 3;
  vo.k = 2;
  vo.payload = 2048;
  gens.push_back(std::make_unique<TrafficGenerator>(jobs, 0, vo));
  GeneratorOptions so;
  so.pattern = TrafficPattern::kAllToAllShuffle;
  so.iterations = 2;
  so.payload = 8192;
  gens.push_back(std::make_unique<TrafficGenerator>(jobs, 1, so));
  GeneratorOptions co;
  co.pattern = TrafficPattern::kCheckpointBurst;
  co.iterations = 2;
  co.io_ranks = 1;
  co.payload = 8192;
  gens.push_back(std::make_unique<TrafficGenerator>(jobs, 2, co));
  for (auto& g : gens) g->launch();
  m->run();
  for (auto& g : gens) {
    EXPECT_EQ(g->received(), g->expected_messages()) << "job " << g->job();
  }
  jobs.collect_metrics();
  m->collect_metrics();
  std::ostringstream out;
  tracer.write_csv(out);
  m->metrics().write_csv(out);
  return out.str();
}

// Same seed => byte-identical virtual-time timelines and metric surfaces
// for every generator, run after run: the whole subsystem (placement,
// QoS, generator randomness) is a pure function of the seeds.
TEST(TenancyDeterminism, SameSeedSameTimelineAcrossRuns) {
  const std::string base = traced_tenant_run();
  EXPECT_NE(base.find("job.0.delivery_us"), std::string::npos);
  EXPECT_EQ(base, traced_tenant_run());
}

// ------------------------------------------------------------ fault matrix ---

// Every fault class the injector models, rerun with TWO tenants sharing
// nodes: retry/backoff must deliver both jobs' traffic exactly once —
// faults plus QoS bounds never turn into message loss for either tenant.
TEST(TenancyFault, MatrixZeroLossWithTwoTenants) {
  struct Case {
    const char* label;
    fault::FaultPlan plan;
  };
  fault::FaultPlan base;
  base.enabled = true;
  base.seed = 0x7E7;
  std::vector<Case> cases;
  {
    Case c{"post_error", base};
    c.plan.p_post_error = 0.3;
    cases.push_back(c);
  }
  {
    Case c{"reg_error", base};
    c.plan.p_reg_error = 0.3;
    cases.push_back(c);
  }
  {
    Case c{"smsg_error", base};
    c.plan.p_smsg_error = 0.3;
    cases.push_back(c);
  }
  {
    Case c{"cq_overrun", base};
    c.plan.p_cq_overrun = 0.05;
    cases.push_back(c);
  }
  {
    Case c{"smsg_starve", base};
    c.plan.p_smsg_starve = 0.2;
    cases.push_back(c);
  }
  {
    Case c{"link_degrade", base};
    c.plan.p_link_degrade = 0.3;
    cases.push_back(c);
  }
  {
    Case c{"link_blackout", base};
    c.plan.p_link_blackout = 0.2;
    cases.push_back(c);
  }
  for (const Case& fc : cases) {
    auto o = tenant_options(8, 4);
    o.flow.enable = true;
    o.fault = fc.plan;
    auto m = lrts::make_machine(LayerKind::kUgni, o);
    JobManager jobs(*m, tenancy_config("scatter"));
    jobs.add_job({"victim", 4, QosClass::kLatency});
    jobs.add_job({"storm", 4, QosClass::kBulk});
    jobs.place();
    GeneratorOptions vo;
    vo.pattern = TrafficPattern::kKNeighborHalo;
    vo.iterations = 3;
    vo.k = 2;  // clamped to (4-1)/2 = 1 neighbor each side
    vo.payload = 4096;  // rendezvous-size: the faulted wire carries GETs
    TrafficGenerator vg(jobs, 0, vo);
    GeneratorOptions so;
    so.pattern = TrafficPattern::kAllToAllShuffle;
    so.iterations = 3;
    so.payload = 8192;
    TrafficGenerator sg(jobs, 1, so);
    vg.launch();
    sg.launch();
    m->run();
    EXPECT_EQ(vg.received(), vg.expected_messages()) << fc.label;
    EXPECT_EQ(sg.received(), sg.expected_messages()) << fc.label;
  }
}

// ------------------------------------------------- metrics & attribution ----

// Per-job rows ride the standard registry exports: pes/msgs_executed
// gauges, the delivery histogram with one sample per delivered message,
// and per-job link counters.  Compact at 4 PEs per node gives every node
// to one job, so the job rows account for every link reservation: they
// sum to the network's totals.
TEST(TenancyMetrics, PerJobRowsAndLinkAttribution) {
  // 32 PEs at 4/node = 8 nodes: each compact job spans two Gemini ASICs,
  // so its traffic actually crosses torus links (ASIC-sibling node pairs
  // bypass them via the Netlink and would never reserve a link).
  auto o = tenant_options(32, 4);
  o.flow.enable = true;
  auto m = lrts::make_machine(LayerKind::kUgni, o);
  JobManager jobs(*m, tenancy_config("compact"));
  jobs.add_job({"victim", 16, QosClass::kLatency});
  jobs.add_job({"storm", 16, QosClass::kBulk});
  jobs.place();
  GeneratorOptions vo;
  vo.pattern = TrafficPattern::kKNeighborHalo;
  vo.iterations = 2;
  vo.k = 1;
  vo.payload = 2048;
  TrafficGenerator vg(jobs, 0, vo);
  GeneratorOptions so;
  so.pattern = TrafficPattern::kAllToAllShuffle;
  so.iterations = 2;
  so.payload = 8192;
  TrafficGenerator sg(jobs, 1, so);
  vg.launch();
  sg.launch();
  m->run();
  EXPECT_EQ(jobs.delivery_hist(0).count(), vg.expected_messages());
  EXPECT_EQ(jobs.delivery_hist(1).count(), sg.expected_messages());
  jobs.collect_metrics();
  m->collect_metrics();
  const trace::MetricsRegistry& reg = m->metrics();
  auto counter = [&](const std::string& name) -> std::uint64_t {
    const trace::Counter* c = reg.find_counter(name);
    EXPECT_NE(c, nullptr) << "metric " << name;
    return c ? c->value() : 0;
  };
  // The storm's inter-node traffic is attributable, so it reserved links.
  EXPECT_GT(counter("job.1.link_reservations"), 0u);
  std::uint64_t job_reservations = 0;
  std::uint64_t job_wait_ns = 0;
  for (int j = 0; j < jobs.num_jobs(); ++j) {
    job_reservations += counter(JobManager::metric_name(j, "link_reservations"));
    job_wait_ns += counter(JobManager::metric_name(j, "link_wait_ns"));
  }
  std::uint64_t net_reservations = 0;
  for (std::size_t l = 0; l < m->network().torus().total_links(); ++l) {
    net_reservations += m->network().link_schedule(l).reservations();
  }
  EXPECT_EQ(job_reservations, net_reservations);
  EXPECT_EQ(job_wait_ns, counter("net.link_wait_ns"));
  EXPECT_GT(job_wait_ns, 0u);
  std::ostringstream csv;
  reg.write_csv(csv);
  const std::string s = csv.str();
  for (const char* name :
       {"job.0.pes", "job.0.msgs_executed", "job.0.delivery_us",
        "job.1.pes", "job.1.link_reservations"}) {
    EXPECT_NE(s.find(name), std::string::npos) << "metric " << name;
  }
}

}  // namespace
}  // namespace ugnirt
