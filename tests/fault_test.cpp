// Fault-injection matrix for the uGNI stack (ISSUE: deterministic faults +
// retry/backoff).  Each fault class the injector can force — transient
// post errors, registration failures, SMSG send errors, CQ overruns,
// credit-starvation windows, link degradation and blackouts — is swept
// through ping-pong and k-neighbor traffic on the uGNI layer in both modes
// (per-PE and SMP; plus SMP and MPI spot checks), asserting the one
// property the runtime guarantees: every message is delivered exactly
// once, no matter what the fabric does.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "converse/machine.hpp"
#include "fault/fault.hpp"
#include "lrts/runtime.hpp"
#include "sim/context.hpp"
#include "sim/engine.hpp"
#include "trace/events.hpp"
#include "trace/metrics.hpp"
#include "trace/session.hpp"
#include "ugni/client.hpp"
#include "ugni/ugni.hpp"

namespace ugnirt {
namespace {

using converse::CmiAlloc;
using converse::CmiFree;
using converse::CmiMyPe;
using converse::CmiSetHandler;
using converse::CmiSyncSendAndFree;
using converse::kCmiHeaderBytes;
using converse::LayerKind;
using converse::MachineOptions;

// --------------------------------------------------------------- policy ----

TEST(RetryPolicy, BackoffIsCappedExponential) {
  static_assert(ugni::kMaxRetries == 8 && ugni::kDemoteAfter == 4);
  static_assert(ugni::kBackoffBaseNs == 500 && ugni::kBackoffMult == 2.0 &&
                ugni::kBackoffMaxNs == 64000);
  EXPECT_EQ(ugni::backoff_for(1), 500);
  EXPECT_EQ(ugni::backoff_for(2), 1000);
  EXPECT_EQ(ugni::backoff_for(3), 2000);
  EXPECT_EQ(ugni::backoff_for(8), 64000);   // 500 * 2^7: exactly the cap
  EXPECT_EQ(ugni::backoff_for(20), 64000);  // stays capped
  EXPECT_EQ(ugni::backoff_for(0), 500);     // clamped to attempt 1
}

TEST(FaultPlan, EnvOverridesApplyInMakeMachine) {
  ::setenv("UGNIRT_FAULT_ENABLED", "1", 1);
  ::setenv("UGNIRT_FAULT_P_SMSG_ERROR", "0.125", 1);
  ::setenv("UGNIRT_FAULT_SEED", "99", 1);
  MachineOptions o;
  o.pes = 2;
  auto m = lrts::make_machine(LayerKind::kUgni, o);
  ::unsetenv("UGNIRT_FAULT_ENABLED");
  ::unsetenv("UGNIRT_FAULT_P_SMSG_ERROR");
  ::unsetenv("UGNIRT_FAULT_SEED");
  EXPECT_TRUE(m->options().fault.enabled);
  EXPECT_DOUBLE_EQ(m->options().fault.p_smsg_error, 0.125);
  EXPECT_EQ(m->options().fault.seed, 99u);
  EXPECT_NE(m->fault_injector(), nullptr);
}

// --------------------------------------------------------- traffic loops ----

/// Run a k-neighbor exchange: every PE sends `msgs` messages of `payload`
/// bytes to each of its k ring neighbors.  Returns per-PE receive counts.
std::vector<int> run_kneighbor(converse::Machine& m, int k, int msgs,
                               std::uint32_t payload) {
  const int pes = m.num_pes();
  std::vector<int> received(static_cast<std::size_t>(pes), 0);
  int h = m.register_handler([&](void* msg) {
    received[static_cast<std::size_t>(CmiMyPe())]++;
    CmiFree(msg);
  });
  const std::uint32_t total = payload + kCmiHeaderBytes;
  for (int pe = 0; pe < pes; ++pe) {
    m.start(pe, [&m, pe, pes, k, msgs, total, h] {
      for (int i = 0; i < msgs; ++i) {
        for (int d = 1; d <= k; ++d) {
          for (int dest : {(pe + d) % pes, (pe - d + pes) % pes}) {
            void* msg = CmiAlloc(total);
            CmiSetHandler(msg, h);
            CmiSyncSendAndFree(dest, total, msg);
          }
        }
      }
    });
  }
  m.run();
  return received;
}

/// One fault class of the matrix: a label plus the plan that arms it.
struct FaultCase {
  const char* label;
  fault::FaultPlan plan;
};

fault::FaultPlan base_plan() {
  fault::FaultPlan p;
  p.enabled = true;
  p.seed = 0xFA17;
  return p;
}

std::vector<FaultCase> fault_matrix() {
  std::vector<FaultCase> cases;
  {
    FaultCase c{"post_error", base_plan()};
    c.plan.p_post_error = 0.3;
    cases.push_back(c);
  }
  {
    FaultCase c{"reg_error", base_plan()};
    c.plan.p_reg_error = 0.3;
    cases.push_back(c);
  }
  {
    FaultCase c{"smsg_error", base_plan()};
    c.plan.p_smsg_error = 0.3;
    cases.push_back(c);
  }
  {
    FaultCase c{"cq_overrun", base_plan()};
    c.plan.p_cq_overrun = 0.05;
    cases.push_back(c);
  }
  {
    FaultCase c{"smsg_starve", base_plan()};
    c.plan.p_smsg_starve = 0.2;
    cases.push_back(c);
  }
  {
    FaultCase c{"link_degrade", base_plan()};
    c.plan.p_link_degrade = 0.3;
    cases.push_back(c);
  }
  {
    FaultCase c{"link_blackout", base_plan()};
    c.plan.p_link_blackout = 0.2;
    cases.push_back(c);
  }
  return cases;
}

// Every stack recovers through the same uGNI client plumbing
// (ugni/client.hpp), so every stack faces the full matrix: the per-PE
// layer (FaultMatrixUgni), the SMP comm-thread layer (FaultMatrixSmp) and
// the MPI layer (FaultMatrixMpi).
enum class Stack { kUgni, kSmp, kMpi };

LayerKind layer_of(Stack stack) {
  return stack == Stack::kMpi ? LayerKind::kMpi : LayerKind::kUgni;
}

void fault_pingpong(Stack stack, std::size_t cell) {
  // A copy: fault_matrix() returns a temporary vector.
  const FaultCase fc = fault_matrix()[cell];
  const bool smp = stack == Stack::kSmp;
  MachineOptions o;
  // An inter-node pair so the NIC paths are exercised: one PE per node, or
  // in SMP mode two workers per node and PE 0 <-> PE 2.
  o.pes = smp ? 4 : 2;
  o.pes_per_node = smp ? 2 : 1;
  o.smp_mode = smp;
  o.fault = fc.plan;
  const int peer = smp ? 2 : 1;
  auto m = lrts::make_machine(layer_of(stack), o);
  // Small (eager SMSG) and large (rendezvous GET) legs under fault fire.
  for (std::uint32_t payload : {64u, 32768u}) {
    const std::uint32_t total = payload + kCmiHeaderBytes;
    constexpr int kLegs = 20;
    int legs = 0;
    int h = -1;
    h = m->register_handler([&](void* msg) {
      CmiFree(msg);
      if (++legs >= kLegs) return;
      void* next = CmiAlloc(total);
      CmiSetHandler(next, h);
      CmiSyncSendAndFree(CmiMyPe() == 0 ? peer : 0, total, next);
    });
    m->start(0, [&, h] {
      void* msg = CmiAlloc(total);
      CmiSetHandler(msg, h);
      CmiSyncSendAndFree(peer, total, msg);
    });
    m->run();
    EXPECT_EQ(legs, kLegs) << fc.label << " payload " << payload;
  }
}

void fault_kneighbor(Stack stack, std::size_t cell) {
  const FaultCase fc = fault_matrix()[cell];
  MachineOptions o;
  o.pes = 8;
  o.pes_per_node = 2;
  o.smp_mode = stack == Stack::kSmp;
  o.fault = fc.plan;
  auto m = lrts::make_machine(layer_of(stack), o);
  constexpr int kK = 2, kMsgs = 6;
  auto received = run_kneighbor(*m, kK, kMsgs, 512);
  // Each PE receives from 2k neighbors, msgs each: exactly, no loss, no dup.
  for (int pe = 0; pe < 8; ++pe) {
    EXPECT_EQ(received[static_cast<std::size_t>(pe)], 2 * kK * kMsgs)
        << fc.label << " pe " << pe;
  }
}

std::string fault_cell_name(const ::testing::TestParamInfo<std::size_t>& i) {
  return fault_matrix()[i.param].label;
}

class FaultMatrixUgni : public ::testing::TestWithParam<std::size_t> {};
class FaultMatrixSmp : public ::testing::TestWithParam<std::size_t> {};
class FaultMatrixMpi : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FaultMatrixUgni, PingPongDeliversEveryLeg) {
  fault_pingpong(Stack::kUgni, GetParam());
}
TEST_P(FaultMatrixUgni, KNeighborZeroLossZeroDuplication) {
  fault_kneighbor(Stack::kUgni, GetParam());
}
TEST_P(FaultMatrixSmp, PingPongDeliversEveryLeg) {
  fault_pingpong(Stack::kSmp, GetParam());
}
TEST_P(FaultMatrixSmp, KNeighborZeroLossZeroDuplication) {
  fault_kneighbor(Stack::kSmp, GetParam());
}
TEST_P(FaultMatrixMpi, PingPongDeliversEveryLeg) {
  fault_pingpong(Stack::kMpi, GetParam());
}
TEST_P(FaultMatrixMpi, KNeighborZeroLossZeroDuplication) {
  fault_kneighbor(Stack::kMpi, GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllClasses, FaultMatrixUgni,
                         ::testing::Range<std::size_t>(0,
                                                       fault_matrix().size()),
                         fault_cell_name);
INSTANTIATE_TEST_SUITE_P(AllClasses, FaultMatrixSmp,
                         ::testing::Range<std::size_t>(0,
                                                       fault_matrix().size()),
                         fault_cell_name);
INSTANTIATE_TEST_SUITE_P(AllClasses, FaultMatrixMpi,
                         ::testing::Range<std::size_t>(0,
                                                       fault_matrix().size()),
                         fault_cell_name);

TEST(FaultSmp, KNeighborSurvivesCombinedFaults) {
  MachineOptions o;
  o.pes = 8;
  o.pes_per_node = 4;  // 2 nodes, comm-thread per node
  o.smp_mode = true;
  o.fault = base_plan();
  o.fault.p_post_error = 0.2;
  o.fault.p_smsg_error = 0.2;
  o.fault.p_cq_overrun = 0.02;
  auto m = lrts::make_machine(LayerKind::kUgni, o);
  auto received = run_kneighbor(*m, 2, 4, 4096);
  for (int pe = 0; pe < 8; ++pe) {
    EXPECT_EQ(received[static_cast<std::size_t>(pe)], 16) << "pe " << pe;
  }
}

TEST(FaultMpi, KNeighborSurvivesCombinedFaults) {
  MachineOptions o;
  o.pes = 6;
  o.pes_per_node = 1;
  o.fault = base_plan();
  o.fault.p_reg_error = 0.2;
  o.fault.p_smsg_error = 0.2;
  o.fault.p_cq_overrun = 0.02;
  auto m = lrts::make_machine(LayerKind::kMpi, o);
  auto received = run_kneighbor(*m, 1, 5, 512);
  for (int pe = 0; pe < 6; ++pe) {
    EXPECT_EQ(received[static_cast<std::size_t>(pe)], 10) << "pe " << pe;
  }
}

// The MPI library binds its rows in the machine registry when the layer
// creates it, so they count live with no collect step, and its retries go
// through the shared uGNI client counters.
TEST(FaultMpi, CountersLiveInMachineRegistry) {
  MachineOptions o;
  o.pes = 4;
  o.pes_per_node = 1;
  {
    auto m = lrts::make_machine(LayerKind::kMpi, o);
    auto received = run_kneighbor(*m, 1, 3, 512);
    EXPECT_EQ(received[0], 6);
    const trace::MetricsRegistry& reg = m->metrics();
    for (const char* name :
         {"mpi.sends_e0", "mpi.sends_e1", "mpi.sends_rndv", "mpi.unexpected",
          "mpi.udreg_hits", "mpi.udreg_misses", "mpi.udreg_evictions",
          "retry_smsg", "retry_mem_register", "retry_escalations",
          "cq_overrun_recovered"}) {
      EXPECT_NE(reg.find_counter(name), nullptr) << name;
    }
    EXPECT_EQ(reg.find_counter("mpi.sends_e0")->value(), 24u);
    EXPECT_EQ(reg.find_counter("mpi.unexpected")->value(), 24u);
    EXPECT_EQ(reg.find_counter("retry_smsg")->value(), 0u);
  }
  // Registration and SMSG send errors, with rendezvous-size messages so
  // that uDREG registers on both sides.
  o.fault = base_plan();
  o.fault.p_reg_error = 0.3;
  o.fault.p_smsg_error = 0.3;
  auto m = lrts::make_machine(LayerKind::kMpi, o);
  auto received = run_kneighbor(*m, 1, 5, 16384);
  for (int pe = 0; pe < 4; ++pe) {
    EXPECT_EQ(received[static_cast<std::size_t>(pe)], 10) << "pe " << pe;
  }
  const trace::MetricsRegistry& reg = m->metrics();
  EXPECT_GT(reg.find_counter("mpi.sends_rndv")->value(), 0u);
  EXPECT_GT(reg.find_counter("retry_mem_register")->value(), 0u);
  EXPECT_GT(reg.find_counter("retry_smsg")->value(), 0u);
}

// ------------------------------------------------------------ CQ overrun ----

// Regression: a CQ overrun used to latch GNI_RC_ERROR_RESOURCE forever —
// the owner had no way to clear the overrun bit, so one dropped event
// wedged the NIC for the rest of the run.  GNI_CqErrorRecover must clear
// the latch and re-synthesize the dropped arrival events.
TEST(CqOverrun, RecoverUnlatchesAndResynthesizesDroppedEvents) {
  sim::Engine engine;
  gemini::Network net(engine.scheduler(), topo::Torus3D::for_nodes(8),
                      gemini::MachineConfig{});
  ugni::Domain dom(net);
  sim::Context ctx0(engine.scheduler(), 0), ctx1(engine.scheduler(), 1);
  ugni::gni_nic_handle_t nic0 = nullptr, nic1 = nullptr;
  ugni::gni_cq_handle_t rx1 = nullptr, tx0 = nullptr;
  sim::ScopedContext guard(ctx0);
  ASSERT_EQ(ugni::GNI_CdmAttach(&dom, 0, 0, &nic0), ugni::GNI_RC_SUCCESS);
  ASSERT_EQ(ugni::GNI_CdmAttach(&dom, 1, 1, &nic1), ugni::GNI_RC_SUCCESS);
  // A 2-entry receive CQ: the third in-flight SMSG arrival must overrun.
  ASSERT_EQ(ugni::GNI_CqCreate(nic1, 2, &rx1), ugni::GNI_RC_SUCCESS);
  ASSERT_EQ(ugni::GNI_CqCreate(nic0, 64, &tx0), ugni::GNI_RC_SUCCESS);
  nic1->set_smsg_rx_cq(rx1);
  ugni::gni_ep_handle_t ep01 = nullptr, ep10 = nullptr;
  ASSERT_EQ(ugni::GNI_EpCreate(nic0, tx0, &ep01), ugni::GNI_RC_SUCCESS);
  ASSERT_EQ(ugni::GNI_EpCreate(nic1, rx1, &ep10), ugni::GNI_RC_SUCCESS);
  ASSERT_EQ(ugni::GNI_EpBind(ep01, 1), ugni::GNI_RC_SUCCESS);
  ASSERT_EQ(ugni::GNI_EpBind(ep10, 0), ugni::GNI_RC_SUCCESS);
  ugni::gni_smsg_attr_t attr;
  ASSERT_EQ(ugni::GNI_SmsgInit(ep01, attr, attr), ugni::GNI_RC_SUCCESS);
  ASSERT_EQ(ugni::GNI_SmsgInit(ep10, attr, attr), ugni::GNI_RC_SUCCESS);

  const char payload[8] = "overrun";
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(ugni::GNI_SmsgSendWTag(ep01, payload, sizeof(payload), nullptr,
                                     0, 0, static_cast<std::uint8_t>(i)),
              ugni::GNI_RC_SUCCESS);
  }

  sim::ScopedContext rguard(ctx1);
  ctx1.wait_until(1'000'000);  // all three arrivals are in, one dropped
  ugni::gni_cq_entry_t ev;
  // The latch: every poll reports ERROR_RESOURCE, nothing is deliverable.
  ASSERT_EQ(ugni::GNI_CqGetEvent(rx1, &ev), ugni::GNI_RC_ERROR_RESOURCE);
  ASSERT_EQ(ugni::GNI_CqGetEvent(rx1, &ev), ugni::GNI_RC_ERROR_RESOURCE);

  std::uint32_t recovered = 0;
  ASSERT_EQ(ugni::GNI_CqErrorRecover(rx1, &recovered), ugni::GNI_RC_SUCCESS);
  EXPECT_EQ(recovered, 1u);  // the one dropped arrival came back

  // All three messages drain: zero loss, zero duplication.
  int got = 0;
  while (ugni::GNI_CqGetEvent(rx1, &ev) == ugni::GNI_RC_SUCCESS) {
    void* data = nullptr;
    std::uint8_t tag = 0;
    ASSERT_EQ(ugni::GNI_SmsgGetNextWTag(ep10, &data, &tag),
              ugni::GNI_RC_SUCCESS);
    ASSERT_EQ(ugni::GNI_SmsgRelease(ep10), ugni::GNI_RC_SUCCESS);
    ++got;
  }
  EXPECT_EQ(got, 3);
  // Idempotent when not latched.
  ASSERT_EQ(ugni::GNI_CqErrorRecover(rx1, &recovered), ugni::GNI_RC_SUCCESS);
  EXPECT_EQ(recovered, 0u);
}

TEST(CqOverrun, MachineRecoversAndCountsOverruns) {
  MachineOptions o;
  o.pes = 4;
  o.pes_per_node = 1;
  o.fault = base_plan();
  o.fault.p_cq_overrun = 0.08;
  auto m = lrts::make_machine(LayerKind::kUgni, o);
  auto received = run_kneighbor(*m, 1, 8, 256);
  for (int pe = 0; pe < 4; ++pe) {
    EXPECT_EQ(received[static_cast<std::size_t>(pe)], 16) << "pe " << pe;
  }
  m->collect_metrics();
  EXPECT_GT(m->metrics().counter("cq_overrun_recovered").value(), 0u);
}

// -------------------------------------------------------------- demotion ----

TEST(Demotion, CreditStarvationFallsBackToRendezvous) {
  for (bool smp : {false, true}) {
    SCOPED_TRACE(smp ? "SMP" : "uGNI");
    MachineOptions o;
    o.pes = 2;
    o.pes_per_node = 1;
    o.smp_mode = smp;
    o.fault = base_plan();
    o.fault.p_smsg_starve = 0.5;
    auto m = lrts::make_machine(LayerKind::kUgni, o);
    auto received = run_kneighbor(*m, 1, 40, 128);
    EXPECT_EQ(received[0], 80);
    EXPECT_EQ(received[1], 80);
    m->collect_metrics();
    // Retries happened and at least one starved send was demoted to the
    // credit-free rendezvous path.
    EXPECT_GT(m->metrics().counter("retry_smsg").value(), 0u);
    EXPECT_GT(m->metrics().counter("fallback_rendezvous").value(), 0u);
  }
}

// ----------------------------------------------------------- determinism ----

/// Run the standard faulty k-neighbor with `seed` and return the full
/// event-trace CSV.
std::string traced_run(std::uint64_t seed) {
  trace::EventTracer tracer(1u << 18);
  trace::SinkScope sinks(&tracer, nullptr);
  MachineOptions o;
  o.pes = 6;
  o.pes_per_node = 2;
  o.fault = base_plan();
  o.fault.seed = seed;
  o.fault.p_post_error = 0.2;
  o.fault.p_smsg_error = 0.2;
  o.fault.p_smsg_starve = 0.1;
  o.fault.p_cq_overrun = 0.02;
  auto m = lrts::make_machine(LayerKind::kUgni, o);
  auto received = run_kneighbor(*m, 2, 4, 1024);
  for (int pe = 0; pe < 6; ++pe) {
    EXPECT_EQ(received[static_cast<std::size_t>(pe)], 16) << "pe " << pe;
  }
  EXPECT_GT(tracer.count_of(trace::Ev::kFaultInject), 0u);
  std::ostringstream csv;
  tracer.write_csv(csv);
  return csv.str();
}

TEST(Determinism, SameSeedSameEventTrace) {
  std::string a = traced_run(0xFA17);
  std::string b = traced_run(0xFA17);
  EXPECT_EQ(a, b);
}

TEST(Determinism, DifferentSeedDifferentFaultSchedule) {
  std::string a = traced_run(1);
  std::string b = traced_run(2);
  EXPECT_NE(a, b);
}

// ------------------------------------------------------------------ soak ----

TEST(Soak, AllFaultClassesKNeighborZeroLossAndMetricsPublished) {
  MachineOptions o;
  o.pes = 8;
  o.pes_per_node = 2;
  o.fault = base_plan();
  o.fault.p_post_error = 0.2;
  o.fault.p_reg_error = 0.2;
  o.fault.p_smsg_error = 0.2;
  o.fault.p_cq_overrun = 0.03;
  o.fault.p_smsg_starve = 0.15;
  o.fault.p_link_degrade = 0.2;
  o.fault.p_link_blackout = 0.05;
  auto m = lrts::make_machine(LayerKind::kUgni, o);
  constexpr int kK = 2, kMsgs = 8;
  auto received = run_kneighbor(*m, kK, kMsgs, 2048);
  for (int pe = 0; pe < 8; ++pe) {
    EXPECT_EQ(received[static_cast<std::size_t>(pe)], 2 * kK * kMsgs)
        << "pe " << pe;
  }
  ASSERT_NE(m->fault_injector(), nullptr);
  EXPECT_GT(m->fault_injector()->injected_total(), 0u);

  m->collect_metrics();
  std::ostringstream csv;
  m->metrics().write_csv(csv);
  const std::string s = csv.str();
  for (const char* name :
       {"retry_smsg", "retry_post", "retry_mem_register", "retry_escalations",
        "fallback_rendezvous", "fallback_heap_send", "cq_overrun_recovered",
        "fault.post_errors", "fault.smsg_errors"}) {
    EXPECT_NE(s.find(name), std::string::npos) << "metric " << name;
  }
  // Under this much fire the retry paths must actually have run.
  EXPECT_GT(m->metrics().counter("retry_smsg").value() +
                m->metrics().counter("retry_post").value() +
                m->metrics().counter("retry_mem_register").value(),
            0u);
}

}  // namespace
}  // namespace ugnirt
