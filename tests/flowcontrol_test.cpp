// Congestion-control subsystem tests: FlowConfig env overrides, the EWMA
// congestion estimator, the AIMD injection governor
// (admission, pacing, threshold adaptation), LinkSchedule reservation
// properties (sorted/bounded intervals, backfill past stale cursors),
// congestion-aware adaptive routing, the hotspot end-to-end path with
// pacing on (zero loss, stalls drained), the fault-matrix rerun with
// flow control enabled, and seeded determinism of the traced timelines.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "converse/machine.hpp"
#include "fault/fault.hpp"
#include "flowcontrol/config.hpp"
#include "flowcontrol/flowcontrol.hpp"
#include "gemini/network.hpp"
#include "lrts/runtime.hpp"
#include "trace/events.hpp"
#include "trace/metrics.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

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
using flowcontrol::CongestionEstimator;
using flowcontrol::FlowConfig;
using flowcontrol::InjectionGovernor;

// ----------------------------------------------------------------- config ----

TEST(FlowConfig, EnvOverridesApplyInMakeMachine) {
  ::setenv("UGNIRT_FLOW_ENABLE", "1", 1);
  ::setenv("UGNIRT_FLOW_ADAPTIVE_ROUTING", "1", 1);
  MachineOptions o;
  o.pes = 2;
  auto m = lrts::make_machine(LayerKind::kUgni, o);
  ::unsetenv("UGNIRT_FLOW_ENABLE");
  ::unsetenv("UGNIRT_FLOW_ADAPTIVE_ROUTING");
  EXPECT_TRUE(m->options().flow.enable);
  EXPECT_TRUE(m->options().flow.adaptive_routing);
  EXPECT_NE(m->congestion_estimator(), nullptr);
  EXPECT_EQ(m->network().congestion_estimator(), m->congestion_estimator());
}

// Defaults preserve stock behavior: no estimator is even constructed and
// the metric dump carries no flow.* rows (byte-compat with the seed).
TEST(FlowConfig, DisabledByDefaultLeavesStockMachine) {
  MachineOptions o;
  o.pes = 2;
  auto m = lrts::make_machine(LayerKind::kUgni, o);
  EXPECT_FALSE(m->options().flow.enable);
  EXPECT_EQ(m->congestion_estimator(), nullptr);
  EXPECT_EQ(m->network().congestion_estimator(), nullptr);
  m->collect_metrics();
  std::ostringstream csv;
  m->metrics().write_csv(csv);
  EXPECT_EQ(csv.str().find("flow."), std::string::npos);
  EXPECT_EQ(csv.str().find("net.adaptive_reroutes"), std::string::npos);
}

// -------------------------------------------------------------- estimator ----

TEST(FlowEstimator, WaitFreeTrafficKeepsLoadZero) {
  CongestionEstimator est(FlowConfig{}, 6, 1);
  for (int i = 0; i < 100; ++i) {
    est.on_link_reserve(0, 0, /*wait_ns=*/0, /*duration_ns=*/1000, i * 1000);
  }
  EXPECT_DOUBLE_EQ(est.link_load(0), 0.0);
  EXPECT_DOUBLE_EQ(est.node_load(0), 0.0);
  EXPECT_FALSE(est.node_hot(0));
  EXPECT_EQ(est.samples(), 100u);
}

TEST(FlowEstimator, SustainedQueueingConvergesTowardWaitFraction) {
  CongestionEstimator est(FlowConfig{}, 6, 1);  // alpha = 0.125
  // Every reservation waits 3x its service time: sample = 0.75.
  double prev = 0.0;
  for (int i = 0; i < 80; ++i) {
    est.on_link_reserve(2, 0, /*wait_ns=*/3000, /*duration_ns=*/1000,
                        i * 1000);
    EXPECT_GT(est.link_load(2), prev);  // monotone approach from below
    prev = est.link_load(2);
  }
  EXPECT_NEAR(est.link_load(2), 0.75, 0.01);
  EXPECT_NEAR(est.node_load(0), 0.75, 0.01);
  EXPECT_TRUE(est.node_hot(0));
  // The untouched link stays cold.
  EXPECT_DOUBLE_EQ(est.link_load(0), 0.0);
}

TEST(FlowEstimator, HotRecoversWhenCongestionClears) {
  CongestionEstimator est(FlowConfig{}, 6, 2);
  for (int i = 0; i < 40; ++i) {
    est.on_link_reserve(1, 1, 1000, 1000, i * 1000);  // sample = 0.5
  }
  ASSERT_TRUE(est.node_hot(1));
  for (int i = 0; i < 40; ++i) {
    est.on_link_reserve(1, 1, 0, 1000, (40 + i) * 1000);  // sample = 0
  }
  EXPECT_FALSE(est.node_hot(1));
  EXPECT_LT(est.link_load(1), 0.01);
}

// --------------------------------------------------------------- governor ----

TEST(FlowGovernor, AdmitsUpToWindowThenStalls) {
  InjectionGovernor gov(nullptr, 2);
  const int start = static_cast<int>(flowcontrol::kWindowStart);
  for (int i = 0; i < start; ++i) {
    EXPECT_TRUE(gov.would_admit(0));
    EXPECT_TRUE(gov.try_acquire(0, 1, 4096, i));
  }
  EXPECT_EQ(gov.outstanding(0), flowcontrol::kWindowStart);
  EXPECT_FALSE(gov.would_admit(0));
  EXPECT_FALSE(gov.try_acquire(0, 1, 4096, 99));
  // Windows are per PE: PE 1 is unaffected.
  EXPECT_TRUE(gov.would_admit(1));
  // A completion frees exactly one slot.
  gov.on_complete(0, 0, 100);
  EXPECT_EQ(gov.outstanding(0), flowcontrol::kWindowStart - 1);
  EXPECT_TRUE(gov.would_admit(0));
}

TEST(FlowGovernor, CoolCompletionsGrowWindowAdditively) {
  InjectionGovernor gov(nullptr, 1);  // no estimator: always cool
  // cwnd += increase/cwnd per completion: one window's worth of
  // completions adds ~1 to the window (classic AIMD congestion
  // avoidance), so it takes a while — but it must reach the cap.
  for (int i = 0; i < 4000; ++i) {
    gov.note_post(0);
    gov.on_complete(0, 0, i);
  }
  EXPECT_EQ(gov.window(0), flowcontrol::kWindowMax);
}

TEST(FlowGovernor, HotCompletionsShrinkWindowMultiplicativelyToFloor) {
  CongestionEstimator est(FlowConfig{}, 6, 1);
  for (int i = 0; i < 40; ++i) {
    est.on_link_reserve(0, 0, 3000, 1000, i * 1000);  // node 0 hot
  }
  ASSERT_TRUE(est.node_hot(0));
  InjectionGovernor gov(&est, 1);
  gov.note_post(0);
  gov.on_complete(0, 0, 0);
  EXPECT_EQ(gov.window(0), 4u);  // 8 * 0.5
  gov.on_complete(0, 0, 1);
  EXPECT_EQ(gov.window(0), 2u);  // floored at kWindowMin
  gov.on_complete(0, 0, 2);
  EXPECT_EQ(gov.window(0), 2u);  // never below the floor
}

TEST(FlowGovernor, ThresholdsAdaptOnlyWhileHot) {
  CongestionEstimator est(FlowConfig{}, 6, 2);
  for (int i = 0; i < 40; ++i) {
    est.on_link_reserve(0, 0, 3000, 1000, i * 1000);  // node 0: load ~0.75
  }
  ASSERT_GE(est.node_load(0), 2 * flowcontrol::kHotThreshold);
  ASSERT_FALSE(est.node_hot(1));
  InjectionGovernor gov(&est, 1);
  // Cool destination: the configured constants pass through untouched.
  EXPECT_EQ(gov.eager_cap(1024, 1), 1024u);
  EXPECT_EQ(gov.rdma_threshold(16384, 1), 16384u);
  // Very hot destination: eager cap quarters, FMA/BTE boundary halves.
  EXPECT_EQ(gov.eager_cap(1024, 0), 256u);
  EXPECT_EQ(gov.rdma_threshold(16384, 0), 8192u);
  // Floors: tiny bases never adapt below the protocol minima.
  EXPECT_EQ(gov.eager_cap(136, 0), 128u);
  EXPECT_EQ(gov.rdma_threshold(1024, 0), 1024u);
}

// ----------------------------------------------- LinkSchedule properties ----

// The straightforward LinkSchedule::reserve: scan every interval, insert,
// then merge touching neighbours over the whole list and cap it by merging
// the smallest gaps.  The property test below holds the real schedule to
// exactly its starts, waits and intervals.
struct ReferenceSchedule {
  std::vector<gemini::LinkSchedule::Busy> busy;
  std::uint64_t waits = 0;
  SimTime wait_ns = 0;
  int touch_merges = 0;  // reservations that touched a neighbour
  int cap_merges = 0;    // reservations that hit kMaxIntervals

  SimTime reserve(SimTime earliest, SimTime duration, bool* waited) {
    SimTime candidate = earliest;
    std::size_t at = 0;
    for (; at < busy.size(); ++at) {
      if (candidate + duration <= busy[at].start) break;
      if (busy[at].end > candidate) candidate = busy[at].end;
    }
    if (candidate > earliest) {
      *waited = true;
      ++waits;
      wait_ns += candidate - earliest;
    }
    busy.insert(busy.begin() + static_cast<std::ptrdiff_t>(at),
                {candidate, candidate + duration});
    const std::size_t inserted = busy.size();
    for (std::size_t i = 0; i + 1 < busy.size();) {
      if (busy[i].end >= busy[i + 1].start) {
        busy[i].end = std::max(busy[i].end, busy[i + 1].end);
        busy.erase(busy.begin() + static_cast<std::ptrdiff_t>(i) + 1);
      } else {
        ++i;
      }
    }
    if (busy.size() < inserted) ++touch_merges;
    while (busy.size() > gemini::LinkSchedule::kMaxIntervals) {
      ++cap_merges;
      std::size_t best = 0;
      SimTime best_gap = kNever;
      for (std::size_t i = 0; i + 1 < busy.size(); ++i) {
        const SimTime gap = busy[i + 1].start - busy[i].end;
        if (gap < best_gap) {
          best_gap = gap;
          best = i;
        }
      }
      busy[best].end = busy[best + 1].end;
      busy.erase(busy.begin() + static_cast<std::ptrdiff_t>(best) + 1);
    }
    return candidate;
  }
};

// Random seeded reservation sequences preserve the schedule invariants:
// intervals sorted by start, non-overlapping, bounded by kMaxIntervals,
// and every returned start honors `earliest`.  Each reservation also
// matches ReferenceSchedule exactly.  Four stream shapes: the first has
// backfill and waits; the second puts every time on a 100 ns grid, so
// new intervals touch both neighbours; the third spreads short
// reservations far ahead, so the list hits kMaxIntervals; the fourth does
// that on the grid, so several gaps tie for the smallest.
TEST(LinkScheduleProperty, InvariantsUnderRandomReservations) {
  struct Stream {
    SimTime grid;
    std::uint64_t spread;    // cursors fall in [clock - 5000, clock + spread)
    std::uint64_t duration;  // durations fall in [1, duration]
  };
  int backfills = 0, touch_merges = 0, cap_merges = 0;
  for (const Stream st : {Stream{1, 20000, 2000}, Stream{100, 20000, 2000},
                          Stream{1, 400000, 300}, Stream{100, 400000, 300}}) {
    for (std::uint64_t seed : {1ull, 42ull, 0xBEEFull, 0xF10ull}) {
      Rng rng(seed);
      gemini::LinkSchedule sched;
      ReferenceSchedule ref;
      SimTime clock = 0;
      for (int i = 0; i < 500; ++i) {
        // A mix of in-order, stale (behind the clock) and far-future
        // cursors, like concurrent PEs with skewed local times produce.
        const SimTime raw = std::max<SimTime>(
            0, clock + static_cast<SimTime>(rng.next_below(st.spread + 5000)) -
                   5000);
        const SimTime earliest = st.grid * (raw / st.grid);
        const SimTime duration =
            st.grid *
            (1 + static_cast<SimTime>(rng.next_below(st.duration)) / st.grid);
        if (!ref.busy.empty() && earliest + duration <= ref.busy.back().end) {
          ++backfills;
        }
        bool waited = false;
        bool ref_waited = false;
        const SimTime start = sched.reserve(earliest, duration, &waited);
        ASSERT_EQ(start, ref.reserve(earliest, duration, &ref_waited)) << i;
        ASSERT_EQ(waited, ref_waited) << i;
        EXPECT_GE(start, earliest);
        if (!waited) {
          EXPECT_EQ(start, earliest);
        }
        clock += rng.next_below(1500);

        const auto& iv = sched.intervals();
        ASSERT_EQ(iv.size(), ref.busy.size()) << i;
        ASSERT_LE(iv.size(), gemini::LinkSchedule::kMaxIntervals);
        for (std::size_t k = 0; k < iv.size(); ++k) {
          ASSERT_EQ(iv[k].start, ref.busy[k].start) << i << " " << k;
          ASSERT_EQ(iv[k].end, ref.busy[k].end) << i << " " << k;
          EXPECT_LT(iv[k].start, iv[k].end);
          if (k > 0) {
            EXPECT_GT(iv[k].start, iv[k - 1].end);  // strict gaps
          }
        }
      }
      EXPECT_EQ(sched.reservations(), 500u);
      EXPECT_EQ(sched.waits(), ref.waits);
      EXPECT_EQ(sched.wait_ns(), ref.wait_ns);
      touch_merges += ref.touch_merges;
      cap_merges += ref.cap_merges;
    }
  }
  // The streams exercise every path the schedule takes.
  std::printf("backfills %d, touch merges %d, cap merges %d\n", backfills,
              touch_merges, cap_merges);
  EXPECT_GT(backfills, 0);
  EXPECT_GT(touch_merges, 0);
  EXPECT_GT(cap_merges, 0);
}

// Backfill: a reservation parked far in the future must not block the
// link for earlier traffic — a stale cursor slots into the idle gap in
// front of it without waiting.
TEST(LinkScheduleProperty, StaleCursorBackfillsBeforeFutureReservation) {
  gemini::LinkSchedule sched;
  bool waited = false;
  EXPECT_EQ(sched.reserve(1'000'000, 5000, &waited), 1'000'000);
  EXPECT_FALSE(waited);
  // An at-time-0 sender fits long before the future-dated interval.
  waited = false;
  EXPECT_EQ(sched.reserve(0, 5000, &waited), 0);
  EXPECT_FALSE(waited);
  // A request that does NOT fit in the gap queues behind the future one.
  waited = false;
  EXPECT_EQ(sched.reserve(999'000, 5000, &waited), 1'005'000);
  EXPECT_TRUE(waited);
  EXPECT_EQ(sched.waits(), 1u);
}

// Reserving past every existing interval always starts exactly at
// `earliest` — pruning may over-reserve inside the busy span but must
// never extend it rightward.
TEST(LinkScheduleProperty, ReservePastAllIntervalsStartsImmediately) {
  Rng rng(7);
  gemini::LinkSchedule sched;
  SimTime horizon = 0;
  bool waited = false;
  for (int i = 0; i < 100; ++i) {
    const SimTime duration = 1 + rng.next_below(3000);
    const SimTime earliest = horizon + 1 + rng.next_below(500);
    waited = false;
    EXPECT_EQ(sched.reserve(earliest, duration, &waited), earliest);
    EXPECT_FALSE(waited);
    horizon = earliest + duration;
  }
  EXPECT_EQ(sched.waits(), 0u);
}

// --------------------------------------------------------- traffic helper ----

MachineOptions flow_options(int pes, bool enable = true) {
  MachineOptions o;
  o.layer = LayerKind::kUgni;
  o.pes = pes;
  o.pes_per_node = 1;  // every PE has its own NIC and torus links
  o.flow.enable = enable;
  return o;
}

/// Hotspot: every PE != 0 streams `msgs` rendezvous-sized messages at PE
/// 0 (the paper's one-to-all inverse — the congestion pattern flow
/// control targets).  Returns messages received at PE 0.
int run_hotspot(converse::Machine& m, int msgs, std::uint32_t payload) {
  const int pes = m.num_pes();
  int received = 0;
  int h = m.register_handler([&](void* msg) {
    ++received;
    CmiFree(msg);
  });
  const std::uint32_t total = payload + kCmiHeaderBytes;
  for (int pe = 1; pe < pes; ++pe) {
    m.start(pe, [&m, msgs, total, h] {
      for (int i = 0; i < msgs; ++i) {
        void* msg = CmiAlloc(total);
        CmiSetHandler(msg, h);
        CmiSyncSendAndFree(0, total, msg);
      }
    });
  }
  m.run();
  return received;
}

// ------------------------------------------------------ end-to-end pacing ----

// The governor's window under hotspot load forces injection stalls; every
// deferred GET must still drain (no loss, no deadlock) and the flow.*
// observability surface must be populated.
TEST(FlowEndToEnd, HotspotPacingStallsButLosesNothing) {
  trace::EventTracer tracer(1u << 18);
  trace::set_tracer(&tracer);
  auto o = flow_options(8);
  constexpr int kMsgs = 6;
  auto m = lrts::make_machine(LayerKind::kUgni, o);
  const int received = run_hotspot(*m, kMsgs, 16 * 1024);
  m->collect_metrics();
  trace::set_tracer(nullptr);
  EXPECT_EQ(received, 7 * kMsgs);

  EXPECT_GT(m->metrics().counter("flow.injection_stalls").value(), 0u);
  EXPECT_GT(m->metrics().counter("flow.admits").value(), 0u);
  EXPECT_GT(m->metrics().counter("flow.samples").value(), 0u);
  EXPECT_GT(tracer.count_of(trace::Ev::kInjectionStall), 0u);
  EXPECT_GT(tracer.count_of(trace::Ev::kCongestionSample), 0u);

  std::ostringstream csv;
  m->metrics().write_csv(csv);
  const std::string s = csv.str();
  for (const char* name :
       {"flow.samples", "flow.injection_stalls", "flow.admits",
        "flow.window_avg", "flow.max_link_load", "net.adaptive_reroutes"}) {
    EXPECT_NE(s.find(name), std::string::npos) << "metric " << name;
  }
}

// Adaptive routing steers minimal routes off loaded links under hotspot
// pressure — and stays strictly on stock routes when the knob is off.
TEST(FlowEndToEnd, AdaptiveRoutingReroutesUnderHotspot) {
  for (bool adaptive : {false, true}) {
    auto o = flow_options(12);
    o.flow.adaptive_routing = adaptive;
    auto m = lrts::make_machine(LayerKind::kUgni, o);
    const int received = run_hotspot(*m, 8, 16 * 1024);
    EXPECT_EQ(received, 11 * 8);
    const auto& st = m->network().stats();
    if (adaptive) {
      EXPECT_GT(st.adaptive_reroutes, 0u);
    } else {
      EXPECT_EQ(st.adaptive_reroutes, 0u);
    }
  }
}

// ------------------------------------------------------------ fault matrix ---

fault::FaultPlan base_plan() {
  fault::FaultPlan p;
  p.enabled = true;
  p.seed = 0xF10;
  return p;
}

/// k-neighbor exchange (same shape as the aggregation suite) returning
/// per-PE receive counts.
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

// The full 7-class fault matrix reruns with flow control AND adaptive
// routing on: pacing defers GETs and rerouting changes link orders, but
// retry/backoff must still deliver everything exactly once.
TEST(FlowFault, MatrixZeroLossWithFlowControlEnabled) {
  struct Case {
    const char* label;
    fault::FaultPlan plan;
  };
  std::vector<Case> cases;
  {
    Case c{"post_error", base_plan()};
    c.plan.p_post_error = 0.3;
    cases.push_back(c);
  }
  {
    Case c{"reg_error", base_plan()};
    c.plan.p_reg_error = 0.3;
    cases.push_back(c);
  }
  {
    Case c{"smsg_error", base_plan()};
    c.plan.p_smsg_error = 0.3;
    cases.push_back(c);
  }
  {
    Case c{"cq_overrun", base_plan()};
    c.plan.p_cq_overrun = 0.05;
    cases.push_back(c);
  }
  {
    Case c{"smsg_starve", base_plan()};
    c.plan.p_smsg_starve = 0.2;
    cases.push_back(c);
  }
  {
    Case c{"link_degrade", base_plan()};
    c.plan.p_link_degrade = 0.3;
    cases.push_back(c);
  }
  {
    Case c{"link_blackout", base_plan()};
    c.plan.p_link_blackout = 0.2;
    cases.push_back(c);
  }
  for (const Case& fc : cases) {
    auto o = flow_options(8);
    o.flow.adaptive_routing = true;
    o.fault = fc.plan;
    constexpr int kK = 2, kMsgs = 4;
    auto m = lrts::make_machine(LayerKind::kUgni, o);
    // 4 KiB payloads: rendezvous-size, so the faulted wire carries
    // governed GETs, not just SMSG.
    auto received = run_kneighbor(*m, kK, kMsgs, 4096);
    for (int pe = 0; pe < 8; ++pe) {
      EXPECT_EQ(received[static_cast<std::size_t>(pe)], 2 * kK * kMsgs)
          << fc.label << " pe " << pe;
    }
  }
}

// ------------------------------------------------------------ determinism ----

std::string traced_flow_run(std::uint64_t seed) {
  trace::EventTracer tracer(1u << 18);
  trace::set_tracer(&tracer);
  auto o = flow_options(8);
  o.flow.adaptive_routing = true;
  o.fault = base_plan();
  o.fault.seed = seed;
  o.fault.p_post_error = 0.2;
  o.fault.p_link_degrade = 0.2;
  auto m = lrts::make_machine(LayerKind::kUgni, o);
  const int received = run_hotspot(*m, 4, 8 * 1024);
  EXPECT_EQ(received, 7 * 4);
  m->collect_metrics();
  trace::set_tracer(nullptr);
  std::ostringstream out;
  tracer.write_csv(out);          // full virtual-time event timeline
  m->metrics().write_csv(out);    // plus the counter surface
  return out.str();
}

// Same seeds + same flow config => identical virtual-time timelines:
// estimator and governor state are pure functions of the deterministic
// reserve/completion sequences, so congestion control cannot introduce
// run-to-run divergence.
TEST(FlowDeterminism, SameSeedSameEventTraceWithFlowControl) {
  const std::string a = traced_flow_run(0xF10);
  const std::string b = traced_flow_run(0xF10);
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("injection_stall"), std::string::npos);
}

}  // namespace
}  // namespace ugnirt
