// Aggregation layer (TRAM-lite) tests: the frame wire format, the flush
// policies (full / timer / idle / barrier), threshold bypass, delivery
// semantics (exactly-once, per-source FIFO, broadcast order), the fault
// matrix rerun with coalescing enabled, seeded determinism, and the
// observability surface (agg.* metrics + kAggFlush trace events).
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "aggregation/aggregation.hpp"
#include "aggregation/frame.hpp"
#include "converse/machine.hpp"
#include "fault/fault.hpp"
#include "lrts/runtime.hpp"
#include "trace/events.hpp"
#include "trace/metrics.hpp"
#include "trace/session.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace ugnirt {
namespace {

using converse::CmiAlloc;
using converse::CmiFree;
using converse::CmiMyPe;
using converse::CmiSetHandler;
using converse::CmiSyncBroadcastAllAndFree;
using converse::CmiSyncSendAndFree;
using converse::kCmiHeaderBytes;
using converse::LayerKind;
using converse::MachineOptions;

// ------------------------------------------------------------- the frame ----

// Property-style round-trip: random sub-message sizes pack into a frame
// and unpack byte-for-byte, in order, for many seeds.
TEST(AggFrame, PackUnpackRoundTripRandomSizes) {
  using namespace aggregation;
  for (std::uint64_t seed : {1ull, 2ull, 0xA66ull, 0xF00Dull}) {
    Rng rng(seed);
    std::vector<std::uint8_t> buf(2048);
    FrameWriter w(buf.data(), static_cast<std::uint32_t>(buf.size()));

    std::vector<std::vector<std::uint8_t>> packed;
    for (;;) {
      const std::uint32_t len =
          static_cast<std::uint32_t>(kCmiHeaderBytes) + rng.next_below(200);
      if (!w.fits(len)) break;
      std::vector<std::uint8_t> msg(len);
      for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next_u64());
      ASSERT_TRUE(w.append(msg.data(), len));
      packed.push_back(std::move(msg));
    }
    ASSERT_GT(packed.size(), 2u);  // the buffer holds several records
    EXPECT_EQ(w.count(), packed.size());

    std::size_t i = 0;
    const bool ok = for_each_submessage(
        buf.data(), w.bytes(), [&](const void* sub, std::uint32_t len) {
          ASSERT_LT(i, packed.size());
          EXPECT_EQ(len, packed[i].size());
          EXPECT_EQ(std::memcmp(sub, packed[i].data(), len), 0);
          // Readers may inspect the envelope in place: every sub-message
          // is aligned for CmiMsgHeader access.
          EXPECT_EQ(reinterpret_cast<std::uintptr_t>(sub) %
                        alignof(converse::CmiMsgHeader),
                    0u);
          ++i;
        });
    EXPECT_TRUE(ok);
    EXPECT_EQ(i, packed.size());
  }
}

TEST(AggFrame, RejectsMalformedFrames) {
  using namespace aggregation;
  std::vector<std::uint8_t> buf(512);
  FrameWriter w(buf.data(), static_cast<std::uint32_t>(buf.size()));
  std::vector<std::uint8_t> msg(kCmiHeaderBytes + 16, 0xAB);
  ASSERT_TRUE(w.append(msg.data(), static_cast<std::uint32_t>(msg.size())));
  auto nop = [](const void*, std::uint32_t) {};

  // Truncated below the frame header.
  EXPECT_FALSE(for_each_submessage(buf.data(), 4, nop));
  // Truncated mid-record.
  EXPECT_FALSE(for_each_submessage(buf.data(), w.bytes() - 8, nop));
  // Bad magic.
  auto bad = buf;
  bad[0] ^= 0xFF;
  EXPECT_FALSE(for_each_submessage(bad.data(), w.bytes(), nop));
  // Unknown version.
  bad = buf;
  bad[4] = 0x7F;
  EXPECT_FALSE(for_each_submessage(bad.data(), w.bytes(), nop));
  // The intact frame still validates.
  EXPECT_TRUE(for_each_submessage(buf.data(), w.bytes(), nop));
}

// ----------------------------------------------------------------- config ----

TEST(AggConfig, EnvOverridesApplyInMakeMachine) {
  ::setenv("UGNIRT_AGG_ENABLE", "1", 1);
  MachineOptions o;
  o.pes = 2;
  auto m = lrts::make_machine(LayerKind::kUgni, o);
  ::unsetenv("UGNIRT_AGG_ENABLE");
  EXPECT_TRUE(m->options().aggregation.enable);
  EXPECT_NE(m->aggregator(), nullptr);
}

// --------------------------------------------------------- traffic helper ----

MachineOptions agg_options(int pes, bool enable = true) {
  MachineOptions o;
  o.layer = LayerKind::kUgni;
  o.pes = pes;
  o.pes_per_node = 1;  // inter-node: the SMSG path the aggregator targets
  o.aggregation.enable = enable;
  return o;
}

/// k-neighbor exchange returning per-PE receive counts (loss/dup check).
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

// ------------------------------------------------------ threshold / flush ----

// Messages at or above aggregation::kThreshold bypass the aggregator
// entirely; below it they coalesce.  The boundary is exclusive:
// == threshold goes direct.
TEST(AggThreshold, BoundaryIsExclusive) {
  for (bool at_threshold : {true, false}) {
    auto o = agg_options(2);
    const std::uint32_t total =
        at_threshold ? aggregation::kThreshold : aggregation::kThreshold - 8;
    ASSERT_GE(total, kCmiHeaderBytes);
    auto m = lrts::make_machine(LayerKind::kUgni, o);
    int got = 0;
    int h = m->register_handler([&](void* msg) {
      ++got;
      CmiFree(msg);
    });
    m->start(0, [&, h] {
      for (int i = 0; i < 8; ++i) {
        void* msg = CmiAlloc(total);
        CmiSetHandler(msg, h);
        CmiSyncSendAndFree(1, total, msg);
      }
    });
    m->run();
    EXPECT_EQ(got, 8);
    const std::uint64_t batched = m->metrics().counter("agg.batched").value();
    if (at_threshold) {
      EXPECT_EQ(batched, 0u) << "== threshold must go direct";
    } else {
      EXPECT_GT(batched, 0u) << "< threshold must coalesce";
      EXPECT_GT(m->metrics().counter("agg.flushes").value(), 0u);
    }
  }
}

// A lone small message on a busy PE (never idle, buffer never full) must
// still leave within aggregation::kMaxDelayNs — the timer flush, measured
// in virtual time.
TEST(AggFlush, TimerBoundsStragglerLatency) {
  auto o = agg_options(2);
  const SimTime max_delay = aggregation::kMaxDelayNs;
  auto m = lrts::make_machine(LayerKind::kUgni, o);

  SimTime sent_at = -1, arrived_at = -1;
  const std::uint32_t total = kCmiHeaderBytes + 64;

  int h_recv = m->register_handler([&](void* msg) {
    arrived_at = static_cast<SimTime>(converse::CmiWallTimer() * 1e9);
    CmiFree(msg);
  });
  // Self-message pump: keeps PE0's scheduler queue non-empty for ~500us of
  // virtual time, so neither the idle flush nor run() draining can ship
  // the straggler — only the deadline timer can.
  int pump_left = 100;
  int h_pump = -1;
  h_pump = m->register_handler([&](void* msg) {
    CmiFree(msg);
    converse::CmiChargeWork(5000);
    if (--pump_left > 0) {
      void* next = CmiAlloc(kCmiHeaderBytes);
      CmiSetHandler(next, h_pump);
      CmiSyncSendAndFree(0, kCmiHeaderBytes, next);
    }
  });
  m->start(0, [&] {
    sent_at = static_cast<SimTime>(converse::CmiWallTimer() * 1e9);
    void* msg = CmiAlloc(total);
    CmiSetHandler(msg, h_recv);
    CmiSyncSendAndFree(1, total, msg);
    void* pump = CmiAlloc(kCmiHeaderBytes);
    CmiSetHandler(pump, h_pump);
    CmiSyncSendAndFree(0, kCmiHeaderBytes, pump);
  });
  m->run();

  ASSERT_GE(sent_at, 0);
  ASSERT_GE(arrived_at, 0);
  const SimTime latency = arrived_at - sent_at;
  // Cannot leave before the deadline (not full, never idle)...
  EXPECT_GE(latency, max_delay);
  // ...and must leave promptly once it fires (wire + delivery slack).
  EXPECT_LE(latency, max_delay + 20000);
  EXPECT_GE(m->metrics().counter("agg.flush_timeout").value(), 1u);
}

// ------------------------------------------------------ delivery semantics ---

// A handler that relays its (runtime-owned, in-place) sub-message onward
// exercises the clone guard: the relayed bytes must survive the batch
// buffer being freed.
TEST(AggDelivery, RelayedSubMessagesSurviveBatchFree) {
  auto m = lrts::make_machine(LayerKind::kUgni, agg_options(3));
  const std::uint32_t total = kCmiHeaderBytes + 48;
  constexpr int kMsgs = 12;
  int ok_at_2 = 0;
  int h_sink = m->register_handler([&](void* msg) {
    auto* p = static_cast<std::uint8_t*>(converse::payload_of(msg));
    bool ok = true;
    for (std::uint32_t i = 0; i < 48; ++i) ok = ok && p[i] == 0x5A;
    ok_at_2 += ok ? 1 : 0;
    CmiFree(msg);
  });
  int h_relay = m->register_handler([&, h_sink](void* msg) {
    // Forward the very same buffer; the runtime clones if it must.
    CmiSetHandler(msg, h_sink);
    CmiSyncSendAndFree(2, converse::header_of(msg)->size, msg);
  });
  m->start(0, [&, h_relay] {
    for (int i = 0; i < kMsgs; ++i) {
      void* msg = CmiAlloc(total);
      std::memset(converse::payload_of(msg), 0x5A, 48);
      CmiSetHandler(msg, h_relay);
      CmiSyncSendAndFree(1, total, msg);
    }
  });
  m->run();
  EXPECT_EQ(ok_at_2, kMsgs);
}

// Small broadcasts route through submit() and therefore aggregate; each
// PE must still observe every broadcast exactly once, in send order.
TEST(AggBroadcast, PerPeDeliveryOrderPreserved) {
  constexpr int kPes = 6, kBcasts = 20;
  auto m = lrts::make_machine(LayerKind::kUgni, agg_options(kPes));
  std::vector<std::vector<int>> seen(kPes);
  int h = m->register_handler([&](void* msg) {
    int seq;
    std::memcpy(&seq, converse::payload_of(msg), sizeof(seq));
    seen[static_cast<std::size_t>(CmiMyPe())].push_back(seq);
    CmiFree(msg);
  });
  const std::uint32_t total = kCmiHeaderBytes + sizeof(int);
  m->start(0, [&, h] {
    for (int seq = 0; seq < kBcasts; ++seq) {
      void* msg = CmiAlloc(total);
      std::memcpy(converse::payload_of(msg), &seq, sizeof(seq));
      CmiSetHandler(msg, h);
      CmiSyncBroadcastAllAndFree(total, msg);
    }
  });
  m->run();
  for (int pe = 0; pe < kPes; ++pe) {
    const auto& v = seen[static_cast<std::size_t>(pe)];
    ASSERT_EQ(v.size(), static_cast<std::size_t>(kBcasts)) << "pe " << pe;
    for (int seq = 0; seq < kBcasts; ++seq) {
      EXPECT_EQ(v[static_cast<std::size_t>(seq)], seq)
          << "pe " << pe << " position " << seq;
    }
  }
  EXPECT_GT(m->metrics().counter("agg.batched").value(), 0u);
}

// ------------------------------------------------------------ fault matrix ---

fault::FaultPlan base_plan() {
  fault::FaultPlan p;
  p.enabled = true;
  p.seed = 0xFA17;
  return p;
}

// The full fault matrix reruns with aggregation enabled, in both uGNI
// modes: batches are ordinary messages, so retry/backoff/demotion must
// deliver every coalesced payload exactly once under every fault class.
TEST(AggFault, MatrixZeroLossWithAggregationEnabled) {
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
  for (bool smp : {false, true}) {
    SCOPED_TRACE(smp ? "SMP" : "uGNI");
    for (const Case& fc : cases) {
      auto o = agg_options(8);
      o.pes_per_node = 2;
      o.smp_mode = smp;
      o.fault = fc.plan;
      auto m = lrts::make_machine(LayerKind::kUgni, o);
      constexpr int kK = 2, kMsgs = 6;
      // 64-byte payloads: well under the threshold, so the faulted wire
      // carries aggregation batches, not singles.
      auto received = run_kneighbor(*m, kK, kMsgs, 64);
      for (int pe = 0; pe < 8; ++pe) {
        EXPECT_EQ(received[static_cast<std::size_t>(pe)], 2 * kK * kMsgs)
            << fc.label << " pe " << pe;
      }
      EXPECT_GT(m->metrics().counter("agg.batched").value(), 0u)
          << fc.label;
    }
  }
}

// ------------------------------------------------------------ determinism ----

std::string traced_agg_run(std::uint64_t seed) {
  trace::EventTracer tracer(1u << 18);
  trace::SinkScope sinks(&tracer, nullptr);
  auto o = agg_options(6);
  o.pes_per_node = 2;
  o.fault = base_plan();
  o.fault.seed = seed;
  o.fault.p_post_error = 0.2;
  o.fault.p_smsg_error = 0.2;
  auto m = lrts::make_machine(LayerKind::kUgni, o);
  auto received = run_kneighbor(*m, 2, 4, 64);
  for (int pe = 0; pe < 6; ++pe) {
    EXPECT_EQ(received[static_cast<std::size_t>(pe)], 16) << "pe " << pe;
  }
  EXPECT_GT(tracer.count_of(trace::Ev::kAggFlush), 0u);
  std::ostringstream csv;
  tracer.write_csv(csv);
  return csv.str();
}

TEST(AggDeterminism, SameSeedSameEventTraceWithAggregation) {
  std::string a = traced_agg_run(0xFA17);
  std::string b = traced_agg_run(0xFA17);
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------------- observability ----

TEST(AggObservability, MetricsAndChromeTraceCarryAggregation) {
  trace::EventTracer tracer(1u << 18);
  trace::SinkScope sinks(&tracer, nullptr);
  auto m = lrts::make_machine(LayerKind::kUgni, agg_options(4));
  auto received = run_kneighbor(*m, 1, 16, 32);
  for (int pe = 0; pe < 4; ++pe) {
    EXPECT_EQ(received[static_cast<std::size_t>(pe)], 32) << "pe " << pe;
  }
  m->collect_metrics();

  std::ostringstream csv;
  m->metrics().write_csv(csv);
  const std::string s = csv.str();
  for (const char* name : {"agg.batched", "agg.flushes", "agg.flush_full",
                           "agg.flush_timeout", "agg.flush_idle",
                           "agg.flush_size_hist", "agg.flush_bytes_hist"}) {
    EXPECT_NE(s.find(name), std::string::npos) << "metric " << name;
  }
  EXPECT_GT(m->metrics().counter("agg.batched").value(), 0u);

  EXPECT_GT(tracer.count_of(trace::Ev::kAggFlush), 0u);
  std::ostringstream chrome;
  tracer.write_chrome_json(chrome);
  EXPECT_NE(chrome.str().find("agg_flush"), std::string::npos);
}

TEST(AggObservability, FlushSizesAreHistograms) {
  auto m = lrts::make_machine(LayerKind::kUgni, agg_options(4));
  run_kneighbor(*m, 1, 16, 32);
  m->collect_metrics();
  const std::uint64_t flushes = m->metrics().counter("agg.flushes").value();
  ASSERT_GT(flushes, 0u);
  for (const char* name : {"agg.flush_size_hist", "agg.flush_bytes_hist"}) {
    const trace::Histogram* h = m->metrics().find_histogram(name);
    ASSERT_NE(h, nullptr) << name;
    EXPECT_EQ(h->count(), flushes) << name;
    EXPECT_GE(h->p99(), h->p50()) << name;
  }
}

}  // namespace
}  // namespace ugnirt
