// Every config knob is declared once, in its struct's fields() list; these
// tests check that list against a frozen key set, that each knob reads
// back exactly from the environment, that make_machine keeps values over
// their full range, and that the env names of retired knobs change
// nothing.
#include <gtest/gtest.h>

#include <concepts>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "aggregation/config.hpp"
#include "converse/machine.hpp"
#include "fault/fault.hpp"
#include "flowcontrol/config.hpp"
#include "gemini/machine_config.hpp"
#include "lrts/runtime.hpp"
#include "tenancy/config.hpp"
#include "trace/spans.hpp"
#include "util/config.hpp"

namespace ugnirt {
namespace {

using converse::LayerKind;
using converse::MachineOptions;

// The 69 knobs.  Adding, renaming or dropping one is a deliberate change
// to this list (and to the env names derived from it).
const std::set<std::string> kFrozenKeys = {
    "gemini.cores_per_node", "gemini.hop_ns", "gemini.link_bw",
    "gemini.smsg_cpu_send_ns", "gemini.smsg_wire_startup_ns",
    "gemini.smsg_per_byte_ns", "gemini.smsg_max_bytes",
    "gemini.smsg_mailbox_credits",
    "gemini.cq_entries", "gemini.fma_put_startup_ns",
    "gemini.fma_get_startup_ns", "gemini.fma_bw", "gemini.fma_desc_ns",
    "gemini.bte_put_startup_ns", "gemini.bte_get_startup_ns",
    "gemini.bte_bw", "gemini.bte_desc_ns", "gemini.malloc_base_ns",
    "gemini.malloc_per_page_ns", "gemini.free_base_ns",
    "gemini.mem_reg_base_ns", "gemini.mem_reg_per_page_ns",
    "gemini.mem_dereg_base_ns", "gemini.mem_dereg_per_page_ns",
    "gemini.page_bytes", "gemini.memcpy_base_ns", "gemini.memcpy_bw",
    "gemini.cq_poll_ns", "gemini.cq_event_ns", "gemini.mempool_alloc_ns",
    "gemini.mempool_free_ns", "gemini.mempool_init_bytes",
    "gemini.charm_send_overhead_ns", "gemini.charm_recv_overhead_ns",
    "gemini.sched_loop_ns", "gemini.agg_item_overhead_ns",
    "gemini.rdma_threshold", "gemini.mpi_call_overhead_ns",
    "gemini.mpi_match_ns", "gemini.mpi_iprobe_ns",
    "gemini.mpi_iprobe_scan_ns", "gemini.mpi_iprobe_conn_ns",
    "gemini.mpi_iprobe_conn_free", "gemini.mpi_eager_threshold",
    "gemini.mpi_rdma_threshold", "gemini.udreg_capacity",
    "gemini.udreg_hit_ns", "gemini.mpi_xpmem_threshold",
    "gemini.mpi_xpmem_overhead_ns", "gemini.mpi_shm_notify_ns",
    "gemini.mpi_mailbox_credits", "gemini.pxshm_notify_ns",
    "gemini.pxshm_poll_ns",
    "fault.enabled", "fault.seed", "fault.p_post_error", "fault.p_reg_error",
    "fault.p_smsg_error", "fault.p_cq_overrun", "fault.p_smsg_starve",
    "fault.p_link_degrade", "fault.p_link_blackout",
    "flow.enable", "flow.adaptive_routing",
    "agg.enable",
    "tenancy.placement", "tenancy.qos_enable",
    "span.sample", "span.max_spans",
};

// Every knob printed as text that parse_into reads back exactly.
std::string format_field(bool v) { return v ? "true" : "false"; }
std::string format_field(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}
std::string format_field(const std::string& v) { return v; }
template <std::integral I>
std::string format_field(I v) {
  return std::to_string(v);
}

/// Every knob of `t`, as "<prefix>.<name>" -> exact text.
template <class T>
std::map<std::string, std::string> field_values(T t) {
  std::map<std::string, std::string> out;
  t.fields([&](const char* name, auto& field) {
    out[std::string(T::kConfigPrefix) + "." + name] = format_field(field);
  });
  return out;
}

/// A value unlike `v`, inside every struct's sanitization bounds.  Doubles
/// get a 1e-7 nudge that six-digit printing would lose.
bool other(bool v) { return !v; }
double other(double v) { return v + 1e-7; }
std::string other(const std::string& v) {
  return v == "scatter" ? "random" : "scatter";
}
template <std::integral I>
I other(I v) {
  return static_cast<I>(v + 1);
}

template <class T>
T non_default() {
  T t;
  t.fields([](const char*, auto& field) { field = other(field); });
  return t;
}

template <class T>
void expect_reads_every_knob() {
  const auto values = field_values(non_default<T>());
  ASSERT_NE(values, field_values(T{}));

  for (const auto& [key, value] : values) {
    ::setenv(to_env_name(key).c_str(), value.c_str(), 1);
  }
  T from_env;
  overlay_env(from_env);
  for (const auto& [key, value] : values) {
    ::unsetenv(to_env_name(key).c_str());
  }
  EXPECT_EQ(field_values(from_env), values) << T::kConfigPrefix;
}

TEST(ConfigFields, KeySetIsFrozen) {
  std::set<std::string> keys;
  auto add = [&](const auto& t) {
    for (const auto& [key, value] : field_values(t)) {
      EXPECT_TRUE(keys.insert(key).second) << "duplicate " << key;
    }
  };
  add(gemini::MachineConfig{});
  add(fault::FaultPlan{});
  add(flowcontrol::FlowConfig{});
  add(aggregation::AggregationConfig{});
  add(tenancy::TenancyConfig{});
  add(trace::SpanConfig{});
  EXPECT_EQ(keys.size(), 69u);
  EXPECT_EQ(keys, kFrozenKeys);
  EXPECT_EQ(to_env_name("fault.p_post_error"), "UGNIRT_FAULT_P_POST_ERROR");
}

TEST(ConfigFields, EveryKnobReadsBackFromEnv) {
  expect_reads_every_knob<gemini::MachineConfig>();
  expect_reads_every_knob<fault::FaultPlan>();
  expect_reads_every_knob<flowcontrol::FlowConfig>();
  expect_reads_every_knob<aggregation::AggregationConfig>();
  expect_reads_every_knob<tenancy::TenancyConfig>();
  expect_reads_every_knob<trace::SpanConfig>();
}

TEST(ConfigFields, ParseIntoCoversTheFieldTypeAndRejectsTheRest) {
  std::uint32_t u32 = 7;
  EXPECT_TRUE(parse_into("4294967295", u32));
  EXPECT_EQ(u32, 4294967295u);
  EXPECT_FALSE(parse_into("4294967296", u32));
  EXPECT_FALSE(parse_into("-1", u32));
  EXPECT_FALSE(parse_into(" -1", u32));
  EXPECT_EQ(u32, 4294967295u);

  std::uint64_t u64 = 7;
  EXPECT_TRUE(parse_into("0xF000000000000001", u64));
  EXPECT_EQ(u64, 0xF000000000000001u);
  EXPECT_FALSE(parse_into("18446744073709551616", u64));

  int i = 7;
  EXPECT_TRUE(parse_into("-2147483648", i));
  EXPECT_EQ(i, std::numeric_limits<int>::min());
  EXPECT_FALSE(parse_into("2147483648", i));
  EXPECT_FALSE(parse_into("12abc", i));
  EXPECT_FALSE(parse_into("", i));
  EXPECT_EQ(i, std::numeric_limits<int>::min());

  double d = 1.0;
  EXPECT_TRUE(parse_into("1e-7", d));
  EXPECT_EQ(d, 1e-7);
  EXPECT_FALSE(parse_into("0.5x", d));
  EXPECT_EQ(d, 1e-7);

  bool b = false;
  for (const char* yes : {"1", "true", "YES", "On"}) {
    b = false;
    EXPECT_TRUE(parse_into(yes, b) && b) << yes;
  }
  for (const char* no : {"0", "False", "no", "OFF"}) {
    b = true;
    EXPECT_TRUE(parse_into(no, b) && !b) << no;
  }
  EXPECT_FALSE(parse_into("maybe", b));
}

// Values set in code reach the machine exactly: a double keeps digits past
// the sixth decimal and a seed keeps its top bit.
TEST(ConfigFields, MakeMachineKeepsExactProgrammaticValues) {
  MachineOptions o;
  o.pes = 2;
  o.fault.p_post_error = 1e-7;
  o.fault.seed = 0xF000000000000001u;
  o.mc.smsg_per_byte_ns = 4e-7;
  auto m = lrts::make_machine(LayerKind::kUgni, o);
  EXPECT_EQ(m->options().fault.p_post_error, 1e-7);
  EXPECT_EQ(m->options().fault.seed, 0xF000000000000001u);
  EXPECT_EQ(m->options().mc.smsg_per_byte_ns, 4e-7);
}

TEST(ConfigFields, EnvSeedTakesTheFullUint64Range) {
  ::setenv("UGNIRT_FAULT_SEED", "17293822569102704641", 1);
  MachineOptions o;
  o.pes = 2;
  auto m = lrts::make_machine(LayerKind::kUgni, o);
  ::unsetenv("UGNIRT_FAULT_SEED");
  EXPECT_EQ(m->options().fault.seed, 17293822569102704641u);
}

TEST(ConfigFields, NegativeEnvLeavesAnUnsignedKnobAlone) {
  ::setenv("UGNIRT_GEMINI_RDMA_THRESHOLD", "-1", 1);
  MachineOptions o;
  o.pes = 2;
  auto m = lrts::make_machine(LayerKind::kUgni, o);
  ::unsetenv("UGNIRT_GEMINI_RDMA_THRESHOLD");
  EXPECT_EQ(m->options().mc.rdma_threshold, 4096u);
}

// The env names of knobs that became named constants.
constexpr std::pair<const char*, const char*> kRetiredEnv[] = {
    {"UGNIRT_FLOW_EWMA_ALPHA", "0.5"},
    {"UGNIRT_FLOW_WINDOW_MIN", "1"},
    {"UGNIRT_FLOW_WINDOW_MAX", "3"},
    {"UGNIRT_FLOW_WINDOW_START", "1"},
    {"UGNIRT_FAULT_SMSG_STARVE_NS", "200000"},
    {"UGNIRT_FAULT_LINK_SLOWDOWN", "16"},
    {"UGNIRT_TENANCY_ENABLE", "1"},
    {"UGNIRT_TENANCY_SEED", "77"},
    {"UGNIRT_TENANCY_JOBS", "ghost:latency:8"},
    {"UGNIRT_TENANCY_QOS_LATENCY_FLOOR", "17"},
    {"UGNIRT_TENANCY_QOS_BULK_CEILING", "3"},
};

/// Seeded 8-PE kNeighbor (k=2, 4 KiB rendezvous messages) under flow
/// control and a starvation + link-degrade fault plan: the engine's end
/// time followed by the metrics CSV without its host-memory rows.
std::string flow_fault_kneighbor() {
  MachineOptions o;
  o.pes = 8;
  o.pes_per_node = 1;
  o.flow.enable = true;
  o.fault.enabled = true;
  o.fault.p_post_error = 0.1;
  o.fault.p_smsg_starve = 0.2;
  o.fault.p_link_degrade = 0.3;
  auto m = lrts::make_machine(LayerKind::kUgni, o);
  const auto total =
      static_cast<std::uint32_t>(4096 + converse::kCmiHeaderBytes);
  std::vector<int> received(8, 0);
  const int h = m->register_handler([&](void* msg) {
    ++received[static_cast<std::size_t>(converse::CmiMyPe())];
    converse::CmiFree(msg);
  });
  for (int pe = 0; pe < 8; ++pe) {
    m->start(pe, [pe, total, h] {
      for (int i = 0; i < 4; ++i) {
        for (int d : {-2, -1, 1, 2}) {
          void* msg = converse::CmiAlloc(total);
          converse::CmiSetHandler(msg, h);
          converse::CmiSyncSendAndFree((pe + d + 8) % 8, total, msg);
        }
      }
    });
  }
  m->run();
  EXPECT_EQ(received, std::vector<int>(8, 16));
  m->collect_metrics();
  std::ostringstream csv;
  m->metrics().write_csv(csv);
  std::istringstream in(csv.str());
  std::string out = std::to_string(m->engine().now()) + "\n";
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("mempool.host_bytes", 0) != 0) out += line + "\n";
  }
  return out;
}

// A stale env var naming a retired knob is ignored like any unknown name,
// so it moves neither virtual time nor a statistic.
TEST(ConfigFields, RetiredEnvNamesChangeNothing) {
  const std::string stock = flow_fault_kneighbor();
  for (const auto& [name, value] : kRetiredEnv) ::setenv(name, value, 1);
  const std::string with_env = flow_fault_kneighbor();
  for (const auto& [name, value] : kRetiredEnv) ::unsetenv(name);
  EXPECT_EQ(with_env, stock);
}

}  // namespace
}  // namespace ugnirt
