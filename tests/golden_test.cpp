// Golden virtual-time digests of the Figure 10 kNeighbor traffic.
//
// Each run is the fig10 sweep (3 PEs on 3 nodes, k=1, 32 B .. 1 MiB,
// 8 iterations) on one layer (uGNI or SMP) under one option set made in
// code (none, the CI fault plan, flow+agg, fault+flow+agg), with event
// tracing and every-message span sampling installed.  A run is reduced to
// four FNV-1a 64 hashes: the per-size result times, the events CSV, the
// spans JSON and the metrics CSV without its host-memory rows
// (mempool.host_bytes*).  The test compares them with
// tests/data/golden/fig10.txt, so a change that moves one simulated event,
// span or statistic fails here.  ConcurrentMachines computes the uGNI and
// SMP none/fault lines on two threads at once and checks the same file.
//
// `test_golden --update` rewrites the file from the current tree instead
// of comparing.  Regenerate only for a change meant to move virtual time.
// The MPI layer is left out: its different-buffer path keys on real heap
// addresses.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/microbench/microbench.hpp"
#include "trace/events.hpp"
#include "trace/metrics.hpp"
#include "trace/session.hpp"
#include "trace/spans.hpp"

namespace ugnirt {
namespace {

bool g_update = false;
std::map<std::string, std::string> g_computed;  // run name -> digest line

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// The metrics CSV without host-memory rows, which follow the allocator
/// rather than virtual time.
std::string virtual_rows(const trace::MetricsRegistry& reg) {
  std::ostringstream csv;
  reg.write_csv(csv);
  std::istringstream in(csv.str());
  std::string out, line;
  while (std::getline(in, line)) {
    if (line.rfind("mempool.host_bytes", 0) == 0) continue;
    out += line;
    out += '\n';
  }
  return out;
}

void fault_plan(converse::MachineOptions& o) {
  o.fault.enabled = true;
  o.fault.seed = 64023;  // 0xFA17
  o.fault.p_post_error = 0.1;
  o.fault.p_reg_error = 0.1;
  o.fault.p_smsg_error = 0.1;
  o.fault.p_cq_overrun = 0.02;
  o.fault.p_smsg_starve = 0.1;
  o.fault.p_link_degrade = 0.1;
  o.fault.p_link_blackout = 0.02;
}

void flow_agg(converse::MachineOptions& o) {
  o.flow.enable = true;
  o.flow.adaptive_routing = true;
  o.aggregation.enable = true;
}

struct Variant {
  const char* name;
  bool fault;
  bool flow_agg;
};

constexpr Variant kVariants[] = {
    {"none", false, false},
    {"fault", true, false},
    {"flowagg", false, true},
    {"fault_flowagg", true, true},
};

/// One run reduced to "<name> result=.. events=.. spans=.. metrics=..".
std::string digest(bool smp, const Variant& v) {
  converse::MachineOptions o;
  o.layer = converse::LayerKind::kUgni;
  o.smp_mode = smp;
  o.pes = 3;
  o.pes_per_node = 1;
  if (v.fault) fault_plan(o);
  if (v.flow_agg) flow_agg(o);

  trace::EventTracer tracer(1u << 16);
  trace::SpanConfig span_cfg;
  span_cfg.sample = 1;
  trace::SpanCollector spans(span_cfg);
  trace::MetricsRegistry metrics;
  std::ostringstream results;
  {
    trace::SinkScope sinks(&tracer, &spans);
    for (std::uint32_t size = 32; size <= 1024 * 1024; size *= 2) {
      results << size << ' '
              << apps::bench::charm_kneighbor(o, size, /*k=*/1, /*iters=*/8,
                                              &metrics)
              << '\n';
    }
  }
  spans.fill_histograms(metrics);

  std::ostringstream events, span_json;
  tracer.write_csv(events);
  spans.write_chrome_json(span_json);
  return std::string(smp ? "smp/" : "ugni/") + v.name +
         " result=" + hex(fnv1a(results.str())) +
         " events=" + hex(fnv1a(events.str())) +
         " spans=" + hex(fnv1a(span_json.str())) +
         " metrics=" + hex(fnv1a(virtual_rows(metrics)));
}

/// Golden lines keyed by run name; '#' lines are comments.
std::map<std::string, std::string> read_golden() {
  std::map<std::string, std::string> lines;
  std::ifstream in(UGNIRT_GOLDEN_FILE);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    lines[line.substr(0, line.find(' '))] = line;
  }
  return lines;
}

void write_golden(const std::map<std::string, std::string>& lines) {
  std::ofstream out(UGNIRT_GOLDEN_FILE);
  out << "# FNV-1a 64 digests of the fig10 kNeighbor sweep; see "
         "tests/golden_test.cpp.\n"
         "# Rewrite with `test_golden --update`.\n";
  for (const auto& [name, line] : lines) out << line << '\n';
}

class Fig10 : public ::testing::TestWithParam<bool> {};

TEST_P(Fig10, MatchesGoldenDigests) {
  const bool smp = GetParam();
  const std::map<std::string, std::string> golden = read_golden();
  for (const Variant& v : kVariants) {
    const std::string line = digest(smp, v);
    const std::string name = line.substr(0, line.find(' '));
    g_computed[name] = line;
    if (g_update) continue;
    auto it = golden.find(name);
    ASSERT_NE(it, golden.end()) << name << " missing from " << UGNIRT_GOLDEN_FILE;
    EXPECT_EQ(line, it->second);
  }
}

INSTANTIATE_TEST_SUITE_P(Golden, Fig10, ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& p) {
                           return p.param ? "smp" : "ugni";
                         });

// Machines keep no process-wide state: the uGNI and SMP runs, each on its
// own thread under its own sinks and at the same time, give the digests
// they give alone.
TEST(ConcurrentMachines, TwoThreadsMatchTheirGoldenLines) {
  if (g_update) GTEST_SKIP() << "--update compares nothing";
  const std::map<std::string, std::string> golden = read_golden();
  std::vector<std::string> lines[2];
  std::thread threads[2];
  for (int smp = 0; smp < 2; ++smp) {
    threads[smp] = std::thread([&lines, smp] {
      for (const Variant& v : {kVariants[0], kVariants[1]}) {
        lines[smp].push_back(digest(smp == 1, v));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::vector<std::string>& per_thread : lines) {
    for (const std::string& line : per_thread) {
      auto it = golden.find(line.substr(0, line.find(' ')));
      ASSERT_NE(it, golden.end()) << line;
      EXPECT_EQ(line, it->second);
    }
  }
}

}  // namespace
}  // namespace ugnirt

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--update") ugnirt::g_update = true;
  }
  const int rc = RUN_ALL_TESTS();
  if (ugnirt::g_update && rc == 0) {
    // Keep runs a --gtest_filter left out.
    std::map<std::string, std::string> lines = ugnirt::read_golden();
    for (const auto& [name, line] : ugnirt::g_computed) lines[name] = line;
    ugnirt::write_golden(lines);
  }
  return rc;
}
