// Real-time component benchmarks (google-benchmark): hot paths of the
// simulator itself — event engine, memory pool, torus routing, and the
// N-Queens kernel.  These measure *host* performance, unlike the figure
// benches which report virtual time.
#include <benchmark/benchmark.h>

#include "apps/nqueens/solver.hpp"
#include "gemini/network.hpp"
#include "mempool/mempool.hpp"
#include "sim/context.hpp"
#include "sim/engine.hpp"
#include "topo/torus.hpp"

namespace {

using namespace ugnirt;

void BM_EngineScheduleRun(benchmark::State& state) {
  const int events = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    std::uint64_t sink = 0;
    for (int i = 0; i < events; ++i) {
      engine.schedule_at((i * 7919) % 100000,
                         [&sink, i] { sink += static_cast<std::uint64_t>(i); });
    }
    engine.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_EngineScheduleRun)->Arg(1000)->Arg(100000);

void BM_TorusRoute(benchmark::State& state) {
  topo::Torus3D torus(16, 12, 8);
  int a = 0;
  for (auto _ : state) {
    a = (a + 577) % torus.nodes();
    int b = (a * 31 + 7) % torus.nodes();
    auto route = torus.route(a, b);
    benchmark::DoNotOptimize(route.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TorusRoute);

void BM_NetworkTransfer(benchmark::State& state) {
  sim::Engine engine;
  gemini::Network net(engine.scheduler(), topo::Torus3D::for_nodes(64),
                      gemini::MachineConfig{});
  SimTime t = 0;
  int i = 0;
  for (auto _ : state) {
    gemini::TransferRequest req;
    req.mech = (i & 1) ? gemini::Mechanism::kBtePut : gemini::Mechanism::kSmsg;
    req.initiator_node = i % 64;
    req.remote_node = (i * 13 + 1) % 64;
    req.bytes = 1024;
    req.issue = t;
    auto res = net.transfer(req);
    t = res.cpu_done;
    ++i;
    benchmark::DoNotOptimize(res);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NetworkTransfer);

void BM_MemPoolAllocFree(benchmark::State& state) {
  sim::Engine engine;
  gemini::Network net(engine.scheduler(), topo::Torus3D::for_nodes(2),
                      gemini::MachineConfig{});
  ugni::Domain dom(net);
  sim::Context ctx(engine.scheduler(), 0);
  sim::ScopedContext guard(ctx);
  ugni::gni_nic_handle_t nic = nullptr;
  ugni::GNI_CdmAttach(&dom, 0, 0, &nic);
  mempool::HostArena arena;
  mempool::MemPool pool(arena, nic, 1 << 20);
  const std::size_t size = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    void* p = pool.alloc(size);
    benchmark::DoNotOptimize(p);
    pool.free(p);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MemPoolAllocFree)->Arg(88)->Arg(4096)->Arg(65536);

void BM_NQueensSolver(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto r = ugnirt::apps::nqueens::solve_all(n);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_NQueensSolver)->Arg(8)->Arg(10)->Arg(12);

}  // namespace

BENCHMARK_MAIN();
