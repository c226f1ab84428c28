// Host hot-path microbenchmark (google-benchmark): the engine's callback
// type measured in isolation.
//
//   * BM_SmallFnBind — SmallFn (72-byte inline SBO) vs std::function for
//     an engine-sized capture: construct + invoke + destroy.
//
// Like micro_components, this measures *host* performance only.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <functional>

#include "sim/small_fn.hpp"

namespace {

using namespace ugnirt;

// One engine-typical capture: two pointers + a couple of scalars.
struct Capture {
  void* a = nullptr;
  void* b = nullptr;
  std::uint64_t t = 0;
  std::uint32_t n = 0;
};

void BM_SmallFnBind(benchmark::State& state) {
  const bool small = state.range(0) != 0;
  Capture c;
  std::uint64_t sink = 0;
  for (auto _ : state) {
    c.t = sink;
    if (small) {
      sim::SmallFn fn([c, &sink] { sink += c.t + c.n; });
      fn();
    } else {
      std::function<void()> fn([c, &sink] { sink += c.t + c.n; });
      fn();
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(small ? "SmallFn" : "std::function");
}
BENCHMARK(BM_SmallFnBind)->Arg(0)->Arg(1);

}  // namespace

BENCHMARK_MAIN();
