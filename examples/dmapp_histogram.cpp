// dmapp_histogram: the *other* Gemini programming model (paper §II-A).
//
// DMAPP serves "a logically shared, distributed memory programming model
// ... a good match for SHMEM and PGAS languages".  This example builds a
// distributed histogram the SHMEM way: every PE owns a slice of the bins
// in its symmetric heap, classifies local data, and updates remote bins
// with one-sided atomic fetch-adds — no receiver-side code at all, the
// defining contrast with the message-driven CHARM++ model the paper
// targets at uGNI instead.
//
// Usage: ./dmapp_histogram [pes] [items_per_pe] [bins]
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "sim/context.hpp"
#include "sim/engine.hpp"
#include "ugni/dmapp.hpp"
#include "util/rng.hpp"

using namespace ugnirt;

int main(int argc, char** argv) {
  const int pes = argc > 1 ? std::atoi(argv[1]) : 8;
  const int items = argc > 2 ? std::atoi(argv[2]) : 5000;
  const int bins = argc > 3 ? std::atoi(argv[3]) : 64;

  sim::Engine engine;
  gemini::Network network(engine.scheduler(), topo::Torus3D::for_nodes((pes + 1) / 2),
                          gemini::MachineConfig{});
  ugni::Domain domain(network);

  std::vector<std::unique_ptr<sim::Context>> ctx;
  for (int pe = 0; pe < pes; ++pe) {
    ctx.push_back(std::make_unique<sim::Context>(engine.scheduler(), pe));
  }

  sim::ScopedContext boot(*ctx[0]);
  dmapp::DmappJob job(domain, pes, /*sheap_bytes=*/64 * 1024);

  // Symmetric allocation: each PE holds bins_per_pe counters.
  const int bins_per_pe = (bins + pes - 1) / pes;
  std::uint64_t bins_off = 0;
  if (job.sheap_malloc(static_cast<std::uint64_t>(bins_per_pe) * 8,
                       &bins_off) != dmapp::DMAPP_RC_SUCCESS) {
    std::fprintf(stderr, "symmetric heap exhausted\n");
    return 1;
  }
  for (int pe = 0; pe < pes; ++pe) {
    auto* slice =
        static_cast<std::int64_t*>(job.addr_of(pe, bins_off));
    for (int b = 0; b < bins_per_pe; ++b) slice[b] = 0;
  }

  // Each PE classifies its items and atomically bumps the owning PE's bin.
  std::uint64_t total_updates = 0;
  for (int pe = 0; pe < pes; ++pe) {
    sim::ScopedContext guard(*ctx[pe]);
    Rng rng(0x415701ull ^ static_cast<std::uint64_t>(pe));
    for (int i = 0; i < items; ++i) {
      int bin = static_cast<int>(rng.next_below(
          static_cast<std::uint32_t>(bins)));
      int owner = bin / bins_per_pe;
      std::uint64_t off = bins_off +
                          static_cast<std::uint64_t>(bin % bins_per_pe) * 8;
      std::int64_t before = 0;
      dmapp::dmapp_return_t rc =
          job.afadd_qw(pe, owner, off, 1, &before);
      if (rc != dmapp::DMAPP_RC_SUCCESS) {
        std::fprintf(stderr, "afadd failed\n");
        return 1;
      }
      ++total_updates;
    }
  }
  engine.run();

  // Validate: the histogram total must equal the number of updates.
  std::int64_t sum = 0;
  std::int64_t max_bin = 0;
  for (int pe = 0; pe < pes; ++pe) {
    auto* slice =
        static_cast<std::int64_t*>(job.addr_of(pe, bins_off));
    for (int b = 0; b < bins_per_pe; ++b) {
      if (pe * bins_per_pe + b >= bins) break;
      sum += slice[b];
      max_bin = std::max(max_bin, slice[b]);
    }
  }
  SimTime worst = 0;
  for (int pe = 0; pe < pes; ++pe) {
    worst = std::max(worst, ctx[pe]->now());
  }

  std::printf("dmapp histogram: %d PEs x %d items into %d bins\n", pes,
              items, bins);
  std::printf("  updates       : %llu one-sided fetch-adds\n",
              static_cast<unsigned long long>(total_updates));
  std::printf("  histogram sum : %lld (%s)\n", static_cast<long long>(sum),
              sum == static_cast<std::int64_t>(total_updates) ? "MATCH"
                                                              : "MISMATCH");
  std::printf("  heaviest bin  : %lld\n", static_cast<long long>(max_bin));
  std::printf("  virtual time  : %.3f ms on the busiest PE\n", to_ms(worst));
  return sum == static_cast<std::int64_t>(total_updates) ? 0 : 2;
}
