// The paper-anchor claims that do not hold yet, all three on the MPI side.
// The binary is built but not run by ctest; EXPERIMENTS.md lists the
// values each one fails with.  A claim moves to paper_anchor_test.cpp
// (tier-1) in the change that fixes it, or that rebands it with its
// reason recorded.
#include <gtest/gtest.h>

#include "apps/microbench/microbench.hpp"
#include "apps/namdmodel/namdmodel.hpp"

namespace ugnirt {
namespace {

using apps::bench::charm_bandwidth;
using apps::bench::charm_pingpong;
using apps::bench::PingPongOptions;
using apps::bench::pure_ugni_pingpong;
using converse::LayerKind;
using converse::MachineOptions;

MachineOptions layer_opts(LayerKind layer) {
  MachineOptions o;
  o.layer = layer;
  o.pes_per_node = 1;
  return o;
}

SimTime pp(LayerKind layer, std::uint32_t payload) {
  PingPongOptions p;
  p.payload = payload;
  return charm_pingpong(layer_opts(layer), p);
}

// ---- Figure 6: the no-pool runtime loses to MPI-CHARM++ at large sizes
//      but tracks pure uGNI for SMSG sizes ----

TEST(PaperFig6, InitialRuntimeShape) {
  MachineOptions no_pool = layer_opts(LayerKind::kUgni);
  no_pool.use_mempool = false;
  PingPongOptions small;
  small.payload = 256;
  PingPongOptions big;
  big.payload = 262144;
  big.reuse_buffer = false;

  gemini::MachineConfig mc;
  SimTime small_charm = charm_pingpong(no_pool, small);
  EXPECT_LT(small_charm, pp(LayerKind::kMpi, 256));       // small: wins
  SimTime big_charm = charm_pingpong(no_pool, big);
  PingPongOptions big_mpi = big;
  EXPECT_GT(big_charm, charm_pingpong(layer_opts(LayerKind::kMpi), big_mpi))
      << "Equation 1 costs must make the initial runtime lose big messages";
  EXPECT_LT(small_charm, pure_ugni_pingpong(mc, 256) + microseconds(2.0));
}

TEST(PaperFig9b, BandwidthGapClosesWithSize) {
  double ug_64k = charm_bandwidth(layer_opts(LayerKind::kUgni), 65536);
  double mp_64k = charm_bandwidth(layer_opts(LayerKind::kMpi), 65536);
  double ug_4m = charm_bandwidth(layer_opts(LayerKind::kUgni), 4 << 20);
  double mp_4m = charm_bandwidth(layer_opts(LayerKind::kMpi), 4 << 20);
  EXPECT_GT(ug_64k / mp_64k, 1.25);            // visible gap in the middle
  EXPECT_LT(ug_4m / mp_4m, ug_64k / mp_64k);   // which narrows with size
  EXPECT_GT(ug_4m, 5000.0);                    // approaching ~6 GB/s
}


// ---- Table II / Fig 13: NAMD improvements in the paper's band ----

TEST(PaperNamd, ImprovementWithinPaperBand) {
  apps::namdmodel::NamdConfig cfg;
  cfg.system = apps::namdmodel::dhfr();
  cfg.warmup_steps = 1;
  cfg.steps = 2;
  auto run = [&](LayerKind layer) {
    MachineOptions o;
    o.pes = 240;
    o.layer = layer;
    return apps::namdmodel::run_namd_model(o, cfg).ms_per_step;
  };
  double mpi = run(LayerKind::kMpi);
  double ugni = run(LayerKind::kUgni);
  double improvement = 100.0 * (mpi - ugni) / mpi;
  EXPECT_GT(improvement, 3.0);
  EXPECT_LT(improvement, 40.0);  // paper: ~10-18%
}

}  // namespace
}  // namespace ugnirt
