// Parameterized physics and runtime properties of minimd.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <tuple>

#include "apps/minimd/minimd.hpp"

namespace ugnirt::apps::minimd {
namespace {

using converse::LayerKind;
using converse::MachineOptions;

// ---- conservation holds across decompositions and layers ----

using MdParam = std::tuple<int, int, LayerKind>;  // grid, pes, layer

class MdGrid : public ::testing::TestWithParam<MdParam> {};

TEST_P(MdGrid, EnergyAndMomentumConserved) {
  auto [grid, pes, layer] = GetParam();
  MdConfig cfg;
  cfg.patches_x = cfg.patches_y = cfg.patches_z = grid;
  cfg.steps = 20;
  cfg.atoms_per_patch = 6;
  MachineOptions o;
  o.pes = pes;
  o.layer = layer;
  MdResult r = run_minimd(o, cfg);
  EXPECT_LT(r.max_energy_drift, 0.05);
  EXPECT_LT(std::abs(r.total_momentum.x) + std::abs(r.total_momentum.y) +
                std::abs(r.total_momentum.z),
            1e-8);
}

std::string md_name(const ::testing::TestParamInfo<MdParam>& info) {
  auto [grid, pes, layer] = info.param;
  std::ostringstream name;
  name << 'g' << grid << "_p" << pes
       << (layer == LayerKind::kUgni ? "_uGNI" : "_MPI");
  return name.str();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MdGrid,
    ::testing::Combine(::testing::Values(2, 3),
                       ::testing::Values(1, 4, 8),
                       ::testing::Values(LayerKind::kUgni, LayerKind::kMpi)),
    md_name);

// ---- physics independent of the machine layer, including SMP ----

TEST(MiniMdProperty, IdenticalTrajectoriesOnAllThreeLayers) {
  MdConfig cfg;
  cfg.steps = 15;
  cfg.atoms_per_patch = 6;
  auto run = [&](bool smp, LayerKind layer) {
    MachineOptions o;
    o.pes = 9;
    o.layer = layer;
    o.smp_mode = smp;
    o.pes_per_node = 3;
    return run_minimd(o, cfg);
  };
  MdResult a = run(false, LayerKind::kUgni);
  MdResult b = run(false, LayerKind::kMpi);
  MdResult c = run(true, LayerKind::kUgni);
  ASSERT_EQ(a.energy.size(), b.energy.size());
  ASSERT_EQ(a.energy.size(), c.energy.size());
  for (std::size_t i = 0; i < a.energy.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.energy[i], b.energy[i]);
    EXPECT_DOUBLE_EQ(a.energy[i], c.energy[i]);
  }
}

TEST(MiniMdProperty, PairCountInvariantUnderParallelism) {
  MdConfig cfg;
  cfg.steps = 8;
  cfg.atoms_per_patch = 8;
  auto pairs = [&](int pes) {
    MachineOptions o;
    o.pes = pes;
    return run_minimd(o, cfg).pair_interactions;
  };
  std::uint64_t p1 = pairs(1);
  EXPECT_EQ(p1, pairs(4));
  EXPECT_EQ(p1, pairs(27));
}

TEST(MiniMdProperty, HotterGasDoesMoreMixing) {
  auto migrations = [&](double temp) {
    MdConfig cfg;
    cfg.steps = 250;
    cfg.atoms_per_patch = 8;
    cfg.initial_temp = temp;
    MachineOptions o;
    o.pes = 4;
    return run_minimd(o, cfg).migrations;
  };
  EXPECT_GE(migrations(3.0), migrations(0.2));
}

TEST(MiniMdProperty, StepTimeScalesWithWorkModel) {
  // Doubling the modeled per-pair cost must increase virtual step time
  // (compute-bound regime) but leave the physics identical.
  MdConfig cheap;
  cheap.steps = 6;
  cheap.atoms_per_patch = 10;
  cheap.ns_per_pair = 20;
  MdConfig costly = cheap;
  costly.ns_per_pair = 200;
  MachineOptions o;
  o.pes = 3;
  MdResult a = run_minimd(o, cheap);
  MdResult b = run_minimd(o, costly);
  EXPECT_GT(b.per_step, 2 * a.per_step);
  ASSERT_EQ(a.energy.size(), b.energy.size());
  for (std::size_t i = 0; i < a.energy.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.energy[i], b.energy[i]);
  }
}

}  // namespace
}  // namespace ugnirt::apps::minimd
