// Property-style sweeps for the parallel N-Queens search: exactness across
// the (board, threshold, layer, PE-count) grid, work invariance, and the
// statistical behavior of the sampled subtree model.
#include <gtest/gtest.h>

#include <sstream>
#include <tuple>

#include "apps/nqueens/parallel.hpp"
#include "apps/nqueens/solver.hpp"
#include "apps/nqueens/subtree_model.hpp"

namespace ugnirt::apps::nqueens {
namespace {

using converse::LayerKind;
using converse::MachineOptions;

// ---- exactness grid: every configuration counts every solution ----

using GridParam = std::tuple<int, int, int, LayerKind>;  // n, thr, pes

class ExactGrid : public ::testing::TestWithParam<GridParam> {};

TEST_P(ExactGrid, CountsAreExact) {
  auto [n, threshold, pes, layer] = GetParam();
  MachineOptions o;
  o.pes = pes;
  o.layer = layer;
  NQueensConfig cfg;
  cfg.n = n;
  cfg.threshold = threshold;
  NQueensResult r = run_nqueens(o, cfg);
  EXPECT_EQ(r.solutions, known_solutions(n));
  EXPECT_GT(r.elapsed, 0);
}

std::string grid_name(const ::testing::TestParamInfo<GridParam>& info) {
  auto [n, thr, pes, layer] = info.param;
  std::ostringstream name;
  name << 'n' << n << "_t" << thr << "_p" << pes
       << (layer == LayerKind::kUgni ? "_uGNI" : "_MPI");
  return name.str();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExactGrid,
    ::testing::Combine(::testing::Values(8, 10, 11),
                       ::testing::Values(2, 4),
                       ::testing::Values(3, 24),
                       ::testing::Values(LayerKind::kUgni, LayerKind::kMpi)),
    grid_name);

// ---- invariants across configurations ----

TEST(NQueensInvariants, NodeCountIndependentOfParallelism) {
  // Total visited nodes == sequential tree size regardless of PEs/threshold.
  const std::uint64_t seq_nodes = solve_all(10).nodes;
  for (int threshold : {1, 3, 5}) {
    for (int pes : {1, 5, 17}) {
      NQueensConfig cfg;
      cfg.n = 10;
      cfg.threshold = threshold;
      MachineOptions o;
      o.pes = pes;
      NQueensResult r = run_nqueens(o, cfg);
      EXPECT_EQ(r.nodes, seq_nodes)
          << "threshold " << threshold << " pes " << pes;
    }
  }
}

TEST(NQueensInvariants, TaskCountEqualsPrefixTreeSize) {
  // Tasks = all placements of depth <= threshold (the expansion tree),
  // plus the root task.
  NQueensConfig cfg;
  cfg.n = 9;
  cfg.threshold = 3;
  MachineOptions o;
  o.pes = 8;
  NQueensResult r = run_nqueens(o, cfg);
  // Count prefixes of depth 1..3 exactly.
  std::uint64_t prefixes = 0;
  const std::uint32_t all = (1u << 9) - 1;
  std::function<void(int, std::uint32_t, std::uint32_t, std::uint32_t)> rec =
      [&](int depth, std::uint32_t cols, std::uint32_t dl, std::uint32_t dr) {
        if (depth == 3) return;
        std::uint32_t free = all & ~(cols | dl | dr);
        while (free) {
          std::uint32_t bit = free & (0u - free);
          free ^= bit;
          ++prefixes;
          rec(depth + 1, cols | bit, ((dl | bit) << 1) & all,
              (dr | bit) >> 1);
        }
      };
  rec(0, 0, 0, 0);
  EXPECT_EQ(r.tasks, prefixes + 1);  // + root
}

TEST(NQueensInvariants, SpeedupNeverExceedsPeCount) {
  for (int pes : {2, 8, 32}) {
    NQueensConfig cfg;
    cfg.n = 11;
    cfg.threshold = 3;
    MachineOptions o;
    o.pes = pes;
    NQueensResult r = run_nqueens(o, cfg);
    EXPECT_LE(r.speedup, pes + 0.01) << pes;
    EXPECT_GT(r.speedup, 0.3) << pes;
  }
}

// ---- sampled model statistics ----

TEST(SampledModelStats, EstimateTightensWithSampleSize) {
  const double truth = static_cast<double>(known_solutions(12));
  double err_small = 0, err_big = 0;
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    auto small = SampledModel::build(12, 4, 30, seed);
    auto big = SampledModel::build(12, 4, 2000, seed);
    err_small += std::abs(small->est_total_solutions() - truth) / truth;
    err_big += std::abs(big->est_total_solutions() - truth) / truth;
  }
  EXPECT_LT(err_big, err_small)
      << "2000-sample estimates must beat 30-sample estimates on average";
  EXPECT_LT(err_big / 3, 0.25);
}

TEST(SampledModelStats, FullSamplingIsExactEverywhere) {
  for (int n : {9, 10}) {
    for (int thr : {2, 3}) {
      auto model = SampledModel::build(n, thr, 1 << 22);
      EXPECT_EQ(model->est_total_solutions(), known_solutions(n))
          << "n=" << n << " thr=" << thr;
      // And a run using the model is exact too.
      NQueensConfig cfg;
      cfg.n = n;
      cfg.threshold = thr;
      cfg.model = model.get();
      MachineOptions o;
      o.pes = 6;
      NQueensResult r = run_nqueens(o, cfg);
      EXPECT_EQ(r.solutions, known_solutions(n));
    }
  }
}

TEST(SampledModelStats, PrefixCountsMatchEnumeration) {
  auto model = SampledModel::build(13, 4, 10);
  // Depth-4 prefix count for 13 queens (independent recomputation).
  std::uint64_t prefixes = 0;
  const std::uint32_t all = (1u << 13) - 1;
  std::function<void(int, std::uint32_t, std::uint32_t, std::uint32_t)> rec =
      [&](int depth, std::uint32_t cols, std::uint32_t dl, std::uint32_t dr) {
        if (depth == 4) {
          ++prefixes;
          return;
        }
        std::uint32_t free = all & ~(cols | dl | dr);
        while (free) {
          std::uint32_t bit = free & (0u - free);
          free ^= bit;
          rec(depth + 1, cols | bit, ((dl | bit) << 1) & all,
              (dr | bit) >> 1);
        }
      };
  rec(0, 0, 0, 0);
  EXPECT_EQ(model->prefix_count(), prefixes);
}

}  // namespace
}  // namespace ugnirt::apps::nqueens
