// Measurement-based load balancing strategies.
//
// "The dynamic measurement-based load balancing framework in CHARM++ is
// deployed in NAMD for balancing computation across processors" (paper
// §V-D).  Strategies take measured per-object loads and produce an
// object -> PE assignment; ArrayManager::migrate_to applies it.
#pragma once

#include <cstdint>
#include <vector>

namespace ugnirt::charm {

struct LbResult {
  std::vector<int> assignment;
  double max_load_before = 0;
  double max_load_after = 0;
  int migrations = 0;
};

/// Greedy: heaviest object first onto the currently least-loaded PE.
/// Classic GreedyLB; ignores current placement (may migrate everything).
LbResult greedy_lb(const std::vector<double>& loads,
                   const std::vector<int>& current, int pes);

/// Utility: per-PE total loads under an assignment.
std::vector<double> pe_loads(const std::vector<double>& loads,
                             const std::vector<int>& assignment, int pes);

}  // namespace ugnirt::charm
