// CHARM++-flavored layer over Converse: reductions, quiescence detection,
// seed-balanced tasks, and barriers.
//
// This is the programming surface the paper's applications use: N-Queens
// runs on seed-balanced task spawning with quiescence detection (via the
// ParSSSE state-space search framework), and NAMD-style codes use arrays of
// migratable objects with contributions/reductions.  Everything here is
// machine-layer agnostic — linking the same program against the uGNI or MPI
// layer is a MachineOptions field, exactly the paper's §V methodology.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "converse/machine.hpp"

namespace ugnirt::charm {

/// Reduction callback: receives the combined value on the root PE (0).
using ReductionCb = std::function<void(std::uint64_t)>;
using ReductionCbD = std::function<void(double)>;

/// Task body: runs on the PE the seed landed on, with the payload bytes.
using TaskFn = std::function<void(const void* payload, std::uint32_t bytes)>;

class Charm {
 public:
  explicit Charm(converse::Machine& machine);
  Charm(const Charm&) = delete;
  Charm& operator=(const Charm&) = delete;

  converse::Machine& machine() { return *machine_; }

  // ---- registration (call before machine().run()) ----

  /// Register a task type; seeds of this type can be fired at any PE.
  int register_task(TaskFn fn);

  /// Register a sum-reduction; every PE must contribute once per round.
  /// The callback fires on PE 0 with the total.
  int register_reduction_sum(ReductionCb at_root);
  int register_reduction_sum_d(ReductionCbD at_root);

  // ---- task spawning (the random seed balancer, paper §V-C) ----

  /// Fire a task seed at a uniformly random PE (current PE's RNG stream).
  void seed_task(int task_id, const void* payload, std::uint32_t bytes);
  /// Fire a task seed at a specific PE.
  void seed_task_to(int pe, int task_id, const void* payload,
                    std::uint32_t bytes);

  // ---- reductions ----

  /// Contribute this PE's value to round `round` of reduction `red_id`.
  /// Rounds are implicit: the n-th contribute on a PE joins round n.
  void contribute(int red_id, std::uint64_t value);
  void contribute_d(int red_id, double value);

  // ---- quiescence detection (Sinha–Kalé counting scheme) ----

  /// Start QD; `cb` fires on PE 0 when no non-system messages are in
  /// flight or pending anywhere.  Only one detection may be active.
  void start_quiescence(std::function<void()> cb);

  /// Number of QD waves the last detection needed (for tests).
  int qd_waves() const { return qd_waves_; }

 private:
  struct Reduction {
    ReductionCb cb_u64;
    ReductionCbD cb_d;
    bool is_double = false;
    // Per-PE round counters and per-round partial state live in flat maps
    // keyed by round (rounds complete quickly; map stays tiny).
    struct Round {
      std::uint64_t acc_u64 = 0;
      double acc_d = 0;
      int contributions = 0;  // contributions received at this PE
    };
    // Indexed [pe][round] lazily.
    std::vector<std::vector<Round>> state;     // combine state per PE
    std::vector<std::uint64_t> next_round;     // per PE: next round to join
  };

  void reduction_arrive(int red_id, int pe, std::uint64_t round,
                        std::uint64_t vu, double vd);
  int expected_contributions(int pe) const;

  /// Per-PE fan-in state for the current QD wave.
  struct QdPeRound {
    std::uint64_t round = 0;
    std::uint64_t created = 0;
    std::uint64_t processed = 0;
    int reports = 0;  // PEs aggregated so far (self + child subtrees)
    bool wave_seen = false;
    bool valid = false;
  };

  void qd_start_wave();
  QdPeRound& qd_slot(int pe, std::uint64_t round);
  void qd_try_forward(int pe);

  converse::Machine* machine_;
  int task_handler_ = -1;
  int reduction_handler_ = -1;
  int qd_wave_handler_ = -1;
  int qd_report_handler_ = -1;

  std::vector<TaskFn> tasks_;
  std::vector<Reduction> reductions_;

  // QD state (root = PE 0).
  std::function<void()> qd_cb_;
  bool qd_active_ = false;
  std::uint64_t qd_round_ = 0;
  std::uint64_t qd_created_ = 0;
  std::uint64_t qd_processed_ = 0;
  int qd_reports_ = 0;
  std::uint64_t qd_prev_created_ = ~0ull;
  std::uint64_t qd_prev_processed_ = ~0ull;
  int qd_waves_ = 0;
  std::vector<QdPeRound> qd_pe_;
};

}  // namespace ugnirt::charm
