// Deterministic background-traffic generators for multi-tenant runs.
//
// Each generator drives one placed job's PEs through the ordinary
// Machine::submit path (CmiAlloc / CmiSyncSendAndFree from start fns and
// handlers) — jobs are indistinguishable from applications as far as the
// runtime is concerned.  Three shapes cover the interference classes the
// congestion literature measures on Gemini systems:
//
//   * kKNeighborHalo — steady state: every rank exchanges payloads with
//     its k nearest job-local ranks each side, advancing an iteration
//     once its halo arrives.  The latency-sensitive "victim" shape.
//   * kAllToAllShuffle — storm: every rank sends to every other rank in
//     a seeded-permuted order, one full exchange per iteration.  The
//     link-flooding aggressor shape.
//   * kCheckpointBurst — bursty I/O: all ranks dump payloads at their
//     job's designated IO ranks, then think (CmiChargeWork) before the
//     next burst.  The periodic-spike aggressor shape.
//
// Every send carries its virtual send timestamp; receive handlers fold
// the delivery latency into the job's `job.<id>.delivery_us` histogram,
// so per-job p50/p90/p99 come out of the standard metrics exports.  All
// randomness derives from (machine seed, job id, rank), so runs are
// bit-reproducible.
#pragma once

#include <cstdint>
#include <memory>

#include "tenancy/tenancy.hpp"

namespace ugnirt::tenancy {

enum class TrafficPattern : std::uint8_t {
  kKNeighborHalo,
  kAllToAllShuffle,
  kCheckpointBurst,
};


struct GeneratorOptions {
  TrafficPattern pattern = TrafficPattern::kKNeighborHalo;
  /// Iterations (halo/shuffle rounds, checkpoint bursts).
  int iterations = 4;
  /// Per-message payload bytes (>= 16: the timestamp frame).  Above the
  /// SMSG cap this traffic is rendezvous and thus governor-paced — the
  /// regime QoS isolation acts on.
  std::uint32_t payload = 4096;
  /// Halo depth: neighbors each side (clamped to (job_size-1)/2).
  int k = 2;
  /// Checkpoint: how many leading job-local ranks act as IO targets.
  int io_ranks = 1;
  /// Checkpoint: modeled think time between bursts (virtual ns).
  SimTime burst_gap_ns = 200'000;
  /// Shuffle-order seed; 0 derives from machine seed ^ job id.
  std::uint64_t seed = 0;
};

/// Drives one job's traffic.  Construct after JobManager::place(), call
/// launch() before Machine::run(), and keep the generator alive until the
/// run ends (handlers share state with it).
class TrafficGenerator {
 public:
  TrafficGenerator(JobManager& jobs, JobId job, GeneratorOptions opts);

  /// Register the handler and schedule every rank's opening sends.
  void launch();

  /// Messages this job will deliver over the whole run — the zero-loss
  /// oracle for fault soaks.
  std::uint64_t expected_messages() const;
  /// Messages delivered so far (== expected after a clean run).
  std::uint64_t received() const;

  JobId job() const { return job_; }
  const GeneratorOptions& options() const { return opts_; }

 private:
  struct State;
  JobManager* jobs_;
  JobId job_;
  GeneratorOptions opts_;
  std::shared_ptr<State> state_;
};

}  // namespace ugnirt::tenancy
