// Micro-benchmark drivers for every communication experiment in the paper.
//
// Each function builds the needed machinery (raw uGNI endpoints, an
// mpilite communicator, or a full CHARM++ machine on either LRTS layer),
// runs a warmed-up measurement loop in virtual time, and returns the
// metric the corresponding figure plots.
#pragma once

#include <cstdint>

#include "converse/machine.hpp"
#include "gemini/machine_config.hpp"
#include "gemini/network.hpp"

namespace ugnirt::apps::bench {

// ---- raw mechanism latency (Figure 4) ----

/// One-way latency of a single FMA/BTE PUT/GET between two pre-registered
/// buffers on adjacent nodes (time to data visibility at the destination,
/// local completion for GETs).
SimTime raw_mechanism_latency(const gemini::MachineConfig& mc,
                              gemini::Mechanism mech, std::uint64_t bytes);

// ---- pure uGNI ping-pong (Figures 1, 6, 9a) ----

/// Best-case uGNI ping-pong: SMSG for small messages, pre-registered
/// one-sided PUT with a remote CQ event for large ones.  Returns the
/// steady-state one-way latency.
SimTime pure_ugni_pingpong(const gemini::MachineConfig& mc,
                           std::uint32_t bytes, int iters = 20);

// ---- pure MPI ping-pong (Figures 1, 8c, 9a) ----

/// MPI ping-pong between two ranks.  `same_buffer` re-uses one buffer for
/// send and receive (uDREG hits after warmup, the paper's fast curve);
/// otherwise distinct buffers alternate (registration-cache misses, the
/// slow curve).  `intranode` places both ranks on one node.
SimTime pure_mpi_pingpong(const gemini::MachineConfig& mc,
                          std::uint32_t bytes, bool same_buffer,
                          bool intranode = false, int iters = 20);

// ---- CHARM++ ping-pong on either machine layer ----

struct PingPongOptions {
  std::uint32_t payload = 8;  // bytes after the Converse envelope
  int iters = 20;
  bool persistent = false;   // use the persistent-message API (Fig 8a)
  bool reuse_buffer = true;  // bounce the same message back (paper §V-A)
};

/// Steady-state one-way latency for a CHARM++ ping-pong.  All of the
/// paper's "uGNI-based / MPI-based CHARM++" latency curves come from this
/// with different MachineOptions (layer, mempool, pxshm) and sizes.
SimTime charm_pingpong(converse::MachineOptions options,
                       const PingPongOptions& pp);

/// Bandwidth (MB/s) derived from the same ping-pong (Figure 9b).
double charm_bandwidth(converse::MachineOptions options, std::uint32_t bytes,
                       int iters = 10);

// ---- one-to-all (Figure 9c) ----

/// PE 0 sends one message to a core on each remote node; every destination
/// acks.  Returns (time until all acks are back) / (number of peers) — the
/// per-message latency the figure reports.
SimTime charm_onetoall(converse::MachineOptions options, std::uint32_t bytes,
                       int iters = 8);

// ---- kNeighbor (Figure 10) ----

/// Every PE exchanges size-`bytes` messages with its k left and k right
/// ring neighbors; an iteration ends when each PE has its 2k acks back.
/// Returns average iteration time.  A non-null `metrics` receives the
/// machine's metrics before teardown.
SimTime charm_kneighbor(converse::MachineOptions options, std::uint32_t bytes,
                        int k = 1, int iters = 10,
                        trace::MetricsRegistry* metrics = nullptr);

// ---- kNeighbor flood (small-message throughput / aggregation ablation) ----

struct KNeighborFloodResult {
  std::uint64_t messages = 0;  // payload messages delivered (asserted exact)
  SimTime elapsed_ns = 0;      // virtual time to drain everything
  double msgs_per_sec = 0;     // messages / elapsed
};

/// Throughput variant of kNeighbor for the fine-grained regime the
/// aggregation layer targets: every PE fires `burst` size-`bytes` messages
/// round-robin at its 2k ring neighbors per round, re-priming itself with
/// a self-message for `rounds` rounds (no per-message acks — the metric is
/// messages per second, not latency).  Asserts exactly
/// pes * burst * rounds deliveries, so it doubles as a loss check.
KNeighborFloodResult charm_kneighbor_flood(converse::MachineOptions options,
                                           std::uint32_t bytes, int k = 2,
                                           int burst = 64, int rounds = 20);

}  // namespace ugnirt::apps::bench
