// Calibrated cost model for the simulated Gemini interconnect and the
// software stacked on it.
//
// Every constant is an anchor taken from the paper's measurements on Hopper
// (Cray XE6) or from the Gemini hardware description [Alverson et al.,
// HOTI'10], and can be overridden through UGNIRT_GEMINI_* for ablations:
//
//   * 8-byte one-way latency: ~1.2 us pure uGNI, ~1.6 us uGNI-CHARM++,
//     ~3 us MPI-based CHARM++ (paper Fig 1 / Fig 9a).
//   * SMSG maximum message size 1024 bytes, shrinking as the job grows
//     (paper §III-C).
//   * FMA->BTE crossover between 2 KiB and 8 KiB (paper §II-A).
//   * Peak point-to-point bandwidth ~6 GB/s (paper Fig 9b).
//   * Registration/malloc overheads large enough that the no-pool runtime
//     loses to MPI for large messages (paper Fig 6) and the memory pool
//     halves large-message latency (paper Fig 8b).
#pragma once

#include <cstdint>

#include "util/units.hpp"

namespace ugnirt::gemini {

struct MachineConfig {
  // ---- Topology ----
  int cores_per_node = 24;       // XE6: 2x 12-core Magny-Cours (paper §V)

  // ---- Router / links ----
  SimTime hop_ns = 105;          // per-router traversal
  double link_bw = 9.4;          // bytes/ns (GB/s) per directional link

  // ---- SMSG (small-message mailboxes over FMA) ----
  SimTime smsg_cpu_send_ns = 180;    // sender CPU: build header + FMA store
  SimTime smsg_wire_startup_ns = 620;  // NIC pipeline + SSID/ORB tracking
  double smsg_per_byte_ns = 0.85;    // payload streaming cost per byte
  std::uint32_t smsg_max_bytes = 1024;   // default per-message cap (§III-C)
  std::uint32_t smsg_mailbox_credits = 8;  // in-flight messages per channel

  // ---- Completion queues ----
  std::uint32_t cq_entries = 1u << 16;  // RX/TX CQ depth per NIC

  // ---- FMA (CPU-driven window stores/loads) ----
  SimTime fma_put_startup_ns = 1000;
  SimTime fma_get_startup_ns = 1450;
  double fma_bw = 2.5;           // bytes/ns; CPU-limited pipeline
  SimTime fma_desc_ns = 150;     // CPU cost of writing the FMA descriptor

  // ---- BTE (offloaded DMA engine) ----
  SimTime bte_put_startup_ns = 2500;
  SimTime bte_get_startup_ns = 3000;
  double bte_bw = 5.9;           // bytes/ns; NIC DMA at near link rate
  SimTime bte_desc_ns = 250;     // CPU cost of posting the RDMA descriptor

  // ---- Memory operations (the terms of the paper's Equation 1) ----
  SimTime malloc_base_ns = 500;
  SimTime malloc_per_page_ns = 40;
  SimTime free_base_ns = 300;
  SimTime mem_reg_base_ns = 700;
  SimTime mem_reg_per_page_ns = 260;
  SimTime mem_dereg_base_ns = 500;
  SimTime mem_dereg_per_page_ns = 30;
  std::uint32_t page_bytes = 4096;

  // ---- CPU-side data movement ----
  SimTime memcpy_base_ns = 80;
  double memcpy_bw = 4.0;        // bytes/ns; single-stream on Magny-Cours

  // ---- Completion queues ----
  SimTime cq_poll_ns = 60;       // one GNI_CqGetEvent poll
  SimTime cq_event_ns = 90;      // dequeue + decode a present event

  // ---- Memory pool (uGNI-CHARM++ optimization, §IV-B) ----
  SimTime mempool_alloc_ns = 120;
  SimTime mempool_free_ns = 90;
  std::uint64_t mempool_init_bytes = 16 * 1024;

  // ---- CHARM++ runtime layer ----
  SimTime charm_send_overhead_ns = 220;   // envelope + scheduler enqueue
  SimTime charm_recv_overhead_ns = 250;   // handler dispatch + bookkeeping
  SimTime sched_loop_ns = 50;             // one empty scheduler iteration
  /// Per sub-message delivery cost when unpacking an aggregated batch in
  /// place (envelope check + handler lookup); the full recv overhead is
  /// paid once per batch, not once per item — that amortization is the
  /// whole point of TRAM-style coalescing.
  SimTime agg_item_overhead_ns = 60;
  std::uint32_t rdma_threshold = 4096;    // FMA GET below, BTE GET at/above

  // ---- MPI library model (Cray MPI over the same uGNI) ----
  SimTime mpi_call_overhead_ns = 150;     // per MPI_* entry (matching, argchk)
  SimTime mpi_match_ns = 120;             // queue search per probe/recv
  SimTime mpi_iprobe_ns = 280;
  /// Extra MPI_Iprobe cost per unexpected-queue entry — the "prolonged
  /// MPI_Iprobe" the paper blames in §I: probing slows down as unexpected
  /// small messages pile up, which is what throttles the MPI-based
  /// runtime in fine-grain task floods (Fig 11/12).
  SimTime mpi_iprobe_scan_ns = 40;
  /// Second prolonged-Iprobe component: the library sweeps per-connection
  /// mailbox state, so probe cost grows with the number of established
  /// peers.  The first `mpi_iprobe_conn_free` connections are covered by
  /// the base cost (batched CQ polling); each one beyond that adds
  /// `mpi_iprobe_conn_ns`.  This is what makes the MPI-based runtime
  /// unable to exploit fine-grain tasks at scale (paper Fig 12b).
  SimTime mpi_iprobe_conn_ns = 300;
  std::uint32_t mpi_iprobe_conn_free = 128;
  std::uint32_t mpi_eager_threshold = 8192;
  /// LMT switch inside the MPI library: rendezvous transfers below this use
  /// FMA GET on the receiving rank's CPU; at/above it they use the
  /// (node-shared) BTE.  Mirrors Cray MPI's RDMA threshold default.
  std::uint32_t mpi_rdma_threshold = 65536;
  std::uint32_t udreg_capacity = 512;     // registration-cache entries
  SimTime udreg_hit_ns = 60;
  // Intra-node MPI: user-space double copy below the XPMEM threshold,
  // kernel-assisted single copy (with its synchronization overhead, §IV-C)
  // at or above it.
  std::uint32_t mpi_xpmem_threshold = 16384;
  SimTime mpi_xpmem_overhead_ns = 2800;
  SimTime mpi_shm_notify_ns = 200;
  /// SMSG mailbox credits for the MPI library's internal channels (Cray
  /// MPI runs deeper mailboxes than the bare uGNI layer's
  /// smsg_mailbox_credits; tune both in one place for credit-pressure
  /// experiments).
  std::uint32_t mpi_mailbox_credits = 16;

  // ---- Intra-node shared memory (pxshm, §IV-C) ----
  SimTime pxshm_notify_ns = 250;          // fence + flag + queue bookkeeping
  SimTime pxshm_poll_ns = 120;            // receiver-side queue check

  /// Effective SMSG per-message cap for a job of `pes` PEs: Cray's runtime
  /// shrinks mailboxes as the job grows to bound per-pair memory (§III-C).
  std::uint32_t smsg_max_for_job(int pes) const {
    if (pes <= 1024) return smsg_max_bytes;
    if (pes <= 4096) return smsg_max_bytes / 2;
    if (pes <= 16384) return smsg_max_bytes / 4;
    return smsg_max_bytes / 8;
  }

  /// Time to register `bytes` of memory with the NIC.
  SimTime reg_cost(std::uint64_t bytes) const {
    return mem_reg_base_ns +
           static_cast<SimTime>(pages(bytes)) * mem_reg_per_page_ns;
  }

  SimTime dereg_cost(std::uint64_t bytes) const {
    return mem_dereg_base_ns +
           static_cast<SimTime>(pages(bytes)) * mem_dereg_per_page_ns;
  }

  SimTime malloc_cost(std::uint64_t bytes) const {
    return malloc_base_ns +
           static_cast<SimTime>(pages(bytes)) * malloc_per_page_ns;
  }

  SimTime memcpy_cost(std::uint64_t bytes) const {
    return memcpy_base_ns + transfer_time(bytes, memcpy_bw);
  }

  std::uint64_t pages(std::uint64_t bytes) const {
    return (bytes + page_bytes - 1) / page_bytes;
  }

  /// Each knob once: key "gemini.<name>", env UGNIRT_GEMINI_<NAME>.
  static constexpr const char* kConfigPrefix = "gemini";
  template <class V>
  void fields(V&& v) {
    v("cores_per_node", cores_per_node);
    v("hop_ns", hop_ns);
    v("link_bw", link_bw);
    v("smsg_cpu_send_ns", smsg_cpu_send_ns);
    v("smsg_wire_startup_ns", smsg_wire_startup_ns);
    v("smsg_per_byte_ns", smsg_per_byte_ns);
    v("smsg_max_bytes", smsg_max_bytes);
    v("smsg_mailbox_credits", smsg_mailbox_credits);
    v("cq_entries", cq_entries);
    v("fma_put_startup_ns", fma_put_startup_ns);
    v("fma_get_startup_ns", fma_get_startup_ns);
    v("fma_bw", fma_bw);
    v("fma_desc_ns", fma_desc_ns);
    v("bte_put_startup_ns", bte_put_startup_ns);
    v("bte_get_startup_ns", bte_get_startup_ns);
    v("bte_bw", bte_bw);
    v("bte_desc_ns", bte_desc_ns);
    v("malloc_base_ns", malloc_base_ns);
    v("malloc_per_page_ns", malloc_per_page_ns);
    v("free_base_ns", free_base_ns);
    v("mem_reg_base_ns", mem_reg_base_ns);
    v("mem_reg_per_page_ns", mem_reg_per_page_ns);
    v("mem_dereg_base_ns", mem_dereg_base_ns);
    v("mem_dereg_per_page_ns", mem_dereg_per_page_ns);
    v("page_bytes", page_bytes);
    v("memcpy_base_ns", memcpy_base_ns);
    v("memcpy_bw", memcpy_bw);
    v("cq_poll_ns", cq_poll_ns);
    v("cq_event_ns", cq_event_ns);
    v("mempool_alloc_ns", mempool_alloc_ns);
    v("mempool_free_ns", mempool_free_ns);
    v("mempool_init_bytes", mempool_init_bytes);
    v("charm_send_overhead_ns", charm_send_overhead_ns);
    v("charm_recv_overhead_ns", charm_recv_overhead_ns);
    v("sched_loop_ns", sched_loop_ns);
    v("agg_item_overhead_ns", agg_item_overhead_ns);
    v("rdma_threshold", rdma_threshold);
    v("mpi_call_overhead_ns", mpi_call_overhead_ns);
    v("mpi_match_ns", mpi_match_ns);
    v("mpi_iprobe_ns", mpi_iprobe_ns);
    v("mpi_iprobe_scan_ns", mpi_iprobe_scan_ns);
    v("mpi_iprobe_conn_ns", mpi_iprobe_conn_ns);
    v("mpi_iprobe_conn_free", mpi_iprobe_conn_free);
    v("mpi_eager_threshold", mpi_eager_threshold);
    v("mpi_rdma_threshold", mpi_rdma_threshold);
    v("udreg_capacity", udreg_capacity);
    v("udreg_hit_ns", udreg_hit_ns);
    v("mpi_xpmem_threshold", mpi_xpmem_threshold);
    v("mpi_xpmem_overhead_ns", mpi_xpmem_overhead_ns);
    v("mpi_shm_notify_ns", mpi_shm_notify_ns);
    v("mpi_mailbox_credits", mpi_mailbox_credits);
    v("pxshm_notify_ns", pxshm_notify_ns);
    v("pxshm_poll_ns", pxshm_poll_ns);
  }
};

}  // namespace ugnirt::gemini
