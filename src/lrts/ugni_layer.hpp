// The uGNI-based LRTS machine layer — the paper's primary contribution.
//
// Protocols implemented (paper §III-C and §IV):
//
//   * Small messages (size <= SMSG cap, which shrinks with job size): sent
//     directly with GNI_SmsgSendWTag; the receiver polls the RX CQ, copies
//     the message out of the mailbox and hands it to Converse.
//   * Large messages: GET-based rendezvous (Fig 5).  The sender registers
//     (or pool-resolves) the buffer and sends a small INIT_TAG control
//     message carrying {address, memory handle, size}.  The receiver
//     allocates + registers a buffer and issues an FMA GET (< rdma
//     threshold) or BTE GET (>= threshold).  On GET completion it sends
//     ACK_TAG so the sender can deregister/free.  Cost without the pool is
//     the paper's Equation 1: 2(Tmalloc+Tregister) + Trdma + 2 Tsmsg.
//   * Memory pool (§IV-B, Fig 7b): all message buffers come from
//     pre-registered slabs, removing Tmalloc/Tregister from the path.
//   * Persistent messages (§IV-A, Fig 7a): the receiver pre-allocates a
//     registered landing buffer; sends become a single PUT followed by a
//     PERSISTENT_TAG notification: Tcost = Trdma + Tsmsg.
//   * Intra-node pxshm (§IV-C): POSIX-shared-memory style queues between
//     PEs of one node, in double-copy or sender-side single-copy mode;
//     disabled, intra-node traffic goes through the NIC (the "original"
//     curve of Fig 8c).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "converse/machine.hpp"
#include "fault/retry.hpp"
#include "flowcontrol/flowcontrol.hpp"
#include "lrts/layer_stats.hpp"
#include "lrts/retry_util.hpp"
#include "mempool/mempool.hpp"
#include "ugni/ugni.hpp"

namespace ugnirt::lrts {

class UgniLayer final : public converse::MachineLayer {
 public:
  UgniLayer();
  ~UgniLayer() override;

  const char* name() const override { return "uGNI"; }

  void init_pe(converse::Pe& pe) override;
  void* alloc(sim::Context& ctx, converse::Pe& pe, std::size_t bytes) override;
  void free_msg(sim::Context& ctx, converse::Pe& pe, void* msg) override;
  void submit(sim::Context& ctx, converse::Pe& src, int dest_pe,
              converse::MsgView msg,
              const converse::SendOptions& opts) override;
  std::uint32_t recommended_batch_bytes(converse::Pe& src,
                                        int dest_pe) const override;
  void advance(sim::Context& ctx, converse::Pe& pe) override;
  bool has_backlog(const converse::Pe& pe) const override;

  converse::PersistentHandle create_persistent(
      sim::Context& ctx, converse::Pe& src, int dest_pe,
      std::uint32_t max_bytes) override;

  /// Snapshot of this layer's registry-backed counters (zeros before the
  /// first init_pe binds them).
  LayerStats stats() const;

  void collect_metrics(trace::MetricsRegistry& reg) override;

  /// Job-wide SMSG payload cap (depends on PE count; paper §III-C).
  std::uint32_t smsg_cap() const { return smsg_cap_; }

  /// Total SMSG mailbox memory committed across the job — the linear-in-
  /// peers cost of §II-B.
  std::uint64_t total_mailbox_bytes() const;

  /// The injection governor, or nullptr when flow control is disabled.
  const flowcontrol::InjectionGovernor* governor() const {
    return governor_.get();
  }
  /// Mutable access for the tenancy subsystem's per-job QoS installation
  /// (MachineLayer interface).
  flowcontrol::InjectionGovernor* governor() override {
    return governor_.get();
  }

 private:
  struct PeState;
  struct NodeShm;

  PeState& state(converse::Pe& pe);
  PeState& state_of(int pe_id);

  void ensure_domain(converse::Machine& m);
  /// Endpoint to `dest_pe` via ugni::Nic::get_or_connect — the uGNI API
  /// owns channel creation and its first-touch cost; the layer only
  /// counts the two mailbox registrations when a channel is established.
  ugni::gni_ep_handle_t connect(PeState& src, int dest_pe);

  /// Send a tagged SMSG (control or data), queueing on credit exhaustion.
  void smsg_send(sim::Context& ctx, PeState& src, int dest_pe,
                 std::uint8_t tag, const void* bytes, std::uint32_t len,
                 void* owned_msg);
  void flush_backlog(sim::Context& ctx, PeState& s);
  /// Convert the backlog's front kTagData entry to a rendezvous INIT
  /// (credit-free path) after sustained SMSG starvation.
  bool demote_front_to_rendezvous(sim::Context& ctx, PeState& s);
  /// Start the rendezvous protocol for `msg` (register or pool-resolve,
  /// then send/queue the INIT control message).
  void begin_rendezvous(sim::Context& ctx, PeState& s, int dest_pe,
                        std::uint32_t size, void* msg);
  /// Single PUT + notification down a pre-negotiated channel (Fig 7a).
  void persistent_send(sim::Context& ctx, converse::Pe& src,
                       converse::PersistentHandle handle, std::uint32_t size,
                       void* msg);

  /// Post the (fully prepared) rendezvous GET of one LargeRecv: endpoint
  /// lookup, descriptor post with retry, counters and trace.
  void issue_rendezvous_get(sim::Context& ctx, PeState& s, std::uint64_t rid);
  /// Re-try governor admission for GETs deferred under hotspot load;
  /// called from advance() as completions free window slots.
  void drain_deferred_gets(sim::Context& ctx, PeState& s);

  void handle_smsg(sim::Context& ctx, converse::Pe& pe, PeState& s,
                   int src_inst);
  /// Shared protocol demux for small messages arriving via SMSG or MSGQ.
  /// `arrival` is the virtual wire-arrival instant of the control/data
  /// bytes (== ctx.now() for paths that cannot observe it earlier).
  void handle_protocol_msg(sim::Context& ctx, converse::Pe& pe, PeState& s,
                           std::uint8_t tag, const void* bytes,
                           SimTime arrival);
  // Per-tag protocol handlers.
  void on_tag_data(sim::Context& ctx, converse::Pe& pe, PeState& s,
                   const void* bytes, SimTime arrival);
  void on_tag_init(sim::Context& ctx, converse::Pe& pe, PeState& s,
                   const void* bytes, SimTime arrival);
  void on_tag_ack(sim::Context& ctx, converse::Pe& pe, PeState& s,
                  const void* bytes, SimTime arrival);
  void on_tag_persist(sim::Context& ctx, converse::Pe& pe, PeState& s,
                      const void* bytes, SimTime arrival);
  void handle_completion(sim::Context& ctx, converse::Pe& pe, PeState& s,
                         const ugni::gni_cq_entry_t& ev);

  void pxshm_send(sim::Context& ctx, converse::Pe& src, int dest_pe,
                  std::uint32_t size, void* msg);
  void pxshm_poll(sim::Context& ctx, converse::Pe& pe);

  converse::Machine* machine_ = nullptr;
  /// Host bytes of every PE's pool (the pools die with the PEs, first).
  mempool::HostArena arena_;
  std::unique_ptr<ugni::Domain> domain_;
  std::vector<PeState*> states_;  // borrowed; owned by Pe::layer_state
  std::vector<std::unique_ptr<NodeShm>> node_shm_;
  std::uint32_t smsg_cap_ = 1024;
  // Machine options snapshotted at ensure_domain: the progress engine and
  // send path test these once per call instead of chasing
  // machine_->options() per event.
  bool use_pxshm_ = false;
  bool use_msgq_ = false;
  fault::RetryPolicy retry_{};
  /// AIMD injection pacing + adaptive thresholds; null when flow control
  /// is off (the hot paths then cost exactly one pointer test).
  std::unique_ptr<flowcontrol::InjectionGovernor> governor_;

  // Hot-path counters, bound to the machine registry in ensure_domain
  // (std::map node addresses are stable, so the pointers stay valid).
  trace::Counter* c_smsg_sends_ = nullptr;
  trace::Counter* c_rendezvous_gets_ = nullptr;
  trace::Counter* c_persistent_puts_ = nullptr;
  trace::Counter* c_pxshm_msgs_ = nullptr;
  trace::Counter* c_credit_stalls_ = nullptr;
  trace::Counter* c_registrations_ = nullptr;
  trace::Counter* c_retry_smsg_ = nullptr;
  trace::Counter* c_retry_post_ = nullptr;
  trace::Counter* c_retry_mem_register_ = nullptr;
  trace::Counter* c_retry_escalations_ = nullptr;
  trace::Counter* c_fallback_rendezvous_ = nullptr;
  trace::Counter* c_fallback_heap_ = nullptr;
  trace::Counter* c_cq_recovered_ = nullptr;
};

}  // namespace ugnirt::lrts
