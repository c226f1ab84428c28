// SMP-mode uGNI machine layer — the paper's §VII future work, built out.
//
// "Although optimized, the intra-node communication via POSIX shared
// memory is still quite slow due to memory copy.  We plan to investigate
// the SMP mode of CHARM++ on uGNI to further optimize the intra-node
// communication."
//
// In SMP mode one *process* spans a node: worker PEs share the node's
// address space and a single NIC driven by a dedicated communication
// thread (modeled as an independent actor with its own virtual-time
// cursor).  Consequences, all realized here:
//
//   * intra-node messages pass by pointer between workers — zero copies,
//     no pxshm, no NIC loopback;
//   * SMSG mailboxes exist per node *pair*, not per PE pair — mailbox
//     memory shrinks by (cores/node)^2;
//   * network work (protocol handling, CQ polling, rendezvous GETs) runs
//     on the comm thread, overlapping with worker compute — workers pay
//     only a lock-and-enqueue cost to send;
//   * the comm thread is a serialization point: at high message rates it
//     saturates before independent per-PE NICs would (the known SMP-mode
//     trade-off; see ablation_smp).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "converse/machine.hpp"
#include "fault/retry.hpp"
#include "lrts/layer_stats.hpp"
#include "lrts/retry_util.hpp"
#include "mempool/mempool.hpp"
#include "ugni/ugni.hpp"

namespace ugnirt::lrts {

class SmpLayer final : public converse::MachineLayer {
 public:
  SmpLayer();
  ~SmpLayer() override;

  const char* name() const override { return "uGNI-SMP"; }

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

  /// Snapshot of this layer's registry-backed counters (zeros before the
  /// first init_pe binds them).
  LayerStats stats() const;

  void collect_metrics(trace::MetricsRegistry& reg) override;

  /// Mailbox memory across the job: grows with node pairs, not PE pairs.
  std::uint64_t total_mailbox_bytes() const;

 private:
  struct NodeState;

  NodeState& node_state(int node) {
    return *nodes_[static_cast<std::size_t>(node)];
  }
  void ensure_domain(converse::Machine& m);
  /// Endpoint to `dest_node` via ugni::Nic::get_or_connect — the uGNI API
  /// owns channel creation and its first-touch cost (charged to the comm
  /// thread that first touches the peer).
  ugni::gni_ep_handle_t connect(NodeState& src, int dest_node);
  void comm_wake(NodeState& n, SimTime t);
  void comm_step(NodeState& n, SimTime t);
  void comm_handle_smsg(sim::Context& ctx, NodeState& n, int src_inst);
  void comm_handle_completion(sim::Context& ctx, NodeState& n,
                              const ugni::gni_cq_entry_t& ev);
  void comm_send(sim::Context& ctx, NodeState& n, int dest_pe,
                 std::uint8_t tag, const void* bytes, std::uint32_t len,
                 void* owned_msg);
  void comm_flush(sim::Context& ctx, NodeState& n);
  /// Start the node-level rendezvous protocol for `msg` (register or
  /// pool-resolve, then send/queue the INIT control message).
  void begin_node_rendezvous(sim::Context& ctx, NodeState& n, int dest_pe,
                             std::uint32_t size, void* msg);
  void deliver_to_worker(NodeState& n, int pe, void* msg, SimTime t);
  /// Comm-thread release of a sent message: back to its owning pool
  /// (charged to the comm thread), or deleted if it is a heap buffer.
  static void release_sent(void* msg);

  converse::Machine* machine_ = nullptr;
  /// Host bytes of every node pool; declared first so it outlives them.
  mempool::HostArena arena_;
  std::unique_ptr<ugni::Domain> domain_;
  std::vector<std::unique_ptr<NodeState>> nodes_;
  std::uint32_t smsg_cap_ = 1024;
  fault::RetryPolicy retry_{};

  // Hot-path counters bound to the machine registry in ensure_domain.
  trace::Counter* c_intra_node_ptr_msgs_ = nullptr;
  trace::Counter* c_comm_thread_sends_ = nullptr;
  trace::Counter* c_rendezvous_gets_ = nullptr;
  trace::Counter* c_comm_thread_busy_defers_ = nullptr;
  trace::Counter* c_retry_smsg_ = nullptr;
  trace::Counter* c_retry_post_ = nullptr;
  trace::Counter* c_retry_mem_register_ = nullptr;
  trace::Counter* c_retry_escalations_ = nullptr;
  trace::Counter* c_fallback_rendezvous_ = nullptr;
  trace::Counter* c_fallback_heap_ = nullptr;
  trace::Counter* c_cq_recovered_ = nullptr;
};

}  // namespace ugnirt::lrts
