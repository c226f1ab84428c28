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
// cursor).  The node's NIC is one endpoint of the uGNI protocol core
// (ugni_core.hpp), so SMSG, rendezvous and the mempool are the same
// protocol as in the per-PE layer.  Consequences, all realized here:
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
//     trade-off; see ablation_smp);
//   * while workers' messages are queued but not yet ready, or its SMSG
//     backlog waits for credits, the comm thread spins on its CQs.  Its
//     idle spin steps are computed, not run one engine event each
//     (DESIGN.md §2.1).
//
// Data messages carry the destination worker as a 4-byte SMSG header and
// INIT_TAG names it, so the receiving comm thread knows whom to deliver
// to.  There are no persistent channels and no flow control in SMP mode.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "converse/machine.hpp"
#include "lrts/ugni_core.hpp"

namespace ugnirt::lrts {

class SmpLayer final : public converse::MachineLayer,
                       public UgniCore<SmpLayer> {
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

  void collect_metrics(trace::MetricsRegistry& reg) override;

  /// The stats of every pool of the layer, summed.
  mempool::MemPoolStats pool_stats() const;

 private:
  friend class UgniCore<SmpLayer>;
  struct NodeState;

  // Owner policy of the protocol core (see ugni_core.hpp).
  struct Route {
    std::int32_t dest_pe = -1;  // final worker on the receiving node
  };
  static_assert(sizeof(InitCtrl<Route>) == 40, "SMP INIT is 40 B on the wire");
  static constexpr std::uint32_t kDataPrefix = sizeof(std::int32_t);
  static constexpr bool kDeliverStampsCq = true;
  // Every return, not only those to a dry channel: waking the comm thread
  // on each one moves the SMP answer and the backward spans the SMP
  // stamping defect produces (ROADMAP item 4), so the SMP layer keeps one
  // event per return until that fix lands with the next benchmark change.
  static constexpr auto kCreditNotify = ugni::Nic::CreditNotify::kEveryReturn;
  int peer_of(int dest_pe) const { return machine_->node_of_pe(dest_pe); }
  static int home_pe(const UgniEndpoint&) { return -1; }
  static Route route_to(const UgniEndpoint&, int dest_pe, const void*) {
    return Route{dest_pe};
  }
  RdvTarget target_of(const UgniEndpoint& ep, const Route& r,
                      int src_inst) const;
  void deliver(UgniEndpoint& ep, int pe, void* msg, SimTime t);
  /// The comm thread re-arms itself (comm_step), so backlog retries need
  /// no extra wake.
  static void wake(UgniEndpoint&, SimTime) {}

  NodeState& node_state(int node) {
    return *nodes_[static_cast<std::size_t>(node)];
  }
  void ensure_domain(converse::Machine& m);
  void comm_wake(NodeState& n, SimTime t);
  void comm_arm(NodeState& n, SimTime when);
  void comm_step(NodeState& n, SimTime t);
  SimTime spin_step(const NodeState& n, SimTime j) const;
  SimTime spin_index(const NodeState& n, SimTime t) const;
  /// The first spin step after step 0 that starts at or after `t`.
  SimTime spin_step_from(const NodeState& n, SimTime t) const;
  void wake_at(NodeState& n, SimTime at);
  /// comm_wake while asleep.  `step_ran`: a spin step due exactly now has
  /// run before this wake (else it runs after it).
  void sleeping_wake(NodeState& n, SimTime t, bool step_ran);
  /// A CQ entry was pushed that the polls of spin steps starting at or
  /// after `t` see.
  void cq_pushed(NodeState& n, SimTime t);
  /// An SMSG credit came back now; the peer released it at `released`.
  void credit_returned(NodeState& n, SimTime released);

  /// CQ poll cost, and the cost of an idle comm step (one poll per CQ).
  SimTime poll_ns_ = 0;
  SimTime idle_step_ns_ = 0;

  /// Host bytes of every node pool; declared first so it outlives them.
  mempool::HostArena arena_;
  std::vector<std::unique_ptr<NodeState>> nodes_;

  // Hot-path counters bound to the machine registry in ensure_domain.
  trace::Counter* c_intra_node_ptr_msgs_ = nullptr;
  trace::Counter* c_comm_thread_sends_ = nullptr;
  trace::Counter* c_comm_thread_busy_defers_ = nullptr;
};

}  // namespace ugnirt::lrts
