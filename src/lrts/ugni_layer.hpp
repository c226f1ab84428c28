// The uGNI-based LRTS machine layer — the paper's primary contribution.
//
// Every PE owns one endpoint of the uGNI protocol core (ugni_core.hpp:
// tagged SMSG with a credit backlog, GET rendezvous, the mempool and
// persistent messages).  This adapter adds what is per-PE:
//
//   * addressing: a PE is its own NIC instance, and INIT_TAG names the
//     sending PE and the payload's span id;
//   * persistent channel setup (§IV-A, Fig 7a): create_persistent;
//   * intra-node pxshm (§IV-C): POSIX-shared-memory style queues between
//     PEs of one node, in double-copy or sender-side single-copy mode;
//     disabled, intra-node traffic goes through the NIC (the "original"
//     curve of Fig 8c);
//   * the injection governor (flow control), when enabled.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "converse/machine.hpp"
#include "lrts/ugni_core.hpp"

namespace ugnirt::lrts {

class UgniLayer final : public converse::MachineLayer,
                        public UgniCore<UgniLayer> {
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

  void collect_metrics(trace::MetricsRegistry& reg) override;

  /// The injection governor, or nullptr when flow control is disabled;
  /// tenancy installs its per-job QoS through it.
  flowcontrol::InjectionGovernor* governor() override {
    return governor_.get();
  }

 private:
  friend class UgniCore<UgniLayer>;
  struct PeState;
  struct NodeShm;

  // Owner policy of the protocol core (see ugni_core.hpp).
  struct Route {
    std::int32_t src_pe = -1;
    std::uint32_t span = 0;  // lifecycle-span id of the payload message
  };
  static_assert(sizeof(InitCtrl<Route>) == 48, "uGNI INIT is 48 B on the wire");
  static constexpr std::uint32_t kDataPrefix = 0;
  static constexpr bool kDeliverStampsCq = false;
  static constexpr auto kCreditNotify = ugni::Nic::CreditNotify::kWhenDry;
  static int peer_of(int dest_pe) { return dest_pe; }
  static int home_pe(const UgniEndpoint& ep) { return ep.nic->inst_id(); }
  static Route route_to(const UgniEndpoint& ep, int dest_pe,
                        const void* msg);
  static RdvTarget target_of(const UgniEndpoint& ep, const Route& r,
                             int src_inst);
  static void deliver(UgniEndpoint& ep, int pe, void* msg, SimTime t);
  static void wake(UgniEndpoint& ep, SimTime t) { ep.nic_wake(t); }

  PeState& state(converse::Pe& pe);

  void ensure_domain(converse::Machine& m);
  void pxshm_send(sim::Context& ctx, converse::Pe& src, int dest_pe,
                  std::uint32_t size, void* msg);
  void pxshm_poll(sim::Context& ctx, converse::Pe& pe);

  /// Host bytes of every PE's pool; declared first so it outlives them.
  mempool::HostArena arena_;
  std::vector<std::unique_ptr<PeState>> states_;  // indexed by PE id
  std::vector<std::unique_ptr<NodeShm>> node_shm_;
  // Machine option snapshotted at ensure_domain: the send path and the
  // progress engine test it once per call instead of chasing
  // machine_->options() per event.
  bool use_pxshm_ = false;
  trace::Counter* c_pxshm_msgs_ = nullptr;
};

}  // namespace ugnirt::lrts
