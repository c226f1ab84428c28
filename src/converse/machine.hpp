// The Converse runtime: message-driven scheduler over an LRTS machine layer.
//
// Mirrors the paper's Figure 3 layering: applications sit on CHARM++-style
// abstractions, which sit on this machine-independent Converse layer, which
// talks to the hardware exclusively through the Lower-level RunTime System
// (LRTS) interface (§III-B) — implemented here by two interchangeable
// machine layers (uGNI-based and MPI-based) exactly as in the paper's
// evaluation ("linked with either MPI- or uGNI-based message-driven runtime
// for comparison").
//
// Each simulated PE runs the classic CHARM++ scheduler loop: advance the
// network progress engine, then execute one message handler to completion.
// Virtual time flows through sim::Context cursors (handlers charge their
// modeled compute; the layers charge communication costs).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "aggregation/config.hpp"
#include "fault/fault.hpp"
#include "flowcontrol/config.hpp"
#include "gemini/machine_config.hpp"
#include "gemini/network.hpp"
#include "sim/context.hpp"
#include "sim/engine.hpp"
#include "converse/message.hpp"
#include "trace/metrics.hpp"
#include "util/ring_fifo.hpp"
#include "util/rng.hpp"

namespace ugnirt::trace {
class Tracer;
}
namespace ugnirt::aggregation {
class Aggregator;
}
namespace ugnirt::flowcontrol {
class CongestionEstimator;
class InjectionGovernor;
}

namespace ugnirt::converse {

class Machine;
class MachineLayer;
class Pe;

/// Which LRTS implementation a Machine runs on.
enum class LayerKind {
  kUgni,  // the paper's contribution: direct uGNI machine layer
  kMpi,   // the baseline: Converse over (simulated Cray) MPI
};

/// Handle returned by the persistent-message API (paper §IV-A).
struct PersistentHandle {
  std::int32_t id = -1;
  bool valid() const { return id >= 0; }
};

/// Non-owning view of a framed Converse message (envelope at the front).
/// `size` always equals header_of(msg)->size; it rides along so layers can
/// route without re-reading the header.
struct MsgView {
  void* msg = nullptr;
  std::uint32_t size = 0;
};

/// Per-send knobs for the unified submit() path.  Default-constructed
/// SendOptions reproduce the classic CmiSyncSendAndFree behavior.
struct SendOptions {
  /// Allow the aggregation layer to coalesce this message (only messages
  /// under aggregation::kThreshold are affected; see
  /// aggregation/aggregation.hpp).
  bool allow_aggregation = true;
  /// When valid, the send rides the pre-negotiated persistent channel
  /// (paper §IV-A) and `dest_pe` is ignored — the channel pins it.
  PersistentHandle persistent_handle{};
};

struct MachineOptions {
  int pes = 2;
  LayerKind layer = LayerKind::kUgni;
  gemini::MachineConfig mc{};

  // uGNI-layer optimizations (paper §IV); each can be toggled for the
  // before/after experiments of Figures 6 and 8.
  bool use_mempool = true;
  bool use_pxshm = true;          // intra-node POSIX-shm transport
  bool pxshm_single_copy = true;  // sender-side single copy optimization

  /// Route small messages through the per-NIC shared MSGQ instead of
  /// per-pair SMSG mailboxes: memory stays flat in the peer count at the
  /// price of per-message latency (the §II-B trade; see ablation bench).
  bool use_msgq = false;

  /// SMP mode (paper §VII): one NIC + communication thread per node,
  /// worker PEs share the node address space (zero-copy intra-node
  /// pointer messaging, per-node-pair mailboxes).  uGNI layer only.
  bool smp_mode = false;

  std::uint64_t seed = 0x5eed;

  /// PEs per node; 0 means "use mc.cores_per_node".  Micro-benchmarks that
  /// place each rank on its own node set this to 1.
  int pes_per_node = 0;

  /// Deterministic fault-injection plan ("fault.*" config keys /
  /// UGNIRT_FAULT_* env).  Installed on the network when `enabled`.
  fault::FaultPlan fault{};
  /// Small-message aggregation (TRAM-lite; "agg.*" config keys /
  /// UGNIRT_AGG_* env).  An Aggregator is installed when `enable`.
  aggregation::AggregationConfig aggregation{};
  /// Congestion control ("flow.*" config keys / UGNIRT_FLOW_* env).  A
  /// CongestionEstimator is installed as the network's link observer when
  /// `enable` (and as its route steering under `adaptive_routing`); the
  /// uGNI layer additionally spins up its InjectionGovernor.
  flowcontrol::FlowConfig flow{};

  int effective_pes_per_node() const {
    return pes_per_node > 0 ? pes_per_node : mc.cores_per_node;
  }
  int nodes() const {
    int ppn = effective_pes_per_node();
    return (pes + ppn - 1) / ppn;
  }
};

/// One simulated processing element.
class Pe {
 public:
  Pe(Machine& machine, int id, int node);

  int id() const { return id_; }
  int node() const { return node_; }
  Machine& machine() const { return *machine_; }
  sim::Context& ctx() { return ctx_; }

  /// Deliver a ready-to-execute message into the scheduler queue and make
  /// sure the PE will step at or after `t`.
  void enqueue(void* msg, SimTime t);

  /// Ensure a scheduler step runs at or after `t` (used by CQ notify hooks
  /// and backlog retries).
  void wake(SimTime t);

  Rng& rng() { return rng_; }

  // Scheduler statistics.
  std::uint64_t msgs_executed() const { return msgs_executed_; }

 private:
  friend class Machine;

  void run_step(SimTime t);

  Machine* machine_;
  int id_;
  int node_;
  sim::Context ctx_;
  Rng rng_;
  // Busy in every workload: it keeps its ring once grown, instead of
  // allocating again after each drain.
  RingFifo<void*, /*kKeepGrown=*/true> sched_q_;
  bool step_scheduled_ = false;
  SimTime scheduled_at_ = 0;
  SimTime pending_wake_ = kNever;  // later wake deferred past a scheduled step
  std::uint64_t step_gen_ = 0;     // bumped per armed step; older ones return
  SimTime avail_at_ = 0;
  std::uint64_t msgs_executed_ = 0;
};

/// The LRTS interface (paper §III-B), object-flavored.  LrtsInit maps to
/// the constructor + init_pe; LrtsSyncSend to submit; LrtsNetworkEngine
/// to advance.
class MachineLayer {
 public:
  virtual ~MachineLayer() = default;

  virtual const char* name() const = 0;

  /// Per-PE initialization (attach NIC, create CQs, pools, shm regions).
  virtual void init_pe(Pe& pe) = 0;

  /// Allocate / release a message buffer on the current PE.
  virtual void* alloc(sim::Context& ctx, Pe& pe, std::size_t bytes) = 0;
  virtual void free_msg(sim::Context& ctx, Pe& pe, void* msg) = 0;

  /// The unified LRTS send entry (LrtsSyncSend + persistent sends, one
  /// virtual).  Non-blocking; ownership of `msg.msg` passes to the layer,
  /// which frees the buffer once delivery no longer needs it.  When
  /// `opts.persistent_handle` is valid the send rides the persistent
  /// channel and `dest_pe` may be -1 (the handle pins the destination);
  /// layers without persistent support assert.  `opts.allow_aggregation`
  /// is advisory above this interface — by the time a message reaches the
  /// layer the aggregation decision is already made.
  virtual void submit(sim::Context& ctx, Pe& src, int dest_pe, MsgView msg,
                      const SendOptions& opts) = 0;

  /// Largest message (total bytes) this layer moves to `dest_pe` in ONE
  /// transaction — the aggregation buffer bound for the (src, dest) pair.
  /// Return 0 to opt the pair out of batching entirely (e.g. intra-node
  /// pointer handoff, where packing would add copies to a zero-copy path).
  virtual std::uint32_t recommended_batch_bytes(Pe& src, int dest_pe) const;

  /// LrtsNetworkEngine: poll completion queues, run protocol state
  /// machines, deliver arrived messages to the scheduler.
  virtual void advance(sim::Context& ctx, Pe& pe) = 0;

  /// True when the layer still has deferred work for this PE (credit-
  /// stalled sends, pending acks) and wants more advance() calls.
  virtual bool has_backlog(const Pe& pe) const = 0;

  /// Publish point-in-time gauges (mailbox/pool/CQ state) into the
  /// registry.  Counters are bound at init and need no collection step.
  virtual void collect_metrics(trace::MetricsRegistry& reg);

  /// The layer's injection governor, or nullptr when the layer has none
  /// (flow control off, or a layer without pacing).  The tenancy
  /// subsystem pushes per-job QoS window bounds through this.
  virtual flowcontrol::InjectionGovernor* governor() { return nullptr; }

  // Persistent-message API (paper §IV-A).  Layers without support return an
  // invalid handle (callers fall back to plain sends).
  virtual PersistentHandle create_persistent(sim::Context& ctx, Pe& src,
                                             int dest_pe,
                                             std::uint32_t max_bytes);
};

/// Handler function; executes on the destination PE with sim::current()
/// set.  The handler owns `msg` (frees it with CmiFree unless kMsgFlagNoFree).
using CmiHandler = std::function<void(void* msg)>;

struct MachineStats {
  std::uint64_t msgs_sent = 0;
  std::uint64_t msgs_executed = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t steps = 0;
};

class Machine {
 public:
  Machine(MachineOptions options, std::unique_ptr<MachineLayer> layer);
  ~Machine();
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  // ---- topology / identity ----
  int num_pes() const { return options_.pes; }
  int node_of_pe(int pe) const { return pe / options_.effective_pes_per_node(); }
  Pe& pe(int i) { return *pes_[static_cast<std::size_t>(i)]; }
  const MachineOptions& options() const { return options_; }
  gemini::Network& network() { return *network_; }
  /// The installed fault injector, or nullptr when faults are disabled.
  fault::FaultInjector* fault_injector() { return fault_.get(); }
  /// The installed congestion estimator, or nullptr when flow control is
  /// disabled.
  flowcontrol::CongestionEstimator* congestion_estimator() {
    return flow_.get();
  }
  /// The whole engine — for DRIVERS only (benches, tests, the run() loop
  /// below).  Protocol code takes the Scheduler accessor instead, whose
  /// type has no run/stop, so it cannot drive the engine.
  sim::Engine& engine() { return engine_; }
  /// The engine's scheduling surface.
  sim::Scheduler& scheduler() { return engine_.scheduler(); }
  MachineLayer& layer() { return *layer_; }
  trace::Tracer* tracer() { return tracer_; }
  void set_tracer(trace::Tracer* t) { tracer_ = t; }

  // ---- handlers ----
  int register_handler(CmiHandler fn);
  const CmiHandler& handler(int idx) const {
    return handlers_[static_cast<std::size_t>(idx)];
  }

  // ---- messaging (callable from inside handlers) ----
  /// Allocate a message of `total` bytes (header included) on the current PE.
  void* alloc_msg(std::uint32_t total);
  /// The unified send entry: every message — plain, broadcast leg,
  /// persistent — funnels through here and down to MachineLayer::submit,
  /// with the aggregation layer in between for eligible small messages.
  /// Ownership of `msg` passes to the runtime.
  void submit(int dest_pe, void* msg, const SendOptions& opts);
  /// CmiSyncSendAndFree: send `msg` to dest_pe; thin wrapper over submit().
  void send(int dest_pe, void* msg);
  /// CmiSyncBroadcastAllAndFree: deliver to every PE (including sender)
  /// via a spanning tree (each tree leg goes through submit(), so small
  /// broadcasts aggregate too).
  void broadcast(void* msg);
  void free_msg(void* msg);

  // ---- persistent messages ----
  PersistentHandle create_persistent(int dest_pe, std::uint32_t max_bytes);
  /// Thin wrapper: submit() with SendOptions::persistent_handle set.
  void send_persistent(PersistentHandle h, void* msg);

  // ---- aggregation ----
  /// The installed aggregator, or nullptr when aggregation is disabled.
  aggregation::Aggregator* aggregator() { return aggregator_.get(); }
  /// Explicit barrier flush of the current PE's aggregation buffers
  /// (no-op when aggregation is off).  Charm reductions call this so
  /// coalesced stragglers never gate a dependency chain.
  void flush_aggregation();

  // ---- bootstrapping / running ----
  /// Schedule `fn` to run on `pe` at virtual time 0 (before any messages).
  void start(int pe, std::function<void()> fn);
  /// Run the simulation until the event queue drains; returns final time.
  SimTime run();
  /// Stop the machine (callable from a handler when the app is done).
  void stop() { engine_.stop(); }

  /// The machine currently executing (valid inside handlers/start fns).
  static Machine* running();
  /// The PE currently executing.
  Pe& current_pe();

  // ---- quiescence detection bookkeeping (used by charm.cpp) ----
  std::uint64_t qd_created(int pe) const {
    return qd_created_[static_cast<std::size_t>(pe)];
  }
  std::uint64_t qd_processed(int pe) const {
    return qd_processed_[static_cast<std::size_t>(pe)];
  }

  const MachineStats& stats() const { return stats_; }

  // ---- observability ----
  /// This machine's metrics registry; layers bind their counters here.
  trace::MetricsRegistry& metrics() { return metrics_; }
  /// collect_metrics() from the layer and network into the registry.
  void collect_metrics();

  /// Spanning-tree helpers shared by broadcast / reductions (k-ary tree).
  static constexpr int kTreeFanout = 4;
  int tree_parent(int pe) const { return pe == 0 ? -1 : (pe - 1) / kTreeFanout; }
  void tree_children(int pe, std::vector<int>& out) const;

 private:
  friend class Pe;

  void dispatch(Pe& pe, void* msg);
  /// One flat-table entry: the System/Bcast/AggBatch decisions are baked
  /// into the instantiation, so dispatch costs one indexed indirect call
  /// instead of a branch chain re-reading the flags word.
  template <bool kSystem, bool kBcast, bool kBatch>
  void dispatch_kind(Pe& pe, void* msg);
  void dispatch_batch(Pe& pe, void* msg);
  using DispatchFn = void (Machine::*)(Pe&, void*);
  /// Indexed by message kind: bit0 = System, bit1 = Bcast, bit2 = AggBatch.
  static const DispatchFn kDispatchTable[8];
  void forward_broadcast(Pe& pe, void* msg);
  void* clone_runtime_owned(Pe& src, void* msg);

  MachineOptions options_;
  sim::Engine engine_;
  /// start() closures not yet run, oldest first.  An event callback holds
  /// only a few trivially copyable words (sim/small_fn.hpp), so the
  /// std::function waits here.
  struct PendingStart {
    Pe* pe;
    std::function<void()> fn;
  };
  std::deque<PendingStart> starts_;
  std::unique_ptr<gemini::Network> network_;
  std::unique_ptr<fault::FaultInjector> fault_;
  std::unique_ptr<flowcontrol::CongestionEstimator> flow_;
  std::unique_ptr<MachineLayer> layer_;
  std::vector<std::unique_ptr<Pe>> pes_;
  std::vector<CmiHandler> handlers_;
  std::vector<std::uint64_t> qd_created_;
  std::vector<std::uint64_t> qd_processed_;
  MachineStats stats_;
  trace::MetricsRegistry metrics_;
  trace::Tracer* tracer_ = nullptr;
  Pe* current_pe_ = nullptr;
  // Declared last: its destructor returns leased batch buffers through
  // layer_ while the PEs are still alive.
  std::unique_ptr<aggregation::Aggregator> aggregator_;
};

// ---- Converse-style free functions (valid inside handlers) ----

int CmiMyPe();
int CmiNumPes();
/// Virtual wall time in seconds.
double CmiWallTimer();
void* CmiAlloc(std::uint32_t total_bytes);
void CmiFree(void* msg);
void CmiSetHandler(void* msg, int handler_idx);
void CmiSyncSendAndFree(int dest_pe, std::uint32_t total_bytes, void* msg);
void CmiSyncBroadcastAllAndFree(std::uint32_t total_bytes, void* msg);
/// Charge modeled application compute to the current PE.
void CmiChargeWork(SimTime ns);

}  // namespace ugnirt::converse
