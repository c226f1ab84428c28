// The uGNI protocol core shared by both uGNI machine layers.
//
// The paper's machine layer is one protocol set (§III-C and §IV):
//
//   * Small messages (size <= SMSG cap, which shrinks with job size): sent
//     with GNI_SmsgSendWTag (or the shared MSGQ); the receiver polls the RX
//     CQ, copies the message out of the mailbox and hands it to Converse.
//     A send that finds no mailbox credit waits in an ordered backlog that
//     the progress engine retries; under an active fault plan the retries
//     back off and, after sustained starvation, a data message is demoted
//     to the credit-free rendezvous path.
//   * Large messages: GET-based rendezvous (Fig 5).  The sender registers
//     (or pool-resolves) the buffer and sends a small INIT_TAG control
//     message carrying {address, memory handle, size}.  The receiver takes
//     a landing buffer (pool first, else heap + register) and issues an
//     FMA GET (< rdma threshold) or BTE GET (>= threshold).  On GET
//     completion it sends ACK_TAG, and each side deregisters what it
//     registered.  Cost without the pool is the paper's Equation 1:
//     2(Tmalloc+Tregister) + Trdma + 2 Tsmsg.  A pool source stays a live,
//     registered model block until ACK_TAG, but its host bytes go back to
//     the arena as soon as the GET has read them (DESIGN.md §8.2).
//   * Memory pool (§IV-B, Fig 7b): message buffers come from
//     pre-registered slabs, removing Tmalloc/Tregister from the path.
//   * Persistent messages (§IV-A, Fig 7a): the receiver pre-allocates a
//     registered landing buffer; a send is one PUT followed by a
//     PERSISTENT_TAG notification: Tcost = Trdma + Tsmsg.
//
// UgniCore implements the set once.  Its template parameter is the
// endpoint owner, which is also the layer deriving from it (CRTP): the
// uGNI layer gives every PE its own endpoint, the SMP layer one endpoint
// per node, driven by the node's comm thread.  The owner supplies, all
// resolved at compile time:
//
//   Route                         INIT routing fields
//   kDataPrefix                   routing bytes sent ahead of each data
//                                 message, as the SMSG `header` argument
//   kDeliverStampsCq              deliver() stamps the cq_complete span
//                                 stage, instead of the core at CQ poll
//   kCreditNotify                 which returned credits reach the
//                                 endpoint (ugni::Nic::CreditNotify)
//   peer_of(pe)                   NIC instance that serves `pe`
//   home_pe(ep)                   the PE owning `ep`; -1 for a comm thread
//   route_to(ep, dest_pe, msg)    Route of an outgoing INIT
//   target_of(ep, route, src)     where an INIT lands and whom to ACK
//   deliver(ep, pe, msg, t)       hand a received message to `pe`
//   wake(ep, t)                   ask for a progress call at `t`
//
// and the owner's endpoint, the NIC's ugni::NicClient, supplies nic_wake
// and any other hook it needs.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

#include "converse/machine.hpp"
#include "flowcontrol/flowcontrol.hpp"
#include "lrts/span_marks.hpp"
#include "mempool/mempool.hpp"
#include "trace/events.hpp"
#include "trace/spans.hpp"
#include "ugni/client.hpp"
#include "ugni/msgq.hpp"
#include "ugni/ugni.hpp"
#include "util/log.hpp"
#include "util/ring_fifo.hpp"
#include "util/slot_map.hpp"

namespace ugnirt::lrts {

// SMSG tags of the machine-layer protocol (paper Fig 5 / Fig 7).
inline constexpr std::uint8_t kTagData = 1;         // whole small message
inline constexpr std::uint8_t kTagInit = 2;         // INIT_TAG: rendezvous
inline constexpr std::uint8_t kTagAck = 3;          // ACK_TAG: sender may free
inline constexpr std::uint8_t kTagPersistData = 4;  // PERSISTENT_TAG: landed

/// INIT_TAG payload: everything the receiver needs to GET the message,
/// plus the owner's routing fields.
template <class Route>
struct InitCtrl {
  std::uint64_t send_id = 0;
  std::uint64_t addr = 0;
  ugni::gni_mem_handle_t hndl{};
  std::uint32_t size = 0;
  Route route{};
};

struct AckCtrl {
  std::uint64_t send_id = 0;
};

/// PERSISTENT_TAG payload.
struct PersistCtrl {
  std::int32_t channel = -1;
  std::uint32_t size = 0;
  std::int32_t src_pe = -1;
};

/// Where a rendezvous lands (from the owner's Route): the PE that gets the
/// message, the PE whose NIC holds the source buffer and gets the ACK, and
/// the payload's span id (0 when unsampled or not on the wire).
struct RdvTarget {
  int dest_pe = -1;
  int reply_pe = -1;
  std::uint32_t span = 0;
};

/// Protocol state of one endpoint: a NIC with its CQs, pool, persistent
/// channels and queued work.  Its in-flight posts live in the core's
/// layer-wide slot maps.  The owner's state derives from it.
struct UgniEndpoint : ugni::ClientEndpoint {
  // No per-peer endpoint map here: the NIC's own peer table (populated
  // lazily by ugni::Nic::get_or_connect) is the single source of truth.
  std::unique_ptr<mempool::MemPool> pool;  // null when use_mempool = false

  // Persistent channels where this endpoint is the *receiver*.
  struct PersistRx {
    void* buf = nullptr;
    std::uint32_t max_bytes = 0;
    ugni::gni_mem_handle_t hndl{};
  };
  std::vector<PersistRx> persist_rx;

  // Persistent channels where this endpoint is the *sender*.
  struct PersistTx {
    int dest_pe = -1;
    std::int32_t remote_channel = -1;
    std::uint64_t remote_addr = 0;
    ugni::gni_mem_handle_t remote_hndl{};
    std::uint32_t max_bytes = 0;
  };
  std::vector<PersistTx> persist_tx;

  // Persistent send buffers stay registered across iterations (the
  // "persistent memory for sending message" of Fig 7a); registration is
  // paid once per buffer and cached here in the no-pool configuration.
  std::unordered_map<const void*, ugni::gni_mem_handle_t> persist_send_reg;

  // Credit-stalled SMSG sends (destinations are PEs), retried in order by
  // flush(); an owned entry is a whole kTagData message.
  ugni::SmsgBacklog backlog;

  // Rendezvous GETs admitted into the core's receive map but deferred by
  // the injection governor (AIMD window full); drained FIFO by flush().
  RingFifo<std::uint64_t> deferred_gets;

  // One-entry endpoint memo for the rx drain loop: bursts of SMSG events
  // from one peer resolve the endpoint once instead of one peer-table
  // probe per event.  Endpoints are never destroyed while the domain
  // lives, so the memo cannot dangle.
  std::int32_t last_peer = -1;
  ugni::gni_ep_handle_t last_ep = nullptr;

  ~UgniEndpoint() {
    for (std::size_t i = 0; i < backlog.q.size(); ++i) {
      if (void* msg = backlog.q[i].msg) mempool::MemPool::discard(msg);
    }
    for (const PersistRx& rx : persist_rx) mempool::MemPool::discard(rx.buf);
  }
};

template <class Owner>
class UgniCore {
 public:
  /// Job-wide SMSG payload cap (depends on job size; paper §III-C).
  std::uint32_t smsg_cap() const { return smsg_cap_; }

  /// Total SMSG mailbox memory committed across the job — the linear-in-
  /// peers cost of §II-B.
  std::uint64_t total_mailbox_bytes() const {
    return domain_ ? domain_->total_mailbox_bytes() : 0;
  }

 protected:
  using Endpoint = UgniEndpoint;

  converse::Machine* machine_ = nullptr;
  std::unique_ptr<ugni::Domain> domain_;
  std::uint32_t smsg_cap_ = 1024;
  bool use_msgq_ = false;
  /// AIMD injection pacing + adaptive thresholds; null when flow control
  /// is off (the hot paths then cost exactly one pointer test).
  std::unique_ptr<flowcontrol::InjectionGovernor> governor_;

  // Hot-path counters, bound to the machine registry in bind() (std::map
  // node addresses are stable, so the pointers stay valid).
  ugni::ClientCounters n_;
  trace::Counter* c_rendezvous_gets_ = nullptr;
  trace::Counter* c_persistent_puts_ = nullptr;
  trace::Counter* c_fallback_rendezvous_ = nullptr;
  trace::Counter* c_fallback_heap_ = nullptr;

  // In-flight posts of every endpoint of the layer, in slot maps whose ids
  // go on the wire (send ids in INIT/ACK) and into post descriptors (post
  // ids).  A post descriptor lives inline in its slot, which never moves,
  // so the NIC may hold it from post to GNI_GetCompleted.

  // Rendezvous sends waiting for ACK_TAG.  A block of the sender's pool
  // is freed by id, because the receiver's GET released its host bytes;
  // any other buffer was registered for the send and is deregistered and
  // freed through its header.
  struct LargeSend {
    void* msg = nullptr;  // registered buffers only
    ugni::gni_mem_handle_t hndl{};
    std::uint32_t block = 0;  // pool block id when msg is null
    bool heap = false;        // msg is a heap buffer
  };
  SlotMap<LargeSend> sends_;

  // Rendezvous receives: GET posted (or deferred), waiting for completion.
  // The landing buffer and its handle are the descriptor's local side.
  struct LargeRecv {
    ugni::gni_post_descriptor_t desc;
    std::uint64_t send_id = 0;
    std::int32_t reply_pe = -1;  // see RdvTarget
    std::int32_t dest_pe = -1;
    std::uint32_t span = 0;  // lifecycle-span id from the INIT control
    bool registered = false;  // heap landing, registered for this GET
  };
  SlotMap<LargeRecv> recvs_;

  // Persistent PUTs in flight; the sent buffer is the descriptor's local
  // side.  Their post ids carry kPersistPostBit, which no receive id has.
  struct PersistSend {
    ugni::gni_post_descriptor_t desc;
    std::int32_t tx_index = -1;
    bool app_owned = false;  // app reuses this buffer; don't free it
    bool heap = false;       // the buffer is a heap buffer
  };
  SlotMap<PersistSend> persist_sends_;
  static constexpr std::uint64_t kPersistPostBit = 1ull << 63;

  /// Frees the heap buffers of posts still in flight (a machine destroyed
  /// mid-run); pool buffers go back with their pools.
  ~UgniCore() {
    sends_.for_each([](std::uint64_t, LargeSend& ls) {
      if (ls.heap) mempool::MemPool::heap_free(ls.msg);
    });
    recvs_.for_each([](std::uint64_t, LargeRecv& lr) {
      if (lr.registered) heap_free_addr(lr.desc.local_addr);
    });
    persist_sends_.for_each([](std::uint64_t, PersistSend& ps) {
      if (ps.heap && !ps.app_owned) heap_free_addr(ps.desc.local_addr);
    });
  }

  /// Create the domain and bind the registry counters.  `smsg_cap` is the
  /// owner's mailbox payload cap; `use_msgq` routes small messages through
  /// the per-NIC shared queue instead of per-pair mailboxes.
  void bind(converse::Machine& m, std::uint32_t smsg_cap, bool use_msgq) {
    machine_ = &m;
    trace::MetricsRegistry& reg = m.metrics();
    n_ = ugni::ClientCounters(reg);
    c_rendezvous_gets_ = &reg.counter("ugni.rendezvous_gets");
    c_persistent_puts_ = &reg.counter("ugni.persistent_puts");
    c_fallback_rendezvous_ = &reg.counter("fallback_rendezvous");
    c_fallback_heap_ = &reg.counter("fallback_heap_send");
    domain_ = std::make_unique<ugni::Domain>(m.network());
    smsg_cap_ = smsg_cap;
    use_msgq_ = use_msgq;
  }

  /// Attach `ep` to the NIC of instance `inst` on `node` with the job's
  /// CQ size and mailbox geometry (or a MSGQ in MSGQ mode), as the NIC's
  /// client.
  void open(Endpoint& ep, int inst, int node) {
    const auto& mc = machine_->options().mc;
    ugni::gni_smsg_attr_t attr;
    attr.msg_maxsize = smsg_cap_;
    attr.mbox_maxcredit = mc.smsg_mailbox_credits;
    ugni::open_endpoint(*domain_, inst, node, mc.cq_entries, attr, use_msgq_,
                        ep);
    ep.nic->set_client(&ep, Owner::kCreditNotify);
  }

  /// Endpoint to NIC instance `peer`, connecting on first touch.
  ugni::gni_ep_handle_t connect(Endpoint& ep, int peer) {
    return ugni::connect(ep, peer, *n_.registrations);
  }

  /// Message buffer from `ep`'s pool, or a modeled malloc.
  void* alloc_buf(sim::Context& ctx, Endpoint& ep, std::size_t bytes) {
    if (ep.pool) {
      if (void* p = ep.pool->alloc(bytes)) return p;
      // Pool expansion lost its slab registration (resource fault): fall
      // back to a plain heap buffer; free_buf routes it back to the heap.
      c_fallback_heap_->inc();
      if (trace::enabled()) {
        trace::emit(trace::Ev::kFallback, ctx.now(), 0, /*peer=*/-1,
                    static_cast<std::uint32_t>(bytes));
      }
    }
    // "Original" path: modeled system malloc.
    ctx.charge(machine_->options().mc.malloc_cost(bytes));
    return mempool::MemPool::heap_alloc(bytes);
  }

  /// Back to the owning pool (named by the block header), or a heap free.
  void free_buf(sim::Context& ctx, void* msg) {
    // The block header names the owning pool: this endpoint's, or a
    // same-node peer's for pxshm single-copy deliveries.  No owner: a heap
    // buffer (no pool, or the fallback after a failed slab registration).
    if (mempool::MemPool* owner = mempool::MemPool::owner_of(msg)) {
      owner->free(msg);
      return;
    }
    ctx.charge(machine_->options().mc.free_base_ns);
    mempool::MemPool::heap_free(msg);
  }

  /// A registered receive buffer: from `ep`'s pool, else heap + register.
  struct Landing {
    void* buf = nullptr;
    ugni::gni_mem_handle_t hndl{};
    bool registered = false;  // heap buffer: deregister when done
  };
  /// `peer` labels the fallback trace event.
  Landing landing(sim::Context& ctx, Endpoint& ep, std::uint32_t size,
                  int peer) {
    Landing l;
    if (void* pooled = ep.pool ? ep.pool->alloc(size) : nullptr) {
      l.buf = pooled;
      l.hndl = ep.pool->handle_of(pooled);
      return l;
    }
    if (ep.pool) {
      // Pool expansion failed: heap-registered buffer instead.
      c_fallback_heap_->inc();
      if (trace::enabled()) {
        trace::emit(trace::Ev::kFallback, ctx.now(), 0, peer, size);
      }
    }
    ctx.charge(machine_->options().mc.malloc_cost(size));
    l.buf = mempool::MemPool::heap_alloc(size);
    register_buf(ctx, ep, l.buf, size, &l.hndl);
    l.registered = true;
    return l;
  }

  /// Send `msg` (ownership passes to the core): eager SMSG up to the
  /// (governed) cap, rendezvous above it.
  void send(sim::Context& ctx, Endpoint& ep, int dest_pe, void* msg,
            std::uint32_t size) {
    // Under hotspot load the governor shrinks the eager window for the hot
    // destination, steering mid-size messages onto the (receiver-paced)
    // rendezvous path instead of stuffing its SMSG mailboxes.
    const std::uint32_t eager =
        governor_
            ? governor_->eager_cap(smsg_cap_, machine_->node_of_pe(dest_pe))
            : smsg_cap_;
    if (size + Owner::kDataPrefix <= eager) {
      smsg_send(ctx, ep, dest_pe, kTagData, msg, size, /*owned_msg=*/msg);
      return;
    }
    // Rendezvous (Fig 5): register / resolve the send buffer, ship INIT_TAG.
    begin_rendezvous(ctx, ep, dest_pe, size, msg);
  }

  /// Single PUT + notification down a pre-negotiated channel (Fig 7a).
  void persistent_send(sim::Context& ctx, Endpoint& ep,
                       converse::PersistentHandle handle, std::uint32_t size,
                       void* msg) {
    assert(handle.valid());
    const auto& mc = machine_->options().mc;
    Endpoint::PersistTx& tx =
        ep.persist_tx.at(static_cast<std::size_t>(handle.id));
    assert(size <= tx.max_bytes && "persistent message exceeds channel size");

    PersistSend ps;
    ps.tx_index = handle.id;
    ps.app_owned = (converse::header_of(msg)->flags &
                    converse::kMsgFlagNoFree) != 0;  // app reuses buffer
    mempool::MemPool* pool_owner = mempool::MemPool::owner_of(msg);
    ps.heap = pool_owner == nullptr;
    ugni::gni_mem_handle_t local_hndl{};
    if (ep.pool && pool_owner == ep.pool.get()) {
      local_hndl = ep.pool->handle_of(msg);
    } else if (auto it = ep.persist_send_reg.find(msg);
               it != ep.persist_send_reg.end()) {
      local_hndl = it->second;  // registered on an earlier iteration
    } else {
      register_buf(ctx, ep, msg, std::max<std::uint32_t>(size, tx.max_bytes),
                   &local_hndl);
      ep.persist_send_reg.emplace(msg, local_hndl);
    }

    ugni::gni_post_descriptor_t& d = ps.desc;
    d.type = size < mc.rdma_threshold ? ugni::GNI_POST_FMA_PUT
                                      : ugni::GNI_POST_RDMA_PUT;
    d.local_addr = reinterpret_cast<std::uint64_t>(msg);
    d.local_mem_hndl = local_hndl;
    d.remote_addr = tx.remote_addr;
    d.remote_mem_hndl = tx.remote_hndl;
    d.length = size;
    const std::uint64_t pid = persist_sends_.insert(ps);
    PersistSend& live = *persist_sends_.find(pid);
    live.desc.post_id = pid | kPersistPostBit;

    // Keep the sender buffer stable until the PUT completes.
    converse::header_of(msg)->flags |= converse::kMsgFlagNoFree;

    ugni::gni_ep_handle_t gep = connect(ep, owner().peer_of(tx.dest_pe));
    ugni::post_with_retry(ctx, gep, &live.desc,
                          live.desc.type == ugni::GNI_POST_RDMA_PUT, n_.post);
    // Persistent PUTs are latency-critical and never deferred, but they
    // count against the window so their completions drive AIMD too.
    if (governor_) governor_->note_post(ep.nic->inst_id());
    c_persistent_puts_->inc();
    if (trace::enabled()) {
      trace::emit(trace::Ev::kPersistPut, ctx.now(), 0, tx.dest_pe, size);
    }
    if (trace::spans_enabled()) {
      mark_msg_spans(msg, trace::Stage::kTransportPost, owner().home_pe(ep),
                     ctx.now());
    }
  }

  /// Drain the RX CQ, the MSGQ and the TX CQ, running the protocol.
  void progress(sim::Context& ctx, Endpoint& ep) {
    // Drain SMSG arrivals.
    ugni::drain_cq(ep.rx_cq, *n_.cq_recovered,
                   [&](const ugni::gni_cq_entry_t& ev) {
                     if (ev.type == ugni::CqEventType::kSmsg) {
                       handle_smsg(ctx, ep, ev.source_inst);
                     }
                   });

    // Drain the shared message queue (MSGQ mode).
    if (ep.msgq) {
      for (;;) {
        void* data = nullptr;
        std::uint32_t len = 0;
        std::uint8_t tag = 0;
        std::int32_t source = -1;
        ugni::gni_return_t rc =
            ugni::GNI_MsgqProgress(ep.msgq, &data, &len, &tag, &source);
        if (rc != ugni::GNI_RC_SUCCESS) break;
        handle_protocol_msg(ctx, ep, tag, data, source, ctx.now());
      }
    }

    // Drain FMA/BTE completions.
    ugni::drain_cq(ep.tx_cq, *n_.cq_recovered,
                   [&](const ugni::gni_cq_entry_t& ev) {
                     if (ev.type == ugni::CqEventType::kPostLocal) {
                       handle_completion(ctx, ep, ev);
                     }
                   });
  }

  /// Re-admit governor-deferred GETs, then retry the credit backlog.
  void flush(sim::Context& ctx, Endpoint& ep) {
    if (governor_) drain_deferred_gets(ctx, ep);
    SmsgClient c{*this, ep};
    ep.backlog.flush(ctx, c, n_, machine_->fault_injector() != nullptr);
  }

  void collect_core_metrics(trace::MetricsRegistry& reg) {
    if (domain_) domain_->collect_metrics(reg);
    if (governor_) governor_->collect_metrics(reg);
  }

 private:
  Owner& owner() { return static_cast<Owner&>(*this); }

  static void heap_free_addr(std::uint64_t addr) {
    mempool::MemPool::heap_free(reinterpret_cast<void*>(addr));
  }

  void register_buf(sim::Context& ctx, Endpoint& ep, const void* buf,
                    std::uint64_t len, ugni::gni_mem_handle_t* hndl) {
    // Retries on transient resource exhaustion.
    ugni::register_with_retry(ctx, ep.nic,
                              reinterpret_cast<std::uint64_t>(buf), len,
                              nullptr, hndl, n_.reg);
  }

  /// One SMSG (or MSGQ) post; data messages carry the owner's routing
  /// prefix as the SMSG header.
  ugni::gni_return_t post_smsg(Endpoint& ep, ugni::gni_ep_handle_t gep,
                               int dest_pe, std::uint8_t tag, const void* bytes,
                               std::uint32_t len) {
    static_assert(Owner::kDataPrefix == 0 ||
                  Owner::kDataPrefix == sizeof(std::int32_t));
    const std::int32_t prefix = dest_pe;
    const std::uint32_t plen = tag == kTagData ? Owner::kDataPrefix : 0;
    if (use_msgq_) {
      return ugni::GNI_MsgqSend(ep.nic, owner().peer_of(dest_pe), &prefix,
                                plen, bytes, len, tag);
    }
    return ugni::GNI_SmsgSendWTag(gep, &prefix, plen, bytes, len, 0, tag);
  }

  /// The endpoint's side of its SMSG backlog (ugni::SmsgBacklog).
  struct SmsgClient {
    UgniCore& core;
    Endpoint& ep;
    ugni::gni_ep_handle_t smsg_ep(int dest_pe) {
      return core.use_msgq_
                 ? nullptr
                 : core.connect(ep, core.owner().peer_of(dest_pe));
    }
    ugni::gni_return_t smsg_post(ugni::gni_ep_handle_t gep, int dest_pe,
                                 std::uint8_t tag, const void* bytes,
                                 std::uint32_t len) {
      return core.post_smsg(ep, gep, dest_pe, tag, bytes, len);
    }
    void smsg_posted(sim::Context& ctx, void* msg) {
      if (trace::spans_enabled()) {
        mark_msg_spans(msg, trace::Stage::kTransportPost,
                       core.owner().home_pe(ep), ctx.now());
      }
      core.free_buf(ctx, msg);
    }
    bool smsg_demote(sim::Context& ctx) {
      return core.demote_front_to_rendezvous(ctx, ep);
    }
    void smsg_wake(SimTime t) { core.owner().wake(ep, t); }
  };

  /// Send a tagged SMSG (control or data), queueing on credit exhaustion.
  void smsg_send(sim::Context& ctx, Endpoint& ep, int dest_pe, std::uint8_t tag,
                 const void* bytes, std::uint32_t len, void* owned_msg) {
    SmsgClient c{*this, ep};
    ep.backlog.send(ctx, c, n_, dest_pe, tag, bytes, len, owned_msg);
  }

  /// Convert the backlog's front kTagData entry to a rendezvous INIT
  /// (credit-free path) after sustained SMSG starvation.
  bool demote_front_to_rendezvous(sim::Context& ctx, Endpoint& ep) {
    ugni::SmsgBacklog::Entry& p = ep.backlog.q.front();
    // Only whole data messages can demote; control messages ARE the
    // rendezvous protocol and must stay on the SMSG path.
    if (!p.msg || p.tag != kTagData) return false;
    void* msg = p.msg;
    const int dest_pe = p.dest;
    const std::uint32_t size = converse::header_of(msg)->size;
    ep.backlog.q.pop_front();
    c_fallback_rendezvous_->inc();
    if (trace::enabled()) {
      trace::emit(trace::Ev::kFallback, ctx.now(), 0, dest_pe, size);
    }
    UGNIRT_TRACELOG("smsg starvation: demoting " << size << " B -> pe "
                                                 << dest_pe
                                                 << " to rendezvous");
    begin_rendezvous(ctx, ep, dest_pe, size, msg);
    return true;
  }

  /// Start the rendezvous protocol for `msg` (register or pool-resolve,
  /// then send/queue the INIT control message).
  void begin_rendezvous(sim::Context& ctx, Endpoint& ep, int dest_pe,
                        std::uint32_t size, void* msg) {
    LargeSend ls;
    mempool::MemPool* pool_owner = mempool::MemPool::owner_of(msg);
    if (ep.pool && pool_owner == ep.pool.get()) {
      ls.hndl = ep.pool->handle_of(msg);
      ls.block = ep.pool->block_of(msg);
    } else {
      // Heap buffer (no pool, or a heap-fallback allocation), or another
      // pool's block (a pxshm single-copy delivery forwarded): register it.
      ls.msg = msg;
      ls.heap = pool_owner == nullptr;
      register_buf(ctx, ep, msg, size, &ls.hndl);
      n_.registrations->inc();
    }
    const std::uint64_t id = sends_.insert(ls);
    if (trace::enabled()) {
      trace::emit(trace::Ev::kRdvInit, ctx.now(), 0, dest_pe, size);
    }

    InitCtrl<typename Owner::Route> ctrl;
    ctrl.send_id = id;
    ctrl.addr = reinterpret_cast<std::uint64_t>(msg);
    ctrl.hndl = ls.hndl;
    ctrl.size = size;
    ctrl.route = owner().route_to(ep, dest_pe, msg);
    smsg_send(ctx, ep, dest_pe, kTagInit, &ctrl, sizeof(ctrl), nullptr);
  }

  /// Post the (fully prepared) rendezvous GET of one LargeRecv: endpoint
  /// lookup, descriptor post with retry, counters and trace.
  void issue_rendezvous_get(sim::Context& ctx, Endpoint& ep,
                            std::uint64_t rid) {
    LargeRecv& lr = *recvs_.find(rid);
    const int src_peer = owner().peer_of(lr.reply_pe);
    ugni::gni_ep_handle_t back = connect(ep, src_peer);
    ugni::post_with_retry(ctx, back, &lr.desc,
                          lr.desc.type == ugni::GNI_POST_RDMA_GET, n_.post);
    release_source(lr.desc);
    c_rendezvous_gets_->inc();
    if (trace::enabled()) {
      trace::emit(trace::Ev::kRdvGet, ctx.now(), 0, src_peer,
                  static_cast<std::uint32_t>(lr.desc.length));
    }
    if (trace::spans_enabled() && lr.span != 0) {
      trace::span_mark(lr.span, trace::Stage::kTransportPost, lr.dest_pe,
                       ctx.now());
    }
  }

  /// The GET has copied its source (the post performs the copy, and no
  /// retry follows a successful post).  When the source is a pool block
  /// sent under its own slab handle, its sender frees it by block id on
  /// ACK_TAG, so its host bytes can go now.  Registered sources (heap
  /// buffers, another pool's blocks) are freed through their header and
  /// keep their bytes.
  static void release_source(const ugni::gni_post_descriptor_t& d) {
    void* src = reinterpret_cast<void*>(d.remote_addr);
    mempool::MemPool* owner = mempool::MemPool::owner_of(src);
    if (owner && owner->handle_of(src) == d.remote_mem_hndl) {
      owner->release_host(src);
    }
  }

  /// Re-try governor admission for GETs deferred under hotspot load.
  void drain_deferred_gets(sim::Context& ctx, Endpoint& ep) {
    if (ep.deferred_gets.empty()) return;
    // The span gate is run-constant; test it once per batch of re-admitted
    // GETs rather than per item.
    const bool spans = trace::spans_enabled();
    const int inst = ep.nic->inst_id();
    // Tenancy QoS weighted admission: bulk/scavenger jobs re-admit at most
    // `quota` deferred GETs per drain pass (0 = stock unbounded drain), so
    // a storm's backlog trickles out instead of bursting the moment the
    // window opens.
    const std::uint32_t quota = governor_->drain_quota(inst);
    std::uint32_t admitted = 0;
    while (!ep.deferred_gets.empty()) {
      if (quota != 0 && admitted >= quota) return;
      // would_admit first: drain retries must not inflate the stall count
      // (each deferral already recorded its kInjectionStall at INIT time).
      if (!governor_->would_admit(inst)) return;
      const std::uint64_t rid = ep.deferred_gets.front();
      ep.deferred_gets.pop_front();
      const LargeRecv& lr = *recvs_.find(rid);
      governor_->try_acquire(inst, lr.reply_pe,
                             static_cast<std::uint32_t>(lr.desc.length),
                             ctx.now());
      if (spans && lr.span != 0) {
        trace::span_mark(lr.span, trace::Stage::kGovAdmit, lr.dest_pe,
                         ctx.now());
      }
      issue_rendezvous_get(ctx, ep, rid);
      ++admitted;
    }
  }

  void handle_smsg(sim::Context& ctx, Endpoint& ep, int src_inst) {
    ugni::gni_ep_handle_t gep;
    if (src_inst == ep.last_peer) {
      gep = ep.last_ep;  // burst from one peer: skip the per-event probe
    } else {
      gep = ep.nic->ep_for_peer(src_inst);
      if (gep) {
        ep.last_peer = src_inst;
        ep.last_ep = gep;
      }
    }
    void* data = nullptr;
    std::uint8_t tag = 0;
    SimTime arrival = ctx.now();
    ugni::gni_return_t rc =
        ugni::GNI_SmsgGetNextWTag(gep, &data, &tag, &arrival);
    if (rc != ugni::GNI_RC_SUCCESS) return;
    handle_protocol_msg(ctx, ep, tag, data, src_inst, arrival);
    ugni::GNI_SmsgRelease(gep);
  }

  /// Protocol demux for small messages arriving via SMSG or MSGQ.
  /// `arrival` is the virtual wire-arrival instant of the control/data
  /// bytes (== ctx.now() for paths that cannot observe it earlier).
  void handle_protocol_msg(sim::Context& ctx, Endpoint& ep, std::uint8_t tag,
                           const void* data, int src_inst, SimTime arrival) {
    switch (tag) {
      case kTagData:
        on_tag_data(ctx, ep, data, arrival);
        return;
      case kTagInit:
        on_tag_init(ctx, ep, data, src_inst, arrival);
        return;
      case kTagAck:
        on_tag_ack(ctx, ep, data);
        return;
      case kTagPersistData:
        on_tag_persist(ctx, ep, data, arrival);
        return;
      default:
        assert(false && "unknown SMSG tag");
    }
  }

  void on_tag_data(sim::Context& ctx, Endpoint& ep, const void* data,
                   SimTime arrival) {
    int dest_pe = owner().home_pe(ep);
    if constexpr (Owner::kDataPrefix != 0) {
      std::int32_t routed = 0;
      std::memcpy(&routed, data, sizeof(routed));
      dest_pe = routed;
      data = static_cast<const std::uint8_t*>(data) + Owner::kDataPrefix;
    }
    // Copy out of the mailbox/queue slot into a runtime buffer.
    const std::uint32_t size = converse::header_of(data)->size;
    if (trace::spans_enabled()) {
      // rx_arrive at the wire-arrival instant, cq_complete now: the gap
      // is how long the event waited for its endpoint to poll the CQ.
      mark_msg_spans(data, trace::Stage::kRxArrive, dest_pe, arrival);
      if constexpr (!Owner::kDeliverStampsCq) {
        mark_msg_spans(data, trace::Stage::kCqComplete, dest_pe, ctx.now());
      }
    }
    void* buf = alloc_buf(ctx, ep, size);
    ctx.charge(machine_->options().mc.memcpy_cost(size));
    std::memcpy(buf, data, size);
    owner().deliver(ep, dest_pe, buf, ctx.now());
  }

  void on_tag_init(sim::Context& ctx, Endpoint& ep, const void* data,
                   int src_inst, SimTime arrival) {
    const auto& mc = machine_->options().mc;
    InitCtrl<typename Owner::Route> ctrl;
    std::memcpy(&ctrl, data, sizeof(ctrl));
    const RdvTarget to = owner().target_of(ep, ctrl.route, src_inst);
    if (trace::spans_enabled() && to.span != 0) {
      trace::span_mark(to.span, trace::Stage::kRxArrive, to.dest_pe, arrival);
    }

    LargeRecv lr;
    lr.send_id = ctrl.send_id;
    lr.reply_pe = to.reply_pe;
    lr.dest_pe = to.dest_pe;
    lr.span = to.span;
    const Landing l = landing(ctx, ep, ctrl.size, to.reply_pe);
    lr.registered = l.registered;
    if (l.registered) n_.registrations->inc();
    // A hot NIC switches to the offloaded BTE engine earlier, freeing the
    // CPU to drain completions (stock threshold when flow is off).
    const std::uint32_t rdma_thr =
        governor_ ? governor_->rdma_threshold(mc.rdma_threshold, ep.nic->node())
                  : mc.rdma_threshold;
    ugni::gni_post_descriptor_t& d = lr.desc;
    d.type = ctrl.size < rdma_thr ? ugni::GNI_POST_FMA_GET
                                  : ugni::GNI_POST_RDMA_GET;
    d.local_addr = reinterpret_cast<std::uint64_t>(l.buf);
    d.local_mem_hndl = l.hndl;
    d.remote_addr = ctrl.addr;
    d.remote_mem_hndl = ctrl.hndl;
    d.length = ctrl.size;
    const std::uint64_t rid = recvs_.insert(lr);
    recvs_.find(rid)->desc.post_id = rid;

    // AIMD admission: a full window defers the GET (the sender's buffer
    // stays pinned behind the INIT/ACK protocol, so deferral is safe);
    // drain_deferred_gets re-admits as completions free slots.
    if (governor_ && !governor_->try_acquire(ep.nic->inst_id(), to.reply_pe,
                                             ctrl.size, ctx.now())) {
      if (trace::spans_enabled() && to.span != 0) {
        trace::span_mark(to.span, trace::Stage::kGovDefer, to.dest_pe,
                         ctx.now());
      }
      ep.deferred_gets.push_back(rid);
      return;
    }
    if (governor_ && trace::spans_enabled() && to.span != 0) {
      trace::span_mark(to.span, trace::Stage::kGovAdmit, to.dest_pe, ctx.now());
    }
    issue_rendezvous_get(ctx, ep, rid);
  }

  void on_tag_ack(sim::Context& ctx, Endpoint& ep, const void* data) {
    AckCtrl ack;
    std::memcpy(&ack, data, sizeof(ack));
    LargeSend* ls = sends_.find(ack.send_id);
    assert(ls);
    if (ls->msg) {
      ugni::GNI_MemDeregister(ep.nic, &ls->hndl);
      free_buf(ctx, ls->msg);
    } else {
      ep.pool->free_block(ls->block);
    }
    sends_.erase(ack.send_id);
  }

  void on_tag_persist(sim::Context& ctx, Endpoint& ep, const void* data,
                      SimTime arrival) {
    PersistCtrl pc;
    std::memcpy(&pc, data, sizeof(pc));
    Endpoint::PersistRx& rx =
        ep.persist_rx.at(static_cast<std::size_t>(pc.channel));
    // Deliver the landing buffer in place: zero copy, runtime-owned.
    const int pe = owner().home_pe(ep);
    converse::CmiMsgHeader* h = converse::header_of(rx.buf);
    h->flags |= converse::kMsgFlagNoFree;
    if (trace::spans_enabled() && h->span_id != 0) {
      // The PUT copied the whole envelope into the landing buffer, so the
      // sampled span id arrived with the data.
      trace::span_mark(h->span_id, trace::Stage::kRxArrive, pe, arrival);
    }
    owner().deliver(ep, pe, rx.buf, ctx.now());
  }

  void handle_completion(sim::Context& ctx, Endpoint& ep,
                         const ugni::gni_cq_entry_t& ev) {
    ugni::gni_post_descriptor_t* desc = nullptr;
    ugni::check(ugni::GNI_GetCompleted(ep.tx_cq, ev, &desc),
                "GNI_GetCompleted");

    const std::uint64_t pid = desc->post_id;
    if (!(pid & kPersistPostBit)) {
      // Our GET finished: ACK the sender, deliver the message (Fig 5).
      if (governor_) {
        governor_->on_complete(ep.nic->inst_id(), ep.nic->node(), ctx.now());
      }
      LargeRecv* found = recvs_.find(pid);
      assert(found && "completion for unknown descriptor");
      LargeRecv& lr = *found;
      if constexpr (!Owner::kDeliverStampsCq) {
        if (trace::spans_enabled() && lr.span != 0) {
          trace::span_mark(lr.span, trace::Stage::kCqComplete, lr.dest_pe,
                           ctx.now());
        }
      }
      AckCtrl ack{lr.send_id};
      if (trace::enabled()) {
        trace::emit(trace::Ev::kRdvAck, ctx.now(), 0,
                    owner().peer_of(lr.reply_pe),
                    static_cast<std::uint32_t>(desc->length));
      }
      smsg_send(ctx, ep, lr.reply_pe, kTagAck, &ack, sizeof(ack), nullptr);
      if (lr.registered) {
        ugni::GNI_MemDeregister(ep.nic, &lr.desc.local_mem_hndl);
      }
      owner().deliver(ep, lr.dest_pe,
                      reinterpret_cast<void*>(lr.desc.local_addr), ctx.now());
      recvs_.erase(pid);
      return;
    }
    if (PersistSend* ps = persist_sends_.find(pid & ~kPersistPostBit)) {
      // Persistent PUT landed: notify the receiver, release our buffer
      // (unless the application owns and reuses it, Fig 7a).
      if (governor_) {
        governor_->on_complete(ep.nic->inst_id(), ep.nic->node(), ctx.now());
      }
      void* msg = reinterpret_cast<void*>(ps->desc.local_addr);
      if (trace::spans_enabled()) {
        mark_msg_spans(msg, trace::Stage::kCqComplete, owner().home_pe(ep),
                       ctx.now());
      }
      Endpoint::PersistTx& tx =
          ep.persist_tx.at(static_cast<std::size_t>(ps->tx_index));
      PersistCtrl pc;
      pc.channel = tx.remote_channel;
      pc.size = static_cast<std::uint32_t>(ps->desc.length);
      pc.src_pe = owner().home_pe(ep);
      smsg_send(ctx, ep, tx.dest_pe, kTagPersistData, &pc, sizeof(pc),
                nullptr);
      if (!ps->app_owned) {
        converse::header_of(msg)->flags &=
            static_cast<std::uint16_t>(~converse::kMsgFlagNoFree);
        free_buf(ctx, msg);
      }
      persist_sends_.erase(pid & ~kPersistPostBit);
      return;
    }
    assert(false && "completion for unknown descriptor");
  }
};

}  // namespace ugnirt::lrts
