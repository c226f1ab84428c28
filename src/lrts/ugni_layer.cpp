#include "lrts/ugni_layer.hpp"

#include <cassert>
#include <cstring>

#include "aggregation/frame.hpp"
#include "lrts/pool_metrics.hpp"
#include "lrts/span_marks.hpp"
#include "trace/events.hpp"
#include "trace/spans.hpp"
#include "ugni/msgq.hpp"
#include "util/log.hpp"

namespace ugnirt::lrts {

using converse::CmiMsgHeader;
using converse::header_of;
using converse::kCmiHeaderBytes;
using converse::kMsgFlagNoFree;

namespace {

// SMSG tags of the machine-layer protocol (paper Fig 5 / Fig 7).
constexpr std::uint8_t kTagData = 1;          // whole small message inline
constexpr std::uint8_t kTagInit = 2;          // INIT_TAG: rendezvous control
constexpr std::uint8_t kTagAck = 3;           // ACK_TAG: sender may free
constexpr std::uint8_t kTagPersistData = 4;   // PERSISTENT_TAG: data landed

// Aggregation-batch bound for the intra-node pxshm path: a shm queue slot
// carries any size, so cap batches at one page-ish lease from the pool.
constexpr std::uint32_t kPxshmBatchBytes = 4096;

/// INIT_TAG payload: everything the receiver needs to GET the message.
struct InitCtrl {
  std::uint64_t send_id = 0;
  std::uint64_t addr = 0;
  ugni::gni_mem_handle_t hndl{};
  std::uint32_t size = 0;
  std::int32_t src_pe = -1;
  std::uint32_t span = 0;  // lifecycle-span id of the payload message
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

}  // namespace

// ---------------------------------------------------------------------------
// Per-PE and per-node state
// ---------------------------------------------------------------------------

struct UgniLayer::PeState final : converse::LayerPeState {
  converse::Pe* pe = nullptr;
  ugni::gni_nic_handle_t nic = nullptr;
  ugni::gni_cq_handle_t rx_cq = nullptr;  // SMSG arrivals
  ugni::gni_cq_handle_t tx_cq = nullptr;  // FMA/BTE local completions
  ugni::gni_msgq_handle_t msgq = nullptr; // shared queue (use_msgq mode)
  // No per-peer endpoint map here: the NIC's own peer table (populated
  // lazily by ugni::Nic::get_or_connect) is the single source of truth.
  std::unique_ptr<mempool::MemPool> pool;  // null when use_mempool = false

  // In-flight rendezvous sends: waiting for ACK_TAG.
  struct LargeSend {
    void* msg = nullptr;
    ugni::gni_mem_handle_t hndl{};
    bool registered = false;  // true when we must deregister on ACK
  };
  std::unordered_map<std::uint64_t, LargeSend> sends;
  std::uint64_t next_send_id = 1;

  // In-flight rendezvous receives: GET posted, waiting for completion.
  struct LargeRecv {
    void* buf = nullptr;
    std::unique_ptr<ugni::gni_post_descriptor_t> desc;
    std::uint64_t send_id = 0;
    std::int32_t src_pe = -1;
    std::uint32_t span = 0;  // lifecycle-span id from the INIT control
    bool registered = false;
    ugni::gni_mem_handle_t local_hndl{};
  };
  std::unordered_map<std::uint64_t, LargeRecv> recvs;
  std::uint64_t next_recv_id = 1;

  // Persistent channels where this PE is the *receiver*.
  struct PersistRx {
    void* buf = nullptr;
    std::uint32_t max_bytes = 0;
    ugni::gni_mem_handle_t hndl{};
  };
  std::vector<PersistRx> persist_rx;

  // Persistent channels where this PE is the *sender*.
  struct PersistTx {
    int dest_pe = -1;
    std::int32_t remote_channel = -1;
    std::uint64_t remote_addr = 0;
    ugni::gni_mem_handle_t remote_hndl{};
    std::uint32_t max_bytes = 0;
  };
  std::vector<PersistTx> persist_tx;

  // PUTs in flight for persistent sends, keyed by descriptor post_id.
  struct PersistSend {
    void* msg = nullptr;
    std::unique_ptr<ugni::gni_post_descriptor_t> desc;
    std::int32_t tx_index = -1;
    std::uint32_t size = 0;
    bool app_owned = false;  // app reuses this buffer; don't free it
  };
  std::unordered_map<std::uint64_t, PersistSend> persist_sends;
  std::uint64_t next_persist_id = 1;

  // Persistent send buffers stay registered across iterations (the
  // "persistent memory for sending message" of Fig 7a); registration is
  // paid once per buffer and cached here in the no-pool configuration.
  std::unordered_map<const void*, ugni::gni_mem_handle_t> persist_send_reg;

  // Credit-stalled SMSG sends, retried from advance().
  struct Pending {
    int dest_pe = -1;
    std::uint8_t tag = 0;
    std::vector<std::uint8_t> ctrl;  // control payload (ctrl tags)
    void* msg = nullptr;             // data payload (kTagData), owned
  };
  std::deque<Pending> backlog;
  int backlog_attempts = 0;      // consecutive failed flush attempts
  SimTime backlog_retry_at = 0;  // no flush retry before this instant

  // Rendezvous GETs admitted into `recvs` but deferred by the injection
  // governor (AIMD window full); drained FIFO from advance().
  std::deque<std::uint64_t> deferred_gets;

  // One-entry endpoint memo for the rx drain loop: bursts of SMSG events
  // from one peer resolve the endpoint once instead of one peer-table
  // probe per event.  Endpoints are never destroyed while the domain
  // lives, so the memo cannot dangle.
  std::int32_t last_peer = -1;
  ugni::gni_ep_handle_t last_ep = nullptr;

  ~PeState() override {
    for (auto& p : backlog) {
      if (p.msg) mempool::MemPool::discard(p.msg);
    }
  }
};

/// Intra-node pxshm: one receive queue per local PE.
struct UgniLayer::NodeShm {
  struct Entry {
    void* msg = nullptr;
    std::uint32_t size = 0;
    SimTime at = 0;
  };
  std::vector<std::deque<Entry>> rx;  // indexed by pe-on-node rank
};

// ---------------------------------------------------------------------------
// Setup
// ---------------------------------------------------------------------------

UgniLayer::UgniLayer() = default;
UgniLayer::~UgniLayer() = default;

std::uint64_t UgniLayer::total_mailbox_bytes() const {
  return domain_ ? domain_->total_mailbox_bytes() : 0;
}

LayerStats UgniLayer::stats() const {
  LayerStats out;
  if (!c_smsg_sends_) return out;  // init_pe has not bound the counters
  out.smsg_sends = c_smsg_sends_->value();
  out.rendezvous_gets = c_rendezvous_gets_->value();
  out.persistent_puts = c_persistent_puts_->value();
  out.pxshm_msgs = c_pxshm_msgs_->value();
  out.credit_stalls = c_credit_stalls_->value();
  out.registrations = c_registrations_->value();
  return out;
}

void UgniLayer::collect_metrics(trace::MetricsRegistry& reg) {
  if (domain_) domain_->collect_metrics(reg);
  if (governor_) governor_->collect_metrics(reg);
  collect_pool_metrics(reg, states_);
}

UgniLayer::PeState& UgniLayer::state(converse::Pe& pe) {
  return *static_cast<PeState*>(pe.layer_state());
}

UgniLayer::PeState& UgniLayer::state_of(int pe_id) {
  return *states_[static_cast<std::size_t>(pe_id)];
}

void UgniLayer::ensure_domain(converse::Machine& m) {
  if (domain_) return;
  machine_ = &m;
  trace::MetricsRegistry& reg = m.metrics();
  c_smsg_sends_ = &reg.counter("ugni.smsg_sends");
  c_rendezvous_gets_ = &reg.counter("ugni.rendezvous_gets");
  c_persistent_puts_ = &reg.counter("ugni.persistent_puts");
  c_pxshm_msgs_ = &reg.counter("ugni.pxshm_msgs");
  c_credit_stalls_ = &reg.counter("ugni.credit_stalls");
  c_registrations_ = &reg.counter("ugni.registrations");
  c_retry_smsg_ = &reg.counter("retry_smsg");
  c_retry_post_ = &reg.counter("retry_post");
  c_retry_mem_register_ = &reg.counter("retry_mem_register");
  c_retry_escalations_ = &reg.counter("retry_escalations");
  c_fallback_rendezvous_ = &reg.counter("fallback_rendezvous");
  c_fallback_heap_ = &reg.counter("fallback_heap_send");
  c_cq_recovered_ = &reg.counter("cq_overrun_recovered");
  retry_ = m.options().retry;
  if (m.options().flow.enable) {
    // Through the factory (not direct construction — the deprecated-send
    // lint enforces this) so tenancy QoS classes bind to every governor.
    governor_ = flowcontrol::make_governor(
        m.options().flow, m.congestion_estimator(), m.num_pes());
  }
  domain_ = std::make_unique<ugni::Domain>(m.network());
  states_.resize(static_cast<std::size_t>(m.num_pes()), nullptr);
  node_shm_.resize(static_cast<std::size_t>(m.options().nodes()));
  for (auto& shm : node_shm_) {
    shm = std::make_unique<NodeShm>();
    shm->rx.resize(static_cast<std::size_t>(
        m.options().effective_pes_per_node()));
  }
  smsg_cap_ = m.options().mc.smsg_max_for_job(m.num_pes());
  use_pxshm_ = m.options().use_pxshm;
  use_msgq_ = m.options().use_msgq;
  UGNIRT_DEBUG("uGNI layer up: " << m.num_pes() << " PEs, smsg cap "
                                 << smsg_cap_ << " B");
}

void UgniLayer::init_pe(converse::Pe& pe) {
  ensure_domain(pe.machine());
  auto st = std::make_unique<PeState>();
  PeState* s = st.get();
  s->pe = &pe;
  ugni::gni_return_t rc =
      ugni::GNI_CdmAttach(domain_.get(), pe.id(), pe.node(), &s->nic);
  assert(rc == ugni::GNI_RC_SUCCESS);
  const std::uint32_t mc_cq_entries = pe.machine().options().mc.cq_entries;
  rc = ugni::GNI_CqCreate(s->nic, mc_cq_entries, &s->rx_cq);
  assert(rc == ugni::GNI_RC_SUCCESS);
  rc = ugni::GNI_CqCreate(s->nic, mc_cq_entries, &s->tx_cq);
  assert(rc == ugni::GNI_RC_SUCCESS);
  (void)rc;
  s->nic->set_smsg_rx_cq(s->rx_cq);
  s->nic->set_default_tx_cq(s->tx_cq);
  // Channel setup is fully lazy: init only records the mailbox geometry
  // every future get_or_connect will use.  Nothing here is O(npes).
  ugni::gni_smsg_attr_t attr;
  attr.msg_maxsize = smsg_cap_;
  attr.mbox_maxcredit = pe.machine().options().mc.smsg_mailbox_credits;
  s->nic->set_smsg_attr(attr);

  converse::Pe* pptr = &pe;
  s->rx_cq->set_notify([pptr](SimTime t) { pptr->wake(t); });
  s->tx_cq->set_notify([pptr](SimTime t) { pptr->wake(t); });
  s->nic->set_credit_notify([pptr](SimTime t) { pptr->wake(t); });

  if (pe.machine().options().use_msgq) {
    rc = ugni::GNI_MsgqInit(s->nic, 256 * 1024, &s->msgq);
    assert(rc == ugni::GNI_RC_SUCCESS);
    s->msgq->set_notify([pptr](SimTime t) { pptr->wake(t); });
  }

  if (pe.machine().options().use_mempool) {
    s->pool = std::make_unique<mempool::MemPool>(
        arena_, s->nic, pe.machine().options().mc.mempool_init_bytes);
  }
  states_[static_cast<std::size_t>(pe.id())] = s;
  pe.set_layer_state(std::move(st));
}

ugni::gni_ep_handle_t UgniLayer::connect(PeState& src, int dest_pe) {
  bool established = false;
  ugni::gni_ep_handle_t ep = src.nic->get_or_connect(dest_pe, &established);
  assert(ep && "get_or_connect failed: unknown peer or NIC not configured");
  // get_or_connect charged the initiator for both mailbox pins (nothing
  // in MSGQ mode); mirror the two registrations into the layer counter.
  if (established && !use_msgq_) {
    c_registrations_->inc(2);
  }
  return ep;
}

// ---------------------------------------------------------------------------
// Allocation
// ---------------------------------------------------------------------------

void* UgniLayer::alloc(sim::Context& ctx, converse::Pe& pe,
                       std::size_t bytes) {
  PeState& s = state(pe);
  if (s.pool) {
    if (void* p = s.pool->alloc(bytes)) return p;
    // Pool expansion lost its slab registration (resource fault): fall
    // back to a plain heap buffer; free_msg routes it back to the heap.
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

void UgniLayer::free_msg(sim::Context& ctx, converse::Pe& pe, void* msg) {
  (void)pe;
  // The block header names the owning pool: this PE's, or a same-node
  // peer's for pxshm single-copy deliveries.  No owner: a heap buffer
  // (no pool, or the fallback after a failed slab registration).
  if (mempool::MemPool* owner = mempool::MemPool::owner_of(msg)) {
    owner->free(msg);
    return;
  }
  ctx.charge(machine_->options().mc.free_base_ns);
  mempool::MemPool::heap_free(msg);
}

// ---------------------------------------------------------------------------
// SMSG with backlog
// ---------------------------------------------------------------------------

void UgniLayer::smsg_send(sim::Context& ctx, PeState& src, int dest_pe,
                          std::uint8_t tag, const void* bytes,
                          std::uint32_t len, void* owned_msg) {
  const bool msgq_mode = use_msgq_;
  ugni::gni_ep_handle_t ep = nullptr;
  if (!msgq_mode) ep = connect(src, dest_pe);
  if (src.backlog.empty()) {
    ugni::gni_return_t rc =
        msgq_mode
            ? ugni::GNI_MsgqSend(src.nic, dest_pe, bytes, len, nullptr, 0,
                                 tag)
            : ugni::GNI_SmsgSendWTag(ep, bytes, len, nullptr, 0, 0, tag);
    if (rc == ugni::GNI_RC_SUCCESS) {
      c_smsg_sends_->inc();
      if (owned_msg) {
        if (trace::spans_enabled()) {
          mark_msg_spans(owned_msg, trace::Stage::kTransportPost,
                         src.pe->id(), ctx.now());
        }
        free_msg(ctx, *src.pe, owned_msg);
      }
      return;
    }
    // NOT_DONE: out of credits or a starvation window; ERROR_RESOURCE: an
    // injected transient send failure.  Both queue and retry from
    // flush_backlog; anything else is a contract violation.
    ugni::check(rc, "GNI_SmsgSendWTag", ugni::GNI_RC_NOT_DONE,
                ugni::GNI_RC_ERROR_RESOURCE);
  }
  // Out of credits (or draining in order behind earlier stalls): queue.
  c_credit_stalls_->inc();
  if (trace::enabled()) {
    trace::emit(trace::Ev::kCreditStall, ctx.now(), 0, dest_pe, len);
  }
  UGNIRT_TRACELOG("smsg credit stall -> pe " << dest_pe << " (" << len
                                             << " B queued)");
  PeState::Pending p;
  p.dest_pe = dest_pe;
  p.tag = tag;
  if (owned_msg) {
    p.msg = owned_msg;  // payload lives in the message itself
  } else {
    p.ctrl.assign(static_cast<const std::uint8_t*>(bytes),
                  static_cast<const std::uint8_t*>(bytes) + len);
  }
  src.backlog.push_back(std::move(p));
}

void UgniLayer::flush_backlog(sim::Context& ctx, PeState& s) {
  if (s.backlog.empty()) return;
  // With a fault plan active the backlog retries under the RetryPolicy:
  // stalls may be injected starvation windows that consume no credits, so
  // the credit-return notify alone cannot be relied on to wake us.
  // Without faults, stalls are genuine credit exhaustion and the notify
  // is the precise (and cheapest) wake — keep the seed behavior exactly.
  const bool faulty = machine_->fault_injector() != nullptr;
  if (faulty && ctx.now() < s.backlog_retry_at) {
    s.pe->wake(s.backlog_retry_at);
    return;
  }
  const bool msgq_mode = use_msgq_;
  while (!s.backlog.empty()) {
    PeState::Pending& p = s.backlog.front();
    const void* bytes = p.msg ? p.msg : p.ctrl.data();
    std::uint32_t len = p.msg ? header_of(p.msg)->size
                              : static_cast<std::uint32_t>(p.ctrl.size());
    ugni::gni_return_t rc;
    if (msgq_mode) {
      rc = ugni::GNI_MsgqSend(s.nic, p.dest_pe, bytes, len, nullptr, 0,
                              p.tag);
    } else {
      ugni::gni_ep_handle_t ep = connect(s, p.dest_pe);
      rc = ugni::GNI_SmsgSendWTag(ep, bytes, len, nullptr, 0, 0, p.tag);
    }
    if (rc != ugni::GNI_RC_SUCCESS) {  // still stalled
      ugni::check(rc, "GNI_SmsgSendWTag (backlog)", ugni::GNI_RC_NOT_DONE,
                  ugni::GNI_RC_ERROR_RESOURCE);
      if (!faulty) return;
      ++s.backlog_attempts;
      c_retry_smsg_->inc();
      if (s.backlog_attempts == retry_.max_retries + 1) {
        c_retry_escalations_->inc();
        UGNIRT_WARN("pe " << s.pe->id()
                          << ": smsg backlog still stalled after "
                          << retry_.max_retries
                          << " retries; continuing at capped backoff");
      }
      // After sustained starvation, stop competing for SMSG credits:
      // demote the stalled data message to the credit-free rendezvous
      // path (large-message protocol, any size).
      if (s.backlog_attempts >= retry_.demote_after &&
          demote_front_to_rendezvous(ctx, s)) {
        s.backlog_attempts = 0;
        continue;
      }
      const SimTime pause = retry_.backoff_for(s.backlog_attempts);
      if (trace::enabled()) {
        trace::emit(trace::Ev::kRetryBackoff, ctx.now(), pause, p.dest_pe,
                    static_cast<std::uint32_t>(s.backlog_attempts));
      }
      s.backlog_retry_at = ctx.now() + pause;
      s.pe->wake(s.backlog_retry_at);
      return;
    }
    s.backlog_attempts = 0;
    c_smsg_sends_->inc();
    if (p.msg) {
      if (trace::spans_enabled()) {
        mark_msg_spans(p.msg, trace::Stage::kTransportPost, s.pe->id(),
                       ctx.now());
      }
      free_msg(ctx, *s.pe, p.msg);
    }
    s.backlog.pop_front();
  }
}

bool UgniLayer::demote_front_to_rendezvous(sim::Context& ctx, PeState& s) {
  PeState::Pending& p = s.backlog.front();
  // Only whole data messages can demote; control messages ARE the
  // rendezvous protocol and must stay on the SMSG path.
  if (!p.msg || p.tag != kTagData) return false;
  void* msg = p.msg;
  const int dest_pe = p.dest_pe;
  const std::uint32_t size = header_of(msg)->size;
  s.backlog.pop_front();
  c_fallback_rendezvous_->inc();
  if (trace::enabled()) {
    trace::emit(trace::Ev::kFallback, ctx.now(), 0, dest_pe, size);
  }
  UGNIRT_TRACELOG("smsg starvation: demoting " << size << " B -> pe "
                                               << dest_pe
                                               << " to rendezvous");
  begin_rendezvous(ctx, s, dest_pe, size, msg);
  return true;
}

// ---------------------------------------------------------------------------
// Send path (the unified LRTS submit entry)
// ---------------------------------------------------------------------------

void UgniLayer::submit(sim::Context& ctx, converse::Pe& src, int dest_pe,
                       converse::MsgView msg,
                       const converse::SendOptions& opts) {
  if (opts.persistent_handle.valid()) {
    persistent_send(ctx, src, opts.persistent_handle, msg.size, msg.msg);
    return;
  }
  converse::Machine& m = *machine_;
  PeState& s = state(src);

  const bool same_node = m.node_of_pe(dest_pe) == src.node();
  if (same_node && use_pxshm_) {
    pxshm_send(ctx, src, dest_pe, msg.size, msg.msg);
    return;
  }

  // Under hotspot load the governor shrinks the eager window for the hot
  // destination, steering mid-size messages onto the (receiver-paced)
  // rendezvous path instead of stuffing its SMSG mailboxes.
  const std::uint32_t eager =
      governor_ ? governor_->eager_cap(smsg_cap_, m.node_of_pe(dest_pe))
                : smsg_cap_;
  if (msg.size <= eager) {
    smsg_send(ctx, s, dest_pe, kTagData, msg.msg, msg.size,
              /*owned_msg=*/msg.msg);
    return;
  }

  // Rendezvous (Fig 5): register / resolve the send buffer, ship INIT_TAG.
  begin_rendezvous(ctx, s, dest_pe, msg.size, msg.msg);
}

std::uint32_t UgniLayer::recommended_batch_bytes(converse::Pe& src,
                                                 int dest_pe) const {
  converse::Machine& m = *machine_;
  if (m.node_of_pe(dest_pe) == src.node() && use_pxshm_) {
    // pxshm moves any size in one queue slot; batching saves per-message
    // enqueue/notify overhead.  Round the lease up to a full mempool size
    // class so no registered bytes are wasted.
    return static_cast<std::uint32_t>(
        mempool::MemPool::usable_size(kPxshmBatchBytes));
  }
  // One SMSG mailbox write is the single-transaction ceiling.
  return smsg_cap_;
}

void UgniLayer::begin_rendezvous(sim::Context& ctx, PeState& s, int dest_pe,
                                 std::uint32_t size, void* msg) {
  PeState::LargeSend ls;
  ls.msg = msg;
  if (s.pool && mempool::MemPool::owner_of(msg) == s.pool.get()) {
    ls.hndl = s.pool->handle_of(msg);
    ls.registered = false;
  } else {
    // Heap buffer (no pool, or a heap-fallback allocation): register it,
    // retrying under the policy on transient resource exhaustion.
    detail::register_with_retry(ctx, retry_, s.nic,
                                reinterpret_cast<std::uint64_t>(msg), size,
                                nullptr, &ls.hndl,
                                {c_retry_mem_register_, c_retry_escalations_});
    ls.registered = true;
    c_registrations_->inc();
  }
  std::uint64_t id = s.next_send_id++;
  s.sends.emplace(id, ls);
  if (trace::enabled()) {
    trace::emit(trace::Ev::kRdvInit, ctx.now(), 0, dest_pe, size);
  }

  InitCtrl ctrl;
  ctrl.send_id = id;
  ctrl.addr = reinterpret_cast<std::uint64_t>(msg);
  ctrl.hndl = ls.hndl;
  ctrl.size = size;
  ctrl.src_pe = s.pe->id();
  ctrl.span = header_of(msg)->span_id;
  smsg_send(ctx, s, dest_pe, kTagInit, &ctrl, sizeof(ctrl), nullptr);
}

// ---------------------------------------------------------------------------
// Progress engine (LrtsNetworkEngine)
// ---------------------------------------------------------------------------

void UgniLayer::advance(sim::Context& ctx, converse::Pe& pe) {
  PeState& s = state(pe);

  // Drain SMSG arrivals.  ERROR_RESOURCE means the CQ overran: recover
  // (drain + resynthesize from mailbox state) instead of latching dead.
  for (;;) {
    ugni::gni_cq_entry_t ev;
    ugni::gni_return_t rc = ugni::GNI_CqGetEvent(s.rx_cq, &ev);
    if (rc == ugni::GNI_RC_ERROR_RESOURCE) {
      detail::recover_cq(s.rx_cq, c_cq_recovered_);
      continue;
    }
    if (rc != ugni::GNI_RC_SUCCESS) break;
    if (ev.type == ugni::CqEventType::kSmsg) {
      handle_smsg(ctx, pe, s, ev.source_inst);
    }
  }

  // Drain the shared message queue (MSGQ mode).
  if (s.msgq) {
    for (;;) {
      void* data = nullptr;
      std::uint32_t len = 0;
      std::uint8_t tag = 0;
      std::int32_t source = -1;
      ugni::gni_return_t rc =
          ugni::GNI_MsgqProgress(s.msgq, &data, &len, &tag, &source);
      if (rc != ugni::GNI_RC_SUCCESS) break;
      handle_protocol_msg(ctx, pe, s, tag, data, ctx.now());
    }
  }

  // Drain FMA/BTE completions, with the same overrun recovery.
  for (;;) {
    ugni::gni_cq_entry_t ev;
    ugni::gni_return_t rc = ugni::GNI_CqGetEvent(s.tx_cq, &ev);
    if (rc == ugni::GNI_RC_ERROR_RESOURCE) {
      detail::recover_cq(s.tx_cq, c_cq_recovered_);
      continue;
    }
    if (rc != ugni::GNI_RC_SUCCESS) break;
    if (ev.type == ugni::CqEventType::kPostLocal) {
      handle_completion(ctx, pe, s, ev);
    }
  }

  if (use_pxshm_) pxshm_poll(ctx, pe);
  if (governor_) drain_deferred_gets(ctx, s);
  flush_backlog(ctx, s);
}

bool UgniLayer::has_backlog(const converse::Pe& pe) const {
  const auto* s = static_cast<const PeState*>(pe.layer_state());
  return s && (!s->backlog.empty() || !s->deferred_gets.empty());
}

void UgniLayer::handle_smsg(sim::Context& ctx, converse::Pe& pe, PeState& s,
                            int src_inst) {
  ugni::gni_ep_handle_t ep;
  if (src_inst == s.last_peer) {
    ep = s.last_ep;  // burst from one peer: skip the per-event table probe
  } else {
    ep = s.nic->ep_for_peer(src_inst);
    if (ep) {
      s.last_peer = src_inst;
      s.last_ep = ep;
    }
  }
  void* data = nullptr;
  std::uint8_t tag = 0;
  SimTime arrival = ctx.now();
  ugni::gni_return_t rc = ugni::GNI_SmsgGetNextWTag(ep, &data, &tag,
                                                    &arrival);
  if (rc != ugni::GNI_RC_SUCCESS) return;
  handle_protocol_msg(ctx, pe, s, tag, data, arrival);
  ugni::GNI_SmsgRelease(ep);
}

void UgniLayer::handle_protocol_msg(sim::Context& ctx, converse::Pe& pe,
                                    PeState& s, std::uint8_t tag,
                                    const void* data, SimTime arrival) {
  switch (tag) {
    case kTagData:
      on_tag_data(ctx, pe, s, data, arrival);
      return;
    case kTagInit:
      on_tag_init(ctx, pe, s, data, arrival);
      return;
    case kTagAck:
      on_tag_ack(ctx, pe, s, data, arrival);
      return;
    case kTagPersistData:
      on_tag_persist(ctx, pe, s, data, arrival);
      return;
    default:
      assert(false && "unknown SMSG tag");
  }
}

void UgniLayer::on_tag_data(sim::Context& ctx, converse::Pe& pe, PeState& s,
                            const void* data, SimTime arrival) {
  (void)s;
  const auto& mc = machine_->options().mc;
  // Copy out of the mailbox/queue slot into a runtime buffer.
  const CmiMsgHeader* h = header_of(data);
  std::uint32_t size = h->size;
  if (trace::spans_enabled()) {
    // rx_arrive at the wire-arrival instant, cq_complete now: the gap
    // is how long the event waited for this PE to poll its CQ.
    mark_msg_spans(data, trace::Stage::kRxArrive, pe.id(), arrival);
    mark_msg_spans(data, trace::Stage::kCqComplete, pe.id(), ctx.now());
  }
  void* buf = alloc(ctx, pe, size);
  ctx.charge(mc.memcpy_cost(size));
  std::memcpy(buf, data, size);
  header_of(buf)->alloc_pe = pe.id();
  pe.enqueue(buf, ctx.now());
}

void UgniLayer::on_tag_init(sim::Context& ctx, converse::Pe& pe, PeState& s,
                            const void* data, SimTime arrival) {
  const auto& mc = machine_->options().mc;
  InitCtrl ctrl;
  std::memcpy(&ctrl, data, sizeof(ctrl));
  if (trace::spans_enabled() && ctrl.span != 0) {
    trace::span_mark(ctrl.span, trace::Stage::kRxArrive, pe.id(), arrival);
  }

  PeState::LargeRecv lr;
      lr.send_id = ctrl.send_id;
      lr.src_pe = ctrl.src_pe;
      lr.span = ctrl.span;
      void* pooled = s.pool ? s.pool->alloc(ctrl.size) : nullptr;
      if (pooled) {
        lr.buf = pooled;
        lr.local_hndl = s.pool->handle_of(pooled);
        lr.registered = false;
      } else {
        if (s.pool) {
          // Pool expansion failed: heap-registered landing buffer instead.
          c_fallback_heap_->inc();
          if (trace::enabled()) {
            trace::emit(trace::Ev::kFallback, ctx.now(), 0, ctrl.src_pe,
                        ctrl.size);
          }
        }
        ctx.charge(mc.malloc_cost(ctrl.size));
        lr.buf = mempool::MemPool::heap_alloc(ctrl.size);
        detail::register_with_retry(
            ctx, retry_, s.nic, reinterpret_cast<std::uint64_t>(lr.buf),
            ctrl.size, nullptr, &lr.local_hndl,
            {c_retry_mem_register_, c_retry_escalations_});
        lr.registered = true;
        c_registrations_->inc();
      }
      lr.desc = std::make_unique<ugni::gni_post_descriptor_t>();
      // A hot NIC switches to the offloaded BTE engine earlier, freeing
      // the CPU to drain completions (stock threshold when flow is off).
      const std::uint32_t rdma_thr =
          governor_ ? governor_->rdma_threshold(mc.rdma_threshold, pe.node())
                    : mc.rdma_threshold;
      lr.desc->type = ctrl.size < rdma_thr ? ugni::GNI_POST_FMA_GET
                                           : ugni::GNI_POST_RDMA_GET;
      lr.desc->local_addr = reinterpret_cast<std::uint64_t>(lr.buf);
      lr.desc->local_mem_hndl = lr.local_hndl;
      lr.desc->remote_addr = ctrl.addr;
      lr.desc->remote_mem_hndl = ctrl.hndl;
      lr.desc->length = ctrl.size;
  std::uint64_t rid = s.next_recv_id++;
  lr.desc->post_id = rid;
  s.recvs.emplace(rid, std::move(lr));

  // AIMD admission: a full window defers the GET (the sender's buffer
  // stays pinned behind the INIT/ACK protocol, so deferral is safe);
  // drain_deferred_gets re-admits as completions free slots.
  if (governor_ &&
      !governor_->try_acquire(pe.id(), ctrl.src_pe, ctrl.size, ctx.now())) {
    if (trace::spans_enabled() && ctrl.span != 0) {
      trace::span_mark(ctrl.span, trace::Stage::kGovDefer, pe.id(),
                       ctx.now());
    }
    s.deferred_gets.push_back(rid);
    return;
  }
  if (governor_ && trace::spans_enabled() && ctrl.span != 0) {
    trace::span_mark(ctrl.span, trace::Stage::kGovAdmit, pe.id(), ctx.now());
  }
  issue_rendezvous_get(ctx, s, rid);
}

void UgniLayer::on_tag_ack(sim::Context& ctx, converse::Pe& pe, PeState& s,
                           const void* data, SimTime arrival) {
  (void)arrival;
  AckCtrl ack;
  std::memcpy(&ack, data, sizeof(ack));
  auto it = s.sends.find(ack.send_id);
  assert(it != s.sends.end());
  PeState::LargeSend& ls = it->second;
  if (ls.registered) {
    ugni::GNI_MemDeregister(s.nic, &ls.hndl);
  }
  free_msg(ctx, pe, ls.msg);
  s.sends.erase(it);
}

void UgniLayer::on_tag_persist(sim::Context& ctx, converse::Pe& pe,
                               PeState& s, const void* data,
                               SimTime arrival) {
  PersistCtrl pc;
  std::memcpy(&pc, data, sizeof(pc));
  PeState::PersistRx& rx =
      s.persist_rx.at(static_cast<std::size_t>(pc.channel));
  // Deliver the landing buffer in place: zero copy, runtime-owned.
  CmiMsgHeader* h = header_of(rx.buf);
  h->flags |= kMsgFlagNoFree;
  h->alloc_pe = pe.id();
  if (trace::spans_enabled() && h->span_id != 0) {
    // The PUT copied the whole envelope into the landing buffer, so
    // the sampled span id arrived with the data.
    trace::span_mark(h->span_id, trace::Stage::kRxArrive, pe.id(), arrival);
  }
  pe.enqueue(rx.buf, ctx.now());
}

void UgniLayer::issue_rendezvous_get(sim::Context& ctx, PeState& s,
                                     std::uint64_t rid) {
  PeState::LargeRecv& lr = s.recvs.at(rid);
  ugni::gni_ep_handle_t back = connect(s, lr.src_pe);
  detail::post_with_retry(ctx, retry_, back, lr.desc.get(),
                          lr.desc->type == ugni::GNI_POST_RDMA_GET,
                          {c_retry_post_, c_retry_escalations_});
  c_rendezvous_gets_->inc();
  if (trace::enabled()) {
    trace::emit(trace::Ev::kRdvGet, ctx.now(), 0, lr.src_pe,
                static_cast<std::uint32_t>(lr.desc->length));
  }
  if (trace::spans_enabled() && lr.span != 0) {
    trace::span_mark(lr.span, trace::Stage::kTransportPost, s.pe->id(),
                     ctx.now());
  }
}

void UgniLayer::drain_deferred_gets(sim::Context& ctx, PeState& s) {
  if (s.deferred_gets.empty()) return;
  // The span gate is run-constant; test it once per batch of re-admitted
  // GETs rather than per item.
  const bool spans = trace::spans_enabled();
  // Tenancy QoS weighted admission: bulk/scavenger jobs re-admit at most
  // `quota` deferred GETs per drain pass (0 = stock unbounded drain), so
  // a storm's backlog trickles out instead of bursting the moment the
  // window opens.
  const std::uint32_t quota = governor_->drain_quota(s.pe->id());
  std::uint32_t admitted = 0;
  while (!s.deferred_gets.empty()) {
    if (quota != 0 && admitted >= quota) return;
    // would_admit first: drain retries must not inflate the stall count
    // (each deferral already recorded its kInjectionStall at INIT time).
    if (!governor_->would_admit(s.pe->id())) return;
    const std::uint64_t rid = s.deferred_gets.front();
    s.deferred_gets.pop_front();
    PeState::LargeRecv& lr = s.recvs.at(rid);
    governor_->try_acquire(s.pe->id(), lr.src_pe,
                           static_cast<std::uint32_t>(lr.desc->length),
                           ctx.now());
    if (spans && lr.span != 0) {
      trace::span_mark(lr.span, trace::Stage::kGovAdmit, s.pe->id(),
                       ctx.now());
    }
    issue_rendezvous_get(ctx, s, rid);
    ++admitted;
  }
}

void UgniLayer::handle_completion(sim::Context& ctx, converse::Pe& pe,
                                  PeState& s,
                                  const ugni::gni_cq_entry_t& ev) {
  ugni::gni_post_descriptor_t* desc = nullptr;
  ugni::check(ugni::GNI_GetCompleted(s.tx_cq, ev, &desc),
              "GNI_GetCompleted");

  if (auto it = s.recvs.find(desc->post_id); it != s.recvs.end()) {
    // Our GET finished: ACK the sender, deliver the message (Fig 5).
    if (governor_) governor_->on_complete(pe.id(), pe.node(), ctx.now());
    PeState::LargeRecv& lr = it->second;
    if (trace::spans_enabled() && lr.span != 0) {
      trace::span_mark(lr.span, trace::Stage::kCqComplete, pe.id(),
                       ctx.now());
    }
    AckCtrl ack{lr.send_id};
    if (trace::enabled()) {
      trace::emit(trace::Ev::kRdvAck, ctx.now(), 0, lr.src_pe,
                  static_cast<std::uint32_t>(desc->length));
    }
    smsg_send(ctx, s, lr.src_pe, kTagAck, &ack, sizeof(ack), nullptr);
    if (lr.registered) {
      ugni::GNI_MemDeregister(s.nic, &lr.local_hndl);
    }
    header_of(lr.buf)->alloc_pe = pe.id();
    pe.enqueue(lr.buf, ctx.now());
    s.recvs.erase(it);
    return;
  }
  if (auto it = s.persist_sends.find(desc->post_id);
      it != s.persist_sends.end()) {
    // Persistent PUT landed: notify the receiver, release our buffer
    // (unless the application owns and reuses it, Fig 7a).
    if (governor_) governor_->on_complete(pe.id(), pe.node(), ctx.now());
    PeState::PersistSend& ps = it->second;
    if (trace::spans_enabled()) {
      mark_msg_spans(ps.msg, trace::Stage::kCqComplete, pe.id(), ctx.now());
    }
    PeState::PersistTx& tx =
        s.persist_tx.at(static_cast<std::size_t>(ps.tx_index));
    PersistCtrl pc;
    pc.channel = tx.remote_channel;
    pc.size = ps.size;
    pc.src_pe = pe.id();
    smsg_send(ctx, s, tx.dest_pe, kTagPersistData, &pc, sizeof(pc), nullptr);
    if (!ps.app_owned) {
      header_of(ps.msg)->flags &=
          static_cast<std::uint16_t>(~kMsgFlagNoFree);
      free_msg(ctx, pe, ps.msg);
    }
    s.persist_sends.erase(it);
    return;
  }
  assert(false && "completion for unknown descriptor");
}

// ---------------------------------------------------------------------------
// Persistent messages (paper §IV-A)
// ---------------------------------------------------------------------------

converse::PersistentHandle UgniLayer::create_persistent(
    sim::Context& ctx, converse::Pe& src, int dest_pe,
    std::uint32_t max_bytes) {
  // Setup handshake: one control round trip plus the receiver-side
  // allocation and registration, all charged to the initiating PE (setup
  // happens once, off the critical path).
  converse::Machine& m = *machine_;
  const auto& mc = m.options().mc;
  PeState& s = state(src);
  PeState& d = state_of(dest_pe);

  PeState::PersistRx rx;
  rx.max_bytes = max_bytes;
  void* pooled = d.pool ? d.pool->alloc(max_bytes) : nullptr;
  if (pooled) {
    rx.buf = pooled;
    rx.hndl = d.pool->handle_of(pooled);
  } else {
    if (d.pool) {
      c_fallback_heap_->inc();
      if (trace::enabled()) {
        trace::emit(trace::Ev::kFallback, ctx.now(), 0, dest_pe, max_bytes);
      }
    }
    ctx.charge(mc.malloc_cost(max_bytes));
    rx.buf = mempool::MemPool::heap_alloc(max_bytes);
    detail::register_with_retry(ctx, retry_, d.nic,
                                reinterpret_cast<std::uint64_t>(rx.buf),
                                max_bytes, nullptr, &rx.hndl,
                                {c_retry_mem_register_, c_retry_escalations_});
  }
  d.persist_rx.push_back(rx);

  PeState::PersistTx tx;
  tx.dest_pe = dest_pe;
  tx.remote_channel = static_cast<std::int32_t>(d.persist_rx.size()) - 1;
  tx.remote_addr = reinterpret_cast<std::uint64_t>(rx.buf);
  tx.remote_hndl = rx.hndl;
  tx.max_bytes = max_bytes;
  s.persist_tx.push_back(tx);

  connect(s, dest_pe);
  // Round-trip control exchange.
  int hops = m.network().hops(src.node(), m.node_of_pe(dest_pe));
  ctx.charge(2 * (mc.smsg_wire_startup_ns + hops * mc.hop_ns));

  return converse::PersistentHandle{
      static_cast<std::int32_t>(s.persist_tx.size()) - 1};
}

void UgniLayer::persistent_send(sim::Context& ctx, converse::Pe& src,
                                converse::PersistentHandle handle,
                                std::uint32_t size, void* msg) {
  assert(handle.valid());
  const auto& mc = machine_->options().mc;
  PeState& s = state(src);
  PeState::PersistTx& tx =
      s.persist_tx.at(static_cast<std::size_t>(handle.id));
  assert(size <= tx.max_bytes && "persistent message exceeds channel size");

  PeState::PersistSend ps;
  ps.msg = msg;
  ps.size = size;
  ps.tx_index = handle.id;
  ps.app_owned =
      (header_of(msg)->flags & kMsgFlagNoFree) != 0;  // app reuses buffer
  ugni::gni_mem_handle_t local_hndl{};
  if (s.pool && mempool::MemPool::owner_of(msg) == s.pool.get()) {
    local_hndl = s.pool->handle_of(msg);
  } else if (auto it = s.persist_send_reg.find(msg);
             it != s.persist_send_reg.end()) {
    local_hndl = it->second;  // registered on an earlier iteration
  } else {
    detail::register_with_retry(
        ctx, retry_, s.nic, reinterpret_cast<std::uint64_t>(msg),
        std::max<std::uint32_t>(size, tx.max_bytes), nullptr, &local_hndl,
        {c_retry_mem_register_, c_retry_escalations_});
    s.persist_send_reg.emplace(msg, local_hndl);
  }

  ps.desc = std::make_unique<ugni::gni_post_descriptor_t>();
  ps.desc->type = size < mc.rdma_threshold ? ugni::GNI_POST_FMA_PUT
                                           : ugni::GNI_POST_RDMA_PUT;
  ps.desc->local_addr = reinterpret_cast<std::uint64_t>(msg);
  ps.desc->local_mem_hndl = local_hndl;
  ps.desc->remote_addr = tx.remote_addr;
  ps.desc->remote_mem_hndl = tx.remote_hndl;
  ps.desc->length = size;
  std::uint64_t pid = s.next_persist_id++ | (1ull << 63);
  ps.desc->post_id = pid;

  // Keep the sender buffer stable until the PUT completes.
  header_of(msg)->flags |= kMsgFlagNoFree;

  ugni::gni_ep_handle_t ep = connect(s, tx.dest_pe);
  detail::post_with_retry(ctx, retry_, ep, ps.desc.get(),
                          ps.desc->type == ugni::GNI_POST_RDMA_PUT,
                          {c_retry_post_, c_retry_escalations_});
  // Persistent PUTs are latency-critical and never deferred, but they
  // count against the window so their completions drive AIMD too.
  if (governor_) governor_->note_post(src.id());
  c_persistent_puts_->inc();
  if (trace::enabled()) {
    trace::emit(trace::Ev::kPersistPut, ctx.now(), 0, tx.dest_pe, size);
  }
  if (trace::spans_enabled()) {
    mark_msg_spans(msg, trace::Stage::kTransportPost, src.id(), ctx.now());
  }
  s.persist_sends.emplace(pid, std::move(ps));
}

// ---------------------------------------------------------------------------
// Intra-node pxshm (paper §IV-C)
// ---------------------------------------------------------------------------

void UgniLayer::pxshm_send(sim::Context& ctx, converse::Pe& src, int dest_pe,
                           std::uint32_t size, void* msg) {
  converse::Machine& m = *machine_;
  const auto& mc = m.options().mc;
  const int node = src.node();
  const int local_rank = dest_pe % m.options().effective_pes_per_node();

  // Sender-side copy into the shared region (both modes copy in).
  ctx.charge(mc.memcpy_cost(size) + mc.pxshm_notify_ns);
  c_pxshm_msgs_->inc();
  if (trace::enabled()) {
    trace::emit(trace::Ev::kPxshmEnq, ctx.now(), 0, dest_pe, size);
  }
  if (trace::spans_enabled()) {
    mark_msg_spans(msg, trace::Stage::kTransportPost, src.id(), ctx.now());
  }

  NodeShm::Entry e;
  e.size = size;
  e.at = ctx.now();
  // In both modes the shm block carries the sender's buffer; single copy
  // delivers it in place, double copy re-copies at the receiver.
  e.msg = msg;
  auto& q = node_shm_[static_cast<std::size_t>(node)]
                ->rx[static_cast<std::size_t>(local_rank)];
  // Keep the queue ordered by arrival (senders' clocks are not aligned).
  auto it = q.end();
  while (it != q.begin() && std::prev(it)->at > e.at) --it;
  q.insert(it, e);
  m.pe(dest_pe).wake(e.at);
}

void UgniLayer::pxshm_poll(sim::Context& ctx, converse::Pe& pe) {
  converse::Machine& m = *machine_;
  const auto& mc = m.options().mc;
  auto& q = node_shm_[static_cast<std::size_t>(pe.node())]
                ->rx[static_cast<std::size_t>(
                    pe.id() % m.options().effective_pes_per_node())];
  if (q.empty()) return;
  ctx.charge(mc.pxshm_poll_ns);
  // Trace gates and the copy-mode knob are run-constant: one test per
  // poll batch, not per dequeued message.
  const bool ev_on = trace::enabled();
  const bool spans_on = trace::spans_enabled();
  const bool single_copy = m.options().pxshm_single_copy;
  while (!q.empty() && q.front().at <= ctx.now()) {
    NodeShm::Entry e = q.front();
    q.pop_front();
    if (ev_on) {
      trace::emit(trace::Ev::kPxshmDeq, ctx.now(), 0,
                  header_of(e.msg)->src_pe, e.size);
    }
    if (spans_on) {
      mark_msg_spans(e.msg, trace::Stage::kRxArrive, pe.id(), e.at);
    }
    if (single_copy) {
      // alloc_pe stays the sender: CmiFree routes back to its pool.
      pe.enqueue(e.msg, ctx.now());
    } else {
      void* buf = alloc(ctx, pe, e.size);
      ctx.charge(mc.memcpy_cost(e.size));
      std::memcpy(buf, e.msg, e.size);
      header_of(buf)->alloc_pe = pe.id();
      // Free the sender-side buffer (the shm slot becomes reusable).
      free_msg(ctx, pe, e.msg);
      pe.enqueue(buf, ctx.now());
    }
  }
  // Entries still in flight: this step may have started before their
  // notify instant — re-arm the wake so they are not stranded.
  if (!q.empty()) pe.wake(q.front().at);
}

}  // namespace ugnirt::lrts
