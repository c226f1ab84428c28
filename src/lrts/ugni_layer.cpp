#include "lrts/ugni_layer.hpp"

#include <cstring>

#include "lrts/pool_metrics.hpp"
#include "lrts/span_marks.hpp"
#include "trace/events.hpp"
#include "trace/spans.hpp"
#include "util/log.hpp"
#include "util/ring_fifo.hpp"

namespace ugnirt::lrts {

using converse::header_of;

namespace {

// Aggregation-batch bound for the intra-node pxshm path: a shm queue slot
// carries any size, so cap batches at one page-ish lease from the pool.
constexpr std::uint32_t kPxshmBatchBytes = 4096;

}  // namespace

// ---------------------------------------------------------------------------
// Per-PE and per-node state
// ---------------------------------------------------------------------------

struct UgniLayer::PeState final : UgniEndpoint {
  converse::Pe* pe = nullptr;
  void nic_wake(SimTime t) override { pe->wake(t); }
};

/// Intra-node pxshm: one receive queue per local PE.
struct UgniLayer::NodeShm {
  struct Entry {
    void* msg = nullptr;
    std::uint32_t size = 0;
    SimTime at = 0;
  };
  std::vector<RingFifo<Entry>> rx;  // indexed by pe-on-node rank
};

// ---------------------------------------------------------------------------
// Owner policy of the protocol core
// ---------------------------------------------------------------------------

UgniLayer::Route UgniLayer::route_to(const UgniEndpoint& ep, int /*dest_pe*/,
                                     const void* msg) {
  return Route{home_pe(ep), header_of(msg)->span_id};
}

RdvTarget UgniLayer::target_of(const UgniEndpoint& ep, const Route& r,
                               int /*src_inst*/) {
  return RdvTarget{home_pe(ep), r.src_pe, r.span};
}

void UgniLayer::deliver(UgniEndpoint& ep, int pe, void* msg, SimTime t) {
  header_of(msg)->alloc_pe = pe;
  static_cast<PeState&>(ep).pe->enqueue(msg, t);
}

// ---------------------------------------------------------------------------
// Setup
// ---------------------------------------------------------------------------

UgniLayer::UgniLayer() = default;
UgniLayer::~UgniLayer() = default;

void UgniLayer::collect_metrics(trace::MetricsRegistry& reg) {
  collect_core_metrics(reg);
  collect_pool_metrics(reg, arena_, states_);
}

UgniLayer::PeState& UgniLayer::state(converse::Pe& pe) {
  return *states_[static_cast<std::size_t>(pe.id())];
}

void UgniLayer::ensure_domain(converse::Machine& m) {
  if (domain_) return;
  c_pxshm_msgs_ = &m.metrics().counter("ugni.pxshm_msgs");
  bind(m, m.options().mc.smsg_max_for_job(m.num_pes()), m.options().use_msgq);
  if (m.options().flow.enable) {
    governor_ = std::make_unique<flowcontrol::InjectionGovernor>(
        m.congestion_estimator(), m.num_pes());
  }
  states_.resize(static_cast<std::size_t>(m.num_pes()));
  node_shm_.resize(static_cast<std::size_t>(m.options().nodes()));
  for (auto& shm : node_shm_) {
    shm = std::make_unique<NodeShm>();
    shm->rx.resize(static_cast<std::size_t>(
        m.options().effective_pes_per_node()));
  }
  use_pxshm_ = m.options().use_pxshm;
  UGNIRT_DEBUG("uGNI layer up: " << m.num_pes() << " PEs, smsg cap "
                                 << smsg_cap_ << " B");
}

void UgniLayer::init_pe(converse::Pe& pe) {
  ensure_domain(pe.machine());
  auto& s = states_[static_cast<std::size_t>(pe.id())];
  s = std::make_unique<PeState>();
  s->pe = &pe;
  open(*s, pe.id(), pe.node());
  if (pe.machine().options().use_mempool) {
    s->pool = std::make_unique<mempool::MemPool>(
        arena_, s->nic, pe.machine().options().mc.mempool_init_bytes);
  }
}

// ---------------------------------------------------------------------------
// Allocation
// ---------------------------------------------------------------------------

void* UgniLayer::alloc(sim::Context& ctx, converse::Pe& pe,
                       std::size_t bytes) {
  return alloc_buf(ctx, state(pe), bytes);
}

void UgniLayer::free_msg(sim::Context& ctx, converse::Pe& pe, void* msg) {
  (void)pe;
  free_buf(ctx, msg);
}

// ---------------------------------------------------------------------------
// Send path (the unified LRTS submit entry)
// ---------------------------------------------------------------------------

void UgniLayer::submit(sim::Context& ctx, converse::Pe& src, int dest_pe,
                       converse::MsgView msg,
                       const converse::SendOptions& opts) {
  PeState& s = state(src);
  if (opts.persistent_handle.valid()) {
    persistent_send(ctx, s, opts.persistent_handle, msg.size, msg.msg);
    return;
  }
  if (use_pxshm_ && machine_->node_of_pe(dest_pe) == src.node()) {
    pxshm_send(ctx, src, dest_pe, msg.size, msg.msg);
    return;
  }
  send(ctx, s, dest_pe, msg.msg, msg.size);
}

std::uint32_t UgniLayer::recommended_batch_bytes(converse::Pe& src,
                                                 int dest_pe) const {
  if (machine_->node_of_pe(dest_pe) == src.node() && use_pxshm_) {
    // pxshm moves any size in one queue slot; batching saves per-message
    // enqueue/notify overhead.  Round the lease up to a full mempool size
    // class so no registered bytes are wasted.
    return static_cast<std::uint32_t>(
        mempool::MemPool::usable_size(kPxshmBatchBytes));
  }
  // One SMSG mailbox write is the single-transaction ceiling.
  return smsg_cap_;
}

// ---------------------------------------------------------------------------
// Progress engine (LrtsNetworkEngine)
// ---------------------------------------------------------------------------

void UgniLayer::advance(sim::Context& ctx, converse::Pe& pe) {
  PeState& s = state(pe);
  progress(ctx, s);
  if (use_pxshm_) pxshm_poll(ctx, pe);
  flush(ctx, s);
}

bool UgniLayer::has_backlog(const converse::Pe& pe) const {
  const PeState& s = *states_[static_cast<std::size_t>(pe.id())];
  return !s.backlog.empty() || !s.deferred_gets.empty();
}

// ---------------------------------------------------------------------------
// Persistent channel setup (paper §IV-A)
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
  PeState& d = *states_[static_cast<std::size_t>(dest_pe)];

  const Landing l = landing(ctx, d, max_bytes, dest_pe);
  d.persist_rx.push_back(UgniEndpoint::PersistRx{l.buf, max_bytes, l.hndl});

  UgniEndpoint::PersistTx tx;
  tx.dest_pe = dest_pe;
  tx.remote_channel = static_cast<std::int32_t>(d.persist_rx.size()) - 1;
  tx.remote_addr = reinterpret_cast<std::uint64_t>(l.buf);
  tx.remote_hndl = l.hndl;
  tx.max_bytes = max_bytes;
  s.persist_tx.push_back(tx);

  connect(s, dest_pe);
  // Round-trip control exchange.
  int hops = m.network().hops(src.node(), m.node_of_pe(dest_pe));
  ctx.charge(2 * (mc.smsg_wire_startup_ns + hops * mc.hop_ns));

  return converse::PersistentHandle{
      static_cast<std::int32_t>(s.persist_tx.size()) - 1};
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
  std::size_t pos = q.size();
  while (pos > 0 && q[pos - 1].at > e.at) --pos;
  q.insert(pos, e);
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
