#include "lrts/smp_layer.hpp"

#include <algorithm>
#include <cassert>

#include "lrts/pool_metrics.hpp"
#include "util/log.hpp"

namespace ugnirt::lrts {

using converse::header_of;

namespace {

/// Worker-side cost of handing a message to the comm thread (lock + queue).
constexpr SimTime kSmpEnqueueNs = 120;
/// Comm-thread cost per handled item (dequeue + dispatch).
constexpr SimTime kSmpDequeueNs = 90;
/// Worker-to-worker pointer handoff (lock + enqueue into peer scheduler).
constexpr SimTime kSmpPtrSendNs = 150;
/// Pause of the comm thread between retries of a credit-stalled backlog.
constexpr SimTime kSmpBacklogRetryNs = 500;

}  // namespace

// ---------------------------------------------------------------------------
// State
// ---------------------------------------------------------------------------

/// One node: the protocol endpoint (NIC + node-shared message pool) plus
/// the comm-thread actor that drives it.
struct SmpLayer::NodeState final : UgniEndpoint {
  explicit NodeState(SmpLayer& l) : layer(&l) {}
  SmpLayer* layer;

  // The NIC's client: every arrival and returned credit wakes the comm
  // thread.  A push is seen by the RX poll poll_ns_ into a spin step and
  // by the TX poll idle_step_ns_ into it, usually before the entry
  // arrives; a returned credit needs its release time (credit_returned).
  void nic_wake(SimTime t) override { layer->comm_wake(*this, t); }
  void cq_pushed(const ugni::Cq& cq, SimTime at) override {
    layer->cq_pushed(*this, at - (&cq == rx_cq ? layer->poll_ns_
                                               : layer->idle_step_ns_));
  }
  void credit_returned(SimTime, SimTime released) override {
    layer->credit_returned(*this, released);
  }

  // The communication thread: an actor with its own virtual-time cursor.
  std::unique_ptr<sim::Context> comm_ctx;
  bool comm_scheduled = false;
  SimTime comm_sched_at = 0;
  SimTime comm_pending_wake = kNever;
  // Bumped per armed comm step; older ones return (see Pe::wake).  A
  // stale step would need 2^32 re-arms while it waits to alias.
  std::uint32_t comm_gen = 0;
  SimTime comm_avail = 0;
  // The thread spins, but while its spin steps would be idle none is run
  // (see comm_step).  Spin step j >= 1 would start at spin_origin +
  // j * spin_period; the armed step is the first one that sees work.
  bool asleep = false;
  SimTime spin_origin = 0;
  SimTime spin_period = 0;

  // Outgoing messages queued by workers, in enqueue order.
  struct Out {
    int dest_pe = -1;
    void* msg = nullptr;
    std::uint32_t size = 0;
    SimTime ready = 0;  // when the worker finished enqueueing
  };
  std::vector<Out> outq;
  SimTime outq_min_ready = kNever;  // earliest `ready` in outq
};

// ---------------------------------------------------------------------------
// Owner policy of the protocol core
// ---------------------------------------------------------------------------

RdvTarget SmpLayer::target_of(const UgniEndpoint& /*ep*/, const Route& r,
                              int src_inst) const {
  // The ACK only needs the source node; route it to that node's first PE.
  return RdvTarget{
      r.dest_pe, src_inst * machine_->options().effective_pes_per_node(), 0};
}

void SmpLayer::deliver(UgniEndpoint& /*ep*/, int pe, void* msg, SimTime t) {
  header_of(msg)->alloc_pe = pe;
  if (trace::spans_enabled()) {
    mark_msg_spans(msg, trace::Stage::kCqComplete, pe, t);
  }
  machine_->pe(pe).enqueue(msg, t);
}

// ---------------------------------------------------------------------------
// Setup
// ---------------------------------------------------------------------------

SmpLayer::SmpLayer() = default;
SmpLayer::~SmpLayer() {
  // Teardown oracle: once every node pool is gone, no payload byte may be
  // left in the arena; one left behind is a leak.
  nodes_.clear();
  assert(arena_.live_bytes() == 0 && "SMP layer leaked arena bytes");
}

void SmpLayer::ensure_domain(converse::Machine& m) {
  if (domain_) return;
  trace::MetricsRegistry& reg = m.metrics();
  c_intra_node_ptr_msgs_ = &reg.counter("smp.intra_node_ptr_msgs");
  c_comm_thread_sends_ = &reg.counter("smp.comm_thread_sends");
  c_comm_thread_busy_defers_ = &reg.counter("smp.comm_thread_busy_defers");
  poll_ns_ = m.options().mc.cq_poll_ns;
  idle_step_ns_ = 2 * poll_ns_;
  bind(m, m.options().mc.smsg_max_for_job(m.options().nodes()),
       /*use_msgq=*/false);
  nodes_.resize(static_cast<std::size_t>(m.options().nodes()));
  for (int n = 0; n < m.options().nodes(); ++n) {
    auto ns = std::make_unique<NodeState>(*this);
    open(*ns, n, n);
    ns->comm_ctx = std::make_unique<sim::Context>(m.scheduler(), -1000 - n);
    nodes_[static_cast<std::size_t>(n)] = std::move(ns);
  }
  UGNIRT_DEBUG("SMP layer up: " << m.options().nodes()
                                << " nodes, smsg cap " << smsg_cap_ << " B");
}

void SmpLayer::init_pe(converse::Pe& pe) {
  ensure_domain(pe.machine());
  NodeState& n = node_state(pe.node());
  if (pe.machine().options().use_mempool && !n.pool) {
    // Node-shared pool: created once per node, charged to the first PE.
    n.pool = std::make_unique<mempool::MemPool>(
        arena_, n.nic, pe.machine().options().mc.mempool_init_bytes);
  }
}

void SmpLayer::collect_metrics(trace::MetricsRegistry& reg) {
  collect_core_metrics(reg);
  collect_pool_metrics(reg, arena_, nodes_);
}

mempool::MemPoolStats SmpLayer::pool_stats() const {
  return sum_pool_stats(nodes_);
}

// ---------------------------------------------------------------------------
// Allocation: node-shared pool (or modeled malloc)
// ---------------------------------------------------------------------------

void* SmpLayer::alloc(sim::Context& ctx, converse::Pe& pe,
                      std::size_t bytes) {
  return alloc_buf(ctx, node_state(pe.node()), bytes);
}

void SmpLayer::free_msg(sim::Context& ctx, converse::Pe& pe, void* msg) {
  (void)pe;
  free_buf(ctx, msg);
}

// ---------------------------------------------------------------------------
// Send path
// ---------------------------------------------------------------------------

void SmpLayer::submit(sim::Context& ctx, converse::Pe& src, int dest_pe,
                      converse::MsgView mv,
                      const converse::SendOptions& opts) {
  assert(!opts.persistent_handle.valid() &&
         "SMP layer has no persistent channels");
  (void)opts;
  converse::Machine& m = *machine_;
  NodeState& n = node_state(src.node());

  if (m.node_of_pe(dest_pe) == src.node()) {
    // Same address space: hand the pointer straight to the peer worker.
    ctx.charge(kSmpPtrSendNs);
    c_intra_node_ptr_msgs_->inc();
    m.pe(dest_pe).enqueue(mv.msg, ctx.now());
    return;
  }
  // Lock-and-enqueue to the node's comm thread; the worker is done.
  ctx.charge(kSmpEnqueueNs);
  n.outq.push_back(NodeState::Out{dest_pe, mv.msg, mv.size, ctx.now()});
  n.outq_min_ready = std::min(n.outq_min_ready, ctx.now());
  if (n.asleep) {
    // The first spin step whose outq scan takes it, or the ready time
    // itself when it falls in a pause (as the sleep decision arms).
    const SimTime now = ctx.scheduler().now();
    wake_at(n, std::min(spin_step_from(n, std::max(ctx.now() - idle_step_ns_,
                                                   now)),
                        std::max(ctx.now(), now)));
  }
  comm_wake(n, ctx.now());
}

std::uint32_t SmpLayer::recommended_batch_bytes(converse::Pe& src,
                                                int dest_pe) const {
  if (machine_->node_of_pe(dest_pe) == src.node()) {
    // Intra-node messages pass by pointer — zero copies.  Packing them
    // into a batch would *add* two memcpys, so opt the pair out.
    return 0;
  }
  // One comm-thread SMSG is the transaction unit; it spends kDataPrefix
  // payload bytes on the worker routing prefix.
  return smsg_cap_ > kDataPrefix ? smsg_cap_ - kDataPrefix : 0;
}

// ---------------------------------------------------------------------------
// Comm-thread actor
// ---------------------------------------------------------------------------

void SmpLayer::comm_wake(NodeState& n, SimTime t) {
  if (n.asleep) {
    sleeping_wake(n, t, /*step_ran=*/false);
    return;
  }
  SimTime when = std::max(t, n.comm_avail);
  if (n.comm_scheduled && when >= n.comm_sched_at) {
    // Defer rather than drop: the pending step runs too early to see
    // this wake's cause (see Pe::wake).
    n.comm_pending_wake = std::min(n.comm_pending_wake, when);
    return;
  }
  comm_arm(n, when);
}

void SmpLayer::comm_arm(NodeState& n, SimTime when) {
  // Arm, or re-arm earlier and supersede the pending step.
  n.comm_scheduled = true;
  n.comm_sched_at = when;
  const std::uint32_t gen = ++n.comm_gen;
  const int node = n.nic->node();
  n.comm_ctx->scheduler().schedule_at(when, [this, node, gen] {
    NodeState& ns = node_state(node);
    if (gen == ns.comm_gen) comm_step(ns, ns.comm_sched_at);
  });
}

// While asleep, spin step j starts at spin_step(n, j) and polls the RX CQ
// poll_ns_ later, the TX CQ and the outq idle_step_ns_ later; step 0 is the
// one that ran.  A spinning thread would have run every step up to the
// engine time: j = spin_index(n, now) ran last, and j + 1 is armed unless a
// wake re-armed the thread earlier (then comm_sched_at is that step).

SimTime SmpLayer::spin_step(const NodeState& n, SimTime j) const {
  return n.spin_origin + j * n.spin_period;
}

SimTime SmpLayer::spin_index(const NodeState& n, SimTime t) const {
  return (t - n.spin_origin) / n.spin_period;
}

SimTime SmpLayer::spin_step_from(const NodeState& n, SimTime t) const {
  if (t >= kNever - n.spin_period) return kNever;
  const SimTime j = (t - n.spin_origin + n.spin_period - 1) / n.spin_period;
  return spin_step(n, std::max<SimTime>(j, 1));
}

void SmpLayer::wake_at(NodeState& n, SimTime at) {
  if (at < n.comm_sched_at) comm_arm(n, at);
}

void SmpLayer::sleeping_wake(NodeState& n, SimTime t, bool step_ran) {
  const SimTime now = n.comm_ctx->scheduler().now();
  // j is the last spin step that ran; a spinning thread would now compare
  // this wake with its next step, j + 1, as comm_wake does.
  const SimTime j = spin_index(n, step_ran ? now : now - 1);
  const SimTime when = std::max(t, spin_step(n, j) + idle_step_ns_);
  if (when < std::min(spin_step(n, j + 1), n.comm_sched_at)) {
    comm_arm(n, when);
    return;
  }
  // Deferred.  A spinning thread takes a deferred wake at the end of the
  // first step it comes before the next step of, but none does here: a
  // wake comes at the engine time (CQ notify, credit) or at a ready time
  // the outq holds, and the outq arms the step that takes it.
  n.comm_pending_wake = std::min(n.comm_pending_wake, when);
  // A spin step due now runs after this wake and may see its cause.
  if (n.spin_period > idle_step_ns_ && spin_step(n, j + 1) == now) {
    wake_at(n, now);
  }
}

void SmpLayer::credit_returned(NodeState& n, SimTime released) {
  const SimTime now = n.comm_ctx->scheduler().now();
  if (!n.asleep) {
    comm_wake(n, now);
    return;
  }
  // A spinning thread queued its step due now when the step before it ran.
  // A credit released after that was queued later, so that step ran first
  // and did not see it.
  const SimTime j = spin_index(n, now - 1);
  sleeping_wake(n, now,
                spin_step(n, j + 1) == now && released >= spin_step(n, j));
}

void SmpLayer::cq_pushed(NodeState& n, SimTime t) {
  if (!n.asleep) return;
  wake_at(n, spin_step_from(n, std::max(t, n.comm_ctx->scheduler().now())));
}

void SmpLayer::comm_step(NodeState& n, SimTime t) {
  n.comm_scheduled = false;
  sim::Context& ctx = *n.comm_ctx;
  if (n.asleep) {
    // Every spin step slept through was an idle poll pair that deferred.
    n.asleep = false;
    const SimTime skipped = (t - n.spin_origin - 1) / n.spin_period;
    c_comm_thread_busy_defers_->inc(static_cast<std::uint64_t>(skipped));
    ctx.set_now(n.comm_avail);
    ctx.charge(skipped * idle_step_ns_);
    n.comm_avail = spin_step(n, skipped) + idle_step_ns_;
  }
  t = std::max(t, n.comm_avail);
  ctx.set_now(t);
  sim::ScopedContext guard(ctx);

  // 1. Network arrivals and completions.
  progress(ctx, n);

  // 2. Stalled sends, then fresh worker traffic.  Workers enqueue with
  // their own cursors, so ready times are not monotonic across the queue:
  // take everything that is ready, keeping the rest in relative order
  // (compacted in place).  While the earliest ready time is still ahead
  // of the cursor nothing can be taken, so the scan is skipped.
  flush(ctx, n);
  if (n.outq_min_ready <= ctx.now()) {
    std::size_t kept = 0;
    SimTime min_ready = kNever;
    for (std::size_t i = 0; i < n.outq.size(); ++i) {
      const NodeState::Out out = n.outq[i];
      if (out.ready > ctx.now()) {
        n.outq[kept++] = out;
        min_ready = std::min(min_ready, out.ready);
        continue;
      }
      ctx.charge(kSmpDequeueNs);
      c_comm_thread_sends_->inc();
      send(ctx, n, out.dest_pe, out.msg, out.size);
    }
    n.outq.resize(kept);
    n.outq_min_ready = min_ready;
  }

  n.comm_avail = ctx.now();
  if (!n.outq.empty() || !n.backlog.empty()) {
    c_comm_thread_busy_defers_->inc();
    const SimTime pause = n.backlog.empty() ? 0 : kSmpBacklogRetryNs;
    SimTime next = n.comm_avail + pause;
    // A backed-off backlog must not busy-spin before its retry instant.
    if (!n.backlog.empty()) next = std::max(next, n.backlog.retry_at);
    next = std::min(next, n.outq_min_ready);
    next = std::max(next, n.comm_avail);
    // The comm thread spins: it steps again at comm_avail, or after a
    // pause while its backlog is credit-stalled, and each step costs one
    // poll per CQ.  A step that did only that (nothing polled, nothing
    // taken, nothing sent, no fault plan to change the polls) is followed
    // by more like it until a poll, the outq or a wake sees work, so the
    // thread sleeps to the first step that can: the first spin step whose
    // polls see a queued CQ entry or whose scan takes an outq message, or
    // the ready time itself when it falls in a pause.  While it sleeps, a
    // CQ push, an enqueue or a wake can only move that step earlier, to
    // where the spinning thread would have seen it (sleeping_wake).
    if (t + idle_step_ns_ == n.comm_avail && idle_step_ns_ > 0 &&
        !machine_->fault_injector()) {
      n.spin_origin = t;
      n.spin_period = idle_step_ns_ + pause;
      const SimTime first = std::min(
          {spin_step_from(n, n.rx_cq->next_arrival() - poll_ns_),
           spin_step_from(n, n.tx_cq->next_arrival() - idle_step_ns_),
           spin_step_from(n, n.outq_min_ready - idle_step_ns_),
           n.outq_min_ready});
      n.asleep = first > spin_step(n, 1);
      if (n.asleep) next = first;
    }
    if (n.asleep) {
      // Waiting only for credits, nothing is armed: the credit's return
      // wakes the thread.
      n.comm_sched_at = kNever;
      wake_at(n, next);
    } else {
      comm_wake(n, next);
    }
  }
  if (n.comm_pending_wake != kNever) {
    SimTime w = n.comm_pending_wake;
    n.comm_pending_wake = kNever;
    comm_wake(n, w);
  }
}

// ---------------------------------------------------------------------------
// Worker-side progress (nothing to do: the comm thread owns the network)
// ---------------------------------------------------------------------------

void SmpLayer::advance(sim::Context&, converse::Pe&) {}

bool SmpLayer::has_backlog(const converse::Pe&) const { return false; }

}  // namespace ugnirt::lrts
