#include "converse/machine.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "aggregation/aggregation.hpp"
#include "aggregation/frame.hpp"
#include "flowcontrol/flowcontrol.hpp"
#include "trace/events.hpp"
#include "trace/session.hpp"
#include "trace/spans.hpp"
#include "trace/tracer.hpp"

namespace ugnirt::converse {

namespace {
// The machine whose run() is on the calling thread's stack.
constinit thread_local Machine* t_running = nullptr;
}  // namespace

/// Enters `pe` on the calling thread: makes it the machine's current PE and
/// its context the thread's, and restores both on exit.
class Machine::PeScope {
 public:
  explicit PeScope(Pe& pe)
      : m_(pe.machine()), prev_pe_(m_.current_pe_), ctx_(pe.ctx()) {
    m_.current_pe_ = &pe;
  }
  ~PeScope() { m_.current_pe_ = prev_pe_; }

 private:
  Machine& m_;
  Pe* prev_pe_;
  sim::ScopedContext ctx_;
};

// ---------------------------------------------------------------------------
// MachineLayer defaults
// ---------------------------------------------------------------------------

PersistentHandle MachineLayer::create_persistent(sim::Context&, Pe&, int,
                                                 std::uint32_t) {
  return PersistentHandle{};  // not supported by this layer
}

std::uint32_t MachineLayer::recommended_batch_bytes(Pe&, int) const {
  return 0;  // conservative default: no batching unless the layer opts in
}

void MachineLayer::collect_metrics(trace::MetricsRegistry&) {}

// ---------------------------------------------------------------------------
// Pe
// ---------------------------------------------------------------------------

Pe::Pe(Machine& machine, int id, int node)
    : machine_(&machine),
      id_(id),
      node_(node),
      ctx_(machine.scheduler(), id),
      rng_(Rng(machine.options().seed).derive(static_cast<std::uint64_t>(id))) {
}

void Pe::enqueue(void* msg, SimTime t) {
  sched_q_.push_back(msg);
  wake(t);
}

void Pe::wake(SimTime t) {
  SimTime when = std::max(t, avail_at_);
  if (step_scheduled_ && when >= scheduled_at_) {
    // A step is already pending, but it will run *before* this wake's
    // cause becomes visible — remember the later time so run_step can
    // re-arm instead of stranding the event.
    pending_wake_ = std::min(pending_wake_, when);
    return;
  }
  // Arm a step, or re-arm an earlier one: the new generation supersedes a
  // pending step, which returns at once when it fires.
  step_scheduled_ = true;
  scheduled_at_ = when;
  const std::uint64_t gen = ++step_gen_;
  // While `gen` is current, scheduled_at_ is the time this step fires at.
  ctx_.scheduler().schedule_at(when, [this, gen] {
    if (gen == step_gen_) run_step(scheduled_at_);
  });
}

void Pe::run_step(SimTime t) {
  step_scheduled_ = false;
  Machine& m = *machine_;
  // A wake issued while the previous step was still executing can carry a
  // stale availability; never start before the PE is actually free.
  t = std::max(t, avail_at_);
  ctx_.set_now(t);
  SimTime app_before = ctx_.app_total();

  {
    Machine::PeScope enter(*this);
    m.layer_->advance(ctx_, *this);
    ctx_.charge(m.options().mc.sched_loop_ns);
    if (!sched_q_.empty()) {
      void* msg = sched_q_.front();
      sched_q_.pop_front();
      const SimTime exec_start = ctx_.now();
      const std::uint32_t msg_size = header_of(msg)->size;
      const std::int32_t msg_src = header_of(msg)->src_pe;
      m.dispatch(*this, msg);
      ++msgs_executed_;
      ++m.stats_.msgs_executed;
      if (trace::enabled()) {
        trace::emit(id_, trace::Ev::kMsgExec, exec_start,
                    ctx_.now() - exec_start, msg_src, msg_size);
      }
    }
    if (m.aggregator_) {
      // Ship buffers whose max-delay timer expired; when the PE has
      // nothing else queued, holding messages back buys no batching —
      // flush everything rather than make an idle PE's peers wait.
      m.aggregator_->flush_expired(ctx_, *this);
      if (sched_q_.empty()) {
        m.aggregator_->flush_all(ctx_, *this);
      }
    }
  }
  ++m.stats_.steps;

  avail_at_ = ctx_.now();
  if (trace::Tracer* tr = m.tracer()) {
    SimTime app_delta = ctx_.app_total() - app_before;
    // Attribute the app portion at the end of the step (handlers run after
    // the progress engine), overhead before it.
    tr->record(id_, t, avail_at_ - app_delta, trace::SpanKind::kOverhead);
    tr->record(id_, avail_at_ - app_delta, avail_at_, trace::SpanKind::kApp);
  }

  if (!sched_q_.empty()) {
    wake(avail_at_);
  } else if (m.layer_->has_backlog(*this)) {
    // Backlogged sends with no local work: retry on a small backoff so a
    // full remote queue doesn't turn into a dense busy-wait of steps.
    wake(avail_at_ + 500);
  } else if (m.aggregator_) {
    // Keep the flush timer armed: an earlier wake may have replaced the
    // deadline step, so re-ensure one while buffers are outstanding.
    SimTime d = m.aggregator_->earliest_deadline(id_);
    if (d != kNever) wake(std::max(avail_at_, d));
  }
  if (pending_wake_ != kNever) {
    SimTime w = pending_wake_;
    pending_wake_ = kNever;
    wake(w);
  }
}

// ---------------------------------------------------------------------------
// Machine
// ---------------------------------------------------------------------------

Machine::Machine(MachineOptions options, std::unique_ptr<MachineLayer> layer)
    : options_(options),
      layer_(std::move(layer)) {
  assert(options_.pes >= 1);
  // Open the trace session (when the environment asks for one) before any
  // PE runs, so the first machine's events reach its sinks.
  trace::TraceSession::active();
  network_ = std::make_unique<gemini::Network>(
      engine_.scheduler(), topo::Torus3D::for_nodes(options_.nodes()),
      options_.mc);
  if (options_.fault.enabled) {
    fault_ = std::make_unique<fault::FaultInjector>(options_.fault);
    network_->set_fault_injector(fault_.get());
  }
  if (options_.flow.enable) {
    flow_ = std::make_unique<flowcontrol::CongestionEstimator>(
        network_->torus().total_links(),
        static_cast<std::size_t>(network_->torus().nodes()));
    network_->set_link_observer(flow_.get());
    if (options_.flow.adaptive_routing) {
      network_->set_route_steering(flow_.get());
    }
  }
  qd_created_.assign(static_cast<std::size_t>(options_.pes), 0);
  qd_processed_.assign(static_cast<std::size_t>(options_.pes), 0);
  pes_.reserve(static_cast<std::size_t>(options_.pes));
  for (int i = 0; i < options_.pes; ++i) {
    pes_.push_back(std::make_unique<Pe>(*this, i, node_of_pe(i)));
  }
  // Layer init runs inside each PE's context so setup costs are charged.
  for (auto& pe : pes_) {
    PeScope enter(*pe);
    layer_->init_pe(*pe);
    pe->avail_at_ = pe->ctx().now();
  }
  if (options_.aggregation.enable) {
    aggregator_ = std::make_unique<aggregation::Aggregator>(*this);
  }
}

Machine::~Machine() {
  // Hand this machine's metrics to the session aggregate (if tracing is
  // on) so short-lived machines inside bench loops are not lost.
  if (trace::TraceSession* session = trace::TraceSession::active()) {
    collect_metrics();
    session->absorb(metrics_);
  }
  if (t_running == this) t_running = nullptr;
}

void Machine::collect_metrics() {
  layer_->collect_metrics(metrics_);
  network_->collect_metrics(metrics_);
  if (flow_) {  // no flow rows in a stock dump
    metrics_.counter("net.adaptive_reroutes")
        .set(network_->stats().adaptive_reroutes);
    flow_->collect_metrics(metrics_);
  }
  metrics_.counter("converse.msgs_sent").set(stats_.msgs_sent);
  metrics_.counter("converse.msgs_executed").set(stats_.msgs_executed);
  metrics_.counter("converse.bytes_sent").set(stats_.bytes_sent);
  metrics_.counter("converse.sched_steps").set(stats_.steps);
}

int Machine::register_handler(CmiHandler fn) {
  handlers_.push_back(std::move(fn));
  return static_cast<int>(handlers_.size()) - 1;
}

Machine* Machine::running() { return t_running; }

Pe& Machine::current_pe() {
  assert(current_pe_ && "no PE is executing");
  return *current_pe_;
}

void Machine::tree_children(int pe, std::vector<int>& out) const {
  out.clear();
  for (int k = 1; k <= kTreeFanout; ++k) {
    int child = pe * kTreeFanout + k;
    if (child < options_.pes) out.push_back(child);
  }
}

void* Machine::alloc_msg(std::uint32_t total) {
  assert(total >= kCmiHeaderBytes);
  Pe& pe = current_pe();
  void* msg = layer_->alloc(pe.ctx(), pe, total);
  CmiMsgHeader* h = header_of(msg);
  *h = CmiMsgHeader{};
  h->size = total;
  h->alloc_pe = pe.id();
  return msg;
}

void Machine::free_msg(void* msg) {
  Pe& pe = current_pe();
  layer_->free_msg(pe.ctx(), pe, msg);
}

void Machine::submit(int dest_pe, void* msg, const SendOptions& opts) {
  Pe& src = current_pe();
  CmiMsgHeader* h = header_of(msg);
  h->src_pe = src.id();
  if (trace::spans_enabled()) {
    // Every submit starts a fresh journey: a relayed message (batch
    // sub-message, forwarded broadcast leg) gets its own span rather than
    // extending one that already completed at delivery.
    h->span_id = trace::span_begin(src.id(), dest_pe, h->size,
                                   src.ctx().now());
  }
  if (!(h->flags & kMsgFlagSystem)) {
    ++qd_created_[static_cast<std::size_t>(src.id())];
  }
  ++stats_.msgs_sent;
  stats_.bytes_sent += h->size;
  src.ctx().charge(options_.mc.charm_send_overhead_ns);

  if (opts.persistent_handle.valid()) {
    // Persistent channels bypass aggregation: the receiver's registered
    // landing buffer expects exactly the message that was negotiated.
    SendOptions o = opts;
    o.allow_aggregation = false;
    layer_->submit(src.ctx(), src, dest_pe, MsgView{msg, h->size}, o);
    return;
  }

  assert(dest_pe >= 0 && dest_pe < options_.pes);
  if (dest_pe == src.id()) {
    // Local short-circuit: straight into our own scheduler queue.  A
    // runtime-owned buffer (an in-place batch sub-message being relayed
    // by its handler) dies when the batch is freed, so it must be cloned
    // before it can outlive the handler call.
    if (h->flags & kMsgFlagNoFree) msg = clone_runtime_owned(src, msg);
    src.enqueue(msg, src.ctx().now());
    return;
  }
  if (aggregator_) {
    if (opts.allow_aggregation && h->size < aggregation::kThreshold &&
        aggregator_->enqueue(src.ctx(), src, dest_pe, msg)) {
      // The aggregator copied the bytes into its frame synchronously, so
      // even a runtime-owned (NoFree) buffer needed no clone here.
      return;
    }
    // Bypass send (too big, == threshold, or opted out): flush anything
    // already coalesced for this destination first so the bypass cannot
    // overtake earlier traffic — per-(src,dest) FIFO holds either way.
    aggregator_->flush_dest(src.ctx(), src, dest_pe);
  }
  // The layer takes ownership of non-persistent submissions and frees the
  // buffer after transmission — a runtime-owned batch sub-message must be
  // cloned so the layer never frees an interior pointer.
  if (h->flags & kMsgFlagNoFree) msg = clone_runtime_owned(src, msg);
  layer_->submit(src.ctx(), src, dest_pe, MsgView{msg, header_of(msg)->size},
                 opts);
}

void* Machine::clone_runtime_owned(Pe& src, void* msg) {
  CmiMsgHeader* h = header_of(msg);
  void* copy = layer_->alloc(src.ctx(), src, h->size);
  src.ctx().charge(options_.mc.memcpy_cost(h->size));
  std::memcpy(copy, msg, h->size);
  CmiMsgHeader* ch = header_of(copy);
  ch->alloc_pe = src.id();
  ch->flags &= static_cast<std::uint16_t>(~kMsgFlagNoFree);
  return copy;
}

void Machine::send(int dest_pe, void* msg) {
  submit(dest_pe, msg, SendOptions{});
}

void Machine::flush_aggregation() {
  if (!aggregator_) return;
  Pe& pe = current_pe();
  aggregator_->flush_all(pe.ctx(), pe, aggregation::FlushReason::kBarrier);
}

void Machine::broadcast(void* msg) {
  Pe& src = current_pe();
  CmiMsgHeader* h = header_of(msg);
  h->flags |= kMsgFlagBcast;
  h->bcast_root = static_cast<std::uint32_t>(src.id());
  h->src_pe = src.id();
  // The root participates like any tree node: forward to children, then
  // deliver the local copy through the scheduler.
  forward_broadcast(src, msg);
  if (!(h->flags & kMsgFlagSystem)) {
    ++qd_created_[static_cast<std::size_t>(src.id())];
  }
  ++stats_.msgs_sent;
  src.enqueue(msg, src.ctx().now());
}

void Machine::forward_broadcast(Pe& pe, void* msg) {
  CmiMsgHeader* h = header_of(msg);
  const int root = static_cast<int>(h->bcast_root);
  const int pes = options_.pes;
  // Virtual rank so the tree is rooted at the broadcast origin.
  const int vrank = (pe.id() - root + pes) % pes;
  for (int k = 1; k <= kTreeFanout; ++k) {
    int vchild = vrank * kTreeFanout + k;
    if (vchild >= pes) break;
    send((vchild + root) % pes, clone_runtime_owned(pe, msg));
  }
}

void Machine::dispatch(Pe& pe, void* msg) {
  // Message kind — three flag bits compressed to a table index: the whole
  // classify-then-branch chain becomes one indexed member call whose
  // instantiation has the decisions baked in.
  const std::uint16_t flags = header_of(msg)->flags;
  const unsigned kind = (flags & 1u)          // kMsgFlagSystem  -> bit 0
                        | ((flags & 4u) >> 1)  // kMsgFlagBcast   -> bit 1
                        | ((flags & 8u) >> 1);  // kMsgFlagAggBatch -> bit 2
  static_assert(kMsgFlagSystem == 1 && kMsgFlagBcast == 4 &&
                kMsgFlagAggBatch == 8);
  (this->*kDispatchTable[kind])(pe, msg);
}

template <bool kSystem, bool kBcast, bool kBatch>
void Machine::dispatch_kind(Pe& pe, void* msg) {
  if constexpr (kBatch) {
    // Batch framing overrides the outer flags entirely; per-item flags
    // are runtime data, handled inside.
    dispatch_batch(pe, msg);
    return;
  }
  CmiMsgHeader* h = header_of(msg);
  if constexpr (kBcast) {
    if (static_cast<int>(h->bcast_root) != pe.id()) {
      forward_broadcast(pe, msg);
    }
  }
  if constexpr (!kSystem) {
    ++qd_processed_[static_cast<std::size_t>(pe.id())];
  }
  pe.ctx().charge(options_.mc.charm_recv_overhead_ns);
  if (trace::spans_enabled() && h->span_id != 0) {
    trace::span_mark(h->span_id, trace::Stage::kDeliver, pe.id(),
                     pe.ctx().now());
  }
  assert(h->handler < handlers_.size());
  handlers_[h->handler](msg);
}

const Machine::DispatchFn Machine::kDispatchTable[8] = {
    &Machine::dispatch_kind<false, false, false>,
    &Machine::dispatch_kind<true, false, false>,
    &Machine::dispatch_kind<false, true, false>,
    &Machine::dispatch_kind<true, true, false>,
    &Machine::dispatch_kind<false, false, true>,
    &Machine::dispatch_kind<true, false, true>,
    &Machine::dispatch_kind<false, true, true>,
    &Machine::dispatch_kind<true, true, true>,
};

void Machine::dispatch_batch(Pe& pe, void* msg) {
  // An aggregation batch: deliver every sub-message IN PLACE, inside this
  // one scheduler step (the paper's receive-side aggregation win: recv
  // overhead paid once per batch, items cost only the per-item dispatch
  // overhead, zero copies).  Sub-messages are flagged kMsgFlagNoFree —
  // they live inside the batch buffer and are valid only for their
  // handler call.  Pack order == arrival order, so per-(src,dest) FIFO
  // holds.  Trace/span gates are hoisted to one check per batch — the
  // gates are run-constant, so the charge/mark sequence is identical to
  // checking per item.
  CmiMsgHeader* h = header_of(msg);
  pe.ctx().charge(options_.mc.charm_recv_overhead_ns);
  const bool spans = trace::spans_enabled();
  const SimTime item_ns = options_.mc.agg_item_overhead_ns;
  const bool ok = aggregation::for_each_submessage(
      payload_of(msg),
      h->size - static_cast<std::uint32_t>(kCmiHeaderBytes),
      [&](const void* sub, std::uint32_t len) {
        (void)len;
        void* smsg = const_cast<void*>(sub);
        CmiMsgHeader* sh = header_of(smsg);
        sh->flags |= kMsgFlagNoFree;
        pe.ctx().charge(item_ns);
        if (spans && sh->span_id != 0) {
          trace::span_mark(sh->span_id, trace::Stage::kDeliver, pe.id(),
                           pe.ctx().now());
        }
        if ((sh->flags & kMsgFlagBcast) &&
            static_cast<int>(sh->bcast_root) != pe.id()) {
          forward_broadcast(pe, smsg);
        }
        if (!(sh->flags & kMsgFlagSystem)) {
          ++qd_processed_[static_cast<std::size_t>(pe.id())];
        }
        assert(sh->handler < handlers_.size());
        handlers_[sh->handler](smsg);
        ++stats_.msgs_executed;
      });
  assert(ok && "malformed aggregation frame");
  (void)ok;
  layer_->free_msg(pe.ctx(), pe, msg);
}

PersistentHandle Machine::create_persistent(int dest_pe,
                                            std::uint32_t max_bytes) {
  Pe& src = current_pe();
  return layer_->create_persistent(src.ctx(), src, dest_pe, max_bytes);
}

void Machine::send_persistent(PersistentHandle handle, void* msg) {
  SendOptions opts;
  opts.allow_aggregation = false;
  opts.persistent_handle = handle;
  submit(/*dest_pe=*/-1, msg, opts);
}

void Machine::start(int pe_id, std::function<void()> fn) {
  starts_.push_back(
      {pes_[static_cast<std::size_t>(pe_id)].get(), std::move(fn)});
  // Every start event is scheduled at the clock (time 0 clamped to now),
  // so start events fire in call order and each one runs the oldest
  // pending closure.  The closure is destroyed once it has run.
  scheduler().schedule_at(0, [this] {
    PendingStart s = std::move(starts_.front());
    starts_.pop_front();
    Pe& pe = *s.pe;
    pe.ctx().set_now(std::max(engine_.now(), pe.avail_at_));
    PeScope enter(pe);
    s.fn();
    pe.avail_at_ = pe.ctx().now();
    pe.wake(pe.avail_at_);
  });
}

SimTime Machine::run() {
  Machine* prev = t_running;
  t_running = this;
  engine_.run();
  t_running = prev;
  return engine_.now();
}

// ---------------------------------------------------------------------------
// Converse-style free functions
// ---------------------------------------------------------------------------

int CmiMyPe() { return Machine::running()->current_pe().id(); }

int CmiNumPes() { return Machine::running()->num_pes(); }

double CmiWallTimer() {
  return to_s(Machine::running()->current_pe().ctx().now());
}

void* CmiAlloc(std::uint32_t total_bytes) {
  return Machine::running()->alloc_msg(total_bytes);
}

void CmiFree(void* msg) {
  CmiMsgHeader* h = header_of(msg);
  if (h->flags & kMsgFlagNoFree) return;  // runtime-owned (persistent buffer)
  Machine::running()->free_msg(msg);
}

void CmiSetHandler(void* msg, int handler_idx) {
  header_of(msg)->handler = static_cast<std::uint16_t>(handler_idx);
}

void CmiSyncSendAndFree(int dest_pe, std::uint32_t total_bytes, void* msg) {
  assert(header_of(msg)->size == total_bytes);
  (void)total_bytes;
  Machine::running()->send(dest_pe, msg);
}

void CmiSyncBroadcastAllAndFree(std::uint32_t total_bytes, void* msg) {
  assert(header_of(msg)->size == total_bytes);
  (void)total_bytes;
  Machine::running()->broadcast(msg);
}

void CmiChargeWork(SimTime ns) {
  Machine::running()->current_pe().ctx().charge_app(ns);
}

}  // namespace ugnirt::converse
