#include "lrts/mpi_layer.hpp"

#include <cassert>
#include <cstring>
#include <deque>

#include "lrts/span_marks.hpp"
#include "trace/spans.hpp"

namespace ugnirt::lrts {

using converse::header_of;

namespace {
/// All Converse traffic travels under one MPI tag (the real layer uses a
/// small tag space; one is enough here).
constexpr int kCharmTag = 7;
}  // namespace

struct MpiLayer::PeState final : converse::LayerPeState {
  // Rendezvous sends whose buffers MPI still needs.
  struct OutSend {
    std::unique_ptr<mpilite::Request> req;
    void* msg = nullptr;
  };
  std::deque<OutSend> outstanding;
};

MpiLayer::~MpiLayer() = default;

MpiLayer::PeState& MpiLayer::state(converse::Pe& pe) {
  return *static_cast<PeState*>(pe.layer_state());
}

void MpiLayer::ensure_comm(converse::Machine& m) {
  if (comm_) return;
  machine_ = &m;
  comm_ = std::make_unique<mpilite::MpiComm>(
      m.network(), m.num_pes(), [&m](int rank) { return m.node_of_pe(rank); },
      m.metrics());
}

void MpiLayer::init_pe(converse::Pe& pe) {
  ensure_comm(pe.machine());
  converse::Pe* p = &pe;
  comm_->init_rank(pe.id(), [p](SimTime t) { p->wake(t); });
  pe.set_layer_state(std::make_unique<PeState>());
}

void* MpiLayer::alloc(sim::Context& ctx, converse::Pe&, std::size_t bytes) {
  // The MPI-based CHARM++ allocates messages with plain malloc; there is no
  // registered pool to draw from (paper §I: "an extra memory copy between
  // CHARM++ and MPI memory space may be needed").
  ctx.charge(machine_->options().mc.malloc_cost(bytes));
  return ::operator new[](bytes, std::align_val_t{16});
}

void MpiLayer::free_msg(sim::Context& ctx, converse::Pe& pe, void* msg) {
  // CHARM++ frees every message buffer after execution; the registration
  // cache must drop entries covering freed memory (uDREG correctness),
  // which is why the MPI-based runtime keeps re-registering large buffers.
  const std::uint32_t size = converse::header_of(msg)->size;
  if (size > machine_->options().mc.mpi_eager_threshold) {
    comm_->udreg_invalidate(pe.id(), msg, size);
  }
  ctx.charge(machine_->options().mc.free_base_ns);
  ::operator delete[](msg, std::align_val_t{16});
}

void MpiLayer::submit(sim::Context& ctx, converse::Pe& src, int dest_pe,
                      converse::MsgView mv, const converse::SendOptions& opts) {
  assert(!opts.persistent_handle.valid() &&
         "MPI layer has no persistent channels");
  (void)opts;
  PeState& s = state(src);
  auto req = std::make_unique<mpilite::Request>();
  comm_->isend(src.id(), dest_pe, kCharmTag, mv.msg, mv.size, req.get());
  if (trace::spans_enabled()) {
    mark_msg_spans(mv.msg, trace::Stage::kTransportPost, src.id(), ctx.now());
  }
  if (req->done) {
    // Buffered (eager / shm): MPI copied what it needs.
    free_msg(ctx, src, mv.msg);
    return;
  }
  s.outstanding.push_back(PeState::OutSend{std::move(req), mv.msg});
}

std::uint32_t MpiLayer::recommended_batch_bytes(converse::Pe& src,
                                                int dest_pe) const {
  (void)src;
  (void)dest_pe;
  // An eager isend is one buffered transaction; past the threshold MPI
  // switches to rendezvous and a batch would pin the buffer instead.
  return static_cast<std::uint32_t>(
      machine_->options().mc.mpi_eager_threshold);
}

void MpiLayer::advance(sim::Context& ctx, converse::Pe& pe) {
  PeState& s = state(pe);
  const auto& mc = machine_->options().mc;

  // Complete rendezvous sends so their buffers can be released.
  while (!s.outstanding.empty()) {
    PeState::OutSend& os = s.outstanding.front();
    if (!comm_->test(pe.id(), os.req.get())) break;
    free_msg(ctx, pe, os.msg);
    s.outstanding.pop_front();
  }

  // The paper's progress engine: probe, malloc, blocking receive, deliver.
  for (;;) {
    mpilite::Status status;
    if (!comm_->iprobe(pe.id(), mpilite::MPI_ANY_SOURCE, kCharmTag,
                       &status)) {
      break;
    }
    void* buf = alloc(ctx, pe, status.count);
    comm_->recv(pe.id(), status.source, kCharmTag, buf, status.count,
                &status);
    converse::CmiMsgHeader* h = header_of(buf);
    h->alloc_pe = pe.id();
    (void)mc;
    if (trace::spans_enabled()) {
      // MPI surfaces the message only at receive time, so wire arrival and
      // completion coincide here.
      mark_msg_spans(buf, trace::Stage::kRxArrive, pe.id(), ctx.now());
      mark_msg_spans(buf, trace::Stage::kCqComplete, pe.id(), ctx.now());
    }
    pe.enqueue(buf, ctx.now());
  }
}

bool MpiLayer::has_backlog(const converse::Pe& pe) const {
  // Outstanding rendezvous sends complete via ACK arrivals, which wake the
  // PE through the CQ notify hook; only credit-stalled control messages
  // need active retry.
  return comm_ && comm_->has_send_backlog(pe.id());
}

}  // namespace ugnirt::lrts
