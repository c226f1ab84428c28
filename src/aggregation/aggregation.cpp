#include "aggregation/aggregation.hpp"

#include <algorithm>
#include <cassert>
#include <string>

#include "converse/machine.hpp"
#include "converse/message.hpp"
#include "trace/events.hpp"
#include "trace/metrics.hpp"
#include "trace/spans.hpp"

namespace ugnirt::aggregation {

// ---------------------------------------------------------------------------
// Aggregator
// ---------------------------------------------------------------------------

using converse::header_of;
using converse::kCmiHeaderBytes;

Aggregator::Aggregator(converse::Machine& machine) : machine_(machine) {
  per_pe_.resize(static_cast<std::size_t>(machine.num_pes()));
  trace::MetricsRegistry& reg = machine.metrics();
  c_batched_ = &reg.counter("agg.batched");
  c_bypass_ = &reg.counter("agg.bypass");
  c_flushes_ = &reg.counter("agg.flushes");
  c_flush_full_ = &reg.counter("agg.flush_full");
  c_flush_timeout_ = &reg.counter("agg.flush_timeout");
  c_flush_idle_ = &reg.counter("agg.flush_idle");
  h_flush_msgs_ = &reg.histogram("agg.flush_size_hist");
  h_flush_bytes_ = &reg.histogram("agg.flush_bytes_hist");
}

Aggregator::~Aggregator() {
  // A machine torn down mid-run (Machine::stop from a handler) can leave
  // leased buffers behind; return them so the pool's outstanding count —
  // and LeakSanitizer — stay clean.  Virtual-time charges here land after
  // the run and are harmless.
  for (std::size_t pe = 0; pe < per_pe_.size(); ++pe) {
    for (auto& [dest, buf] : per_pe_[pe].bufs) {
      converse::Pe& owner = machine_.pe(static_cast<int>(pe));
      machine_.layer().free_msg(owner.ctx(), owner, buf.msg);
    }
    per_pe_[pe].bufs.clear();
  }
}

bool Aggregator::enqueue(sim::Context& ctx, converse::Pe& src, int dest_pe,
                         void* msg) {
  PeAgg& pa = per_pe_[static_cast<std::size_t>(src.id())];
  converse::CmiMsgHeader* h = header_of(msg);
  const std::uint32_t len = h->size;

  auto it = pa.bufs.find(dest_pe);
  if (it != pa.bufs.end() && !it->second.writer->fits(len)) {
    ship(ctx, src, dest_pe, it->second, FlushReason::kFull);
    pa.bufs.erase(it);
    it = pa.bufs.end();
  }

  if (it == pa.bufs.end()) {
    // How much one transaction can carry to this destination; 0 means the
    // layer wants the pair left alone (e.g. same-address-space pointer
    // handoff, where packing would add two copies to a zero-copy path).
    const std::uint32_t txn =
        machine_.layer().recommended_batch_bytes(src, dest_pe);
    const std::uint32_t total = std::min(txn, kBufferBytes);
    if (total < kCmiHeaderBytes + sizeof(FrameHeader)) {
      c_bypass_->inc();
      return false;
    }
    const std::uint32_t cap =
        total - static_cast<std::uint32_t>(kCmiHeaderBytes);
    if (sizeof(FrameHeader) + record_bytes(len) > cap) {
      // Can never fit even an empty buffer: send it directly.
      c_bypass_->inc();
      return false;
    }
    Buf buf;
    buf.msg = machine_.layer().alloc(ctx, src, total);
    converse::CmiMsgHeader* bh = header_of(buf.msg);
    *bh = converse::CmiMsgHeader{};
    bh->alloc_pe = src.id();
    bh->flags = converse::kMsgFlagSystem | converse::kMsgFlagAggBatch;
    buf.writer.emplace(converse::payload_of(buf.msg), cap);
    buf.deadline = ctx.now() + kMaxDelayNs;
    it = pa.bufs.emplace(dest_pe, buf).first;
    // Arm the flush timer: ensure the owning PE takes a scheduler step at
    // the deadline (run_step calls flush_expired).
    src.wake(buf.deadline);
    // The fixed memcpy startup cost is paid once per batch: successive
    // appends stream into the same warm, pinned buffer, so each item below
    // pays only the per-byte portion.
    ctx.charge(machine_.options().mc.memcpy_base_ns);
  }

  bool ok = it->second.writer->append(msg, len);
  assert(ok && "append must succeed after the fits() check");
  (void)ok;
  const auto& mc = machine_.options().mc;
  ctx.charge(mc.memcpy_cost(len) - mc.memcpy_base_ns);
  c_batched_->inc();
  if (trace::spans_enabled() && h->span_id != 0) {
    trace::span_mark(h->span_id, trace::Stage::kAggEnqueue, src.id(),
                     ctx.now());
  }
  if (!(h->flags & converse::kMsgFlagNoFree)) {
    machine_.layer().free_msg(ctx, src, msg);
  }
  return true;
}

void Aggregator::ship(sim::Context& ctx, converse::Pe& src, int dest_pe,
                      Buf& buf, FlushReason reason) {
  converse::CmiMsgHeader* bh = header_of(buf.msg);
  bh->size =
      static_cast<std::uint32_t>(kCmiHeaderBytes) + buf.writer->bytes();
  bh->src_pe = src.id();

  c_flushes_->inc();
  switch (reason) {
    case FlushReason::kFull:
      c_flush_full_->inc();
      break;
    case FlushReason::kTimeout:
      c_flush_timeout_->inc();
      break;
    case FlushReason::kIdle:
    case FlushReason::kBarrier:
      c_flush_idle_->inc();
      break;
  }
  h_flush_msgs_->add(static_cast<double>(buf.writer->count()));
  h_flush_bytes_->add(static_cast<double>(bh->size));
  if (trace::enabled()) {
    trace::emit(ctx.pe(), trace::Ev::kAggFlush, ctx.now(), 0, dest_pe,
                bh->size);
  }
  if (trace::spans_enabled()) {
    // Sampled sub-messages ride inside the frame with their span ids in
    // their packed envelopes; stamp the flush instant on each.
    for_each_submessage(converse::payload_of(buf.msg), buf.writer->bytes(),
                        [&](const void* sub, std::uint32_t) {
                          const std::uint32_t sid = header_of(sub)->span_id;
                          if (sid != 0) {
                            trace::span_mark(sid, trace::Stage::kAggFlush,
                                             src.id(), ctx.now());
                          }
                        });
  }

  converse::SendOptions opts;
  opts.allow_aggregation = false;  // the batch itself must not re-enter
  machine_.layer().submit(ctx, src, dest_pe,
                          converse::MsgView{buf.msg, bh->size}, opts);
}

void Aggregator::flush_dest(sim::Context& ctx, converse::Pe& src,
                            int dest_pe, FlushReason reason) {
  PeAgg& pa = per_pe_[static_cast<std::size_t>(src.id())];
  auto it = pa.bufs.find(dest_pe);
  if (it == pa.bufs.end()) return;
  ship(ctx, src, dest_pe, it->second, reason);
  pa.bufs.erase(it);
}

void Aggregator::flush_expired(sim::Context& ctx, converse::Pe& src) {
  PeAgg& pa = per_pe_[static_cast<std::size_t>(src.id())];
  for (auto it = pa.bufs.begin(); it != pa.bufs.end();) {
    if (it->second.deadline <= ctx.now()) {
      ship(ctx, src, it->first, it->second, FlushReason::kTimeout);
      it = pa.bufs.erase(it);
    } else {
      ++it;
    }
  }
}

void Aggregator::flush_all(sim::Context& ctx, converse::Pe& src,
                           FlushReason reason) {
  PeAgg& pa = per_pe_[static_cast<std::size_t>(src.id())];
  for (auto& [dest, buf] : pa.bufs) {
    ship(ctx, src, dest, buf, reason);
  }
  pa.bufs.clear();
}

SimTime Aggregator::earliest_deadline(int pe_id) const {
  const PeAgg& pa = per_pe_[static_cast<std::size_t>(pe_id)];
  SimTime earliest = kNever;
  for (const auto& [dest, buf] : pa.bufs) {
    earliest = std::min(earliest, buf.deadline);
  }
  return earliest;
}

bool Aggregator::has_pending(int pe_id) const {
  return !per_pe_[static_cast<std::size_t>(pe_id)].bufs.empty();
}

}  // namespace ugnirt::aggregation
