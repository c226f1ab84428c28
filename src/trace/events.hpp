// Structured protocol-event tracing (the "timeline" half of
// Projections-full).
//
// Every protocol-path action in the runtime — SMSG send/recv, rendezvous
// INIT/GET/ACK, FMA/BTE post and completion, memory registration, mempool
// hit/miss/expand, persistent PUT, pxshm enqueue/dequeue — can record a
// typed event with its virtual timestamp into a per-PE bounded ring
// buffer.  Rings overwrite their oldest entry when full (drops counted),
// so tracing a long run costs bounded memory.
//
// Tracing is off by default and *zero-cost* when off: emission sites are
// guarded by `trace::enabled()`, one inlined test of the calling thread's
// tracer pointer.  Enable via `UGNIRT_TRACE=1` (see session.hpp) or open a
// `trace::SinkScope`.  Each site passes the PE id it runs on.
//
// Exports: Chrome `trace_event` JSON (open in chrome://tracing or
// https://ui.perfetto.dev) and a flat CSV.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "util/units.hpp"

namespace ugnirt::trace {

enum class Ev : std::uint8_t {
  kSmsgSend = 0,    // mailbox write issued (wire-level)
  kSmsgRecv,        // message pulled out of a mailbox
  kMsgqSend,        // shared-MSGQ send (flat-memory small-message path)
  kRdvInit,         // rendezvous INIT_TAG shipped (Fig 5 step 1)
  kRdvGet,          // receiver posted the FMA/BTE GET (Fig 5 step 2)
  kRdvAck,          // ACK_TAG sent back, sender may free (Fig 5 step 3)
  kFmaPost,         // CPU-driven one-sided transaction posted
  kBtePost,         // DMA-offloaded transaction posted
  kPostDone,        // local completion claimed via GNI_GetCompleted
  kMemReg,          // GNI_MemRegister
  kMemDereg,        // GNI_MemDeregister
  kPoolHit,         // mempool alloc served from a free list
  kPoolMiss,        // mempool alloc had to carve from a slab
  kPoolExpand,      // mempool registered a new slab
  kPersistPut,      // persistent-channel PUT posted (Fig 7a)
  kPxshmEnq,        // intra-node shm enqueue at the sender
  kPxshmDeq,        // intra-node shm dequeue at the receiver
  kCreditStall,     // SMSG send deferred on mailbox-credit exhaustion
  kMsgExec,         // scheduler executed a message handler
  kFaultInject,     // the fault injector forced a transient failure
  kRetryBackoff,    // a layer backed off (virtual time) before retrying
  kFallback,        // degraded path taken (heap send, rendezvous demotion)
  kCqRecover,       // CQ overrun recovered via GNI_CqErrorRecover
  kAggFlush,        // aggregation batch shipped (size = batch bytes,
                    // peer = destination PE)
  kCongestionSample,  // EWMA link-load sample (peer = link index,
                      // size = smoothed load in parts-per-million)
  kInjectionStall,  // governor deferred a post: AIMD window full
                    // (peer = destination, size = payload bytes)
};
constexpr int kEvCount = static_cast<int>(Ev::kInjectionStall) + 1;

const char* event_name(Ev type);

struct Event {
  SimTime t = 0;        // virtual start time (ns)
  SimTime dur = 0;      // duration (0 for instants)
  std::int32_t peer = -1;  // remote PE/node, -1 when not applicable
  std::uint32_t size = 0;  // payload bytes, 0 when not applicable
  Ev type = Ev::kSmsgSend;
};

/// Fixed-capacity ring of events.  When full, the oldest entry is
/// overwritten and counted as dropped.
class EventRing {
 public:
  explicit EventRing(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  void push(const Event& ev);

  std::size_t size() const { return buf_.size(); }
  std::size_t capacity() const { return capacity_; }
  std::uint64_t dropped() const { return dropped_; }

  /// The i-th retained event in chronological push order (0 = oldest).
  const Event& at(std::size_t i) const {
    return buf_[(head_ + i) % buf_.size()];
  }

 private:
  std::size_t capacity_;
  std::size_t head_ = 0;  // index of the oldest entry once wrapped
  std::uint64_t dropped_ = 0;
  std::vector<Event> buf_;
};

/// Per-PE event rings plus exporters.  One tracer spans all Machines run on
/// its thread while installed; negative "pe" ids are comm-thread actors.
class EventTracer {
 public:
  explicit EventTracer(std::size_t ring_capacity = 1u << 16)
      : ring_capacity_(ring_capacity) {}

  void record(int pe, Ev type, SimTime t, SimTime dur = 0, int peer = -1,
              std::uint32_t size = 0);

  /// An emission site suppressed an event before it reached the ring
  /// (e.g. kCongestionSample under its sample-period rate limit).  Counted
  /// per kind so capped telemetry is never mistaken for complete telemetry.
  void note_rate_limited(Ev type) {
    ++dropped_by_type_[static_cast<int>(type)];
  }

  std::size_t pe_count() const { return rings_.size(); }
  std::uint64_t total_events() const { return total_events_; }
  std::uint64_t total_dropped() const;
  std::uint64_t count_of(Ev type) const {
    return type_counts_[static_cast<int>(type)];
  }
  /// Events of this kind lost to ring eviction or rate limiting.
  std::uint64_t dropped_of(Ev type) const {
    return dropped_by_type_[static_cast<int>(type)];
  }
  const EventRing* ring(int pe) const;

  /// Chrome trace_event JSON ("X" complete events, ts/dur in microseconds;
  /// loads in chrome://tracing and Perfetto).
  void write_chrome_json(std::ostream& out) const;

  /// Flat rows: `pe,t_ns,dur_ns,event,peer,size`.
  void write_csv(std::ostream& out) const;

 private:
  std::size_t ring_capacity_;
  std::map<int, EventRing> rings_;  // keyed by pe id (sorted for export)
  std::uint64_t total_events_ = 0;
  std::uint64_t type_counts_[kEvCount] = {};
  std::uint64_t dropped_by_type_[kEvCount] = {};  // evicted + rate-limited
};

// ---- per-thread installation (see SinkScope in session.hpp) ------------

namespace detail {
// constinit: no dynamic initializer, so a read is one TLS load with no
// init-wrapper call.
extern constinit thread_local EventTracer* t_tracer;
}  // namespace detail

/// True when this thread has an EventTracer; the one test hot paths make.
inline bool enabled() { return detail::t_tracer != nullptr; }

inline EventTracer* tracer() { return detail::t_tracer; }

/// Record on behalf of PE `pe`; call after checking enabled() so the
/// disabled path stays free.  With no tracer it does nothing.
inline void emit(int pe, Ev type, SimTime t, SimTime dur = 0, int peer = -1,
                 std::uint32_t size = 0) {
  if (EventTracer* tr = detail::t_tracer) {
    tr->record(pe, type, t, dur, peer, size);
  }
}

}  // namespace ugnirt::trace
