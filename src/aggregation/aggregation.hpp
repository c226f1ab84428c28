// Per-PE, per-destination small-message coalescing (TRAM-lite).
//
// Fine-grained apps (kNeighbor, NQueens) pay one full SMSG transaction —
// mailbox credit, CQ event, scheduler wakeup — per tiny message.  The
// aggregator sits between Converse's unified submit() entry and the LRTS
// layer: outgoing messages smaller than kThreshold are packed into a
// per-destination framed batch (see frame.hpp) which ships as ONE ordinary
// Converse message (flag kMsgFlagAggBatch) when
//
//   * the buffer fills (capacity = min(kBufferBytes, what the layer
//     moves in a single transaction to that destination)),
//   * kMaxDelayNs of virtual time passes since the buffer's first
//     message (timer armed through the owning PE's scheduler), or
//   * the PE goes idle / reaches an explicit barrier flush.
//
// Ordering: per-(source, destination) FIFO is preserved.  Messages append
// to the buffer in send order; any message that must bypass the aggregator
// (too big, persistent, layer opted the pair out) first flushes that
// destination's pending buffer so it cannot overtake earlier traffic.
//
// Buffers are leased from the machine layer's allocator — on the uGNI
// layer that is the pre-registered mempool, so a flush needs no
// registration and batches ride the same zero-copy paths as any message.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "aggregation/config.hpp"
#include "aggregation/frame.hpp"
#include "util/units.hpp"

namespace ugnirt::sim {
class Context;
}
namespace ugnirt::trace {
class Counter;
class Histogram;
}
namespace ugnirt::converse {
class Machine;
class Pe;
}

namespace ugnirt::aggregation {

/// Why a buffer is being shipped (drives the agg.flush_* metrics).
enum class FlushReason : std::uint8_t {
  kFull,     // next message would not fit
  kTimeout,  // kMaxDelayNs expired
  kIdle,     // owning PE drained its scheduler queue
  kBarrier,  // explicit flush (ordering barrier before a bypass send)
};

class Aggregator {
 public:
  explicit Aggregator(converse::Machine& machine);
  ~Aggregator();
  Aggregator(const Aggregator&) = delete;
  Aggregator& operator=(const Aggregator&) = delete;

  /// Try to coalesce `msg` (already enveloped; src_pe stamped) bound for
  /// `dest_pe`.  On success ownership of `msg` ends here (its bytes are
  /// packed and the buffer freed) and true is returned.  False means the
  /// pair is not aggregable (layer opted out, or the message can never
  /// fit a frame) and the caller must send it directly — flush_dest() has
  /// already run, so a direct send cannot overtake packed traffic.
  bool enqueue(sim::Context& ctx, converse::Pe& src, int dest_pe, void* msg);

  /// Ship the (src, dest_pe) buffer now, if one is pending.
  void flush_dest(sim::Context& ctx, converse::Pe& src, int dest_pe,
                  FlushReason reason = FlushReason::kBarrier);

  /// Ship every buffer on `src` whose deadline has passed.
  void flush_expired(sim::Context& ctx, converse::Pe& src);

  /// Ship every buffer on `src` (idle / barrier flush).
  void flush_all(sim::Context& ctx, converse::Pe& src,
                 FlushReason reason = FlushReason::kIdle);

  /// Earliest pending flush deadline on `pe_id`, or kNever.  The scheduler
  /// uses this to keep a wake armed while buffers are outstanding.
  SimTime earliest_deadline(int pe_id) const;

  /// True when `pe_id` holds any unsent messages (tests / diagnostics).
  bool has_pending(int pe_id) const;

 private:
  struct Buf {
    void* msg = nullptr;  // the batch message (Converse envelope at front)
    std::optional<FrameWriter> writer;
    SimTime deadline = kNever;
  };
  struct PeAgg {
    // std::map: deterministic flush order across runs.
    std::map<int, Buf> bufs;
  };

  void ship(sim::Context& ctx, converse::Pe& src, int dest_pe, Buf& buf,
            FlushReason reason);

  converse::Machine& machine_;
  std::vector<PeAgg> per_pe_;

  // Hot-path instruments (address-stable registry storage).
  trace::Counter* c_batched_ = nullptr;
  trace::Counter* c_bypass_ = nullptr;
  trace::Counter* c_flushes_ = nullptr;
  trace::Counter* c_flush_full_ = nullptr;
  trace::Counter* c_flush_timeout_ = nullptr;
  trace::Counter* c_flush_idle_ = nullptr;
  trace::Histogram* h_flush_msgs_ = nullptr;
  trace::Histogram* h_flush_bytes_ = nullptr;
};

}  // namespace ugnirt::aggregation
