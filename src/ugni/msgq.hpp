// MSGQ: the shared message-queue facility (paper §II-B).
//
// "MSGQ overcomes the [SMSG] scalability issue due to memory cost, but at
// the expense of lower performance.  Setup of MSGQs is done on a per-node
// rather than per-peer basis, so the memory only grows as the number of
// nodes in the job."
//
// Emulated semantics:
//   * One shared receive queue per NIC, created once with a fixed-size
//     registered pool (GNI_MsgqInit) — memory is independent of how many
//     peers ever talk to this NIC.
//   * Any attached NIC may send into it (GNI_MsgqSend) without per-pair
//     mailboxes; the shared queue is a serialization point, so concurrent
//     senders queue behind each other (modeled via per-queue occupancy),
//     and every message pays an extra protocol cost over SMSG.
//   * The receiver polls with GNI_MsgqProgress, which returns the next
//     delivered message (source + tag + bytes).
//   * Back-pressure: when the pool is full of undelivered bytes, sends
//     fail with GNI_RC_NOT_DONE until the receiver drains.
#pragma once

#include <cstdint>

#include "ugni/ugni.hpp"
#include "util/inline_bytes.hpp"
#include "util/ring_fifo.hpp"

namespace ugnirt::ugni {

class Msgq;
using gni_msgq_handle_t = Msgq*;

/// Create the per-NIC shared message queue with a registered pool of
/// `pool_bytes`.  Charges the registration to the calling PE.
gni_return_t GNI_MsgqInit(gni_nic_handle_t nic, std::uint32_t pool_bytes,
                          gni_msgq_handle_t* msgq_out);

/// Send header+data into `remote_inst`'s shared queue.  No per-pair setup
/// required; fails with GNI_RC_NOT_DONE when the remote pool is full and
/// GNI_RC_SIZE_ERROR when the message exceeds the remote pool.
gni_return_t GNI_MsgqSend(gni_nic_handle_t nic, std::int32_t remote_inst,
                          const void* header, std::uint32_t header_len,
                          const void* data, std::uint32_t data_len,
                          std::uint8_t tag);

/// Dequeue the next arrived message, or GNI_RC_NOT_DONE.  The returned
/// pointer is valid until the next GNI_MsgqProgress call on this queue.
gni_return_t GNI_MsgqProgress(gni_msgq_handle_t msgq, void** data_out,
                              std::uint32_t* len_out, std::uint8_t* tag_out,
                              std::int32_t* source_out);

/// Shared queue state.
class Msgq {
 public:
  Msgq(Nic* nic, std::uint32_t pool_bytes)
      : nic_(nic), pool_bytes_(pool_bytes) {}

  Nic* nic() const { return nic_; }
  std::uint32_t pool_bytes() const { return pool_bytes_; }
  std::uint32_t used_bytes() const { return used_bytes_; }
  std::size_t depth() const { return rx_.size(); }

  /// Virtual arrival time of the earliest queued message (kNever if none).
  SimTime next_arrival() const { return rx_.empty() ? kNever : rx_.front().at; }

  /// Invoked (at arrival virtual time) when a message lands.
  void set_notify(std::function<void(SimTime)> fn) { notify_ = std::move(fn); }

 private:
  friend gni_return_t GNI_MsgqInit(gni_nic_handle_t, std::uint32_t,
                                   gni_msgq_handle_t*);
  friend gni_return_t GNI_MsgqSend(gni_nic_handle_t, std::int32_t,
                                   const void*, std::uint32_t, const void*,
                                   std::uint32_t, std::uint8_t);
  friend gni_return_t GNI_MsgqProgress(gni_msgq_handle_t, void**,
                                       std::uint32_t*, std::uint8_t*,
                                       std::int32_t*);

  struct Msg {
    SimTime at = 0;
    InlineBytes bytes;
    std::int32_t source = -1;
    std::uint8_t tag = 0;
  };

  Nic* nic_;
  std::uint32_t pool_bytes_;
  std::uint32_t used_bytes_ = 0;
  RingFifo<Msg> rx_;
  InlineBytes last_delivered_;
  // Shared-queue serialization point for concurrent senders.
  SimTime enqueue_free_ = 0;
  std::function<void(SimTime)> notify_;
};

}  // namespace ugnirt::ugni
