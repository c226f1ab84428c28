// Emulation of Cray's user-level Generic Network Interface (uGNI).
//
// The API surface mirrors the subset of "Using the GNI and DMAPP APIs"
// (Cray S-2446) that the paper's machine layer depends on (§II-B):
//
//   GNI_CqCreate / GNI_CqGetEvent            completion queues
//   GNI_MemRegister / GNI_MemDeregister      registration with real handles
//   GNI_EpCreate / GNI_EpBind                endpoints
//   GNI_SmsgInit / GNI_SmsgSendWTag /        mailbox-based short messages
//     GNI_SmsgGetNextWTag / GNI_SmsgRelease
//   GNI_PostFma / GNI_PostRdma               one-sided PUT/GET/AMO
//   GNI_GetCompleted                         retrieve a finished descriptor
//
// Semantics preserved from the real device:
//   * memory must be registered before it can be the target of FMA/BTE
//     transactions (posts against unregistered or stale handles fail),
//   * SMSG channels have per-peer mailboxes with finite credits: sends
//     return GNI_RC_NOT_DONE when the peer has not released older messages
//     (a released credit reaches a sender that still holds one at once,
//     and a sender that holds none one wire delay later),
//   * completion events carry only limited data (msg id / post id), so a
//     runtime must keep its own descriptor table — exactly the constraint
//     that forces the paper's ACK_TAG control message design,
//   * CPU time: every call charges its modeled cost to the calling PE's
//     sim::Context, and FMA transactions occupy the CPU for the payload
//     duration while BTE posts return immediately (paper §II-A).
//
// Calls must run inside a simulated PE (sim::current() != nullptr).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "gemini/network.hpp"
#include "sim/context.hpp"
#include "util/inline_bytes.hpp"
#include "util/ring_fifo.hpp"

namespace ugnirt::ugni {

// ---------------------------------------------------------------------------
// Return codes (subset of gni_pub.h).
// ---------------------------------------------------------------------------
enum gni_return_t : int {
  GNI_RC_SUCCESS = 0,
  GNI_RC_NOT_DONE = 1,
  GNI_RC_INVALID_PARAM = 2,
  GNI_RC_ERROR_RESOURCE = 3,
  GNI_RC_ILLEGAL_OP = 4,
  GNI_RC_PERMISSION_ERROR = 5,
  GNI_RC_INVALID_STATE = 6,
  GNI_RC_TRANSACTION_ERROR = 7,
  GNI_RC_SIZE_ERROR = 8,
  GNI_RC_ALIGNMENT_ERROR = 9,
};

const char* gni_err_str(gni_return_t rc);

// Error contract.  Every emulated call documents the exact set of codes it
// can return (see each declaration below).  Three of them are *transient*
// and expected under resource pressure or injected faults — callers must
// handle them with retry/backoff rather than asserting:
//
//   GNI_RC_NOT_DONE           nothing to do yet (empty CQ / mailbox) or the
//                             SMSG channel is out of credits — retry later;
//   GNI_RC_ERROR_RESOURCE     NIC resource exhausted (MDD/TLB entries on
//                             MemRegister, SSID pool on SmsgSend) or a CQ
//                             overran — recover (GNI_CqErrorRecover) or
//                             back off and retry;
//   GNI_RC_TRANSACTION_ERROR  the adapter gave up on a posted FMA/BTE
//                             transaction (link-level retry exhaustion) —
//                             re-post the descriptor.
//
// Everything else (INVALID_PARAM, SIZE_ERROR, PERMISSION_ERROR, ILLEGAL_OP,
// INVALID_STATE, ALIGNMENT_ERROR) indicates a caller bug and is fatal.

namespace detail {
[[noreturn]] void check_fail(gni_return_t rc, const char* what);
}  // namespace detail

/// Contract-enforcement helper: returns `rc` when it is GNI_RC_SUCCESS or
/// one of the explicitly `allowed` transient codes, aborts with a
/// diagnostic otherwise.  Replaces open-coded `assert(rc == ...)` at call
/// sites so the allowed set is visible (and auditable) at each call:
///
///   rc = ugni::check(GNI_SmsgSendWTag(...), "smsg send",
///                    GNI_RC_NOT_DONE, GNI_RC_ERROR_RESOURCE);
template <typename... Allowed>
inline gni_return_t check(gni_return_t rc, const char* what,
                          Allowed... allowed) {
  const bool ok = rc == GNI_RC_SUCCESS || ((rc == allowed) || ...);
  if (!ok) detail::check_fail(rc, what);
  return rc;
}

// ---------------------------------------------------------------------------
// Handles.
// ---------------------------------------------------------------------------
class Nic;
class Cq;
class Ep;
class Domain;
class Msgq;  // shared message queue (msgq.hpp)

using gni_nic_handle_t = Nic*;
using gni_cq_handle_t = Cq*;
using gni_ep_handle_t = Ep*;

/// Opaque 128-bit memory handle, as in gni_pub.h.  Encodes the owning NIC
/// instance, a region id, and a generation counter so stale handles (used
/// after deregistration) are detected.
struct gni_mem_handle_t {
  std::uint64_t qword1 = 0;
  std::uint64_t qword2 = 0;

  bool operator==(const gni_mem_handle_t&) const = default;
};

// ---------------------------------------------------------------------------
// Post descriptors (FMA/BTE transactions).
// ---------------------------------------------------------------------------
enum gni_post_type_t : std::uint8_t {
  GNI_POST_FMA_PUT,
  GNI_POST_FMA_GET,
  GNI_POST_RDMA_PUT,
  GNI_POST_RDMA_GET,
  GNI_POST_AMO,
};

enum gni_amo_cmd_t : std::uint8_t {
  GNI_FMA_ATOMIC_FADD,   // fetch-and-add, returns old value
  GNI_FMA_ATOMIC_CSWAP,  // compare-and-swap, returns old value
  GNI_FMA_ATOMIC_AND,
  GNI_FMA_ATOMIC_OR,
};

// cq_mode flags
constexpr std::uint16_t GNI_CQMODE_LOCAL_EVENT = 1u << 0;
constexpr std::uint16_t GNI_CQMODE_REMOTE_EVENT = 1u << 1;

struct gni_post_descriptor_t {
  gni_post_type_t type = GNI_POST_FMA_PUT;
  std::uint16_t cq_mode = GNI_CQMODE_LOCAL_EVENT;
  std::uint64_t local_addr = 0;
  gni_mem_handle_t local_mem_hndl{};
  std::uint64_t remote_addr = 0;
  gni_mem_handle_t remote_mem_hndl{};
  std::uint64_t length = 0;
  std::uint64_t post_id = 0;  // echoed back in the local CQ event
  // AMO operands; for fetching AMOs the old value is stored to local_addr.
  std::uint64_t first_operand = 0;
  std::uint64_t second_operand = 0;
  gni_amo_cmd_t amo_cmd = GNI_FMA_ATOMIC_FADD;
};

// ---------------------------------------------------------------------------
// Completion-queue entries.
// ---------------------------------------------------------------------------
enum class CqEventType : std::uint8_t {
  kSmsg,        // incoming short message on some channel of this NIC
  kPostLocal,   // a local FMA/BTE transaction completed
  kPostRemote,  // remote event delivered by a transaction targeting us
};

struct gni_cq_entry_t {
  CqEventType type = CqEventType::kSmsg;
  std::uint64_t data = 0;      // post_id (local), remote data (remote events)
  std::int32_t source_inst = -1;  // sending NIC instance for SMSG events
};

// ---------------------------------------------------------------------------
// SMSG attributes (simplified gni_smsg_attr_t).
// ---------------------------------------------------------------------------
struct gni_smsg_attr_t {
  std::uint32_t msg_maxsize = 1024;   // payload cap per message
  std::uint32_t mbox_maxcredit = 8;   // in-flight messages before NOT_DONE
};

// ---------------------------------------------------------------------------
// API functions — signatures shaped after gni_pub.h.
// ---------------------------------------------------------------------------

/// Exclusive upper bound on NIC instance ids (27x full Hopper's 153,216).
constexpr std::int32_t kMaxInstId = 1 << 22;

/// GNI_CdmCreate+GNI_CdmAttach equivalent: create a NIC instance bound to a
/// torus node within the domain.  `inst_id` must be unique in the domain
/// and below kMaxInstId (the domain indexes NICs densely by id).
/// Returns: SUCCESS | INVALID_PARAM (null domain/out, bad node, id out of
/// range) | INVALID_STATE (duplicate inst_id).
gni_return_t GNI_CdmAttach(Domain* domain, std::int32_t inst_id, int node,
                           gni_nic_handle_t* nic_out);

/// Returns: SUCCESS | INVALID_PARAM (null nic/out, zero entry_count).
gni_return_t GNI_CqCreate(gni_nic_handle_t nic, std::uint32_t entry_count,
                          gni_cq_handle_t* cq_out);

/// Poll a CQ.  Charges cq_poll (plus cq_event when one is present).
/// Returns: SUCCESS | INVALID_PARAM (null args) | ERROR_RESOURCE (the CQ
/// overran: at least one event was dropped; run GNI_CqErrorRecover) |
/// NOT_DONE (no event has arrived yet).
gni_return_t GNI_CqGetEvent(gni_cq_handle_t cq, gni_cq_entry_t* event_out);

/// Recover a CQ from overrun state, mirroring the real
/// GNI_CqErrorRecovery: clears the overrun latch and re-synthesizes the
/// events that were dropped from NIC-side state that survives the drop —
/// SMSG arrival events from undelivered mailbox messages and local-post
/// completions from the NIC's completed-descriptor table.  kPostRemote
/// events are not recoverable (the real hardware loses them too; runtimes
/// must not depend on remote events for correctness).  `recovered_out`
/// (optional) receives the number of re-synthesized events.
/// Returns: SUCCESS (including when the CQ was not overrun) |
/// INVALID_PARAM (null cq).
gni_return_t GNI_CqErrorRecover(gni_cq_handle_t cq,
                                std::uint32_t* recovered_out);

/// Blocking poll: if an event is in flight toward this CQ, spin (advance
/// the caller's virtual clock) until it arrives and return it; if the CQ
/// has no event pending at all, return GNI_RC_NOT_DONE (the emulation
/// cannot block on traffic that was never issued).  Mirrors the real
/// GNI_CqWaitEvent; used by the ping-pong style drivers behind the
/// paper's "pure uGNI" benchmarks.
/// Returns: SUCCESS | INVALID_PARAM | ERROR_RESOURCE (overrun; run
/// GNI_CqErrorRecover) | NOT_DONE (no event pending or in flight).
gni_return_t GNI_CqWaitEvent(gni_cq_handle_t cq, gni_cq_entry_t* event_out);

/// Returns: SUCCESS | INVALID_PARAM (null nic/out, zero length) |
/// ERROR_RESOURCE (NIC MDD/TLB entries exhausted — transient; back off and
/// retry, or fall back to an already-registered bounce buffer).
gni_return_t GNI_MemRegister(gni_nic_handle_t nic, std::uint64_t address,
                             std::uint64_t length, gni_cq_handle_t dst_cq,
                             std::uint32_t flags, gni_mem_handle_t* hndl_out);
/// Returns: SUCCESS | INVALID_PARAM (null/stale/foreign handle).
gni_return_t GNI_MemDeregister(gni_nic_handle_t nic, gni_mem_handle_t* hndl);

/// Returns: SUCCESS | INVALID_PARAM (null nic/out).
gni_return_t GNI_EpCreate(gni_nic_handle_t nic, gni_cq_handle_t tx_cq,
                          gni_ep_handle_t* ep_out);
/// Returns: SUCCESS | INVALID_PARAM (null ep, negative inst) |
/// INVALID_STATE (already bound).
gni_return_t GNI_EpBind(gni_ep_handle_t ep, std::int32_t remote_inst_id);
/// Returns: SUCCESS | INVALID_PARAM (null ep).
gni_return_t GNI_EpDestroy(gni_ep_handle_t ep);

/// Set up the SMSG channel on this endpoint.  Both sides must agree: each
/// side's `remote` must be the other's `local`.  The emulation checks this
/// when the pair first links (the first send); a pair that disagrees never
/// links, and its sends fail with INVALID_STATE.
/// Returns: SUCCESS | INVALID_PARAM (null/unbound ep, zero-credit attrs) |
/// INVALID_STATE (already initialized).
gni_return_t GNI_SmsgInit(gni_ep_handle_t ep, const gni_smsg_attr_t& local,
                          const gni_smsg_attr_t& remote);

/// Send header+payload as one short message with a tag.
/// Returns: SUCCESS | INVALID_PARAM (null/unbound ep, missing peer) |
/// INVALID_STATE (channel not SmsgInit'ed on both sides, or the two sides'
/// GNI_SmsgInit attributes disagree) | SIZE_ERROR (hdr+data exceeds
/// msg_maxsize) | NOT_DONE (out of mailbox credits — transient; retry
/// after the peer releases, or demote to rendezvous) | ERROR_RESOURCE
/// (SSID pool exhausted — transient; back off and retry).
gni_return_t GNI_SmsgSendWTag(gni_ep_handle_t ep, const void* header,
                              std::uint32_t header_length, const void* data,
                              std::uint32_t data_length, std::uint32_t msg_id,
                              std::uint8_t tag);

/// Peek the next undelivered message on this endpoint's receive mailbox.
/// Returns a pointer into mailbox memory, valid until GNI_SmsgRelease or
/// until another message lands in this mailbox (copy out first).
/// `arrival_out` (optional) receives the message's virtual wire-arrival
/// time — the instant the Gemini model landed it in the mailbox, which can
/// be earlier than the CQ poll that discovered it (lifecycle spans use the
/// gap to separate link traversal from poll wait).
/// Returns: SUCCESS | INVALID_PARAM | INVALID_STATE (channel not
/// initialized) | NOT_DONE (no message has arrived yet).
gni_return_t GNI_SmsgGetNextWTag(gni_ep_handle_t ep, void** data_out,
                                 std::uint8_t* tag_out,
                                 SimTime* arrival_out = nullptr);

/// Release the mailbox slot of the last message returned by GetNextWTag,
/// returning a credit to the sender.  Real SMSG piggybacks credits on
/// reverse traffic and never interrupts the sender for one.  So when the
/// sender still holds a credit on this channel, the credit joins its count
/// at once, with no engine event and no client call.  When the sender
/// holds none, the credit travels the wire: an event at release + hops x
/// hop_ns adds it and calls the sender's NicClient::credit_returned.  A NIC
/// whose client asks for every return (Nic::CreditNotify::kEveryReturn)
/// always gets the event.
/// Returns: SUCCESS | INVALID_PARAM | INVALID_STATE (nothing delivered).
gni_return_t GNI_SmsgRelease(gni_ep_handle_t ep);

/// Post a CPU-driven (FMA) / DMA-offloaded (BTE) one-sided transaction.
/// Returns: SUCCESS | INVALID_PARAM (null/unbound ep, null desc, missing
/// peer) | PERMISSION_ERROR (local or remote memory handle invalid, stale,
/// or not covering [addr, addr+length)) | TRANSACTION_ERROR (the adapter
/// gave up on the transaction — transient; re-post the descriptor).
gni_return_t GNI_PostFma(gni_ep_handle_t ep, gni_post_descriptor_t* desc);
/// Same contract as GNI_PostFma.
gni_return_t GNI_PostRdma(gni_ep_handle_t ep, gni_post_descriptor_t* desc);

/// Retrieve the descriptor whose completion `event` (kPostLocal) reported.
/// Returns: SUCCESS | INVALID_PARAM (null args, wrong event type, unknown
/// post id).
gni_return_t GNI_GetCompleted(gni_cq_handle_t cq, const gni_cq_entry_t& event,
                              gni_post_descriptor_t** desc_out);

namespace detail {
/// Shared implementation of GNI_PostFma / GNI_PostRdma.
gni_return_t post_transaction(Ep* ep, gni_post_descriptor_t* desc,
                              bool is_rdma);
}  // namespace detail

// The API functions need access to emulation internals; granting friendship
// to the whole set in each class keeps the public surface identical to the
// real opaque-handle API.
#define UGNIRT_UGNI_API_FRIENDS                                              \
  friend gni_return_t GNI_CdmAttach(Domain*, std::int32_t, int,              \
                                    gni_nic_handle_t*);                      \
  friend gni_return_t GNI_CqCreate(gni_nic_handle_t, std::uint32_t,          \
                                   gni_cq_handle_t*);                        \
  friend gni_return_t GNI_CqGetEvent(gni_cq_handle_t, gni_cq_entry_t*);      \
  friend gni_return_t GNI_CqWaitEvent(gni_cq_handle_t, gni_cq_entry_t*);     \
  friend gni_return_t GNI_CqErrorRecover(gni_cq_handle_t, std::uint32_t*);   \
  friend gni_return_t GNI_MemRegister(gni_nic_handle_t, std::uint64_t,       \
                                      std::uint64_t, gni_cq_handle_t,        \
                                      std::uint32_t, gni_mem_handle_t*);     \
  friend gni_return_t GNI_MemDeregister(gni_nic_handle_t,                    \
                                        gni_mem_handle_t*);                  \
  friend gni_return_t GNI_EpCreate(gni_nic_handle_t, gni_cq_handle_t,        \
                                   gni_ep_handle_t*);                        \
  friend gni_return_t GNI_EpBind(gni_ep_handle_t, std::int32_t);             \
  friend gni_return_t GNI_EpDestroy(gni_ep_handle_t);                        \
  friend gni_return_t GNI_SmsgInit(gni_ep_handle_t, const gni_smsg_attr_t&,  \
                                   const gni_smsg_attr_t&);                  \
  friend gni_return_t GNI_SmsgSendWTag(gni_ep_handle_t, const void*,         \
                                       std::uint32_t, const void*,           \
                                       std::uint32_t, std::uint32_t,         \
                                       std::uint8_t);                        \
  friend gni_return_t GNI_SmsgGetNextWTag(gni_ep_handle_t, void**,           \
                                          std::uint8_t*, SimTime*);          \
  friend gni_return_t GNI_SmsgRelease(gni_ep_handle_t);                      \
  friend gni_return_t GNI_GetCompleted(gni_cq_handle_t,                      \
                                       const gni_cq_entry_t&,                \
                                       gni_post_descriptor_t**);             \
  friend gni_return_t detail::post_transaction(Ep*, gni_post_descriptor_t*,  \
                                               bool);

// ---------------------------------------------------------------------------
// Emulation objects.
// ---------------------------------------------------------------------------

/// The one runtime that attached a NIC (Nic::set_client), told of what its
/// progress engine can observe so that an idle client can sleep.  A NIC
/// without a client reports to no one (a program that polls on its own).
class NicClient {
 public:
  /// In an engine event at `t`: an entry arrives on one of the NIC's CQs
  /// or its MSGQ, or (by default) a returned SMSG credit reaches the NIC.
  virtual void nic_wake(SimTime t) = 0;
  /// At push time, before the entry's nic_wake is scheduled: an entry
  /// arriving at `at` was pushed onto `cq` (for a push that overruns the
  /// queue, `at` is the engine time: any later poll sees the overrun).  A
  /// client that stops polling while it waits wakes for the first poll
  /// that would see the entry, which nic_wake can come after.
  virtual void cq_pushed(const Cq& /*cq*/, SimTime /*at*/) {}
  /// A returned SMSG credit reached the NIC `now` (Nic::CreditNotify
  /// selects which returns do); the peer released it at `released`.
  virtual void credit_returned(SimTime now, SimTime /*released*/) {
    nic_wake(now);
  }

 protected:
  ~NicClient() = default;
};

/// A completion queue: a bounded FIFO of events.  A push tells the NIC's
/// client (NicClient::cq_pushed) and wakes it at the arrival time.
class Cq {
 public:
  Cq(Nic* nic, std::uint32_t capacity, std::uint32_t index)
      : nic_(nic), capacity_(capacity), index_(index) {}

  bool empty() const { return entries_.empty(); }
  std::size_t depth() const { return entries_.size(); }
  bool overrun() const { return overrun_; }
  Nic* nic() const { return nic_; }
  /// This CQ's slot in its domain (Domain::cq_at).
  std::uint32_t index() const { return index_; }

  /// High-water mark of queued events (CQ sizing / introspection).
  std::size_t max_depth() const { return max_depth_; }
  /// Events dropped because the queue was full at push time.
  std::uint64_t dropped_events() const { return dropped_events_; }

  /// Virtual arrival time of the earliest queued event, or kNever when the
  /// queue is empty (driver support; carries no CPU charge).
  SimTime next_arrival() const {
    return entries_.empty() ? kNever : entries_.front().at;
  }

 private:
  UGNIRT_UGNI_API_FRIENDS

  void push(SimTime at, gni_cq_entry_t entry);
  /// Tell the NIC's client of a push made at `pushed_at`, and wake it at
  /// the arrival time `at`.
  void notify_client(SimTime pushed_at, SimTime at);

  struct Timed {
    SimTime at;
    gni_cq_entry_t entry;
  };

  Nic* nic_;
  std::uint32_t capacity_;
  std::uint32_t index_;
  std::uint32_t max_depth_ = 0;
  bool overrun_ = false;
  std::uint64_t dropped_events_ = 0;
  RingFifo<Timed> entries_;  // kept sorted by arrival time
};
static_assert(sizeof(Cq) <= 64, "a CQ is one cache line");

/// Slab index of no endpoint (an empty peer-table slot, an unlinked pair).
constexpr std::uint32_t kNoEp = UINT32_MAX;
/// Domain index of no CQ (an endpoint created without a TX CQ).
constexpr std::uint32_t kNoCq = UINT32_MAX;

/// Endpoint: the addressing object for one remote NIC instance, and the
/// local side of its SMSG channel.  Endpoints live in their domain's slab
/// (Domain::ep_at): GNI_EpCreate constructs one in place, its address and
/// 32-bit slab index stay valid until the domain dies, and GNI_EpDestroy
/// unbinds it without freeing it.  One channel side is one cache line.
class alignas(64) Ep {
 public:
  Ep(const Ep&) = delete;
  Ep& operator=(const Ep&) = delete;

  Nic* nic() const { return nic_; }
  inline Cq* tx_cq() const;
  std::int32_t remote_inst() const { return remote_inst_; }
  bool bound() const { return remote_inst_ >= 0; }
  /// This endpoint's slot in its domain's slab.
  std::uint32_t index() const { return index_; }
  /// Send credits this side holds on its SMSG channel: a send finds one
  /// or fails with GNI_RC_NOT_DONE.
  std::uint16_t credits() const { return credits_; }

  /// The endpoint on the remote NIC bound back to this one, once SMSG
  /// traffic has linked the pair (nullptr before first use and after
  /// GNI_EpDestroy on either side).
  inline Ep* reverse() const;

  /// A message in the receive mailbox, awaiting GetNext/Release.
  struct Msg {
    SimTime at = 0;  // virtual arrival time
    InlineBytes bytes;
    std::uint8_t tag = 0;
    bool delivered = false;  // returned by GetNextWTag, not yet Released
  };
  static_assert(sizeof(Msg) == 64, "a mailbox message is one cache line");
  /// The receive mailbox: 16-bit ring indices keep it at 16 bytes, so
  /// GNI_SmsgInit rejects more credits than kMaxMailboxCredits.
  using Mailbox = RingFifo<Msg, /*kKeepGrown=*/false, std::uint16_t>;
  static constexpr std::uint32_t kMaxMailboxCredits = Mailbox::kMaxCapacity;

 private:
  UGNIRT_UGNI_API_FRIENDS
  friend class Domain;  // the only constructor of endpoints

  Ep(Nic* nic, std::uint32_t tx_cq, std::uint32_t index)
      : nic_(nic), tx_cq_(tx_cq), index_(index) {}

  /// GNI_SmsgInit has set up the channel (it rejects zero-size messages).
  bool smsg_ready() const { return local_maxsize_ != 0; }
  /// Bytes of this side's receive mailbox.
  std::uint64_t mbox_bytes() const;
  /// Both sides' GNI_SmsgInit attributes describe the same channel.
  bool smsg_agrees(const Ep& rev) const {
    return remote_maxsize_ == rev.local_maxsize_ &&
           remote_credits_ == rev.local_credits_ &&
           rev.remote_maxsize_ == local_maxsize_ &&
           rev.remote_credits_ == local_credits_;
  }
  /// The reverse endpoint: the link when set, else a lookup through the
  /// remote NIC.  The lookup links the pair when this is the endpoint its
  /// NIC has bound to the peer and both sides are SmsgInit'ed.  nullptr
  /// when the peer has no endpoint bound back, or when both sides are
  /// SmsgInit'ed and disagree (smsg_agrees).
  Ep* resolve_reverse();
  /// Break the reverse link on both sides.
  inline void unlink();

  Nic* nic_;
  std::uint32_t tx_cq_;  // Cq::index() in the domain, or kNoCq
  std::int32_t remote_inst_ = -1;
  std::uint32_t index_;
  // Linked in pairs: a.reverse_ == b.index_ exactly when b.reverse_ ==
  // a.index_, and only while each is the endpoint its NIC has bound to
  // the other.
  std::uint32_t reverse_ = kNoEp;
  SimTime last_arrival_ = 0;  // FIFO: later sends never arrive earlier
  // SMSG channel side, set by GNI_SmsgInit: this side's mailbox (local)
  // and the peer's mailbox as this side was told of it (remote).  Credits
  // fit 16 bits because a mailbox holds at most kMaxMailboxCredits.
  std::uint32_t local_maxsize_ = 0;  // 0: no mailbox
  std::uint32_t remote_maxsize_ = 0;
  std::uint16_t local_credits_ = 0;
  std::uint16_t remote_credits_ = 0;
  std::uint16_t credits_ = 0;  // remaining send credits
  Mailbox rx_;
};
static_assert(sizeof(Ep) == 64, "an endpoint is one cache line");

/// Flat map from peer instance id to the slab index of the endpoint bound
/// to it: open addressing with linear probing over a power-of-two array of
/// 8-byte slots (Fibonacci-hashed home slot, load at most 1/2),
/// backward-shift erase so no tombstones accumulate, and no storage until
/// the first insert.  Peer ids are non-negative; -1 marks an empty slot.
class PeerTable {
 public:
  /// The endpoint bound to `peer`, or kNoEp.
  std::uint32_t find(std::int32_t peer) const {
    if (size_ == 0) return kNoEp;
    for (std::size_t i = home(peer);; i = (i + 1) & mask()) {
      const Slot& s = slots_[i];
      if (s.peer == peer) return s.ep;
      if (s.peer == kEmpty) return kNoEp;
    }
  }
  /// Bind `peer` to `ep`; returns the endpoint it displaced, or kNoEp.
  std::uint32_t insert(std::int32_t peer, std::uint32_t ep);
  /// Unbind `peer`; returns the endpoint it was bound to, or kNoEp.
  std::uint32_t erase(std::int32_t peer);

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return slots_.size(); }

  /// Visit every live (peer, endpoint) pair in slot order.
  template <typename F>
  void for_each(F&& f) const {
    for (const Slot& s : slots_) {
      if (s.peer != kEmpty) f(s.peer, s.ep);
    }
  }

 private:
  static constexpr std::int32_t kEmpty = -1;
  struct Slot {
    std::int32_t peer = kEmpty;
    std::uint32_t ep = kNoEp;
  };
  static_assert(sizeof(Slot) == 8);

  std::size_t mask() const { return slots_.size() - 1; }
  std::size_t home(std::int32_t peer) const {
    return (static_cast<std::uint32_t>(peer) * 0x9E3779B9u) >> shift_;
  }
  void grow();

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  unsigned shift_ = 32;  // 32 - log2(capacity)
};

/// Owner of a registered region whose registered range is synthetic: the
/// bytes behind it live elsewhere on the host (the mempool registers its
/// slabs this way and serves payloads from a shared host arena).  Posts
/// against such a region ask the owner instead of range-checking the
/// address.
class RegionOwner {
 public:
  /// True when host range [addr, addr+len) is a live block of the region
  /// bound under `key`.
  virtual bool holds(std::uint32_t key, std::uint64_t addr,
                     std::uint64_t len) const = 0;

 protected:
  ~RegionOwner() = default;
};

/// A NIC instance: one per simulated process (PE), attached to a torus node.
class Nic {
 public:
  Nic(Domain* domain, std::int32_t inst_id, int node)
      : domain_(domain), inst_id_(inst_id), node_(node) {}

  std::int32_t inst_id() const { return inst_id_; }
  int node() const { return node_; }
  Domain* domain() const { return domain_; }

  /// The CQ receiving SMSG arrival events for all channels of this NIC
  /// (set by the first GNI_SmsgInit; mirrors the shared smsg rx CQ in the
  /// real machine layer).
  void set_smsg_rx_cq(Cq* cq) { smsg_rx_cq_ = cq; }

  /// Total mailbox memory this NIC has committed to SMSG channels — the
  /// linear-in-peers cost the paper calls out for SMSG vs MSGQ.  Under
  /// lazy connection setup this reflects only *established* channels:
  /// it grows at get_or_connect / GNI_SmsgInit time and shrinks when an
  /// initialized endpoint is destroyed, never at NIC init.
  std::uint64_t mailbox_bytes() const { return mailbox_bytes_; }

  std::uint64_t registered_bytes() const { return registered_bytes_; }
  std::size_t active_regions() const { return n_active_regions_; }

  /// True when `h` is a live registration of this NIC covering
  /// [addr, addr+len): inside the registered range, or, for a region with
  /// an owner, a live block the owner holds.  FMA/BTE posts require it of
  /// both buffers.
  bool handle_valid(const gni_mem_handle_t& h, std::uint64_t addr,
                    std::uint64_t len) const;

  /// Route validity checks of the live region behind `h` to `owner`
  /// (nullptr unbinds, leaving only the registered range).  An owner must
  /// unbind or deregister before it is destroyed.
  void set_region_owner(const gni_mem_handle_t& h, const RegionOwner* owner,
                        std::uint32_t key);

  /// Endpoint on this NIC bound to `remote_inst`, or nullptr.
  inline Ep* ep_for_peer(std::int32_t remote_inst) const;

  /// Defaults used by get_or_connect for lazily created channels: the TX
  /// CQ every new endpoint binds to and the SMSG mailbox attributes both
  /// sides agree on.  A machine layer sets these once per NIC at init
  /// time — O(1) per PE — instead of materializing N endpoints eagerly.
  void set_default_tx_cq(Cq* cq) { default_tx_cq_ = cq; }
  void set_smsg_attr(const gni_smsg_attr_t& attr) { smsg_attr_ = attr; }

  /// First-touch connection setup — the ONLY way runtime layers obtain a
  /// send endpoint.  Returns the endpoint bound to `peer`, creating the
  /// channel on first use: forward and reverse endpoints, SMSG mailboxes
  /// on both NICs (skipped for NICs in MSGQ mode, whose whole point is
  /// pinning no per-pair memory), with both mailbox registrations
  /// charged to the *initiator's* virtual time — the out-of-band
  /// datagram handshake of the real dynamic setup.  Subsequent calls are
  /// one probe of the flat peer table with no charge.  `established_out`
  /// (optional) reports whether this call created the channel, so callers
  /// can count setup work.  Returns nullptr when `peer` is unknown or this
  /// NIC has no default TX CQ configured.  Requires a current sim context.
  Ep* get_or_connect(std::int32_t peer, bool* established_out = nullptr);

  bool connected(std::int32_t peer) const {
    return ep_for_peer(peer) != nullptr;
  }
  /// Channels this NIC has endpoints for (== active pairs, not job size).
  std::size_t connected_peers() const { return peer_eps_.size(); }

  /// The per-NIC shared message queue (nullptr until GNI_MsgqInit).
  Msgq* msgq() const { return msgq_; }
  void set_msgq(Msgq* q) { msgq_ = q; }

  /// Which returned SMSG credits reach the client (credit_returned).
  enum class CreditNotify : std::uint8_t {
    /// Only a credit that comes back to a channel with none left: the
    /// only return a back-pressured send can be waiting for.  Any other
    /// credit is added at release with no event (GNI_SmsgRelease).
    kWhenDry,
    /// Every credit, each one an engine event at its wire return time.
    kEveryReturn,
  };

  /// Make `client` the one runtime this NIC reports to (nullptr: none),
  /// and `which` the returned credits it hears of.
  void set_client(NicClient* client,
                  CreditNotify which = CreditNotify::kWhenDry) {
    client_ = client;
    credit_notify_ = which;
  }
  NicClient* client() const { return client_; }

 private:
  UGNIRT_UGNI_API_FRIENDS

  struct Region {
    std::uint64_t addr = 0;
    std::uint64_t length = 0;
    std::uint32_t generation = 0;
    bool valid = false;
    Cq* dst_cq = nullptr;  // receives remote events for transactions here
    const RegionOwner* owner = nullptr;  // see set_region_owner
    std::uint32_t owner_key = 0;
  };

  Region* region_of(const gni_mem_handle_t& h);
  const Region* region_of(const gni_mem_handle_t& h) const;

  Domain* domain_;
  std::int32_t inst_id_;
  int node_;
  Cq* smsg_rx_cq_ = nullptr;
  Cq* default_tx_cq_ = nullptr;  // TX CQ for get_or_connect endpoints
  gni_smsg_attr_t smsg_attr_{};  // mailbox attrs for lazy channels
  Msgq* msgq_ = nullptr;  // owned; released by Domain's destructor
  std::vector<Region> regions_;
  std::size_t n_active_regions_ = 0;
  std::uint64_t registered_bytes_ = 0;
  std::uint64_t mailbox_bytes_ = 0;
  PeerTable peer_eps_;  // bound endpoints
  NicClient* client_ = nullptr;
  CreditNotify credit_notify_ = CreditNotify::kWhenDry;
  // Descriptors completed but not yet claimed via GNI_GetCompleted.
  std::vector<std::pair<std::uint64_t, gni_post_descriptor_t*>> completed_;
  std::uint64_t next_internal_post_id_ = 1;
};

/// The communication domain: the collection of NIC instances sharing one
/// simulated Gemini network (the job, in Cray terms).
class Domain {
 public:
  explicit Domain(gemini::Network& network) : network_(&network) {}
  Domain(const Domain&) = delete;
  Domain& operator=(const Domain&) = delete;
  ~Domain();

  gemini::Network& network() const { return *network_; }
  const gemini::MachineConfig& config() const { return network_->config(); }
  sim::Scheduler& scheduler() const { return network_->scheduler(); }

  /// O(1) instance lookup: one load from a dense table indexed by instance
  /// id (machine layers attach ids 0..N-1).  SMSG send and release skip it
  /// once a channel's endpoints are linked (Ep::reverse).
  Nic* nic_by_inst(std::int32_t inst_id) const {
    const auto i = static_cast<std::size_t>(inst_id);
    return inst_id >= 0 && i < nic_index_.size() ? nic_index_[i] : nullptr;
  }

  /// Aggregate SMSG mailbox memory across the job (scalability metric).
  /// Maintained incrementally at SmsgInit/EpDestroy time, so it is O(1)
  /// to read and counts only currently established channels.
  std::uint64_t total_mailbox_bytes() const { return total_mailbox_bytes_; }

  /// Established SMSG channel *sides* job-wide (each connected pair
  /// contributes two).  Grows with traffic patterns, not with N².
  std::uint64_t smsg_channels() const { return smsg_channels_; }

  /// The endpoint in slab slot `i` (an Ep::index() of this domain).
  /// Endpoints live in fixed-size chunks that never move; one is destroyed
  /// only with the domain, so this stays valid after GNI_EpDestroy.
  Ep* ep_at(std::uint32_t i) const {
    return std::launder(reinterpret_cast<Ep*>(
        ep_chunks_[i / kEpChunk][i % kEpChunk].bytes));
  }
  /// Endpoints per slab chunk (64 KiB).
  static constexpr std::uint32_t kEpChunk = 1024;

  /// The CQ with Cq::index() `i`.
  Cq* cq_at(std::uint32_t i) const { return cqs_[i].get(); }

  /// Publish domain-wide gauges: ugni.mailbox_bytes, ugni.registered_bytes,
  /// ugni.active_regions, cq.max_depth, cq.dropped_events.  The network
  /// publishes its own rows (Machine::collect_metrics runs both).
  void collect_metrics(trace::MetricsRegistry& reg) const;

 private:
  UGNIRT_UGNI_API_FRIENDS

  friend class Nic;  // get_or_connect maintains the channel accounting

  struct EpCell {
    alignas(Ep) std::byte bytes[sizeof(Ep)];
  };

  /// Construct an endpoint in the next free slab slot (GNI_EpCreate).
  Ep* emplace_ep(Nic* nic, Cq* tx_cq);

  gemini::Network* network_;
  std::vector<std::unique_ptr<Nic>> nics_;
  std::vector<Nic*> nic_index_;  // inst_id -> NIC (nullptr: unattached)
  std::vector<std::unique_ptr<EpCell[]>> ep_chunks_;  // the endpoint slab
  std::uint32_t n_eps_ = 0;
  std::vector<std::unique_ptr<Cq>> cqs_;
  std::uint64_t total_mailbox_bytes_ = 0;
  std::uint64_t smsg_channels_ = 0;
};

inline Cq* Ep::tx_cq() const {
  return tx_cq_ == kNoCq ? nullptr : nic_->domain()->cq_at(tx_cq_);
}

inline Ep* Ep::reverse() const {
  return reverse_ == kNoEp ? nullptr : nic_->domain()->ep_at(reverse_);
}

inline void Ep::unlink() {
  if (reverse_ != kNoEp) nic_->domain()->ep_at(reverse_)->reverse_ = kNoEp;
  reverse_ = kNoEp;
}

inline Ep* Nic::ep_for_peer(std::int32_t remote_inst) const {
  const std::uint32_t i = peer_eps_.find(remote_inst);
  return i == kNoEp ? nullptr : domain_->ep_at(i);
}

}  // namespace ugnirt::ugni
