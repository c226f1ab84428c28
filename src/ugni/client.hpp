// Plumbing every client of the uGNI API needs, below its protocol.
//
// The simulator has two uGNI clients: the machine-layer protocol core
// (lrts/ugni_core.hpp, under the uGNI and SMP layers) and the MPI library
// the paper compares against (mpilite).  They differ in protocol, not in
// how they bring up a NIC, survive transient uGNI failures or queue SMSG
// sends that find no mailbox credit, so both use this one copy:
//
//   * ClientEndpoint / open_endpoint / connect: attach a NIC, create its
//     RX and TX CQs, record the mailbox geometry that lazily created
//     channels use; first-touch channel setup.  The endpoint is the NIC's
//     one client (ugni::NicClient): CQ arrivals, MSGQ landings and
//     returned credits reach it as a wake, and a client overrides only
//     the hooks it needs.
//   * Retry: real uGNI code treats GNI_RC_NOT_DONE, GNI_RC_ERROR_RESOURCE
//     and GNI_RC_TRANSACTION_ERROR as transient (credits return, CQ space
//     frees, the adapter retransmits).  Such failures are retried with
//     capped exponential backoff in virtual time (backoff_for), escalated
//     (logged and counted) once kMaxRetries polite attempts are spent,
//     then retried at the capped interval — the injected fault processes
//     are transient by construction, so persistence preserves the
//     zero-loss guarantee the fault-matrix tests assert.  A hard cap of
//     ~1000 attempts turns a permanently failing call (p = 1.0
//     misconfiguration) into a loud abort instead of an unbounded
//     virtual-time spin.
//   * drain_cq: a CQ overrun (GNI_RC_ERROR_RESOURCE) is recovered with
//     GNI_CqErrorRecover and the drain goes on.
//   * SmsgBacklog: SMSG sends that found no credit wait in order and are
//     retried from the client's progress engine once the channel the front
//     stalled on holds a credit again, with backoff and (after
//     kDemoteAfter failures) an offer to demote while a fault plan is
//     active.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>

#include "sim/context.hpp"
#include "trace/events.hpp"
#include "trace/metrics.hpp"
#include "ugni/msgq.hpp"
#include "ugni/ugni.hpp"
#include "util/inline_bytes.hpp"
#include "util/log.hpp"
#include "util/ring_fifo.hpp"

namespace ugnirt::ugni {

// The retry policy every uGNI client shares.
/// Failed attempts before a stall is escalated (logged and counted).
inline constexpr int kMaxRetries = 8;
/// First backoff interval, virtual ns.
inline constexpr SimTime kBackoffBaseNs = 500;
/// Growth of the interval per failed attempt.
inline constexpr double kBackoffMult = 2.0;
/// Ceiling on one backoff interval, virtual ns.
inline constexpr SimTime kBackoffMaxNs = 64000;
/// Failed credit-backlog flushes under a fault plan before the front
/// entry is offered to the client's smsg_demote.
inline constexpr int kDemoteAfter = 4;

/// Backoff before retry number `attempt` (1-based): capped exponential.
constexpr SimTime backoff_for(int attempt) {
  if (attempt < 1) attempt = 1;
  double b = static_cast<double>(kBackoffBaseNs);
  for (int i = 1; i < attempt && b < static_cast<double>(kBackoffMaxNs);
       ++i) {
    b *= kBackoffMult;
  }
  return std::min(static_cast<SimTime>(b), kBackoffMaxNs);
}

/// A client's NIC with its CQs (and shared message queue in MSGQ mode).
/// It is the NIC's client once attached (Nic::set_client); a concrete
/// endpoint supplies nic_wake and overrides the other hooks as it needs.
struct ClientEndpoint : NicClient {
  gni_nic_handle_t nic = nullptr;
  gni_cq_handle_t rx_cq = nullptr;   // SMSG arrivals
  gni_cq_handle_t tx_cq = nullptr;   // FMA/BTE local completions
  gni_msgq_handle_t msgq = nullptr;  // shared queue (MSGQ mode only)
};

/// Attach `ep` to the NIC of instance `inst` on `node`, create its two CQs
/// of `cq_entries`, and record `attr` as the mailbox geometry of every
/// channel get_or_connect will create (and a shared MSGQ instead when
/// `use_msgq`).  The caller then makes `ep` the NIC's client
/// (Nic::set_client) if it wants to be woken.  Channel setup stays lazy;
/// nothing here is O(peers).
void open_endpoint(Domain& domain, int inst, int node,
                   std::uint32_t cq_entries, const gni_smsg_attr_t& attr,
                   bool use_msgq, ClientEndpoint& ep);

/// Endpoint to `peer` via Nic::get_or_connect — the uGNI API owns channel
/// creation and charges its first touch to the initiator.  A new SMSG
/// channel pins two mailboxes (none in MSGQ mode); they are counted into
/// `registrations`.
inline gni_ep_handle_t connect(const ClientEndpoint& ep, int peer,
                               trace::Counter& registrations) {
  bool established = false;
  gni_ep_handle_t gep = ep.nic->get_or_connect(peer, &established);
  assert(gep && "get_or_connect failed: unknown peer or NIC not configured");
  if (established && !ep.msgq) registrations.inc(2);
  return gep;
}

/// Counters a retry loop reports into (both required).
struct RetryCounters {
  trace::Counter* retries = nullptr;
  trace::Counter* escalations = nullptr;
};

/// Bookkeeping of failed attempt number `attempt` (1-based) of `what`:
/// count it, and escalate once when the kMaxRetries polite attempts end.
void note_failure(int attempt, const char* what, const RetryCounters& n);

/// The backoff before the next attempt after failure number `attempt`,
/// traced as a kRetryBackoff event toward `peer` (-1: none).
SimTime traced_backoff(sim::Context& ctx, int attempt, int peer);

/// GNI_MemRegister with backoff on GNI_RC_ERROR_RESOURCE.  Returns
/// GNI_RC_SUCCESS (eventually) or aborts via ugni::check on a contract
/// violation / permanent failure.
gni_return_t register_with_retry(sim::Context& ctx, gni_nic_handle_t nic,
                                 std::uint64_t addr, std::uint64_t len,
                                 gni_cq_handle_t dst_cq,
                                 gni_mem_handle_t* hndl_out,
                                 const RetryCounters& n);

/// GNI_PostFma / GNI_PostRdma with backoff on GNI_RC_TRANSACTION_ERROR.
gni_return_t post_with_retry(sim::Context& ctx, gni_ep_handle_t ep,
                             gni_post_descriptor_t* desc, bool is_rdma,
                             const RetryCounters& n);

/// Handle a GNI_RC_ERROR_RESOURCE from a CQ poll: run GNI_CqErrorRecover
/// (which re-synthesizes the dropped events) and count the recovery.
void recover_cq(gni_cq_handle_t cq, trace::Counter& recovered);

/// Hand every event ready on `cq` to `on_event(const gni_cq_entry_t&)`.
/// An overrun is recovered (drain + resynthesize from mailbox state)
/// instead of latching the CQ dead, and the drain goes on.
template <class OnEvent>
void drain_cq(gni_cq_handle_t cq, trace::Counter& recovered,
              OnEvent&& on_event) {
  for (;;) {
    gni_cq_entry_t ev;
    gni_return_t rc = GNI_CqGetEvent(cq, &ev);
    if (rc == GNI_RC_ERROR_RESOURCE) {
      recover_cq(cq, recovered);
      continue;
    }
    if (rc != GNI_RC_SUCCESS) return;
    on_event(ev);
  }
}

/// The rows every uGNI client publishes, bound once to a registry
/// (std::map nodes: the pointers stay valid as rows are added).
struct ClientCounters {
  ClientCounters() = default;
  explicit ClientCounters(trace::MetricsRegistry& registry);
  trace::Counter* smsg_sends = nullptr;     // ugni.smsg_sends
  trace::Counter* credit_stalls = nullptr;  // ugni.credit_stalls
  trace::Counter* registrations = nullptr;  // ugni.registrations
  trace::Counter* cq_recovered = nullptr;   // cq_overrun_recovered
  RetryCounters smsg;  // retry_smsg: failed backlog flushes (fault mode)
  RetryCounters reg;   // retry_mem_register
  RetryCounters post;  // retry_post
};

/// Credit-stalled SMSG sends of one endpoint, retried in order by flush().
/// Nothing is posted to an SMSG channel that holds no credit, and without
/// a fault plan a front that stalled on one is retried only once that
/// channel holds a credit again.
///
/// The client is a template parameter, so the send path has no virtual
/// call and no std::function.  It provides:
///
///   gni_ep_handle_t smsg_ep(int dest)      endpoint toward `dest`; may
///                                          connect (nullptr in MSGQ mode)
///   gni_return_t smsg_post(gep, dest, tag, bytes, len)   one post
///   void smsg_posted(ctx, void* msg)       an owned payload is on the wire
///   bool smsg_demote(ctx)                  after sustained starvation: move
///                                          the front entry off the SMSG
///                                          path (popping it), or false
///   void smsg_wake(SimTime t)              call flush() again at `t`
struct SmsgBacklog {
  struct Entry {
    void* msg = nullptr;  // owned payload, sent in place
    int dest = -1;
    std::uint32_t len = 0;
    std::uint8_t tag = 0;
    InlineBytes ctrl;  // copied control payload
  };
  RingFifo<Entry> q;
  int attempts = 0;      // consecutive failed flush attempts
  SimTime retry_at = 0;  // no flush retry before this instant (fault mode)
  // The SMSG endpoint the front last failed on (nullptr: a MSGQ send).
  gni_ep_handle_t stalled_on = nullptr;

  bool empty() const { return q.empty(); }

  /// Post `len` bytes to `dest` now, or queue them behind earlier stalls.
  /// `owned` (the payload itself) passes to the client's smsg_posted once
  /// it is on the wire; otherwise the bytes are copied when queued.
  template <class Client>
  void send(sim::Context& ctx, Client& c, const ClientCounters& n, int dest,
            std::uint8_t tag, const void* bytes, std::uint32_t len,
            void* owned) {
    gni_ep_handle_t gep = c.smsg_ep(dest);
    if (q.empty()) {
      gni_return_t rc = post(c, gep, dest, tag, bytes, len);
      if (rc == GNI_RC_SUCCESS) {
        n.smsg_sends->inc();
        if (owned) c.smsg_posted(ctx, owned);
        return;
      }
      // NOT_DONE: out of credits or a starvation window; ERROR_RESOURCE: an
      // injected transient send failure.  Both queue and retry from
      // flush(); anything else is a contract violation.
      check(rc, "GNI_SmsgSendWTag", GNI_RC_NOT_DONE, GNI_RC_ERROR_RESOURCE);
      stalled_on = gep;
    }
    // Out of credits (or draining in order behind earlier stalls): queue.
    n.credit_stalls->inc();
    if (trace::enabled()) {
      trace::emit(ctx.pe(), trace::Ev::kCreditStall, ctx.now(), 0, dest, len);
    }
    UGNIRT_TRACELOG("smsg credit stall -> " << dest << " (" << len
                                            << " B queued)");
    Entry e;
    e.dest = dest;
    e.tag = tag;
    e.len = len;
    if (owned) {
      e.msg = owned;
    } else {
      e.ctrl.assign(bytes, len);
    }
    q.push_back(std::move(e));
  }

  /// Retry the queue in order.  Without faults a stall is genuine credit
  /// exhaustion of the channel the front stalled on, and every credit that
  /// reaches a dry channel wakes the client (NicClient).  While that
  /// channel holds none the flush returns at once, whatever other channel
  /// of the NIC got a credit back.  With a fault plan active (`faulty`) a
  /// stall may be an injected starvation window that consumes no credits,
  /// so the credit count cannot be relied on: the flush backs off and
  /// re-arms its own wake, and a front entry stalled kDemoteAfter times is
  /// offered to the client's smsg_demote.  MSGQ sends (no SMSG endpoint)
  /// are always retried.
  template <class Client>
  void flush(sim::Context& ctx, Client& c, const ClientCounters& n,
             bool faulty) {
    if (q.empty()) return;
    if (faulty && ctx.now() < retry_at) {
      c.smsg_wake(retry_at);
      return;
    }
    if (!faulty && stalled_on && stalled_on->credits() == 0) return;
    while (!q.empty()) {
      Entry& e = q.front();
      gni_ep_handle_t gep = c.smsg_ep(e.dest);
      gni_return_t rc =
          post(c, gep, e.dest, e.tag, e.msg ? e.msg : e.ctrl.data(), e.len);
      if (rc != GNI_RC_SUCCESS) {  // still stalled
        check(rc, "GNI_SmsgSendWTag (backlog)", GNI_RC_NOT_DONE,
              GNI_RC_ERROR_RESOURCE);
        stalled_on = gep;
        if (!faulty) return;
        note_failure(++attempts, "SMSG backlog", n.smsg);
        if (attempts >= kDemoteAfter && c.smsg_demote(ctx)) {
          attempts = 0;
          continue;
        }
        retry_at = ctx.now() + traced_backoff(ctx, attempts, e.dest);
        c.smsg_wake(retry_at);
        return;
      }
      attempts = 0;
      n.smsg_sends->inc();
      if (e.msg) c.smsg_posted(ctx, e.msg);
      q.pop_front();
    }
  }

 private:
  /// One post, or GNI_RC_NOT_DONE without one when the SMSG channel holds
  /// no credit: GNI_SmsgSendWTag would fail so before any charge or fault
  /// draw.
  template <class Client>
  static gni_return_t post(Client& c, gni_ep_handle_t gep, int dest,
                           std::uint8_t tag, const void* bytes,
                           std::uint32_t len) {
    if (gep && gep->credits() == 0) return GNI_RC_NOT_DONE;
    return c.smsg_post(gep, dest, tag, bytes, len);
  }
};

}  // namespace ugnirt::ugni
