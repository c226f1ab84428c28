#include "ugni/client.hpp"

namespace ugnirt::ugni {

namespace {

/// Attempts after which a permanently-failing call aborts (a fault plan
/// with p = 1.0 on a required resource cannot make progress).
constexpr int kHardCap = 1000;

/// Shared backoff loop: `attempt` is how many failures have occurred.
/// Charges the backoff to the caller's context and does the escalation
/// bookkeeping; returns false once the hard cap is reached.
bool back_off(sim::Context& ctx, int attempt, const char* what,
              const RetryCounters& n) {
  if (attempt > kHardCap) return false;
  note_failure(attempt, what, n);
  ctx.charge(traced_backoff(ctx, attempt, /*peer=*/-1));
  return true;
}

}  // namespace

ClientCounters::ClientCounters(trace::MetricsRegistry& r) {
  trace::Counter* escalations = &r.counter("retry_escalations");
  smsg_sends = &r.counter("ugni.smsg_sends");
  credit_stalls = &r.counter("ugni.credit_stalls");
  registrations = &r.counter("ugni.registrations");
  cq_recovered = &r.counter("cq_overrun_recovered");
  smsg = {&r.counter("retry_smsg"), escalations};
  reg = {&r.counter("retry_mem_register"), escalations};
  post = {&r.counter("retry_post"), escalations};
}

void open_endpoint(Domain& domain, int inst, int node,
                   std::uint32_t cq_entries, const gni_smsg_attr_t& attr,
                   bool use_msgq, ClientEndpoint& ep) {
  check(GNI_CdmAttach(&domain, inst, node, &ep.nic), "GNI_CdmAttach");
  check(GNI_CqCreate(ep.nic, cq_entries, &ep.rx_cq), "GNI_CqCreate");
  check(GNI_CqCreate(ep.nic, cq_entries, &ep.tx_cq), "GNI_CqCreate");
  ep.nic->set_smsg_rx_cq(ep.rx_cq);
  ep.nic->set_default_tx_cq(ep.tx_cq);
  ep.nic->set_smsg_attr(attr);
  if (use_msgq) {
    check(GNI_MsgqInit(ep.nic, 256 * 1024, &ep.msgq), "GNI_MsgqInit");
  }
}

void note_failure(int attempt, const char* what, const RetryCounters& n) {
  n.retries->inc();
  if (attempt == kMaxRetries + 1) {
    n.escalations->inc();
    UGNIRT_WARN(what << " still failing after " << kMaxRetries
                     << " retries; continuing at capped backoff");
  }
}

SimTime traced_backoff(sim::Context& ctx, int attempt, int peer) {
  const SimTime pause = backoff_for(attempt);
  if (trace::enabled()) {
    trace::emit(ctx.pe(), trace::Ev::kRetryBackoff, ctx.now(), pause, peer,
                static_cast<std::uint32_t>(attempt));
  }
  return pause;
}

gni_return_t register_with_retry(sim::Context& ctx, gni_nic_handle_t nic,
                                 std::uint64_t addr, std::uint64_t len,
                                 gni_cq_handle_t dst_cq,
                                 gni_mem_handle_t* hndl_out,
                                 const RetryCounters& n) {
  int failures = 0;
  for (;;) {
    gni_return_t rc =
        check(GNI_MemRegister(nic, addr, len, dst_cq, 0, hndl_out),
              "GNI_MemRegister", GNI_RC_ERROR_RESOURCE);
    if (rc == GNI_RC_SUCCESS) return rc;
    if (!back_off(ctx, ++failures, "GNI_MemRegister", n)) {
      detail::check_fail(rc, "GNI_MemRegister (retries exhausted)");
    }
  }
}

gni_return_t post_with_retry(sim::Context& ctx, gni_ep_handle_t ep,
                             gni_post_descriptor_t* desc, bool is_rdma,
                             const RetryCounters& n) {
  int failures = 0;
  for (;;) {
    gni_return_t rc =
        check(is_rdma ? GNI_PostRdma(ep, desc) : GNI_PostFma(ep, desc),
              "GNI_Post", GNI_RC_TRANSACTION_ERROR);
    if (rc == GNI_RC_SUCCESS) return rc;
    if (!back_off(ctx, ++failures, "GNI_Post", n)) {
      detail::check_fail(rc, "GNI_Post (retries exhausted)");
    }
  }
}

void recover_cq(gni_cq_handle_t cq, trace::Counter& recovered) {
  std::uint32_t resynthesized = 0;
  check(GNI_CqErrorRecover(cq, &resynthesized), "GNI_CqErrorRecover");
  recovered.inc();
}

}  // namespace ugnirt::ugni
