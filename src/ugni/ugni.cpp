#include "ugni/ugni.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdlib>
#include <utility>

#include "fault/fault.hpp"
#include "trace/events.hpp"
#include "ugni/msgq.hpp"
#include "util/log.hpp"

namespace ugnirt::ugni {

namespace {

/// Per-message system header bytes on the wire (SMSG prepends routing and
/// sequence metadata to every mailbox write).
constexpr std::uint32_t kSmsgSysHeader = 16;

/// Receive-mailbox bytes of a channel side with attributes `a`.
std::uint64_t mailbox_size(const gni_smsg_attr_t& a) {
  return std::uint64_t{a.mbox_maxcredit} *
         (std::uint64_t{a.msg_maxsize} + kSmsgSysHeader);
}

sim::Context& ctx() {
  sim::Context* c = sim::current();
  assert(c && "uGNI calls must run inside a simulated PE context");
  return *c;
}

fault::FaultInjector* injector(const Nic* nic) {
  return nic->domain()->network().fault_injector();
}

void emit_fault(int pe, SimTime t, int peer, std::uint32_t size) {
  if (trace::enabled()) {
    trace::emit(pe, trace::Ev::kFaultInject, t, 0, peer, size);
  }
}

}  // namespace

namespace detail {

void check_fail(gni_return_t rc, const char* what) {
  UGNIRT_ERROR("uGNI contract violation: " << what << " returned "
                                           << gni_err_str(rc));
  std::fprintf(stderr, "ugni::check: %s returned %s\n", what,
               gni_err_str(rc));
  std::abort();
}

}  // namespace detail

const char* gni_err_str(gni_return_t rc) {
  switch (rc) {
    case GNI_RC_SUCCESS:
      return "GNI_RC_SUCCESS";
    case GNI_RC_NOT_DONE:
      return "GNI_RC_NOT_DONE";
    case GNI_RC_INVALID_PARAM:
      return "GNI_RC_INVALID_PARAM";
    case GNI_RC_ERROR_RESOURCE:
      return "GNI_RC_ERROR_RESOURCE";
    case GNI_RC_ILLEGAL_OP:
      return "GNI_RC_ILLEGAL_OP";
    case GNI_RC_PERMISSION_ERROR:
      return "GNI_RC_PERMISSION_ERROR";
    case GNI_RC_INVALID_STATE:
      return "GNI_RC_INVALID_STATE";
    case GNI_RC_TRANSACTION_ERROR:
      return "GNI_RC_TRANSACTION_ERROR";
    case GNI_RC_SIZE_ERROR:
      return "GNI_RC_SIZE_ERROR";
    case GNI_RC_ALIGNMENT_ERROR:
      return "GNI_RC_ALIGNMENT_ERROR";
  }
  return "GNI_RC_?";
}

// ---------------------------------------------------------------------------
// Cq
// ---------------------------------------------------------------------------

void Cq::push(SimTime at, gni_cq_entry_t entry) {
  fault::FaultInjector* f = injector(nic_);
  const bool forced = entries_.size() < capacity_ && f &&
                      f->inject_cq_overrun(nic_->inst_id());
  if (entries_.size() >= capacity_ || forced) {
    // Real hardware sets an overrun bit and drops; runtimes must size CQs
    // (or recover via GNI_CqErrorRecover).  Still tell the client so a
    // sleeping PE wakes up, observes ERROR_RESOURCE, and can recover.
    overrun_ = true;
    ++dropped_events_;
    if (forced) emit_fault(ctx().pe(), at, entry.source_inst, 0);
    notify_client(nic_->domain()->scheduler().now(), at);
    return;
  }
  if (entries_.size() + 1 > max_depth_) {
    max_depth_ = static_cast<std::uint32_t>(entries_.size() + 1);
  }
  // Insert keeping arrival order (usually appends; out-of-order arrivals
  // happen when a short transfer overtakes a long one).
  std::size_t pos = entries_.size();
  while (pos > 0 && entries_[pos - 1].at > at) --pos;
  entries_.insert(pos, Timed{at, entry});
  notify_client(at, at);
}

void Cq::notify_client(SimTime pushed_at, SimTime at) {
  NicClient* client = nic_->client();
  if (!client) return;
  client->cq_pushed(*this, pushed_at);
  nic_->domain()->scheduler().schedule_at(
      at, [client, at] { client->nic_wake(at); });
}

// ---------------------------------------------------------------------------
// Domain / Nic basics
// ---------------------------------------------------------------------------

Domain::~Domain() {
  for (auto& nic : nics_) {
    delete nic->msgq();
    nic->set_msgq(nullptr);
  }
  for (std::uint32_t i = 0; i < n_eps_; ++i) ep_at(i)->~Ep();
}

Ep* Domain::emplace_ep(Nic* nic, Cq* tx_cq) {
  const std::uint32_t i = n_eps_;
  assert(i < kNoEp && "endpoint slab index space exhausted");
  if (i % kEpChunk == 0) {
    ep_chunks_.push_back(std::make_unique_for_overwrite<EpCell[]>(kEpChunk));
  }
  assert((!tx_cq || cq_at(tx_cq->index()) == tx_cq) &&
         "an endpoint's TX CQ belongs to its domain");
  Ep* ep = new (ep_chunks_.back()[i % kEpChunk].bytes)
      Ep(nic, tx_cq ? tx_cq->index() : kNoCq, i);
  ++n_eps_;
  return ep;
}

void Domain::collect_metrics(trace::MetricsRegistry& reg) const {
  std::uint64_t registered = 0;
  std::uint64_t regions = 0;
  for (const auto& nic : nics_) {
    registered += nic->registered_bytes();
    regions += nic->active_regions();
  }
  reg.gauge("ugni.mailbox_bytes")
      .set(static_cast<double>(total_mailbox_bytes()));
  reg.gauge("ugni.registered_bytes").set(static_cast<double>(registered));
  reg.gauge("ugni.active_regions").set(static_cast<double>(regions));
  reg.gauge("ugni.smsg_channels").set(static_cast<double>(smsg_channels_));
  std::size_t max_depth = 0;
  std::uint64_t dropped = 0;
  for (const auto& cq : cqs_) {
    max_depth = std::max(max_depth, cq->max_depth());
    dropped += cq->dropped_events();
  }
  reg.gauge("cq.max_depth").set(static_cast<double>(max_depth));
  reg.counter("cq.dropped_events").set(dropped);
  reg.counter("cq.count").set(cqs_.size());
}

std::uint32_t PeerTable::insert(std::int32_t peer, std::uint32_t ep) {
  if (2 * (size_ + 1) > slots_.size()) grow();
  for (std::size_t i = home(peer);; i = (i + 1) & mask()) {
    Slot& s = slots_[i];
    if (s.peer == peer) return std::exchange(s.ep, ep);
    if (s.peer == kEmpty) {
      s = Slot{peer, ep};
      ++size_;
      return kNoEp;
    }
  }
}

std::uint32_t PeerTable::erase(std::int32_t peer) {
  if (size_ == 0) return kNoEp;
  std::size_t hole = home(peer);
  while (slots_[hole].peer != peer) {
    if (slots_[hole].peer == kEmpty) return kNoEp;
    hole = (hole + 1) & mask();
  }
  const std::uint32_t ep = slots_[hole].ep;
  // Backward shift: walk the rest of the probe run and pull each entry
  // into the hole unless its home slot lies cyclically in (hole, j] —
  // moving it before its home would make it unreachable.
  for (std::size_t j = (hole + 1) & mask(); slots_[j].peer != kEmpty;
       j = (j + 1) & mask()) {
    if (((j - home(slots_[j].peer)) & mask()) >= ((j - hole) & mask())) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole] = Slot{};
  --size_;
  return ep;
}

void PeerTable::grow() {
  std::vector<Slot> old = std::move(slots_);
  const std::size_t cap = old.empty() ? 4 : 2 * old.size();
  slots_.assign(cap, Slot{});
  shift_ = 32 - static_cast<unsigned>(std::countr_zero(cap));
  size_ = 0;
  for (const Slot& s : old) {
    if (s.peer != kEmpty) insert(s.peer, s.ep);
  }
}

std::uint64_t Ep::mbox_bytes() const {
  gni_smsg_attr_t local;
  local.msg_maxsize = local_maxsize_;
  local.mbox_maxcredit = local_credits_;
  return mailbox_size(local);
}

Ep* Ep::resolve_reverse() {
  Domain* dom = nic_->domain();
  if (reverse_ != kNoEp) return dom->ep_at(reverse_);
  Nic* remote = dom->nic_by_inst(remote_inst_);
  if (!remote) return nullptr;
  Ep* rev = remote->ep_for_peer(nic_->inst_id());
  if (!rev || !smsg_ready() || !rev->smsg_ready()) return rev;
  if (!smsg_agrees(*rev)) return nullptr;
  if (nic_->ep_for_peer(remote_inst_) == this) {
    reverse_ = rev->index_;
    rev->reverse_ = index_;
  }
  return rev;
}

Ep* Nic::get_or_connect(std::int32_t peer, bool* established_out) {
  if (established_out) *established_out = false;
  if (Ep* ep = ep_for_peer(peer)) return ep;
  Nic* remote = domain_->nic_by_inst(peer);
  if (!remote || !default_tx_cq_) return nullptr;

  Ep* fwd = nullptr;
  gni_return_t rc = GNI_EpCreate(this, default_tx_cq_, &fwd);
  assert(rc == GNI_RC_SUCCESS);
  rc = GNI_EpBind(fwd, peer);
  assert(rc == GNI_RC_SUCCESS);
  const bool msgq_mode = msgq_ != nullptr;
  if (!msgq_mode) {
    rc = GNI_SmsgInit(fwd, smsg_attr_, remote->smsg_attr_);
    assert(rc == GNI_RC_SUCCESS);
  }

  // The reverse endpoint materializes on the peer NIC as part of the
  // same first touch (out-of-band datagrams in the real dynamic setup).
  if (!remote->ep_for_peer(inst_id_)) {
    Ep* rev = nullptr;
    rc = GNI_EpCreate(remote, remote->default_tx_cq_, &rev);
    assert(rc == GNI_RC_SUCCESS);
    rc = GNI_EpBind(rev, inst_id_);
    assert(rc == GNI_RC_SUCCESS);
    if (remote->msgq_ == nullptr) {
      rc = GNI_SmsgInit(rev, remote->smsg_attr_, smsg_attr_);
      assert(rc == GNI_RC_SUCCESS);
    }
  }
  (void)rc;
  if (!msgq_mode) {
    // Both mailboxes are pinned now, and the whole setup bill lands on
    // the initiator's clock at first-touch time (MSGQ pins none).
    ctx().charge(2 * domain_->config().reg_cost(mailbox_size(smsg_attr_)));
  }
  if (established_out) *established_out = true;
  return fwd;
}

bool Nic::handle_valid(const gni_mem_handle_t& h, std::uint64_t addr,
                       std::uint64_t len) const {
  const Region* r = region_of(h);
  if (!r || !r->valid) return false;
  if (r->owner) return r->owner->holds(r->owner_key, addr, len);
  return addr >= r->addr && addr + len <= r->addr + r->length;
}

void Nic::set_region_owner(const gni_mem_handle_t& h, RegionOwner* owner,
                           std::uint32_t key) {
  Region* r = region_of(h);
  assert(r && r->valid && "set_region_owner on a dead handle");
  r->owner = owner;
  r->owner_key = key;
}

Nic::Region* Nic::region_of(const gni_mem_handle_t& h) {
  return const_cast<Region*>(
      static_cast<const Nic*>(this)->region_of(h));
}

const Nic::Region* Nic::region_of(const gni_mem_handle_t& h) const {
  std::uint32_t owner = static_cast<std::uint32_t>(h.qword1 >> 32);
  std::uint32_t idx = static_cast<std::uint32_t>(h.qword1 & 0xffffffffu);
  if (owner != static_cast<std::uint32_t>(inst_id_)) return nullptr;
  if (idx == 0 || idx > regions_.size()) return nullptr;
  const Region& r = regions_[idx - 1];
  if (r.generation != static_cast<std::uint32_t>(h.qword2)) return nullptr;
  return &r;
}

// ---------------------------------------------------------------------------
// API
// ---------------------------------------------------------------------------

gni_return_t GNI_CdmAttach(Domain* domain, std::int32_t inst_id, int node,
                           gni_nic_handle_t* nic_out) {
  if (!domain || !nic_out || inst_id < 0 || inst_id >= kMaxInstId) {
    return GNI_RC_INVALID_PARAM;
  }
  if (node < 0 || node >= domain->network().torus().nodes()) {
    return GNI_RC_INVALID_PARAM;
  }
  if (domain->nic_by_inst(inst_id)) return GNI_RC_INVALID_STATE;
  domain->nics_.push_back(std::make_unique<Nic>(domain, inst_id, node));
  *nic_out = domain->nics_.back().get();
  auto& index = domain->nic_index_;
  const auto slot = static_cast<std::size_t>(inst_id);
  if (slot >= index.size()) index.resize(slot + 1, nullptr);
  index[slot] = *nic_out;
  return GNI_RC_SUCCESS;
}

gni_return_t GNI_CqCreate(gni_nic_handle_t nic, std::uint32_t entry_count,
                          gni_cq_handle_t* cq_out) {
  if (!nic || !cq_out || entry_count == 0) return GNI_RC_INVALID_PARAM;
  auto& cqs = nic->domain()->cqs_;
  cqs.push_back(std::make_unique<Cq>(
      nic, entry_count, static_cast<std::uint32_t>(cqs.size())));
  *cq_out = nic->domain()->cqs_.back().get();
  return GNI_RC_SUCCESS;
}

gni_return_t GNI_CqGetEvent(gni_cq_handle_t cq, gni_cq_entry_t* event_out) {
  if (!cq || !event_out) return GNI_RC_INVALID_PARAM;
  sim::Context& c = ctx();
  const auto& mc = cq->nic()->domain()->config();
  c.charge(mc.cq_poll_ns);
  if (cq->overrun_) return GNI_RC_ERROR_RESOURCE;
  if (cq->entries_.empty() || cq->entries_.front().at > c.now()) {
    return GNI_RC_NOT_DONE;
  }
  c.charge(mc.cq_event_ns);
  *event_out = cq->entries_.front().entry;
  cq->entries_.pop_front();
  return GNI_RC_SUCCESS;
}

gni_return_t GNI_CqErrorRecover(gni_cq_handle_t cq,
                                std::uint32_t* recovered_out) {
  if (!cq) return GNI_RC_INVALID_PARAM;
  if (recovered_out) *recovered_out = 0;
  if (!cq->overrun_) return GNI_RC_SUCCESS;
  sim::Context& c = ctx();
  Nic* nic = cq->nic_;
  const auto& mc = nic->domain()->config();
  // The driver walks the CQ memory to find the write pointer and rebuilds
  // its view; model that as a poll plus one event cost per queued entry.
  c.charge(mc.cq_poll_ns +
           static_cast<SimTime>(cq->entries_.size()) * mc.cq_event_ns);
  cq->overrun_ = false;

  std::uint32_t recovered = 0;
  auto push_direct = [&](SimTime at, const gni_cq_entry_t& entry) {
    // Insert bypassing Cq::push: recovery must not itself be dropped (the
    // queue has been drained by the owner before recovering) and must not
    // re-roll the fault injector.
    auto& q = cq->entries_;
    std::size_t pos = q.size();
    while (pos > 0 && q[pos - 1].at > at) --pos;
    q.insert(pos, Cq::Timed{at, entry});
    if (cq->entries_.size() > cq->max_depth_) {
      cq->max_depth_ = static_cast<std::uint32_t>(cq->entries_.size());
    }
    ++recovered;
  };

  // Dropped SMSG arrival events: every undelivered mailbox message must
  // have exactly one kSmsg event queued; re-synthesize the missing ones.
  // Peers are visited in sorted order: the peer table's slot order depends
  // on its insert/erase history, and re-synthesized events must land in
  // the same order on every run for traces to stay reproducible.
  Domain* dom = nic->domain();
  if (nic->smsg_rx_cq_ == cq) {
    std::vector<std::pair<std::int32_t, std::uint32_t>> peers;
    peers.reserve(nic->peer_eps_.size());
    nic->peer_eps_.for_each([&](std::int32_t peer, std::uint32_t ep) {
      peers.emplace_back(peer, ep);
    });
    std::sort(peers.begin(), peers.end());
    for (const auto& [peer, ep] : peers) {
      std::size_t queued = 0;
      for (std::size_t i = 0; i < cq->entries_.size(); ++i) {
        const gni_cq_entry_t& e = cq->entries_[i].entry;
        if (e.type == CqEventType::kSmsg && e.source_inst == peer) ++queued;
      }
      const Ep::Mailbox& rx = dom->ep_at(ep)->rx_;
      for (std::size_t i = 0; i < rx.size(); ++i) {
        const auto& msg = rx[i];
        if (msg.delivered) continue;
        if (queued > 0) {
          --queued;  // this message still has its original event
          continue;
        }
        gni_cq_entry_t entry;
        entry.type = CqEventType::kSmsg;
        entry.data = 0;
        entry.source_inst = peer;
        push_direct(std::max(msg.at, c.now()), entry);
      }
    }
  }

  // Dropped local-completion events: any descriptor still sitting in the
  // NIC's completed table without a queued kPostLocal event lost its
  // notification.  (GNI_GetCompleted removes claimed descriptors, so a
  // consumed event can never be duplicated here.)  kPostRemote events are
  // not recoverable — nothing on the receiving NIC records them.
  bool serves_tx = false;
  nic->peer_eps_.for_each([&](std::int32_t, std::uint32_t ep) {
    serves_tx = serves_tx || dom->ep_at(ep)->tx_cq_ == cq->index();
  });
  if (serves_tx) {
    for (const auto& [internal, desc] : nic->completed_) {
      bool queued = false;
      for (std::size_t i = 0; i < cq->entries_.size() && !queued; ++i) {
        const gni_cq_entry_t& e = cq->entries_[i].entry;
        queued = e.type == CqEventType::kPostLocal && e.data == internal;
      }
      if (queued) continue;
      gni_cq_entry_t entry;
      entry.type = CqEventType::kPostLocal;
      entry.data = internal;
      entry.source_inst = nic->inst_id_;
      push_direct(c.now(), entry);
    }
  }

  if (trace::enabled()) {
    trace::emit(c.pe(), trace::Ev::kCqRecover, c.now(), 0, /*peer=*/-1,
                recovered);
  }
  if (recovered_out) *recovered_out = recovered;
  return GNI_RC_SUCCESS;
}

gni_return_t GNI_CqWaitEvent(gni_cq_handle_t cq, gni_cq_entry_t* event_out) {
  if (!cq || !event_out) return GNI_RC_INVALID_PARAM;
  sim::Context& c = ctx();
  if (cq->overrun_) return GNI_RC_ERROR_RESOURCE;
  if (cq->entries_.empty()) return GNI_RC_NOT_DONE;
  // Spin (in virtual time) until the in-flight event lands.
  c.wait_until(cq->entries_.front().at);
  return GNI_CqGetEvent(cq, event_out);
}

gni_return_t GNI_MemRegister(gni_nic_handle_t nic, std::uint64_t address,
                             std::uint64_t length, gni_cq_handle_t dst_cq,
                             std::uint32_t /*flags*/,
                             gni_mem_handle_t* hndl_out) {
  if (!nic || !hndl_out || length == 0 || address == 0) {
    return GNI_RC_INVALID_PARAM;
  }
  sim::Context& c = ctx();
  const auto& mc = nic->domain()->config();
  if (fault::FaultInjector* f = injector(nic);
      f && f->inject_reg_error(nic->inst_id())) {
    // MDD/TLB entries exhausted: the failed attempt still pays the setup
    // trap into the driver, but no pages are pinned.
    c.charge(mc.mem_reg_base_ns);
    emit_fault(c.pe(), c.now(), -1,
               static_cast<std::uint32_t>(
                   std::min<std::uint64_t>(length, UINT32_MAX)));
    return GNI_RC_ERROR_RESOURCE;
  }
  const SimTime t0 = c.now();
  c.charge(mc.reg_cost(length));
  if (trace::enabled()) {
    trace::emit(c.pe(), trace::Ev::kMemReg, t0, c.now() - t0, /*peer=*/-1,
                static_cast<std::uint32_t>(std::min<std::uint64_t>(
                    length, UINT32_MAX)));
  }
  nic->regions_.push_back(Nic::Region{
      address, length, static_cast<std::uint32_t>(nic->regions_.size()) + 7u,
      true, dst_cq});
  nic->registered_bytes_ += length;
  ++nic->n_active_regions_;
  hndl_out->qword1 =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(nic->inst_id()))
       << 32) |
      static_cast<std::uint64_t>(nic->regions_.size());
  hndl_out->qword2 = nic->regions_.back().generation;
  return GNI_RC_SUCCESS;
}

gni_return_t GNI_MemDeregister(gni_nic_handle_t nic, gni_mem_handle_t* hndl) {
  if (!nic || !hndl) return GNI_RC_INVALID_PARAM;
  Nic::Region* r = nic->region_of(*hndl);
  if (!r || !r->valid) return GNI_RC_INVALID_PARAM;
  sim::Context& c = ctx();
  const auto& mc = nic->domain()->config();
  const SimTime t0 = c.now();
  c.charge(mc.dereg_cost(r->length));
  if (trace::enabled()) {
    trace::emit(c.pe(), trace::Ev::kMemDereg, t0, c.now() - t0, /*peer=*/-1,
                static_cast<std::uint32_t>(std::min<std::uint64_t>(
                    r->length, UINT32_MAX)));
  }
  r->valid = false;
  r->owner = nullptr;
  ++r->generation;  // future uses of the stale handle fail validation
  nic->registered_bytes_ -= r->length;
  --nic->n_active_regions_;
  hndl->qword1 = 0;
  hndl->qword2 = 0;
  return GNI_RC_SUCCESS;
}

gni_return_t GNI_EpCreate(gni_nic_handle_t nic, gni_cq_handle_t tx_cq,
                          gni_ep_handle_t* ep_out) {
  if (!nic || !ep_out) return GNI_RC_INVALID_PARAM;
  *ep_out = nic->domain()->emplace_ep(nic, tx_cq);
  return GNI_RC_SUCCESS;
}

gni_return_t GNI_EpBind(gni_ep_handle_t ep, std::int32_t remote_inst_id) {
  if (!ep || remote_inst_id < 0) return GNI_RC_INVALID_PARAM;
  if (ep->bound()) return GNI_RC_INVALID_STATE;
  ep->remote_inst_ = remote_inst_id;
  // A displaced endpoint is no longer its NIC's endpoint for the peer.
  const std::uint32_t old =
      ep->nic_->peer_eps_.insert(remote_inst_id, ep->index_);
  if (old != kNoEp) ep->nic_->domain()->ep_at(old)->unlink();
  return GNI_RC_SUCCESS;
}

gni_return_t GNI_EpDestroy(gni_ep_handle_t ep) {
  if (!ep) return GNI_RC_INVALID_PARAM;
  Domain* dom = ep->nic_->domain_;
  if (ep->smsg_ready()) {
    // Tearing down an initialized channel releases its receive mailbox:
    // the accounting must track *established* channels, not history.
    ep->nic_->mailbox_bytes_ -= ep->mbox_bytes();
    dom->total_mailbox_bytes_ -= ep->mbox_bytes();
    --dom->smsg_channels_;
    ep->local_maxsize_ = 0;
  }
  // Only endpoints bound in their NIC's table are ever linked.
  if (ep->bound()) {
    const std::uint32_t cur = ep->nic_->peer_eps_.erase(ep->remote_inst_);
    if (cur != kNoEp) dom->ep_at(cur)->unlink();
  }
  ep->remote_inst_ = -1;
  return GNI_RC_SUCCESS;
}

gni_return_t GNI_SmsgInit(gni_ep_handle_t ep, const gni_smsg_attr_t& local,
                          const gni_smsg_attr_t& remote) {
  if (!ep || !ep->bound()) return GNI_RC_INVALID_PARAM;
  if (ep->smsg_ready()) return GNI_RC_INVALID_STATE;
  if (local.msg_maxsize == 0 || local.mbox_maxcredit == 0) {
    return GNI_RC_INVALID_PARAM;
  }
  // A mailbox ring holds at most kMaxMailboxCredits messages, and a
  // mailbox is at most 4 GiB.
  const std::uint64_t mbox = mailbox_size(local);
  if (local.mbox_maxcredit > Ep::kMaxMailboxCredits ||
      remote.mbox_maxcredit > Ep::kMaxMailboxCredits || mbox > UINT32_MAX) {
    return GNI_RC_INVALID_PARAM;
  }
  ep->local_maxsize_ = local.msg_maxsize;
  ep->local_credits_ = static_cast<std::uint16_t>(local.mbox_maxcredit);
  ep->remote_maxsize_ = remote.msg_maxsize;
  ep->remote_credits_ = static_cast<std::uint16_t>(remote.mbox_maxcredit);
  ep->credits_ = ep->remote_credits_;
  // The mailbox for the *local* receive side is allocated and registered on
  // this NIC; memory grows linearly with *connected* peers (paper §II-B) —
  // under lazy setup that is the active pairs, never the job size.
  ep->nic_->mailbox_bytes_ += mbox;
  ep->nic_->domain_->total_mailbox_bytes_ += mbox;
  ++ep->nic_->domain_->smsg_channels_;
  return GNI_RC_SUCCESS;
}

gni_return_t GNI_SmsgSendWTag(gni_ep_handle_t ep, const void* header,
                              std::uint32_t header_length, const void* data,
                              std::uint32_t data_length, std::uint32_t msg_id,
                              std::uint8_t tag) {
  (void)msg_id;
  if (!ep || !ep->bound() || !ep->smsg_ready()) {
    return GNI_RC_INVALID_PARAM;
  }
  if ((header_length > 0 && !header) || (data_length > 0 && !data)) {
    return GNI_RC_INVALID_PARAM;
  }
  const std::uint32_t total = header_length + data_length;
  if (total > ep->remote_maxsize_) return GNI_RC_SIZE_ERROR;
  if (ep->credits_ == 0) return GNI_RC_NOT_DONE;

  Nic* nic = ep->nic_;
  Domain* dom = nic->domain();
  Ep* remote_ep = ep->resolve_reverse();
  if (!remote_ep && !dom->nic_by_inst(ep->remote_inst_)) {
    return GNI_RC_INVALID_PARAM;  // bound to an instance that never attached
  }
  if (!remote_ep || !remote_ep->smsg_ready()) {
    return GNI_RC_INVALID_STATE;  // peer has not set up its mailbox
  }
  Nic* remote = remote_ep->nic_;

  sim::Context& c = ctx();
  if (fault::FaultInjector* f = injector(nic)) {
    // A starvation window models the peer falling behind on releases: the
    // channel behaves exactly like credit exhaustion (GNI_RC_NOT_DONE).
    if (f->smsg_starved(nic->inst_id(), ep->remote_inst_, c.now())) {
      return GNI_RC_NOT_DONE;
    }
    if (f->inject_smsg_error(nic->inst_id())) {
      // SSID pool exhausted: the send trap burns CPU but nothing is sent.
      c.charge(dom->config().smsg_cpu_send_ns);
      emit_fault(c.pe(), c.now(), ep->remote_inst_, total);
      return GNI_RC_ERROR_RESOURCE;
    }
  }
  --ep->credits_;

  gemini::TransferRequest req;
  req.mech = gemini::Mechanism::kSmsg;
  req.initiator_node = nic->node();
  req.remote_node = remote->node();
  req.bytes = total + kSmsgSysHeader;
  req.issue = c.now();
  gemini::TransferTimes t = dom->network().transfer(req);
  c.wait_until(t.cpu_done);

  // SMSG is a FIFO channel: a message posted later can never become
  // visible before an earlier one, even if the network model found it a
  // faster slot.
  SimTime arrival = std::max(t.data_arrival, remote_ep->last_arrival_);
  remote_ep->last_arrival_ = arrival;

  // Deposit the message bytes in the peer's mailbox (visible at arrival).
  Ep::Msg msg;
  std::uint8_t* bytes = msg.bytes.resize(total);
  if (header_length) std::memcpy(bytes, header, header_length);
  if (data_length) std::memcpy(bytes + header_length, data, data_length);
  msg.tag = tag;
  msg.at = arrival;
  remote_ep->rx_.push_back(std::move(msg));

  if (remote->smsg_rx_cq_) {
    gni_cq_entry_t entry;
    entry.type = CqEventType::kSmsg;
    entry.data = 0;
    entry.source_inst = nic->inst_id();
    remote->smsg_rx_cq_->push(arrival, entry);
  }
  if (trace::enabled()) {
    trace::emit(c.pe(), trace::Ev::kSmsgSend, req.issue, arrival - req.issue,
                ep->remote_inst_, total);
  }
  return GNI_RC_SUCCESS;
}

gni_return_t GNI_SmsgGetNextWTag(gni_ep_handle_t ep, void** data_out,
                                 std::uint8_t* tag_out,
                                 SimTime* arrival_out) {
  if (!ep || !data_out || !tag_out) return GNI_RC_INVALID_PARAM;
  if (!ep->smsg_ready()) return GNI_RC_INVALID_PARAM;
  sim::Context& c = ctx();
  auto& rx = ep->rx_;
  for (std::size_t i = 0; i < rx.size(); ++i) {
    auto& msg = rx[i];
    if (msg.delivered) continue;
    if (msg.at > c.now()) break;  // not yet arrived in virtual time
    msg.delivered = true;
    *data_out = msg.bytes.data();
    *tag_out = msg.tag;
    if (arrival_out) *arrival_out = msg.at;
    if (trace::enabled()) {
      trace::emit(c.pe(), trace::Ev::kSmsgRecv, c.now(), 0, ep->remote_inst_,
                  msg.bytes.size());
    }
    return GNI_RC_SUCCESS;
  }
  return GNI_RC_NOT_DONE;
}

gni_return_t GNI_SmsgRelease(gni_ep_handle_t ep) {
  if (!ep || !ep->smsg_ready()) return GNI_RC_INVALID_PARAM;
  auto& rx = ep->rx_;
  if (rx.empty() || !rx.front().delivered) return GNI_RC_INVALID_STATE;
  rx.pop_front();

  // Return one credit to the sender.  Real SMSG piggybacks it on the next
  // reverse-direction traffic and never interrupts the sender for it, so a
  // sender that still holds a credit on this channel cannot be waiting for
  // this one: it joins the count now, with no event and no wake.  (A send
  // that spends the remaining credits before release + hops x hop_ns
  // uses it early.)  Only a credit that reaches a dry channel travels the
  // wire as an event, unless the sender's client asks for every return.
  if (Ep* sender_ep = ep->resolve_reverse()) {
    Nic* remote = sender_ep->nic_;
    if (sender_ep->credits_ > 0 &&
        remote->credit_notify_ == Nic::CreditNotify::kWhenDry) {
      ++sender_ep->credits_;
      return GNI_RC_SUCCESS;
    }
    Nic* nic = ep->nic_;
    Domain* dom = nic->domain();
    SimTime prop = static_cast<SimTime>(dom->network().hops(
                       nic->node(), remote->node())) *
                   dom->config().hop_ns;
    SimTime at = ctx().now() + prop;
    // Never clamped, so the event fires with the engine clock at `at`.
    assert(at >= dom->scheduler().now());
    const SimTime released = dom->scheduler().now();
    dom->scheduler().schedule_at(at, [sender_ep, released] {
      ++sender_ep->credits_;
      Nic* sender = sender_ep->nic_;
      if (sender->client_) {
        sender->client_->credit_returned(sender->domain()->scheduler().now(),
                                         released);
      }
    });
  }
  return GNI_RC_SUCCESS;
}

namespace detail {

gni_return_t post_transaction(Ep* ep, gni_post_descriptor_t* desc,
                              bool is_rdma) {
  if (!ep || !desc || !ep->bound()) return GNI_RC_INVALID_PARAM;
  Nic* nic = ep->nic();
  Domain* dom = nic->domain();
  Nic* remote = dom->nic_by_inst(ep->remote_inst());
  if (!remote) return GNI_RC_INVALID_PARAM;

  const bool is_amo = desc->type == GNI_POST_AMO;
  if (is_amo && is_rdma) return GNI_RC_ILLEGAL_OP;  // AMOs are FMA-only
  if (is_amo && desc->length != 8) return GNI_RC_ALIGNMENT_ERROR;
  if (!is_amo && desc->length == 0) return GNI_RC_INVALID_PARAM;

  const bool rdma_type = desc->type == GNI_POST_RDMA_PUT ||
                         desc->type == GNI_POST_RDMA_GET;
  if (rdma_type != is_rdma) return GNI_RC_INVALID_PARAM;

  // Both buffers must be registered (the defining constraint of the paper's
  // protocol design: memory info has to be exchanged before a transaction).
  if (!is_amo &&
      !nic->handle_valid(desc->local_mem_hndl, desc->local_addr,
                         desc->length)) {
    return GNI_RC_PERMISSION_ERROR;
  }
  if (!remote->handle_valid(desc->remote_mem_hndl, desc->remote_addr,
                            is_amo ? 8 : desc->length)) {
    return GNI_RC_PERMISSION_ERROR;
  }

  sim::Context& c = ctx();
  if (fault::FaultInjector* f = injector(nic);
      f && f->inject_post_error(nic->inst_id())) {
    // The adapter exhausted its link-level retries: the descriptor write
    // is charged, the transaction is not.  The initiator must re-post.
    c.charge(is_rdma ? dom->config().bte_desc_ns : dom->config().fma_desc_ns);
    emit_fault(c.pe(), c.now(), ep->remote_inst(),
               static_cast<std::uint32_t>(
                   std::min<std::uint64_t>(desc->length, UINT32_MAX)));
    return GNI_RC_TRANSACTION_ERROR;
  }
  gemini::TransferRequest req;
  switch (desc->type) {
    case GNI_POST_FMA_PUT:
      req.mech = gemini::Mechanism::kFmaPut;
      break;
    case GNI_POST_FMA_GET:
      req.mech = gemini::Mechanism::kFmaGet;
      break;
    case GNI_POST_RDMA_PUT:
      req.mech = gemini::Mechanism::kBtePut;
      break;
    case GNI_POST_RDMA_GET:
      req.mech = gemini::Mechanism::kBteGet;
      break;
    case GNI_POST_AMO:
      req.mech = gemini::Mechanism::kFmaGet;  // request/response round trip
      break;
  }
  req.initiator_node = nic->node();
  req.remote_node = remote->node();
  req.bytes = is_amo ? 8 : desc->length;
  req.issue = c.now();
  gemini::TransferTimes t = dom->network().transfer(req);
  c.wait_until(t.cpu_done);
  if (trace::enabled()) {
    trace::emit(c.pe(), is_rdma ? trace::Ev::kBtePost : trace::Ev::kFmaPost,
                req.issue, t.initiator_complete - req.issue,
                ep->remote_inst(),
                static_cast<std::uint32_t>(std::min<std::uint64_t>(
                    req.bytes, UINT32_MAX)));
  }

  // Perform the actual data movement.  Buffers are stable while a
  // transaction is in flight (runtime protocol contract), so the copy can
  // execute now even though it becomes *observable* only at completion.
  const bool is_get =
      desc->type == GNI_POST_FMA_GET || desc->type == GNI_POST_RDMA_GET;
  if (is_amo) {
    auto* target = reinterpret_cast<std::uint64_t*>(desc->remote_addr);
    std::uint64_t old = *target;
    switch (desc->amo_cmd) {
      case GNI_FMA_ATOMIC_FADD:
        *target = old + desc->first_operand;
        break;
      case GNI_FMA_ATOMIC_CSWAP:
        if (old == desc->first_operand) *target = desc->second_operand;
        break;
      case GNI_FMA_ATOMIC_AND:
        *target = old & desc->first_operand;
        break;
      case GNI_FMA_ATOMIC_OR:
        *target = old | desc->first_operand;
        break;
    }
    if (desc->local_addr != 0) {
      *reinterpret_cast<std::uint64_t*>(desc->local_addr) = old;
    }
  } else if (is_get) {
    // A source with an owner delivers its own bytes (it may move them
    // into the landing block; see RegionOwner).
    if (RegionOwner* src = remote->region_of(desc->remote_mem_hndl)->owner) {
      src->deliver(desc->remote_addr, desc->length,
                   nic->region_of(desc->local_mem_hndl)->owner,
                   &desc->local_addr);
    } else {
      std::memcpy(reinterpret_cast<void*>(desc->local_addr),
                  reinterpret_cast<const void*>(desc->remote_addr),
                  desc->length);
    }
  } else {
    std::memcpy(reinterpret_cast<void*>(desc->remote_addr),
                reinterpret_cast<const void*>(desc->local_addr),
                desc->length);
  }

  // Local completion event.
  if ((desc->cq_mode & GNI_CQMODE_LOCAL_EVENT) && ep->tx_cq()) {
    std::uint64_t internal = nic->next_internal_post_id_++;
    nic->completed_.emplace_back(internal, desc);
    gni_cq_entry_t entry;
    entry.type = CqEventType::kPostLocal;
    entry.data = internal;
    entry.source_inst = nic->inst_id();
    ep->tx_cq()->push(t.initiator_complete, entry);
  }

  // Remote event, delivered to the dst_cq of the remote registration.
  if (desc->cq_mode & GNI_CQMODE_REMOTE_EVENT) {
    if (auto* region = remote->region_of(desc->remote_mem_hndl);
        region && region->dst_cq) {
      gni_cq_entry_t entry;
      entry.type = CqEventType::kPostRemote;
      entry.data = desc->post_id;
      entry.source_inst = nic->inst_id();
      region->dst_cq->push(t.data_arrival, entry);
    }
  }
  return GNI_RC_SUCCESS;
}

}  // namespace detail

gni_return_t GNI_PostFma(gni_ep_handle_t ep, gni_post_descriptor_t* desc) {
  return detail::post_transaction(ep, desc, /*is_rdma=*/false);
}

gni_return_t GNI_PostRdma(gni_ep_handle_t ep, gni_post_descriptor_t* desc) {
  return detail::post_transaction(ep, desc, /*is_rdma=*/true);
}

gni_return_t GNI_GetCompleted(gni_cq_handle_t cq, const gni_cq_entry_t& event,
                              gni_post_descriptor_t** desc_out) {
  if (!cq || !desc_out) return GNI_RC_INVALID_PARAM;
  if (event.type != CqEventType::kPostLocal) return GNI_RC_INVALID_PARAM;
  Nic* nic = cq->nic();
  auto& done = nic->completed_;
  for (auto it = done.begin(); it != done.end(); ++it) {
    if (it->first == event.data) {
      *desc_out = it->second;
      done.erase(it);
      if (trace::enabled()) {
        if (sim::Context* c = sim::current()) {
          trace::emit(c->pe(), trace::Ev::kPostDone, c->now(), 0, /*peer=*/-1,
                      static_cast<std::uint32_t>(std::min<std::uint64_t>(
                          (*desc_out)->length, UINT32_MAX)));
        }
      }
      return GNI_RC_SUCCESS;
    }
  }
  return GNI_RC_INVALID_PARAM;
}

}  // namespace ugnirt::ugni
