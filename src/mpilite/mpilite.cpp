#include "mpilite/mpilite.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <list>
#include <map>
#include <unordered_map>
#include <utility>

namespace ugnirt::mpilite {

namespace {

// SMSG tags of the internal MPI protocol.
constexpr std::uint8_t kMpiE0 = 10;    // envelope + inline payload
constexpr std::uint8_t kMpiE1 = 11;    // envelope + bounce buffer info
constexpr std::uint8_t kMpiRts = 12;   // envelope + user buffer info
constexpr std::uint8_t kMpiAck = 13;   // req_id: sender resources free

struct CtrlE1 {
  std::int32_t src;
  std::int32_t tag;
  std::uint32_t size;
  std::uint64_t req_id;
  std::uint64_t addr;
  ugni::gni_mem_handle_t hndl;
};

struct CtrlAck {
  std::uint64_t req_id;
};

sim::Context& ctx_now() {
  sim::Context* c = sim::current();
  assert(c && "mpilite calls must run inside a simulated context");
  return *c;
}

}  // namespace

// ---------------------------------------------------------------------------
// Per-rank state
// ---------------------------------------------------------------------------

struct MpiComm::RankState : ugni::ClientEndpoint {
  int rank = -1;
  std::function<void(SimTime)> wake;

  // Pre-registered bounce pool for E1 sends (and E1 receive landings).
  // MPI registers these once at init, so eager traffic never pays
  // registration (the advantage the memory pool then matches).
  std::unique_ptr<std::uint8_t[]> bounce_mem;
  std::uint64_t bounce_bytes = 0;
  ugni::gni_mem_handle_t bounce_hndl{};
  std::vector<std::uint8_t*> bounce_free;  // fixed-size slots

  // Outstanding E1/rendezvous sends awaiting ACK: req_id -> bounce slot
  // (E1, may be null for rendezvous) + request pointer + uDREG handle.
  struct OutSend {
    Request* req = nullptr;
    std::uint8_t* bounce_slot = nullptr;
  };
  std::unordered_map<std::uint64_t, OutSend> outstanding;

  // Arrived messages not yet received.
  std::list<InMsg> unexpected;

  // Credit-stalled control messages (destinations are ranks), retried
  // from the progress engine — the library's internal send queue.
  ugni::SmsgBacklog backlog;

  // uDREG registration cache: exact page-rounded range -> handle, LRU.
  struct UdregEntry {
    ugni::gni_mem_handle_t hndl{};
    std::uint64_t base = 0;
    std::uint64_t len = 0;
  };
  using UdregKey = std::pair<std::uint64_t, std::uint64_t>;  // base, len
  std::list<UdregEntry> udreg_lru;  // front = most recent
  std::map<UdregKey, std::list<UdregEntry>::iterator> udreg;
};

/// A rank's side of its SMSG backlog (ugni::SmsgBacklog).  The library
/// queues only control messages: nothing is owned, nothing demotes.
struct MpiComm::SmsgClient {
  MpiComm& comm;
  RankState& s;
  ugni::gni_ep_handle_t smsg_ep(int dest) {
    return ugni::connect(s, dest, *comm.n_.registrations);
  }
  ugni::gni_return_t smsg_post(ugni::gni_ep_handle_t gep, int /*dest*/,
                               std::uint8_t tag, const void* bytes,
                               std::uint32_t len) {
    return ugni::GNI_SmsgSendWTag(gep, nullptr, 0, bytes, len, 0, tag);
  }
  void smsg_posted(sim::Context&, void*) {}
  bool smsg_demote(sim::Context&) { return false; }
  void smsg_wake(SimTime t) {
    if (s.wake) s.wake(t);
  }
};

// ---------------------------------------------------------------------------
// Setup
// ---------------------------------------------------------------------------

MpiComm::MpiComm(gemini::Network& network, int ranks,
                 std::function<int(int)> node_of,
                 trace::MetricsRegistry& metrics)
    : network_(&network),
      ranks_(ranks),
      node_of_(std::move(node_of)),
      n_(metrics),
      c_sends_e0_(&metrics.counter("mpi.sends_e0")),
      c_sends_e1_(&metrics.counter("mpi.sends_e1")),
      c_sends_rndv_(&metrics.counter("mpi.sends_rndv")),
      c_unexpected_(&metrics.counter("mpi.unexpected")),
      c_udreg_hits_(&metrics.counter("mpi.udreg_hits")),
      c_udreg_misses_(&metrics.counter("mpi.udreg_misses")),
      c_udreg_evictions_(&metrics.counter("mpi.udreg_evictions")) {
  domain_ = std::make_unique<ugni::Domain>(network);
  ranks_state_.resize(static_cast<std::size_t>(ranks));
}

MpiComm::~MpiComm() = default;

void MpiComm::init_rank(int rank, std::function<void(SimTime)> wake) {
  assert(rank >= 0 && rank < ranks_);
  auto s = std::make_unique<RankState>();
  s->rank = rank;
  s->wake = std::move(wake);
  const auto& mc = network_->config();
  ugni::gni_smsg_attr_t attr;
  // MPI mailboxes are sized for envelopes + small eager payloads.
  attr.msg_maxsize = mc.smsg_max_bytes + 64;
  attr.mbox_maxcredit = mc.mpi_mailbox_credits;
  ugni::open_endpoint(*domain_, rank, node_of_(rank), mc.cq_entries, attr,
                      /*use_msgq=*/false, s->wake, *s);
  if (s->wake) {  // retry stalled sends on credit return
    s->nic->set_credit_notify(
        [st = s.get()](SimTime now, SimTime /*released*/) { st->wake(now); });
  }
  ranks_state_[static_cast<std::size_t>(rank)] = std::move(s);
}

void MpiComm::ensure_bounce_pool(RankState& s) {
  if (s.bounce_mem) return;
  // Eager bounce pool: 64 slots x eager_threshold.  The real library
  // registers this at MPI_Init; allocating it lazily (first E1 traffic)
  // keeps memory proportional to ranks that actually move eager data,
  // which matters when simulating >10k ranks in one process.  The modeled
  // registration cost is charged at init time semantics: nothing extra.
  const auto& mc = network_->config();
  const std::uint32_t slot = mc.mpi_eager_threshold;
  const std::uint32_t slots = 64;
  s.bounce_bytes = static_cast<std::uint64_t>(slot) * slots;
  s.bounce_mem = std::make_unique<std::uint8_t[]>(s.bounce_bytes);
  ugni::register_with_retry(
      ctx_now(), s.nic, reinterpret_cast<std::uint64_t>(s.bounce_mem.get()),
      s.bounce_bytes, nullptr, &s.bounce_hndl, n_.reg);
  for (std::uint32_t i = 0; i < slots; ++i) {
    s.bounce_free.push_back(s.bounce_mem.get() + i * slot);
  }
}

void MpiComm::send_ctrl(sim::Context& ctx, RankState& s, int dest,
                        std::uint8_t tag, const void* bytes,
                        std::uint32_t len) {
  SmsgClient c{*this, s};
  s.backlog.send(ctx, c, n_, dest, tag, bytes, len, /*owned=*/nullptr);
}

// ---------------------------------------------------------------------------
// uDREG
// ---------------------------------------------------------------------------

ugni::gni_mem_handle_t MpiComm::udreg_lookup(sim::Context& ctx, RankState& s,
                                             const void* addr,
                                             std::uint32_t len) {
  const auto& mc = network_->config();
  const std::uint64_t page = mc.page_bytes;
  std::uint64_t base = reinterpret_cast<std::uint64_t>(addr) & ~(page - 1);
  std::uint64_t end =
      (reinterpret_cast<std::uint64_t>(addr) + len + page - 1) & ~(page - 1);
  // A hit needs the exact page range: a registration of other pages does
  // not cover this buffer.
  const RankState::UdregKey key{base, end - base};

  if (auto it = s.udreg.find(key); it != s.udreg.end()) {
    ctx.charge(mc.udreg_hit_ns);
    c_udreg_hits_->inc();
    s.udreg_lru.splice(s.udreg_lru.begin(), s.udreg_lru, it->second);
    return it->second->hndl;
  }
  c_udreg_misses_->inc();
  n_.registrations->inc();
  RankState::UdregEntry entry;
  entry.base = base;
  entry.len = end - base;
  ugni::register_with_retry(ctx, s.nic, base, entry.len, nullptr,
                            &entry.hndl, n_.reg);
  s.udreg_lru.push_front(entry);
  s.udreg[key] = s.udreg_lru.begin();
  if (s.udreg_lru.size() > mc.udreg_capacity) {
    RankState::UdregEntry& victim = s.udreg_lru.back();
    ugni::GNI_MemDeregister(s.nic, &victim.hndl);
    c_udreg_evictions_->inc();
    s.udreg.erase({victim.base, victim.len});
    s.udreg_lru.pop_back();
  }
  return entry.hndl;
}

// ---------------------------------------------------------------------------
// Send
// ---------------------------------------------------------------------------

void MpiComm::isend(int rank, int dest, int tag, const void* buf,
                    std::uint32_t bytes, Request* req) {
  sim::Context& ctx = ctx_now();
  const auto& mc = network_->config();
  RankState& s = st(rank);
  ctx.charge(mc.mpi_call_overhead_ns);
  req->id = next_req_id_++;
  req->done = false;

  Envelope env;
  env.src = rank;
  env.tag = tag;
  env.size = bytes;
  env.req_id = req->id;

  if (node_of_(dest) == node_of_(rank) && dest != rank) {
    // Intra-node: user-space shared memory (double copy) below the XPMEM
    // threshold, kernel-assisted single copy above it (§IV-C).
    RankState& d = st(dest);
    InMsg m;
    m.env = env;
    bool buffered = true;
    if (bytes < mc.mpi_xpmem_threshold) {
      m.proto = InMsg::Proto::kShm;
      m.inline_data.resize(bytes);
      ctx.charge(mc.memcpy_cost(bytes));  // sender copy into shm
      std::memcpy(m.inline_data.data(), buf, bytes);
    } else {
      // XPMEM single copy reads straight from the sender's pages, so the
      // send cannot complete until the receive-side copy happens — the
      // "additional synchronization points" of §IV-C.
      m.proto = InMsg::Proto::kShmX;
      m.raddr = reinterpret_cast<std::uint64_t>(buf);
      s.outstanding[req->id] = RankState::OutSend{req, nullptr};
      buffered = false;
    }
    m.data_ready = ctx.now() + mc.mpi_shm_notify_ns;
    d.unexpected.push_back(std::move(m));
    c_unexpected_->inc();
    if (d.wake) {
      SimTime at = d.unexpected.back().data_ready;
      network_->scheduler().schedule_at(at, [&d, at] {
        if (d.wake) d.wake(at);
      });
    }
    req->done = buffered;
    return;
  }

  if (bytes <= mc.smsg_max_bytes) {
    // E0: envelope + payload inline in one SMSG.
    c_sends_e0_->inc();
    std::vector<std::uint8_t> wire(sizeof(Envelope) + bytes);
    std::memcpy(wire.data(), &env, sizeof(env));
    ctx.charge(mc.memcpy_cost(bytes));
    std::memcpy(wire.data() + sizeof(env), buf, bytes);
    send_ctrl(ctx, s, dest, kMpiE0, wire.data(),
              static_cast<std::uint32_t>(wire.size()));
    req->done = true;  // buffered
    return;
  }

  if (bytes <= mc.mpi_eager_threshold) {
    ensure_bounce_pool(s);
    // When all bounce slots are in flight the library falls back to the
    // rendezvous path until ACKs recycle them (as MPICH does when eager
    // resources run out).
    if (!s.bounce_free.empty()) {
      // E1: copy to a pre-registered bounce slot; receiver will GET it.
      c_sends_e1_->inc();
      std::uint8_t* slot = s.bounce_free.back();
      s.bounce_free.pop_back();
      ctx.charge(mc.memcpy_cost(bytes));
      std::memcpy(slot, buf, bytes);

      CtrlE1 ctrl;
      ctrl.src = rank;
      ctrl.tag = tag;
      ctrl.size = bytes;
      ctrl.req_id = req->id;
      ctrl.addr = reinterpret_cast<std::uint64_t>(slot);
      ctrl.hndl = s.bounce_hndl;
      send_ctrl(ctx, s, dest, kMpiE1, &ctrl, sizeof(ctrl));
      // Request is "buffered-complete": user buffer reusable now; the slot
      // returns to the pool on ACK.
      s.outstanding[req->id] = RankState::OutSend{nullptr, slot};
      req->done = true;
      return;
    }
  }

  // R0 rendezvous: register the user buffer (uDREG) and send RTS.
  c_sends_rndv_->inc();
  CtrlE1 ctrl;
  ctrl.src = rank;
  ctrl.tag = tag;
  ctrl.size = bytes;
  ctrl.req_id = req->id;
  ctrl.addr = reinterpret_cast<std::uint64_t>(buf);
  ctrl.hndl = udreg_lookup(ctx, s, buf, bytes);
  send_ctrl(ctx, s, dest, kMpiRts, &ctrl, sizeof(ctrl));
  s.outstanding[req->id] = RankState::OutSend{req, nullptr};
}

void MpiComm::send(int rank, int dest, int tag, const void* buf,
                   std::uint32_t bytes) {
  Request req;
  isend(rank, dest, tag, buf, bytes, &req);
  // Rendezvous completion arrives via ACK; the ACK time is already known
  // once the receiver GETs, but a *blocking* standard send may legally
  // complete as soon as the buffer is reusable — for rendezvous that is
  // the ACK.  The benchmarks only block on sends in ping-pong patterns
  // where the ACK precedes any further progress, so test() in a loop is
  // equivalent to waiting; assert forward progress instead of spinning.
  if (!req.done) {
    // The paper's drivers never rely on blocking rendezvous sends
    // completing before the matching receive; treat as buffered-after-RTS.
    RankState& s = st(rank);
    auto it = s.outstanding.find(req.id);
    if (it != s.outstanding.end()) it->second.req = nullptr;
  }
}

bool MpiComm::test(int rank, Request* req) {
  sim::Context& ctx = ctx_now();
  RankState& s = st(rank);
  drain(ctx, s);
  return req->done;
}

// ---------------------------------------------------------------------------
// Receive / probe
// ---------------------------------------------------------------------------

void MpiComm::drain(sim::Context& ctx, RankState& s) {
  ugni::drain_cq(s.rx_cq, *n_.cq_recovered,
                 [&](const ugni::gni_cq_entry_t& ev) {
                   if (ev.type == ugni::CqEventType::kSmsg) {
                     handle_smsg(ctx, s, ev.source_inst);
                   }
                 });
  SmsgClient c{*this, s};
  s.backlog.flush(ctx, c, n_, network_->fault_injector() != nullptr);
}

void MpiComm::handle_smsg(sim::Context& ctx, RankState& s, int src_inst) {
  const auto& mc = network_->config();
  ugni::gni_ep_handle_t ep = s.nic->ep_for_peer(src_inst);
  void* data = nullptr;
  std::uint8_t tag = 0;
  ugni::gni_return_t rc = ugni::GNI_SmsgGetNextWTag(ep, &data, &tag);
  if (rc != ugni::GNI_RC_SUCCESS) return;

  switch (tag) {
    case kMpiE0: {
      InMsg m;
      std::memcpy(&m.env, data, sizeof(Envelope));
      m.proto = InMsg::Proto::kE0;
      m.inline_data.resize(m.env.size);
      ctx.charge(mc.memcpy_cost(m.env.size));
      std::memcpy(m.inline_data.data(),
                  static_cast<std::uint8_t*>(data) + sizeof(Envelope),
                  m.env.size);
      m.data_ready = ctx.now();
      ugni::GNI_SmsgRelease(ep);
      s.unexpected.push_back(std::move(m));
      c_unexpected_->inc();
      break;
    }
    case kMpiE1: {
      CtrlE1 ctrl;
      std::memcpy(&ctrl, data, sizeof(ctrl));
      ugni::GNI_SmsgRelease(ep);
      InMsg m;
      m.env = Envelope{ctrl.src, ctrl.tag, ctrl.size, ctrl.req_id};
      m.proto = InMsg::Proto::kE1;
      // GET the payload into a local landing buffer right away (eager).
      // The landing slots are part of the pre-registered bounce region, so
      // this costs no registration; the FMA GET occupies the receiving CPU
      // (it runs inside the MPI progress engine).
      m.landing.resize(ctrl.size);
      gemini::TransferRequest treq;
      treq.mech = gemini::Mechanism::kFmaGet;
      treq.initiator_node = node_of_(s.rank);
      treq.remote_node = node_of_(ctrl.src);
      treq.bytes = ctrl.size;
      treq.issue = ctx.now();
      gemini::TransferTimes tt = network_->transfer(treq);
      ctx.wait_until(tt.cpu_done);
      std::memcpy(m.landing.data(), reinterpret_cast<void*>(ctrl.addr),
                  ctrl.size);
      m.data_ready = tt.data_arrival;
      // ACK so the sender's bounce slot recycles.
      CtrlAck ack{ctrl.req_id};
      send_ctrl(ctx, s, ctrl.src, kMpiAck, &ack, sizeof(ack));
      s.unexpected.push_back(std::move(m));
      c_unexpected_->inc();
      break;
    }
    case kMpiRts: {
      CtrlE1 ctrl;
      std::memcpy(&ctrl, data, sizeof(ctrl));
      ugni::GNI_SmsgRelease(ep);
      InMsg m;
      m.env = Envelope{ctrl.src, ctrl.tag, ctrl.size, ctrl.req_id};
      m.proto = InMsg::Proto::kRndv;
      m.raddr = ctrl.addr;
      m.rhndl = ctrl.hndl;
      m.data_ready = 0;  // transferred at recv()
      s.unexpected.push_back(std::move(m));
      c_unexpected_->inc();
      break;
    }
    case kMpiAck: {
      CtrlAck ack;
      std::memcpy(&ack, data, sizeof(ack));
      ugni::GNI_SmsgRelease(ep);
      auto it = s.outstanding.find(ack.req_id);
      assert(it != s.outstanding.end());
      if (it->second.bounce_slot) s.bounce_free.push_back(it->second.bounce_slot);
      if (it->second.req) it->second.req->done = true;
      s.outstanding.erase(it);
      break;
    }
    default:
      assert(false && "unknown MPI smsg tag");
  }
}

MpiComm::InMsg* MpiComm::find_match(RankState& s, int source, int tag,
                                    SimTime now) {
  for (auto& m : s.unexpected) {
    // Intra-node envelopes become visible at their shm notify time; NIC
    // envelopes were already gated by CQ arrival when drained.
    if ((m.proto == InMsg::Proto::kShm || m.proto == InMsg::Proto::kShmX) &&
        m.data_ready > now) {
      continue;
    }
    if ((source == MPI_ANY_SOURCE || m.env.src == source) &&
        (tag == MPI_ANY_TAG || m.env.tag == tag)) {
      return &m;
    }
  }
  return nullptr;
}

bool MpiComm::wait_probe(int rank, int source, int tag, Status* status) {
  sim::Context& ctx = ctx_now();
  RankState& s = st(rank);
  for (;;) {
    if (iprobe(rank, source, tag, status)) return true;
    // Earliest thing that could become visible: a queued CQ event or an
    // intra-node message whose notify time has not passed yet.
    SimTime next = s.rx_cq->next_arrival();
    for (const auto& m : s.unexpected) {
      if (m.data_ready > ctx.now()) next = std::min(next, m.data_ready);
    }
    if (next == kNever || next <= ctx.now()) return false;
    ctx.wait_until(next);
  }
}

bool MpiComm::iprobe(int rank, int source, int tag, Status* status) {
  sim::Context& ctx = ctx_now();
  const auto& mc = network_->config();
  RankState& s = st(rank);
  // Probing walks the library's internal unexpected structures and sweeps
  // per-connection mailbox state, so its cost grows with the backlog and
  // with the peer count — the paper's "prolonged MPI_Iprobe".
  SimTime conn_sweep = 0;
  const std::size_t conns = s.nic->connected_peers();
  if (conns > mc.mpi_iprobe_conn_free) {
    conn_sweep = static_cast<SimTime>(conns -
                                      mc.mpi_iprobe_conn_free) *
                 mc.mpi_iprobe_conn_ns;
  }
  ctx.charge(mc.mpi_iprobe_ns + conn_sweep +
             static_cast<SimTime>(s.unexpected.size()) *
                 mc.mpi_iprobe_scan_ns);
  drain(ctx, s);
  InMsg* m = find_match(s, source, tag, ctx.now());
  if (!m) return false;
  if (status) {
    status->source = m->env.src;
    status->tag = m->env.tag;
    status->count = m->env.size;
  }
  return true;
}

void MpiComm::recv(int rank, int source, int tag, void* buf,
                   std::uint32_t max_bytes, Status* status) {
  sim::Context& ctx = ctx_now();
  const auto& mc = network_->config();
  RankState& s = st(rank);
  ctx.charge(mc.mpi_call_overhead_ns + mc.mpi_match_ns);
  drain(ctx, s);
  InMsg* m = find_match(s, source, tag, ctx.now());
  assert(m && "mpilite recv requires an already-probed message");
  assert(m->env.size <= max_bytes);
  (void)max_bytes;

  switch (m->proto) {
    case InMsg::Proto::kE0:
      ctx.charge(mc.memcpy_cost(m->env.size));
      std::memcpy(buf, m->inline_data.data(), m->env.size);
      break;
    case InMsg::Proto::kShm:
      ctx.wait_until(m->data_ready);
      ctx.charge(mc.memcpy_cost(m->env.size));  // receiver copy out of shm
      std::memcpy(buf, m->inline_data.data(), m->env.size);
      break;
    case InMsg::Proto::kShmX: {
      ctx.wait_until(m->data_ready);
      // Single copy straight from the mapped sender pages, plus the XPMEM
      // attach/synchronization overhead.
      ctx.charge(mc.mpi_xpmem_overhead_ns + mc.memcpy_cost(m->env.size));
      std::memcpy(buf, reinterpret_cast<void*>(m->raddr), m->env.size);
      // The copy releases the sender's buffer: complete its request.
      RankState& snd = st(m->env.src);
      if (auto it = snd.outstanding.find(m->env.req_id);
          it != snd.outstanding.end()) {
        if (it->second.req) it->second.req->done = true;
        snd.outstanding.erase(it);
      }
      break;
    }
    case InMsg::Proto::kE1:
      // Payload may still be streaming into the landing buffer.
      ctx.wait_until(m->data_ready);
      ctx.charge(mc.memcpy_cost(m->env.size));
      std::memcpy(buf, m->landing.data(), m->env.size);
      break;
    case InMsg::Proto::kRndv: {
      // Register the user buffer, BTE GET, and *block* until done.
      ugni::gni_mem_handle_t lh = udreg_lookup(ctx, s, buf, m->env.size);
      (void)lh;
      gemini::TransferRequest treq;
      treq.mech = m->env.size >= mc.mpi_rdma_threshold
                      ? gemini::Mechanism::kBteGet
                      : gemini::Mechanism::kFmaGet;
      treq.initiator_node = node_of_(rank);
      treq.remote_node = node_of_(m->env.src);
      treq.bytes = m->env.size;
      treq.issue = ctx.now();
      gemini::TransferTimes tt = network_->transfer(treq);
      std::memcpy(buf, reinterpret_cast<void*>(m->raddr), m->env.size);
      ctx.wait_until(tt.data_arrival);  // blocking MPI_Recv (paper §V-B)
      CtrlAck ack{m->env.req_id};
      send_ctrl(ctx, s, m->env.src, kMpiAck, &ack, sizeof(ack));
      break;
    }
  }
  if (status) {
    status->source = m->env.src;
    status->tag = m->env.tag;
    status->count = m->env.size;
  }
  for (auto it = s.unexpected.begin(); it != s.unexpected.end(); ++it) {
    if (&*it == m) {
      s.unexpected.erase(it);
      break;
    }
  }
}

void MpiComm::advance(int rank) {
  sim::Context& ctx = ctx_now();
  drain(ctx, st(rank));
}

void MpiComm::udreg_invalidate(int rank, const void* addr,
                               std::uint32_t len) {
  RankState& s = st(rank);
  const std::uint64_t lo = reinterpret_cast<std::uint64_t>(addr);
  const std::uint64_t hi = lo + len;
  for (auto it = s.udreg_lru.begin(); it != s.udreg_lru.end();) {
    if (it->base < hi && lo < it->base + it->len) {
      ugni::GNI_MemDeregister(s.nic, &it->hndl);
      c_udreg_evictions_->inc();
      s.udreg.erase({it->base, it->len});
      it = s.udreg_lru.erase(it);
    } else {
      ++it;
    }
  }
}

bool MpiComm::has_pending(int rank) const {
  const RankState& s = *ranks_state_[static_cast<std::size_t>(rank)];
  return !s.unexpected.empty();
}

bool MpiComm::has_send_backlog(int rank) const {
  const RankState& s = *ranks_state_[static_cast<std::size_t>(rank)];
  return !s.backlog.empty();
}

}  // namespace ugnirt::mpilite
