#include "sim/engine.hpp"
#include "apps/microbench/microbench.hpp"

#include <cassert>
#include <cstring>
#include <map>
#include <memory>
#include <vector>

#include "charm/charm.hpp"
#include "lrts/runtime.hpp"
#include "mempool/mempool.hpp"
#include "mpilite/mpilite.hpp"
#include "ugni/ugni.hpp"

namespace ugnirt::apps::bench {

using converse::CmiAlloc;
using converse::CmiFree;
using converse::CmiMyPe;
using converse::CmiSetHandler;
using converse::CmiSyncSendAndFree;
using converse::kCmiHeaderBytes;
using converse::Machine;

// ---------------------------------------------------------------------------
// Raw mechanism latency (Fig 4)
// ---------------------------------------------------------------------------

SimTime raw_mechanism_latency(const gemini::MachineConfig& mc,
                              gemini::Mechanism mech, std::uint64_t bytes) {
  sim::Engine engine;
  gemini::Network net(engine.scheduler(), topo::Torus3D::for_nodes(8), mc);
  gemini::TransferRequest req;
  req.mech = mech;
  req.initiator_node = 0;
  req.remote_node = 1;
  req.bytes = bytes;
  req.issue = 0;
  gemini::TransferTimes t = net.transfer(req);
  const bool is_get = mech == gemini::Mechanism::kFmaGet ||
                      mech == gemini::Mechanism::kBteGet;
  // GET: data lands at the initiator (local completion); PUT/SMSG: data
  // visible at the remote end.
  return is_get ? t.initiator_complete : t.data_arrival;
}

// ---------------------------------------------------------------------------
// Pure uGNI ping-pong
// ---------------------------------------------------------------------------

SimTime pure_ugni_pingpong(const gemini::MachineConfig& mc,
                           std::uint32_t bytes, int iters) {
  sim::Engine engine;
  gemini::Network net(engine.scheduler(), topo::Torus3D::for_nodes(8), mc);
  ugni::Domain dom(net);

  sim::Context ctx[2] = {sim::Context(engine.scheduler(), 0), sim::Context(engine.scheduler(), 1)};
  ugni::gni_nic_handle_t nic[2];
  ugni::gni_cq_handle_t rx[2], tx[2];
  ugni::gni_ep_handle_t ep[2];
  std::vector<std::uint8_t> buf[2];
  ugni::gni_mem_handle_t hndl[2];

  for (int i = 0; i < 2; ++i) {
    sim::ScopedContext g(ctx[i]);
    ugni::GNI_CdmAttach(&dom, i, i, &nic[i]);
    ugni::GNI_CqCreate(nic[i], 4096, &rx[i]);
    ugni::GNI_CqCreate(nic[i], 4096, &tx[i]);
    nic[i]->set_smsg_rx_cq(rx[i]);
    buf[i].resize(std::max<std::uint32_t>(bytes, 8));
    ugni::GNI_MemRegister(nic[i],
                          reinterpret_cast<std::uint64_t>(buf[i].data()),
                          buf[i].size(), rx[i], 0, &hndl[i]);
  }
  for (int i = 0; i < 2; ++i) {
    sim::ScopedContext g(ctx[i]);
    ugni::GNI_EpCreate(nic[i], tx[i], &ep[i]);
    ugni::GNI_EpBind(ep[i], 1 - i);
    ugni::gni_smsg_attr_t attr;
    attr.msg_maxsize = mc.smsg_max_bytes + 64;
    ugni::GNI_SmsgInit(ep[i], attr, attr);
  }

  const bool small = bytes <= mc.smsg_max_bytes;
  auto send_leg = [&](int from) {
    sim::ScopedContext g(ctx[from]);
    if (small) {
      ugni::gni_return_t rc = ugni::GNI_SmsgSendWTag(
          ep[from], buf[from].data(), bytes, nullptr, 0, 0, 1);
      assert(rc == ugni::GNI_RC_SUCCESS);
      (void)rc;
    } else {
      ugni::gni_post_descriptor_t d;
      d.type = bytes >= mc.rdma_threshold ? ugni::GNI_POST_RDMA_PUT
                                          : ugni::GNI_POST_FMA_PUT;
      d.cq_mode =
          ugni::GNI_CQMODE_LOCAL_EVENT | ugni::GNI_CQMODE_REMOTE_EVENT;
      d.local_addr = reinterpret_cast<std::uint64_t>(buf[from].data());
      d.local_mem_hndl = hndl[from];
      d.remote_addr = reinterpret_cast<std::uint64_t>(buf[1 - from].data());
      d.remote_mem_hndl = hndl[1 - from];
      d.length = bytes;
      ugni::gni_return_t rc = d.type == ugni::GNI_POST_RDMA_PUT
                                  ? ugni::GNI_PostRdma(ep[from], &d)
                                  : ugni::GNI_PostFma(ep[from], &d);
      assert(rc == ugni::GNI_RC_SUCCESS);
      (void)rc;
      // Drain our local completion later; remote event signals delivery.
      ugni::gni_cq_entry_t ev;
      ugni::GNI_CqWaitEvent(tx[from], &ev);
    }
  };
  auto recv_leg = [&](int at) {
    sim::ScopedContext g(ctx[at]);
    ugni::gni_cq_entry_t ev;
    ugni::gni_return_t rc = ugni::GNI_CqWaitEvent(rx[at], &ev);
    assert(rc == ugni::GNI_RC_SUCCESS);
    (void)rc;
    if (small) {
      void* data = nullptr;
      std::uint8_t tag = 0;
      rc = ugni::GNI_SmsgGetNextWTag(ep[at], &data, &tag);
      assert(rc == ugni::GNI_RC_SUCCESS);
      ugni::GNI_SmsgRelease(ep[at]);
    }
  };

  auto round_trip = [&] {
    send_leg(0);
    // The receiver's clock follows the sender's observable world.
    ctx[1].wait_until(std::max<SimTime>(ctx[1].now(), ctx[0].now()));
    recv_leg(1);
    send_leg(1);
    ctx[0].wait_until(std::max<SimTime>(ctx[0].now(), ctx[1].now()));
    recv_leg(0);
    // Run whatever the legs queued and bring both clocks to the engine's.
    // A credit comes back with no event while its sender holds another
    // (GNI_SmsgRelease), so the SMSG legs queue none.
    engine.run();
    ctx[0].wait_until(engine.now());
    ctx[1].wait_until(engine.now());
  };

  round_trip();  // warmup
  SimTime start = ctx[0].now();
  for (int i = 0; i < iters; ++i) round_trip();
  return (ctx[0].now() - start) / (2 * iters);
}

// ---------------------------------------------------------------------------
// Pure MPI ping-pong
// ---------------------------------------------------------------------------

SimTime pure_mpi_pingpong(const gemini::MachineConfig& mc,
                          std::uint32_t bytes, bool same_buffer,
                          bool intranode, int iters) {
  sim::Engine engine;
  gemini::Network net(engine.scheduler(), topo::Torus3D::for_nodes(4), mc);
  trace::MetricsRegistry metrics;
  mpilite::MpiComm comm(
      net, 2, [intranode](int rank) { return intranode ? 0 : rank; },
      metrics);
  sim::Context ctx[2] = {sim::Context(engine.scheduler(), 0), sim::Context(engine.scheduler(), 1)};
  for (int i = 0; i < 2; ++i) {
    sim::ScopedContext g(ctx[i]);
    comm.init_rank(i);
  }
  // Two buffer sets: with same_buffer, send==recv buffer on each rank.
  std::vector<std::uint8_t> snd[2], rcv[2];
  for (int i = 0; i < 2; ++i) {
    snd[i].resize(bytes);
    rcv[i].resize(bytes);
  }
  auto* s0 = snd[0].data();
  auto* r0 = same_buffer ? snd[0].data() : rcv[0].data();
  auto* s1 = snd[1].data();
  auto* r1 = same_buffer ? snd[1].data() : rcv[1].data();

  auto leg = [&](int from, std::uint8_t* sbuf, std::uint8_t* rbuf) {
    {
      sim::ScopedContext g(ctx[from]);
      comm.send(from, 1 - from, 0, sbuf, bytes);
    }
    int to = 1 - from;
    sim::ScopedContext g(ctx[to]);
    ctx[to].wait_until(std::max<SimTime>(ctx[to].now(), ctx[from].now()));
    mpilite::Status st;
    bool ok = comm.wait_probe(to, from, 0, &st);
    assert(ok);
    (void)ok;
    comm.recv(to, from, 0, rbuf, bytes, &st);
    if (!same_buffer) {
      // The distinct-buffer benchmark frees and reallocates its receive
      // buffer each iteration; the registration cache must drop it
      // (correctness rule [21]) and re-register next time.
      comm.udreg_invalidate(to, rbuf, bytes);
    }
  };

  auto round_trip = [&] {
    leg(0, s0, r1);
    leg(1, s1, r0);
    engine.run();
    ctx[0].wait_until(engine.now());
    ctx[1].wait_until(engine.now());
  };

  round_trip();
  round_trip();  // second warmup fills the uDREG cache for same_buffer
  SimTime start = ctx[0].now();
  for (int i = 0; i < iters; ++i) round_trip();
  return (ctx[0].now() - start) / (2 * iters);
}

// ---------------------------------------------------------------------------
// CHARM++ ping-pong
// ---------------------------------------------------------------------------

SimTime charm_pingpong(converse::MachineOptions options,
                       const PingPongOptions& pp) {
  options.pes = 2;
  if (options.pes_per_node == 0) options.pes_per_node = 1;
  auto m = lrts::make_machine(options.layer, options);
  const std::uint32_t total = pp.payload + kCmiHeaderBytes;
  const int total_legs = 2 /*warmup*/ + 2 * pp.iters;

  converse::PersistentHandle to1{}, to0{};
  // Persistent mode keeps one application-owned send buffer per PE — the
  // fixed communication pattern the paper's §IV-A targets.
  void* persist_buf[2] = {nullptr, nullptr};
  int legs = 0;
  SimTime measure_start = 0, measure_end = 0;
  int h = -1;

  auto send_next = [&](int dest, void* reusable) {
    void* msg = nullptr;
    if (pp.persistent) {
      msg = persist_buf[1 - dest];
    } else if (pp.reuse_buffer && reusable &&
               !(converse::header_of(reusable)->flags &
                 converse::kMsgFlagNoFree)) {
      msg = reusable;
    } else {
      msg = CmiAlloc(total);
    }
    CmiSetHandler(msg, h);
    if (pp.persistent) {
      converse::PersistentHandle hnd = dest == 1 ? to1 : to0;
      Machine::running()->send_persistent(hnd, msg);
    } else {
      CmiSyncSendAndFree(dest, total, msg);
    }
  };

  h = m->register_handler([&](void* msg) {
    ++legs;
    if (legs == 2) {
      measure_start = Machine::running()->current_pe().ctx().now();
    }
    if (legs == total_legs) {
      measure_end = Machine::running()->current_pe().ctx().now();
      CmiFree(msg);
      return;
    }
    int me = CmiMyPe();
    void* reusable = msg;
    if (converse::header_of(msg)->flags & converse::kMsgFlagNoFree) {
      reusable = nullptr;  // persistent landing buffer: runtime-owned
    } else if (pp.persistent || !pp.reuse_buffer) {
      CmiFree(msg);  // fresh-buffer mode: release before reallocating
      reusable = nullptr;
    }
    send_next(1 - me, reusable);
  });

  auto setup_persist = [&](int me) {
    persist_buf[me] = CmiAlloc(total);
    converse::header_of(persist_buf[me])->flags |= converse::kMsgFlagNoFree;
    converse::PersistentHandle hnd =
        Machine::running()->create_persistent(1 - me, total);
    assert(hnd.valid() && "persistent API unsupported on this layer");
    if (me == 0) {
      to1 = hnd;
    } else {
      to0 = hnd;
    }
  };

  m->start(0, [&] {
    if (pp.persistent) setup_persist(0);
    send_next(1, nullptr);
  });
  if (pp.persistent) {
    m->start(1, [&] { setup_persist(1); });
  }
  m->run();
  assert(legs == total_legs);
  // The persistent send buffers are the application's, and NoFree keeps
  // the runtime from releasing them.
  for (void* buf : persist_buf) {
    if (buf) mempool::MemPool::discard(buf);
  }
  return (measure_end - measure_start) / (2 * pp.iters);
}

double charm_bandwidth(converse::MachineOptions options, std::uint32_t bytes,
                       int iters) {
  PingPongOptions pp;
  pp.payload = bytes;
  pp.iters = iters;
  SimTime one_way = charm_pingpong(options, pp);
  if (one_way <= 0) return 0;
  // MB/s with MB = 1e6 bytes (the unit of Fig 9b's axis).
  return static_cast<double>(bytes) / (static_cast<double>(one_way) / 1e9) /
         1e6;
}

// ---------------------------------------------------------------------------
// One-to-all (Fig 9c)
// ---------------------------------------------------------------------------

SimTime charm_onetoall(converse::MachineOptions options, std::uint32_t bytes,
                       int iters) {
  // 16 nodes, one designated core per node (paper: 16 nodes of Hopper).
  auto m = lrts::make_machine(options.layer, options);
  const int ppn = options.effective_pes_per_node();
  const int nodes = options.nodes();
  const int peers = nodes - 1;
  assert(peers >= 1);
  const std::uint32_t total = bytes + kCmiHeaderBytes;
  const std::uint32_t ack_total = kCmiHeaderBytes + 8;

  int acks = 0;
  int round = 0;
  SimTime measure_start = 0, measure_end = 0;
  int h_data = -1, h_ack = -1;

  auto fire_round = [&] {
    for (int node = 1; node < nodes; ++node) {
      void* msg = CmiAlloc(total);
      CmiSetHandler(msg, h_data);
      CmiSyncSendAndFree(node * ppn, total, msg);
    }
  };

  h_data = m->register_handler([&](void* msg) {
    CmiFree(msg);
    void* ack = CmiAlloc(ack_total);
    CmiSetHandler(ack, h_ack);
    CmiSyncSendAndFree(0, ack_total, ack);
  });
  h_ack = m->register_handler([&](void* msg) {
    CmiFree(msg);
    if (++acks < peers) return;
    acks = 0;
    ++round;
    if (round == 1) {
      measure_start = Machine::running()->current_pe().ctx().now();
    }
    if (round == 1 + iters) {
      measure_end = Machine::running()->current_pe().ctx().now();
      return;
    }
    fire_round();
  });

  m->start(0, fire_round);
  m->run();
  return (measure_end - measure_start) / (iters * peers);
}

// ---------------------------------------------------------------------------
// kNeighbor (Fig 10)
// ---------------------------------------------------------------------------

SimTime charm_kneighbor(converse::MachineOptions options, std::uint32_t bytes,
                        int k, int iters, trace::MetricsRegistry* metrics) {
  auto m = lrts::make_machine(options.layer, options);
  charm::Charm charm(*m);
  const int pes = options.pes;
  // Payload carries the round tag; a PE may legitimately receive traffic
  // for round r+1 before the round-r completion broadcast reaches it, so
  // counters are kept per round.
  const std::uint32_t total =
      std::max<std::uint32_t>(bytes, sizeof(std::int32_t)) + kCmiHeaderBytes;

  struct RoundState {
    int data_got = 0;
    int acks_got = 0;
    bool contributed = false;
  };
  std::vector<std::map<int, RoundState>> st(static_cast<std::size_t>(pes));
  int rounds_done = 0;
  SimTime measure_start = 0, measure_end = 0;
  int h_data = -1, h_ack = -1, red = -1;

  auto send_round = [&](int me, int round) {
    for (int d = 1; d <= k; ++d) {
      for (int dir : {-1, +1}) {
        int peer = ((me + dir * d) % pes + pes) % pes;
        void* msg = CmiAlloc(total);
        *converse::msg_payload<std::int32_t>(msg) = round;
        CmiSetHandler(msg, h_data);
        CmiSyncSendAndFree(peer, total, msg);
      }
    }
  };

  auto maybe_contribute = [&](int me, int round) {
    RoundState& s = st[static_cast<std::size_t>(me)][round];
    if (s.contributed || s.data_got < 2 * k || s.acks_got < 2 * k) return;
    s.contributed = true;
    st[static_cast<std::size_t>(me)].erase(round);
    charm.contribute(red, 1);
  };

  h_data = m->register_handler([&](void* msg) {
    int me = CmiMyPe();
    int round = *converse::msg_payload<std::int32_t>(msg);
    // Ack with the same buffer (the paper reuses the message buffer).
    CmiSetHandler(msg, h_ack);
    int src = converse::header_of(msg)->src_pe;
    st[static_cast<std::size_t>(me)][round].data_got++;
    CmiSyncSendAndFree(src, total, msg);
    maybe_contribute(me, round);
  });
  h_ack = m->register_handler([&](void* msg) {
    int me = CmiMyPe();
    int round = *converse::msg_payload<std::int32_t>(msg);
    CmiFree(msg);
    st[static_cast<std::size_t>(me)][round].acks_got++;
    maybe_contribute(me, round);
  });

  int bcast = -1;
  red = charm.register_reduction_sum([&](std::uint64_t count) {
    assert(count == static_cast<std::uint64_t>(pes));
    (void)count;
    ++rounds_done;
    if (rounds_done == 1) {
      measure_start = Machine::running()->current_pe().ctx().now();
    }
    if (rounds_done == 1 + iters) {
      measure_end = Machine::running()->current_pe().ctx().now();
      return;
    }
    void* msg = CmiAlloc(kCmiHeaderBytes + 8);
    *converse::msg_payload<std::int32_t>(msg) = rounds_done;  // next round
    CmiSetHandler(msg, bcast);
    converse::CmiSyncBroadcastAllAndFree(kCmiHeaderBytes + 8, msg);
  });
  bcast = m->register_handler([&](void* msg) {
    int round = *converse::msg_payload<std::int32_t>(msg);
    CmiFree(msg);
    send_round(CmiMyPe(), round);
  });

  for (int pe = 0; pe < pes; ++pe) {
    m->start(pe, [&, pe] { send_round(pe, 0); });
  }
  m->run();
  assert(measure_end > measure_start && "kNeighbor rounds did not complete");
  if (metrics != nullptr) {
    m->collect_metrics();
    metrics->merge_from(m->metrics());
  }
  return (measure_end - measure_start) / iters;
}

KNeighborFloodResult charm_kneighbor_flood(converse::MachineOptions options,
                                           std::uint32_t bytes, int k,
                                           int burst, int rounds) {
  auto m = lrts::make_machine(options.layer, options);
  const int pes = options.pes;
  assert(pes > 2 * k && "ring needs more PEs than neighbors");
  const std::uint32_t total =
      std::max<std::uint32_t>(bytes, sizeof(std::int32_t)) + kCmiHeaderBytes;

  std::uint64_t delivered = 0;
  std::vector<int> rounds_left(static_cast<std::size_t>(pes), rounds);
  int h_data = -1, h_pump = -1;

  h_data = m->register_handler([&](void* msg) {
    ++delivered;
    CmiFree(msg);
  });
  // One round: `burst` messages sprayed round-robin over the 2k ring
  // neighbors, then a self-message re-primes the pump.  The self-message
  // keeps the scheduler queue busy, so coalesced traffic flushes on
  // buffer-full / timer — the regime aggregation is built for.
  auto pump_round = [&](int me) {
    for (int i = 0; i < burst; ++i) {
      const int slot = i % (2 * k);
      const int dist = slot / 2 + 1;            // 1..k
      const int dir = (slot % 2 == 0) ? 1 : -1; // alternate sides
      const int peer = ((me + dir * dist) % pes + pes) % pes;
      void* msg = CmiAlloc(total);
      *converse::msg_payload<std::int32_t>(msg) = i;
      CmiSetHandler(msg, h_data);
      CmiSyncSendAndFree(peer, total, msg);
    }
    if (--rounds_left[static_cast<std::size_t>(me)] > 0) {
      void* next = CmiAlloc(kCmiHeaderBytes + sizeof(std::int32_t));
      CmiSetHandler(next, h_pump);
      CmiSyncSendAndFree(me, kCmiHeaderBytes + sizeof(std::int32_t), next);
    }
  };
  h_pump = m->register_handler([&](void* msg) {
    CmiFree(msg);
    pump_round(CmiMyPe());
  });

  for (int pe = 0; pe < pes; ++pe) {
    m->start(pe, [&, pe] { pump_round(pe); });
  }
  KNeighborFloodResult r;
  r.elapsed_ns = m->run();
  r.messages = delivered;
  const std::uint64_t expected = static_cast<std::uint64_t>(pes) *
                                 static_cast<std::uint64_t>(burst) *
                                 static_cast<std::uint64_t>(rounds);
  assert(delivered == expected && "kNeighbor flood lost or duplicated");
  (void)expected;
  r.msgs_per_sec =
      static_cast<double>(r.messages) / to_s(r.elapsed_ns);
  return r;
}

}  // namespace ugnirt::apps::bench
