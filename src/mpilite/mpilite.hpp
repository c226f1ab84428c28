// MPI subset modeling Cray MPI on Gemini (the paper's baseline substrate).
//
// Cray's MPI is itself implemented on uGNI [Pritchard et al., "A uGNI-based
// MPICH2 Nemesis network module for the Cray XE"], and this emulation takes
// the same structure over our simulated uGNI:
//
//   * E0 eager  (size <= SMSG cap): payload inline in an SMSG message; the
//     library copies it out of the mailbox into an unexpected-message slot,
//     and MPI_Recv copies again into the user buffer.
//   * E1 eager  (cap < size <= eager threshold, 8 KiB): the sender copies
//     the payload into a pre-registered bounce buffer and sends a control
//     SMSG; the receiver GETs into its own pre-registered landing buffer as
//     soon as the control arrives, and MPI_Recv copies out.  Both copies
//     are the "extra memory copy between CHARM++ and MPI memory space" the
//     paper blames for MPI-based CHARM++'s mid-size latency.
//   * R0 rendezvous (size > 8 KiB): RTS carries the registered user send
//     buffer; MPI_Recv registers the user receive buffer (through a
//     uDREG-style registration cache), posts a BTE GET, and *blocks* until
//     it completes — the behavior that serializes the MPI-based CHARM++
//     progress engine in the paper's kNeighbor experiment (§V-B).
//
// Scope: exactly what the paper's benchmarks need.  MPI_Recv requires the
// message envelope to have already arrived (callers probe first); this
// matches every use in the benchmarks and the MPI-based machine layer.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "gemini/network.hpp"
#include "sim/context.hpp"
#include "trace/metrics.hpp"
#include "ugni/client.hpp"

namespace ugnirt::mpilite {

constexpr int MPI_ANY_SOURCE = -1;
constexpr int MPI_ANY_TAG = -1;

struct Status {
  int source = -1;
  int tag = -1;
  std::uint32_t count = 0;  // bytes
};

/// Nonblocking-send request.  Owned by the caller; complete() flips when
/// the library no longer needs the user buffer.
struct Request {
  bool done = false;
  std::uint64_t id = 0;
};

class MpiComm {
 public:
  /// `ranks` MPI processes on the given network; rank r lives on
  /// node_of(r).  Transient uGNI failures are retried under the uGNI
  /// clients' shared policy (ugni/client.hpp).  The library's rows (mpi.*,
  /// the uGNI client rows of ugni/client.hpp) are bound in `metrics` here
  /// and count from the first call.  All calls must run inside a sim
  /// context.
  MpiComm(gemini::Network& network, int ranks,
          std::function<int(int)> node_of, trace::MetricsRegistry& metrics);
  ~MpiComm();
  MpiComm(const MpiComm&) = delete;
  MpiComm& operator=(const MpiComm&) = delete;

  int ranks() const { return ranks_; }

  /// Initialize rank-local resources (NIC, CQs, eager pools); charged to
  /// the calling context.  Must be called once per rank before traffic.
  /// `wake` (may be empty) is invoked at arrival virtual time when the
  /// rank gets new traffic or a stalled send can be retried; it lets a
  /// polling driver sleep instead of spinning.
  void init_rank(int rank, std::function<void(SimTime)> wake = {});

  // ---- point to point ----

  /// Nonblocking standard-mode send.  Buffered (E0/E1) sends complete
  /// immediately; rendezvous completes when the receiver's GET finishes.
  void isend(int rank, int dest, int tag, const void* buf,
             std::uint32_t bytes, Request* req);

  /// Blocking send: isend + wait (buffered modes return immediately).
  void send(int rank, int dest, int tag, const void* buf,
            std::uint32_t bytes);

  /// Has `req` completed?  (MPI_Test; also drives progress.)
  bool test(int rank, Request* req);

  /// Is there a matching message?  (MPI_Iprobe; drives progress.)
  bool iprobe(int rank, int source, int tag, Status* status);

  /// Blocking probe for ping-pong style drivers: if a matching message is
  /// already in flight toward this rank, spin (advance the caller's
  /// virtual clock) until its envelope is visible and return true; return
  /// false when nothing is in flight at all.
  bool wait_probe(int rank, int source, int tag, Status* status);

  /// Blocking receive of an already-probed message.  Asserts that a
  /// matching envelope has arrived (see header comment).  For rendezvous
  /// messages this blocks the caller for the whole transfer.
  void recv(int rank, int source, int tag, void* buf, std::uint32_t max_bytes,
            Status* status);

  /// Drain completion queues / protocol work for this rank.
  void advance(int rank);

  /// Drop registration-cache entries overlapping [addr, addr+len): the
  /// uDREG correctness hook that fires when user memory is freed (Wyckoff &
  /// Wu, cited as [21] by the paper).  Applications that free and
  /// reallocate buffers — like the MPI-based CHARM++ — pay a fresh
  /// registration on every large transfer because of this.
  void udreg_invalidate(int rank, const void* addr, std::uint32_t len);

  /// True when rank has arrived messages waiting to be probed/received.
  bool has_pending(int rank) const;

  /// True when rank has credit-stalled outgoing control messages.
  bool has_send_backlog(int rank) const;

 private:
  struct RankState;
  struct SmsgClient;

  struct Envelope {
    std::int32_t src = -1;
    std::int32_t tag = 0;
    std::uint32_t size = 0;
    std::uint64_t req_id = 0;
  };

  /// An arrived-but-unreceived message.
  struct InMsg {
    Envelope env;
    enum class Proto : std::uint8_t {
      kE0,    // eager inline
      kE1,    // eager via bounce buffer GET
      kRndv,  // rendezvous (receive-side BTE GET)
      kShm,   // intra-node double copy via shared memory
      kShmX,  // intra-node single copy via XPMEM mapping
    } proto = Proto::kE0;
    std::vector<std::uint8_t> inline_data;  // E0: payload copy
    // E1: local landing slot the GET targeted + completion time.
    std::vector<std::uint8_t> landing;
    SimTime data_ready = 0;
    // Rendezvous / XPMEM: remote buffer info for the receive-side copy.
    std::uint64_t raddr = 0;
    ugni::gni_mem_handle_t rhndl{};
  };

  RankState& st(int rank) { return *ranks_state_[static_cast<size_t>(rank)]; }

  /// Registration cache lookup; charges hit or miss cost and returns the
  /// handle for the pages of [addr, addr+len).
  ugni::gni_mem_handle_t udreg_lookup(sim::Context& ctx, RankState& s,
                                      const void* addr, std::uint32_t len);

  void ensure_bounce_pool(RankState& s);
  /// One control SMSG to rank `dest`, through the rank's credit backlog.
  void send_ctrl(sim::Context& ctx, RankState& s, int dest, std::uint8_t tag,
                 const void* bytes, std::uint32_t len);
  void drain(sim::Context& ctx, RankState& s);
  void handle_smsg(sim::Context& ctx, RankState& s, int src_inst);
  InMsg* find_match(RankState& s, int source, int tag, SimTime now);

  gemini::Network* network_;
  int ranks_;
  std::function<int(int)> node_of_;
  std::unique_ptr<ugni::Domain> domain_;
  std::vector<std::unique_ptr<RankState>> ranks_state_;
  std::uint64_t next_req_id_ = 1;

  // Registry rows, bound at construction.
  ugni::ClientCounters n_;
  trace::Counter* c_sends_e0_ = nullptr;
  trace::Counter* c_sends_e1_ = nullptr;
  trace::Counter* c_sends_rndv_ = nullptr;
  trace::Counter* c_unexpected_ = nullptr;
  // uDREG-style registration cache (paper §IV-B discusses why CHARM++ can
  // beat this approach).
  trace::Counter* c_udreg_hits_ = nullptr;
  trace::Counter* c_udreg_misses_ = nullptr;
  trace::Counter* c_udreg_evictions_ = nullptr;
};

}  // namespace ugnirt::mpilite
