// The MPI-based LRTS machine layer — the paper's baseline.
//
// Converse runs on (simulated Cray) MPI exactly as the pre-Gemini CHARM++
// port did:
//   * LrtsSyncSend -> MPI_Isend of the CHARM++ buffer (tagged); eager sends
//     copy into MPI's internal space, rendezvous sends pin the buffer until
//     the ACK (the extra copies / registration the paper §I blames).
//   * LrtsNetworkEngine -> MPI_Iprobe(ANY_SOURCE) loop; every probe hit
//     mallocs a fresh CHARM++ buffer and calls *blocking* MPI_Recv into it.
//     For rendezvous messages that receive stalls the progress engine for
//     the whole transfer — the behavior the paper observes makes kNeighbor
//     on MPI twice as slow (§V-B).
#pragma once

#include <memory>
#include <vector>

#include "converse/machine.hpp"
#include "mpilite/mpilite.hpp"

namespace ugnirt::lrts {

class MpiLayer final : public converse::MachineLayer {
 public:
  MpiLayer() = default;
  ~MpiLayer() override;

  const char* name() const override { return "MPI"; }

  void init_pe(converse::Pe& pe) override;
  void* alloc(sim::Context& ctx, converse::Pe& pe, std::size_t bytes) override;
  void free_msg(sim::Context& ctx, converse::Pe& pe, void* msg) override;
  void submit(sim::Context& ctx, converse::Pe& src, int dest_pe,
              converse::MsgView msg,
              const converse::SendOptions& opts) override;
  std::uint32_t recommended_batch_bytes(converse::Pe& src,
                                        int dest_pe) const override;
  void advance(sim::Context& ctx, converse::Pe& pe) override;
  bool has_backlog(const converse::Pe& pe) const override;

  mpilite::MpiComm* comm() { return comm_.get(); }

 private:
  struct PeState;
  PeState& state(converse::Pe& pe);
  void ensure_comm(converse::Machine& m);

  converse::Machine* machine_ = nullptr;
  std::unique_ptr<mpilite::MpiComm> comm_;
};

}  // namespace ugnirt::lrts
