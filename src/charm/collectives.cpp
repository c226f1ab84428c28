#include "charm/collectives.hpp"

#include <cassert>
#include <cstring>

namespace ugnirt::charm {

using converse::CmiAlloc;
using converse::CmiFree;
using converse::CmiMyPe;
using converse::CmiSetHandler;
using converse::CmiSyncSendAndFree;
using converse::kCmiHeaderBytes;
using converse::msg_payload;
using converse::payload_of;
using converse::read_payload;

namespace {

struct BarrierReleaseMsg {
  std::int32_t barrier_id;
};

struct GatherMsg {
  std::int32_t gather_id;
  std::int32_t src_pe;
  std::uint32_t len;
  // blob bytes follow
};

struct SectionMsg {
  std::int32_t section_id;
  std::int32_t handler_id;
  std::int32_t vrank;  // position of the receiving PE within the section
  std::uint32_t len;
  // payload bytes follow
};

}  // namespace

Collectives::Collectives(Charm& charm) : charm_(&charm) {
  barrier_release_handler_ =
      charm_->machine().register_handler([this](void* msg) {
        const auto bm = read_payload<BarrierReleaseMsg>(msg);
        barriers_[static_cast<std::size_t>(bm.barrier_id)].on_release();
        CmiFree(msg);
      });

  gather_handler_ = charm_->machine().register_handler([this](void* msg) {
    const auto gm = read_payload<GatherMsg>(msg);
    Gather& g = gathers_[static_cast<std::size_t>(gm.gather_id)];
    const auto* bytes =
        static_cast<const std::uint8_t*>(payload_of(msg)) + sizeof(GatherMsg);
    g.blobs[static_cast<std::size_t>(gm.src_pe)].assign(bytes,
                                                        bytes + gm.len);
    CmiFree(msg);
    if (++g.received == charm_->machine().num_pes()) {
      auto blobs = std::move(g.blobs);
      g.blobs.assign(static_cast<std::size_t>(charm_->machine().num_pes()),
                     {});
      g.received = 0;
      g.cb(blobs);
    }
  });

  section_handler_ = charm_->machine().register_handler(
      [this](void* msg) { section_deliver(msg); });
}

// ---------------------------------------------------------------------------
// Barrier: reduction up, broadcast release down.
// ---------------------------------------------------------------------------

int Collectives::register_barrier(std::function<void()> on_release) {
  Barrier b;
  b.on_release = std::move(on_release);
  int id = static_cast<int>(barriers_.size());
  b.reduction_id = charm_->register_reduction_sum([this, id](std::uint64_t) {
    // Completed on PE 0: release everyone (including PE 0) via broadcast.
    std::uint32_t total = static_cast<std::uint32_t>(
        kCmiHeaderBytes + sizeof(BarrierReleaseMsg));
    void* msg = CmiAlloc(total);
    msg_payload<BarrierReleaseMsg>(msg)->barrier_id = id;
    CmiSetHandler(msg, barrier_release_handler_);
    converse::CmiSyncBroadcastAllAndFree(total, msg);
  });
  barriers_.push_back(std::move(b));
  return id;
}

void Collectives::arrive(int barrier_id) {
  charm_->contribute(
      barriers_[static_cast<std::size_t>(barrier_id)].reduction_id, 1);
}

// ---------------------------------------------------------------------------
// Gather
// ---------------------------------------------------------------------------

int Collectives::register_gather(
    std::function<void(const std::vector<std::vector<std::uint8_t>>&)>
        at_root) {
  Gather g;
  g.cb = std::move(at_root);
  g.blobs.assign(static_cast<std::size_t>(charm_->machine().num_pes()), {});
  gathers_.push_back(std::move(g));
  return static_cast<int>(gathers_.size()) - 1;
}

void Collectives::contribute_blob(int gather_id, const void* bytes,
                                  std::uint32_t len) {
  std::uint32_t total = static_cast<std::uint32_t>(
      kCmiHeaderBytes + sizeof(GatherMsg) + len);
  void* msg = CmiAlloc(total);
  auto* gm = msg_payload<GatherMsg>(msg);
  gm->gather_id = gather_id;
  gm->src_pe = CmiMyPe();
  gm->len = len;
  if (len) {
    std::memcpy(reinterpret_cast<std::uint8_t*>(gm) + sizeof(GatherMsg),
                bytes, len);
  }
  CmiSetHandler(msg, gather_handler_);
  CmiSyncSendAndFree(0, total, msg);
}

// ---------------------------------------------------------------------------
// Section multicast
// ---------------------------------------------------------------------------

int Collectives::create_section(std::vector<int> pes) {
  assert(!pes.empty());
  sections_.push_back(std::move(pes));
  return static_cast<int>(sections_.size()) - 1;
}

int Collectives::register_section_handler(
    std::function<void(const void* payload, std::uint32_t len)> fn) {
  section_handlers_.push_back(std::move(fn));
  return static_cast<int>(section_handlers_.size()) - 1;
}

void Collectives::multicast(int section_id, int handler_id,
                            const void* payload, std::uint32_t len) {
  const auto& pes = sections_[static_cast<std::size_t>(section_id)];
  // Send to the section root (vrank 0); it forwards down the section tree.
  std::uint32_t total = static_cast<std::uint32_t>(
      kCmiHeaderBytes + sizeof(SectionMsg) + len);
  void* msg = CmiAlloc(total);
  auto* sm = msg_payload<SectionMsg>(msg);
  sm->section_id = section_id;
  sm->handler_id = handler_id;
  sm->vrank = 0;
  sm->len = len;
  if (len) {
    std::memcpy(reinterpret_cast<std::uint8_t*>(sm) + sizeof(SectionMsg),
                payload, len);
  }
  CmiSetHandler(msg, section_handler_);
  CmiSyncSendAndFree(pes[0], total, msg);
}

void Collectives::section_deliver(void* msg) {
  const auto sm = read_payload<SectionMsg>(msg);
  const auto& pes = sections_[static_cast<std::size_t>(sm.section_id)];
  const void* payload =
      static_cast<const std::uint8_t*>(payload_of(msg)) + sizeof(SectionMsg);
  const std::uint32_t total = converse::header_of(msg)->size;

  // Forward to this member's children in the section tree (fanout 4).
  for (int k = 1; k <= converse::Machine::kTreeFanout; ++k) {
    int vchild = sm.vrank * converse::Machine::kTreeFanout + k;
    if (vchild >= static_cast<int>(pes.size())) break;
    void* copy = CmiAlloc(total);
    std::memcpy(copy, msg, total);
    converse::header_of(copy)->alloc_pe = CmiMyPe();
    msg_payload<SectionMsg>(copy)->vrank = vchild;
    CmiSetHandler(copy, section_handler_);
    CmiSyncSendAndFree(pes[static_cast<std::size_t>(vchild)], total, copy);
  }
  section_handlers_[static_cast<std::size_t>(sm.handler_id)](payload,
                                                             sm.len);
  CmiFree(msg);
}

}  // namespace ugnirt::charm
