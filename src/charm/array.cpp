#include "charm/array.hpp"

#include <cstring>

namespace ugnirt::charm {

using converse::CmiAlloc;
using converse::CmiFree;
using converse::CmiSetHandler;
using converse::CmiSyncSendAndFree;
using converse::kCmiHeaderBytes;
using converse::msg_payload;

namespace {

struct ArrayMsgHead {
  std::int32_t idx;
  std::int32_t method;
  std::uint32_t bytes;
};

}  // namespace

ArrayManager::ArrayManager(Charm& charm, int n, Factory factory)
    : charm_(&charm), n_(n) {
  elements_.resize(static_cast<std::size_t>(n));
  location_.resize(static_cast<std::size_t>(n));
  load_.assign(static_cast<std::size_t>(n), 0.0);
  const int pes = charm_->machine().num_pes();
  // Block placement: idx -> pe, balanced remainders.
  for (int i = 0; i < n; ++i) {
    location_[static_cast<std::size_t>(i)] =
        static_cast<int>((static_cast<std::int64_t>(i) * pes) / n);
    elements_[static_cast<std::size_t>(i)] = factory(i);
    elements_[static_cast<std::size_t>(i)]->index_ = i;
  }
  handler_ = charm_->machine().register_handler([this](void* msg) {
    const auto* head = msg_payload<ArrayMsgHead>(msg);
    const void* payload =
        reinterpret_cast<const std::uint8_t*>(head) + sizeof(ArrayMsgHead);
    deliver(head->idx, head->method, payload, head->bytes);
    CmiFree(msg);
  });
}

void ArrayManager::invoke(int idx, int method, const void* payload,
                          std::uint32_t bytes) {
  invoke_with(idx, method, bytes, [payload, bytes](void* dst) {
    if (bytes) std::memcpy(dst, payload, bytes);
  });
}

void* ArrayManager::new_invocation(int idx, int method, std::uint32_t bytes,
                                   void** payload) {
  assert(idx >= 0 && idx < n_);
  void* msg = CmiAlloc(static_cast<std::uint32_t>(
      kCmiHeaderBytes + sizeof(ArrayMsgHead) + bytes));
  auto* head = msg_payload<ArrayMsgHead>(msg);
  head->idx = idx;
  head->method = method;
  head->bytes = bytes;
  *payload = reinterpret_cast<std::uint8_t*>(head) + sizeof(ArrayMsgHead);
  return msg;
}

void ArrayManager::send_invocation(int idx, void* msg) {
  CmiSetHandler(msg, handler_);
  CmiSyncSendAndFree(location_[static_cast<std::size_t>(idx)],
                     converse::header_of(msg)->size, msg);
}

void ArrayManager::invoke_all(int method, const void* payload,
                              std::uint32_t bytes) {
  for (int i = 0; i < n_; ++i) invoke(i, method, payload, bytes);
}

void ArrayManager::deliver(int idx, int method, const void* payload,
                           std::uint32_t bytes) {
  ArrayElement* e = elements_[static_cast<std::size_t>(idx)].get();
  assert(e);
  assert(location_[static_cast<std::size_t>(idx)] ==
             converse::CmiMyPe() &&
         "array message delivered to a stale location");
  sim::Context& ctx = charm_->machine().current_pe().ctx();
  SimTime before = ctx.app_total();
  e->receive(method, payload, bytes);
  load_[static_cast<std::size_t>(idx)] +=
      static_cast<double>(ctx.app_total() - before);
}

void ArrayManager::reset_load() {
  load_.assign(static_cast<std::size_t>(n_), 0.0);
}

int ArrayManager::migrate_to(const std::vector<int>& new_location) {
  assert(static_cast<int>(new_location.size()) == n_);
  converse::Machine& m = charm_->machine();
  int moves = 0;
  // Charge each source PE the packing + send cost and each destination the
  // receive cost; advance per-PE availability so the next application step
  // starts after the migration traffic.
  const auto& mc = m.options().mc;
  for (int i = 0; i < n_; ++i) {
    int from = location_[static_cast<std::size_t>(i)];
    int to = new_location[static_cast<std::size_t>(i)];
    if (from == to) continue;
    ++moves;
    std::uint32_t bytes = elements_[static_cast<std::size_t>(i)]->pack_size();
    gemini::TransferRequest req;
    req.mech = bytes >= mc.rdma_threshold ? gemini::Mechanism::kBtePut
                                          : gemini::Mechanism::kFmaPut;
    req.initiator_node = m.node_of_pe(from);
    req.remote_node = m.node_of_pe(to);
    req.bytes = bytes;
    req.issue = m.pe(from).ctx().now();
    gemini::TransferTimes t = m.network().transfer(req);
    m.pe(from).ctx().wait_until(t.cpu_done);
    m.pe(to).ctx().wait_until(t.data_arrival);
    location_[static_cast<std::size_t>(i)] = to;
  }
  return moves;
}

}  // namespace ugnirt::charm
