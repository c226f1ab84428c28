#include "ugni/msgq.hpp"

#include <cassert>
#include <cstring>

#include "trace/events.hpp"

namespace ugnirt::ugni {

namespace {

/// Extra per-message protocol cost of the shared-queue path over SMSG:
/// remote atomic slot claim + queue descriptor handling.
constexpr SimTime kMsgqExtraNs = 650;

/// Wire overhead per MSGQ message.
constexpr std::uint32_t kMsgqSysHeader = 32;

sim::Context& ctx() {
  sim::Context* c = sim::current();
  assert(c && "MSGQ calls must run inside a simulated PE context");
  return *c;
}

}  // namespace

gni_return_t GNI_MsgqInit(gni_nic_handle_t nic, std::uint32_t pool_bytes,
                          gni_msgq_handle_t* msgq_out) {
  if (!nic || !msgq_out || pool_bytes < 1024) return GNI_RC_INVALID_PARAM;
  if (nic->msgq()) return GNI_RC_INVALID_STATE;
  sim::Context& c = ctx();
  // The shared pool is registered once; this is the whole memory story:
  // one pool per NIC regardless of peer count.
  c.charge(nic->domain()->config().reg_cost(pool_bytes));
  nic->set_msgq(new Msgq(nic, pool_bytes));
  *msgq_out = nic->msgq();
  return GNI_RC_SUCCESS;
}

gni_return_t GNI_MsgqSend(gni_nic_handle_t nic, std::int32_t remote_inst,
                          const void* header, std::uint32_t header_len,
                          const void* data, std::uint32_t data_len,
                          std::uint8_t tag) {
  if (!nic) return GNI_RC_INVALID_PARAM;
  if ((header_len > 0 && !header) || (data_len > 0 && !data)) {
    return GNI_RC_INVALID_PARAM;
  }
  Domain* dom = nic->domain();
  Nic* remote = dom->nic_by_inst(remote_inst);
  if (!remote || !remote->msgq()) return GNI_RC_INVALID_STATE;
  Msgq* q = remote->msgq();

  const std::uint32_t total = header_len + data_len;
  if (total + kMsgqSysHeader > q->pool_bytes_) return GNI_RC_SIZE_ERROR;
  if (q->used_bytes_ + total + kMsgqSysHeader > q->pool_bytes_) {
    return GNI_RC_NOT_DONE;  // receiver must drain first
  }

  sim::Context& c = ctx();
  gemini::TransferRequest req;
  req.mech = gemini::Mechanism::kSmsg;
  req.initiator_node = nic->node();
  req.remote_node = remote->node();
  req.bytes = total + kMsgqSysHeader;
  req.issue = c.now();
  gemini::TransferTimes t = dom->network().transfer(req);
  c.wait_until(t.cpu_done);
  c.charge(kMsgqExtraNs);  // slot claim + descriptor write

  // The shared queue serializes concurrent enqueues from different peers.
  SimTime arrive = std::max(t.data_arrival, q->enqueue_free_) + kMsgqExtraNs;
  q->enqueue_free_ = arrive;

  Msgq::Msg msg;
  std::uint8_t* bytes = msg.bytes.resize(total);
  if (header_len) std::memcpy(bytes, header, header_len);
  if (data_len) std::memcpy(bytes + header_len, data, data_len);
  msg.tag = tag;
  msg.source = nic->inst_id();
  msg.at = arrive;
  q->used_bytes_ += total + kMsgqSysHeader;
  q->rx_.push_back(std::move(msg));
  if (NicClient* client = remote->client()) {
    dom->scheduler().schedule_at(arrive,
                                 [client, arrive] { client->nic_wake(arrive); });
  }
  if (trace::enabled()) {
    trace::emit(trace::Ev::kMsgqSend, req.issue, arrive - req.issue,
                remote_inst, total);
  }
  return GNI_RC_SUCCESS;
}

gni_return_t GNI_MsgqProgress(gni_msgq_handle_t msgq, void** data_out,
                              std::uint32_t* len_out, std::uint8_t* tag_out,
                              std::int32_t* source_out) {
  if (!msgq || !data_out || !len_out || !tag_out || !source_out) {
    return GNI_RC_INVALID_PARAM;
  }
  sim::Context& c = ctx();
  const auto& mc = msgq->nic_->domain()->config();
  c.charge(mc.cq_poll_ns);
  if (msgq->rx_.empty() || msgq->rx_.front().at > c.now()) {
    return GNI_RC_NOT_DONE;
  }
  c.charge(mc.cq_event_ns);
  Msgq::Msg& front = msgq->rx_.front();
  msgq->last_delivered_ = std::move(front.bytes);
  *data_out = msgq->last_delivered_.data();
  *len_out = msgq->last_delivered_.size();
  *tag_out = front.tag;
  *source_out = front.source;
  msgq->used_bytes_ -= msgq->last_delivered_.size() + kMsgqSysHeader;
  msgq->rx_.pop_front();
  return GNI_RC_SUCCESS;
}

}  // namespace ugnirt::ugni
