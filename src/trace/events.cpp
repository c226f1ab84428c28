#include "trace/events.hpp"

#include <ostream>

namespace ugnirt::trace {

const char* event_name(Ev type) {
  switch (type) {
    case Ev::kSmsgSend:
      return "smsg_send";
    case Ev::kSmsgRecv:
      return "smsg_recv";
    case Ev::kMsgqSend:
      return "msgq_send";
    case Ev::kRdvInit:
      return "rdv_init";
    case Ev::kRdvGet:
      return "rdv_get";
    case Ev::kRdvAck:
      return "rdv_ack";
    case Ev::kFmaPost:
      return "fma_post";
    case Ev::kBtePost:
      return "bte_post";
    case Ev::kPostDone:
      return "post_done";
    case Ev::kMemReg:
      return "mem_register";
    case Ev::kMemDereg:
      return "mem_deregister";
    case Ev::kPoolHit:
      return "pool_hit";
    case Ev::kPoolMiss:
      return "pool_miss";
    case Ev::kPoolExpand:
      return "pool_expand";
    case Ev::kPersistPut:
      return "persist_put";
    case Ev::kPxshmEnq:
      return "pxshm_enqueue";
    case Ev::kPxshmDeq:
      return "pxshm_dequeue";
    case Ev::kCreditStall:
      return "credit_stall";
    case Ev::kMsgExec:
      return "msg_exec";
    case Ev::kFaultInject:
      return "fault_inject";
    case Ev::kRetryBackoff:
      return "retry_backoff";
    case Ev::kFallback:
      return "fallback";
    case Ev::kCqRecover:
      return "cq_recover";
    case Ev::kAggFlush:
      return "agg_flush";
    case Ev::kCongestionSample:
      return "congestion_sample";
    case Ev::kInjectionStall:
      return "injection_stall";
  }
  return "unknown";
}

void EventRing::push(const Event& ev) {
  if (buf_.size() < capacity_) {
    buf_.push_back(ev);
    return;
  }
  buf_[head_] = ev;
  head_ = (head_ + 1) % buf_.size();
  ++dropped_;
}

void EventTracer::record(int pe, Ev type, SimTime t, SimTime dur, int peer,
                         std::uint32_t size) {
  auto it = rings_.find(pe);
  if (it == rings_.end()) {
    it = rings_.emplace(pe, EventRing(ring_capacity_)).first;
  }
  if (it->second.size() == it->second.capacity()) {
    // The push below evicts the oldest retained event; account the loss
    // against that event's kind.
    ++dropped_by_type_[static_cast<int>(it->second.at(0).type)];
  }
  Event ev;
  ev.t = t;
  ev.dur = dur;
  ev.peer = peer;
  ev.size = size;
  ev.type = type;
  it->second.push(ev);
  ++total_events_;
  ++type_counts_[static_cast<int>(type)];
}

std::uint64_t EventTracer::total_dropped() const {
  std::uint64_t n = 0;
  for (const auto& [pe, ring] : rings_) n += ring.dropped();
  return n;
}

const EventRing* EventTracer::ring(int pe) const {
  auto it = rings_.find(pe);
  return it == rings_.end() ? nullptr : &it->second;
}

void EventTracer::write_chrome_json(std::ostream& out) const {
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const auto& [pe, ring] : rings_) {
    // Thread-name metadata so Perfetto labels rows "pe 3" / "comm -1000".
    if (!first) out << ",";
    first = false;
    out << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":" << pe
        << ",\"args\":{\"name\":\"" << (pe < 0 ? "comm " : "pe ") << pe
        << "\"}}";
    for (std::size_t i = 0; i < ring.size(); ++i) {
      const Event& ev = ring.at(i);
      // trace_event timestamps are microseconds (double); ours are ns.
      out << ",{\"ph\":\"X\",\"name\":\"" << event_name(ev.type)
          << "\",\"cat\":\"proto\",\"pid\":0,\"tid\":" << pe
          << ",\"ts\":" << static_cast<double>(ev.t) / 1000.0
          << ",\"dur\":" << static_cast<double>(ev.dur) / 1000.0
          << ",\"args\":{\"peer\":" << ev.peer << ",\"size\":" << ev.size
          << "}}";
    }
  }
  out << "]}";
}

void EventTracer::write_csv(std::ostream& out) const {
  out << "pe,t_ns,dur_ns,event,peer,size\n";
  for (const auto& [pe, ring] : rings_) {
    for (std::size_t i = 0; i < ring.size(); ++i) {
      const Event& ev = ring.at(i);
      out << pe << ',' << ev.t << ',' << ev.dur << ','
          << event_name(ev.type) << ',' << ev.peer << ',' << ev.size << '\n';
    }
  }
}

namespace detail {
constinit thread_local EventTracer* t_tracer = nullptr;
}  // namespace detail

}  // namespace ugnirt::trace
