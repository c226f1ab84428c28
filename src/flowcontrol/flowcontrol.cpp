#include "flowcontrol/flowcontrol.hpp"

#include <algorithm>
#include <string>

#include "sim/context.hpp"
#include "trace/events.hpp"
#include "util/stats.hpp"

namespace ugnirt::flowcontrol {

// ---------------------------------------------------------------------------
// CongestionEstimator
// ---------------------------------------------------------------------------

CongestionEstimator::CongestionEstimator(std::size_t num_links,
                                         std::size_t num_nodes)
    : link_load_(num_links, 0.0),
      node_load_(num_nodes, 0.0),
      last_sample_(num_links, 0) {}

void CongestionEstimator::on_link_reserve(std::size_t link,
                                          int initiator_node, SimTime wait_ns,
                                          SimTime duration_ns, SimTime now) {
  const double total =
      static_cast<double>(wait_ns) + static_cast<double>(duration_ns);
  const double sample =
      total > 0 ? static_cast<double>(wait_ns) / total : 0.0;
  double& ll = link_load_[link];
  ll += kEwmaAlpha * (sample - ll);
  double& nl = node_load_[static_cast<std::size_t>(initiator_node)];
  nl += kEwmaAlpha * (sample - nl);
  ++samples_;
  if (nl >= kHotThreshold) ++hot_samples_;
  if (trace::enabled()) {
    if (now - last_sample_[link] >= kSamplePeriodNs) {
      last_sample_[link] = now;
      // size carries the smoothed load in parts-per-million, peer the link.
      // Recorded for the PE whose post reserved the link; a reservation
      // made outside any PE records nothing.
      if (const sim::Context* c = sim::current()) {
        trace::emit(c->pe(), trace::Ev::kCongestionSample, now, 0,
                    static_cast<int>(link),
                    static_cast<std::uint32_t>(ll * 1e6));
      }
    } else {
      // Suppressed by the per-link sample period: record the drop so the
      // exported sample stream is never mistaken for the full load signal.
      trace::tracer()->note_rate_limited(trace::Ev::kCongestionSample);
    }
  }
}

void CongestionEstimator::collect_metrics(trace::MetricsRegistry& reg) const {
  reg.counter("flow.samples").set(samples_);
  reg.counter("flow.hot_samples").set(hot_samples_);
  double max_load = 0.0;
  std::uint64_t hot_links = 0;
  // Refilled on every collect, so collecting twice reads the same.
  RunningStat& loads = reg.stat("flow.link_load");
  loads = RunningStat{};
  for (double l : link_load_) {
    if (l <= 0.0) continue;  // untouched links skew the mean
    loads.add(l);
    max_load = std::max(max_load, l);
    if (l >= kHotThreshold) ++hot_links;
  }
  reg.gauge("flow.max_link_load").set(max_load);
  reg.gauge("flow.hot_links").set(static_cast<double>(hot_links));
}

// ---------------------------------------------------------------------------
// InjectionGovernor
// ---------------------------------------------------------------------------

InjectionGovernor::InjectionGovernor(const CongestionEstimator* est,
                                     int num_pes)
    : est_(est) {
  PeWindow w;
  w.cwnd = static_cast<double>(kWindowStart);
  w.floor = kWindowMin;
  w.ceiling = kWindowMax;
  pe_.assign(static_cast<std::size_t>(num_pes), w);
}

void InjectionGovernor::set_pe_qos(int pe, const QosParams& qos) {
  PeWindow& w = pe_[static_cast<std::size_t>(pe)];
  w.floor = qos.window_floor > 0 ? qos.window_floor : kWindowMin;
  w.ceiling = qos.window_ceiling > 0 ? qos.window_ceiling : kWindowMax;
  w.ceiling = std::max(w.ceiling, w.floor);
  w.drain_quota = qos.drain_quota;
  w.cwnd = std::clamp(w.cwnd, static_cast<double>(w.floor),
                      static_cast<double>(w.ceiling));
  ++qos_pes_;
}

bool InjectionGovernor::try_acquire(int pe) {
  PeWindow& w = pe_[static_cast<std::size_t>(pe)];
  if (w.outstanding >= static_cast<std::uint32_t>(w.cwnd)) {
    ++stalls_;
    return false;
  }
  ++w.outstanding;
  ++admits_;
  return true;
}

void InjectionGovernor::note_post(int pe) {
  ++pe_[static_cast<std::size_t>(pe)].outstanding;
  ++admits_;
}

void InjectionGovernor::on_complete(int pe, int node, SimTime /*now*/) {
  PeWindow& w = pe_[static_cast<std::size_t>(pe)];
  if (w.outstanding > 0) --w.outstanding;
  const double load = est_ ? est_->node_load(node) : 0.0;
  // AIMD inside the PE's effective bounds: [kWindowMin, kWindowMax] until
  // tenancy QoS narrows them via set_pe_qos.
  if (load >= kHotThreshold) {
    const double next = std::max(static_cast<double>(w.floor),
                                 w.cwnd * kAimdDecrease);
    if (next < w.cwnd) ++decreases_;
    w.cwnd = next;
  } else {
    // Classic AIMD: +increase per window's worth of completions.
    const double next =
        std::min(static_cast<double>(w.ceiling),
                 w.cwnd + kAimdIncrease / std::max(1.0, w.cwnd));
    if (next > w.cwnd) ++increases_;
    w.cwnd = next;
  }
}

std::uint32_t InjectionGovernor::eager_cap(std::uint32_t base,
                                           int node) const {
  if (!est_) return base;
  const double load = est_->node_load(node);
  if (load < kHotThreshold) return base;
  ++eager_shrinks_;
  std::uint32_t cap = base / 2;
  if (load >= 2 * kHotThreshold) cap = base / 4;
  return std::max<std::uint32_t>(cap, 128);
}

std::uint32_t InjectionGovernor::rdma_threshold(std::uint32_t base,
                                                int node) const {
  if (!est_) return base;
  if (est_->node_load(node) < kHotThreshold) return base;
  ++rdma_shifts_;
  return std::max<std::uint32_t>(base / 2, 1024);
}

void InjectionGovernor::collect_metrics(trace::MetricsRegistry& reg) const {
  reg.counter("flow.admits").set(admits_);
  reg.counter("flow.injection_stalls").set(stalls_);
  reg.counter("flow.window_increases").set(increases_);
  reg.counter("flow.window_decreases").set(decreases_);
  reg.counter("flow.eager_shrinks").set(eager_shrinks_);
  reg.counter("flow.rdma_shifts").set(rdma_shifts_);
  // Published only once tenancy installed QoS bounds, so stock metric
  // dumps stay byte-identical to pre-tenancy runs.
  if (qos_pes_ > 0) reg.counter("flow.qos_pes").set(qos_pes_);
  double sum = 0.0;
  double min_w = pe_.empty() ? 0.0 : pe_.front().cwnd;
  for (const PeWindow& w : pe_) {
    sum += w.cwnd;
    min_w = std::min(min_w, w.cwnd);
  }
  reg.gauge("flow.window_avg")
      .set(pe_.empty() ? 0.0 : sum / static_cast<double>(pe_.size()));
  reg.gauge("flow.window_min_seen").set(min_w);
}

}  // namespace ugnirt::flowcontrol
