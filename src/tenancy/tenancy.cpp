#include "tenancy/tenancy.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "flowcontrol/flowcontrol.hpp"
#include "util/rng.hpp"

namespace ugnirt::tenancy {

bool placement_from_string(const std::string& s, Placement* out) {
  if (s == "compact") {
    *out = Placement::kCompact;
  } else if (s == "scatter") {
    *out = Placement::kScatter;
  } else if (s == "random") {
    *out = Placement::kRandom;
  } else {
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// JobManager
// ---------------------------------------------------------------------------

JobManager::JobManager(converse::Machine& m, const TenancyConfig& cfg)
    : m_(&m), cfg_(cfg) {
  // The one rule for a junk placement: placement_ keeps kCompact.
  placement_from_string(cfg_.placement, &placement_);
  job_of_pe_.assign(static_cast<std::size_t>(m.num_pes()), -1);
  rank_of_pe_.assign(static_cast<std::size_t>(m.num_pes()), -1);
}

JobManager::~JobManager() {
  if (!placed_) return;
  // The totals die with the manager: publish them so a machine that
  // outlives it (a trace session absorbs its registry at teardown) still
  // reports them.
  publish_link_metrics();
  gemini::Network& net = m_->network();
  assert(net.link_observer() == this &&
         "link observers are removed in the reverse order of installation");
  net.set_link_observer(next_observer_);
}

JobId JobManager::add_job(JobSpec spec) {
  assert(!placed_ && "add_job after place()");
  const JobId id = static_cast<JobId>(jobs_.size());
  jobs_.emplace_back(id, std::move(spec));
  return id;
}

void JobManager::place() {
  assert(!placed_ && "place() is one-shot");
  assert(!jobs_.empty() && "place() with no jobs");
  int total = 0;
  for (const Job& j : jobs_) total += j.size();
  assert(total <= m_->num_pes() && "jobs oversubscribe the machine");
  (void)total;
  assign_pes();
  apply_qos();
  install_link_observer();
  placed_ = true;
}

void JobManager::assign_pes() {
  const int n = m_->num_pes();
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  switch (placement_) {
    case Placement::kCompact:
      // Contiguous slabs in job order: the friendly allocation.
      break;
    case Placement::kScatter: {
      // Round-robin deal: pe 0 -> job 0, pe 1 -> job 1, ... wrapping, so
      // every job is striped across the whole machine.  Realized by
      // permuting the id space so slab-slicing below lands the stripes.
      std::vector<int> striped;
      striped.reserve(order.size());
      std::vector<std::vector<int>> per_job(jobs_.size());
      std::size_t next = 0;
      std::vector<int> need(jobs_.size());
      for (std::size_t j = 0; j < jobs_.size(); ++j) need[j] = jobs_[j].size();
      for (int pe = 0; pe < n; ++pe) {
        // The next job (cyclic) still short of PEs takes this id.
        std::size_t tried = 0;
        while (tried < jobs_.size() && need[next] == 0) {
          next = (next + 1) % jobs_.size();
          ++tried;
        }
        if (tried == jobs_.size()) break;  // all jobs full
        per_job[next].push_back(pe);
        --need[next];
        next = (next + 1) % jobs_.size();
      }
      striped.clear();
      for (const auto& v : per_job) striped.insert(striped.end(), v.begin(), v.end());
      // Unassigned ids (machine bigger than the job sum) go last.
      for (int pe = 0; pe < n; ++pe) {
        bool taken = false;
        for (const auto& v : per_job) {
          if (std::binary_search(v.begin(), v.end(), pe)) {
            taken = true;
            break;
          }
        }
        if (!taken) striped.push_back(pe);
      }
      order = std::move(striped);
      break;
    }
    case Placement::kRandom: {
      // Seeded Fisher-Yates: the fragmented allocation of a busy
      // scheduler.  Derived from the machine seed so one knob reseeds the
      // whole run.
      Rng rng(m_->options().seed ^ 0x7e9a'9c1e'5eed'0001ULL);
      for (std::size_t i = order.size(); i > 1; --i) {
        const std::size_t j = rng.next_below(static_cast<std::uint32_t>(i));
        std::swap(order[i - 1], order[j]);
      }
      break;
    }
  }
  std::size_t cursor = 0;
  for (Job& job : jobs_) {
    job.pes_.assign(order.begin() + static_cast<std::ptrdiff_t>(cursor),
                    order.begin() +
                        static_cast<std::ptrdiff_t>(cursor + job.size()));
    cursor += static_cast<std::size_t>(job.size());
    // Ascending global ids: job-local rank order is deterministic and
    // placement-independent.
    std::sort(job.pes_.begin(), job.pes_.end());
    for (std::size_t r = 0; r < job.pes_.size(); ++r) {
      job_of_pe_[static_cast<std::size_t>(job.pes_[r])] =
          static_cast<std::int16_t>(job.id());
      rank_of_pe_[static_cast<std::size_t>(job.pes_[r])] =
          static_cast<int>(r);
    }
  }
}

// Class floors only raise the governor's AIMD range, ceilings only lower it.
static_assert(kQosLatencyFloor >= flowcontrol::kWindowMin &&
              kQosBulkCeiling <= flowcontrol::kWindowMax &&
              kQosScavengerCeiling <= flowcontrol::kWindowMax);

void JobManager::apply_qos() {
  if (!cfg_.qos_enable) return;
  flowcontrol::InjectionGovernor* gov = m_->layer().governor();
  if (!gov) return;  // flow control off: nothing to bound
  for (const Job& job : jobs_) {
    flowcontrol::QosParams qp;
    switch (job.qos()) {
      case QosClass::kLatency:
        // Floor above the AIMD minimum so hotspot backoff (driven by the
        // aggressors' own congestion) cannot starve the victim's GETs;
        // ceiling and drain stay at the config-wide defaults.
        qp.window_floor = kQosLatencyFloor;
        break;
      case QosClass::kBulk:
        qp.window_ceiling = kQosBulkCeiling;
        qp.drain_quota = kQosBulkQuota;
        break;
      case QosClass::kScavenger:
        qp.window_ceiling = kQosScavengerCeiling;
        qp.drain_quota = kQosScavengerQuota;
        break;
    }
    for (int pe : job.pes()) gov->set_pe_qos(pe, qp);
  }
}

void JobManager::install_link_observer() {
  // Per-node job map: a node carries its job's id only when all its PEs
  // belong to one job — mixed nodes stay unattributed rather than
  // guessing.
  const int nodes = m_->options().nodes();
  job_of_node_.assign(static_cast<std::size_t>(nodes), -1);
  const int ppn = m_->options().effective_pes_per_node();
  for (int node = 0; node < nodes; ++node) {
    std::int16_t job = -2;  // unset
    for (int p = node * ppn; p < (node + 1) * ppn && p < m_->num_pes(); ++p) {
      const std::int16_t j = job_of_pe_[static_cast<std::size_t>(p)];
      if (job == -2) {
        job = j;
      } else if (job != j) {
        job = -1;  // mixed node
        break;
      }
    }
    job_of_node_[static_cast<std::size_t>(node)] = job == -2 ? -1 : job;
  }
  job_links_.assign(jobs_.size(), LinkTotals{});
  gemini::Network& net = m_->network();
  next_observer_ = net.link_observer();
  net.set_link_observer(this);
}

void JobManager::on_link_reserve(std::size_t link, int initiator_node,
                                 SimTime wait_ns, SimTime duration_ns,
                                 SimTime earliest) {
  // Rendezvous GETs initiate at the receiver, which for intra-job
  // traffic is the same job either way.
  const std::int16_t job =
      job_of_node_[static_cast<std::size_t>(initiator_node)];
  if (job >= 0) {
    LinkTotals& t = job_links_[static_cast<std::size_t>(job)];
    ++t.reservations;
    t.wait_ns += wait_ns;
  }
  if (next_observer_) {
    next_observer_->on_link_reserve(link, initiator_node, wait_ns,
                                    duration_ns, earliest);
  }
}

std::string JobManager::metric_name(JobId id, const char* suffix) {
  return "job." + std::to_string(id) + "." + suffix;
}

trace::Histogram& JobManager::delivery_hist(JobId id) {
  return m_->metrics().histogram(metric_name(id, "delivery_us"));
}

void JobManager::collect_metrics() {
  for (const Job& job : jobs_) {
    m_->metrics()
        .gauge(metric_name(job.id(), "pes"))
        .set(static_cast<double>(job.size()));
    std::uint64_t executed = 0;
    for (int pe : job.pes()) executed += m_->pe(pe).msgs_executed();
    m_->metrics().counter(metric_name(job.id(), "msgs_executed")).set(executed);
  }
  publish_link_metrics();
}

void JobManager::publish_link_metrics() {
  for (std::size_t j = 0; j < job_links_.size(); ++j) {
    const JobId id = static_cast<JobId>(j);
    m_->metrics()
        .counter(metric_name(id, "link_reservations"))
        .set(job_links_[j].reservations);
    m_->metrics()
        .counter(metric_name(id, "link_wait_ns"))
        .set(static_cast<std::uint64_t>(job_links_[j].wait_ns));
  }
}

}  // namespace ugnirt::tenancy
