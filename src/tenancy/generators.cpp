#include "tenancy/generators.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "converse/message.hpp"
#include "util/rng.hpp"

namespace ugnirt::tenancy {

namespace {
inline SimTime now_ns() {
  return static_cast<SimTime>(converse::CmiWallTimer() * 1e9);
}
}  // namespace

struct TrafficGenerator::State {
  converse::Machine* m = nullptr;
  trace::Histogram* hist = nullptr;
  GeneratorOptions opts;
  std::vector<int> pes;      // job-local rank -> global PE
  std::vector<int> rank_of;  // global PE -> job-local rank (-1 outside)
  int n = 0;                 // job size
  int k = 0;                 // effective halo depth
  int io = 1;                // effective checkpoint IO ranks
  std::uint32_t total_bytes = 0;  // payload + Converse header
  int handler = -1;
  std::uint64_t received = 0;
  std::uint64_t expected = 0;
  std::vector<std::uint32_t> got;  // per-rank arrivals since last advance
  std::vector<int> iter;           // per-rank iterations already sent
  // Shuffle: per-rank seeded destination permutation (excludes self).
  std::vector<std::vector<int>> order;

  void send_to(int dest_rank) {
    void* msg = converse::CmiAlloc(total_bytes);
    const SimTime sent = now_ns();
    std::memcpy(converse::payload_of(msg), &sent, sizeof(sent));
    converse::CmiSetHandler(msg, handler);
    converse::CmiSyncSendAndFree(pes[static_cast<std::size_t>(dest_rank)],
                                 total_bytes, msg);
  }

  /// One iteration's worth of sends from rank `r`.
  void send_iteration(int r) {
    switch (opts.pattern) {
      case TrafficPattern::kKNeighborHalo:
        for (int d = 1; d <= k; ++d) {
          send_to((r + d) % n);
          send_to((r - d + n) % n);
        }
        break;
      case TrafficPattern::kAllToAllShuffle:
        for (int dest : order[static_cast<std::size_t>(r)]) send_to(dest);
        break;
      case TrafficPattern::kCheckpointBurst:
        // Driven start-fn-side (bursts separated by think time); nothing
        // is handler-driven.
        break;
    }
  }

  /// Arrivals a rank needs before advancing to its next iteration.
  std::uint32_t arrivals_per_iteration() const {
    switch (opts.pattern) {
      case TrafficPattern::kKNeighborHalo:
        return static_cast<std::uint32_t>(2 * k);
      case TrafficPattern::kAllToAllShuffle:
        return static_cast<std::uint32_t>(n - 1);
      case TrafficPattern::kCheckpointBurst:
        return 0;
    }
    return 0;
  }

  void on_receive(void* msg) {
    SimTime sent;
    std::memcpy(&sent, converse::payload_of(msg), sizeof(sent));
    hist->add(static_cast<double>(now_ns() - sent) / 1000.0);
    ++received;
    const int r = rank_of[static_cast<std::size_t>(converse::CmiMyPe())];
    const std::uint32_t quorum = arrivals_per_iteration();
    if (quorum > 0 && r >= 0) {
      // Count-based advance: any `quorum` arrivals release the next
      // iteration (per-pair FIFO keeps this deterministic even when a
      // fast neighbor runs ahead).
      std::uint32_t& g = got[static_cast<std::size_t>(r)];
      int& it = iter[static_cast<std::size_t>(r)];
      if (++g >= quorum && it + 1 < opts.iterations) {
        g -= quorum;
        ++it;
        send_iteration(r);
      }
    }
    converse::CmiFree(msg);
  }
};

TrafficGenerator::TrafficGenerator(JobManager& jobs, JobId job,
                                   GeneratorOptions opts)
    : jobs_(&jobs), job_(job), opts_(opts), state_(std::make_shared<State>()) {
  assert(jobs.placed() && "construct generators after JobManager::place()");
  State& st = *state_;
  st.m = &jobs.machine();
  st.opts = opts_;
  st.opts.iterations = std::max(st.opts.iterations, 1);
  st.opts.payload = std::max<std::uint32_t>(st.opts.payload, 16);
  st.pes = jobs.job(job).pes();
  st.n = static_cast<int>(st.pes.size());
  st.rank_of.assign(static_cast<std::size_t>(st.m->num_pes()), -1);
  for (std::size_t r = 0; r < st.pes.size(); ++r) {
    st.rank_of[static_cast<std::size_t>(st.pes[r])] = static_cast<int>(r);
  }
  st.k = std::clamp(st.opts.k, 0, st.n > 0 ? (st.n - 1) / 2 : 0);
  st.io = std::clamp(st.opts.io_ranks, 1, std::max(st.n, 1));
  st.total_bytes = st.opts.payload + converse::kCmiHeaderBytes;
  st.hist = &jobs.delivery_hist(job);
  st.got.assign(static_cast<std::size_t>(st.n), 0);
  st.iter.assign(static_cast<std::size_t>(st.n), 0);

  const std::uint64_t it = static_cast<std::uint64_t>(st.opts.iterations);
  switch (st.opts.pattern) {
    case TrafficPattern::kKNeighborHalo:
      st.expected = static_cast<std::uint64_t>(st.n) * 2 *
                    static_cast<std::uint64_t>(st.k) * it;
      break;
    case TrafficPattern::kAllToAllShuffle: {
      // Per-rank destination order: seeded Fisher-Yates so the storm's
      // hot spots move around deterministically.
      const std::uint64_t base =
          st.opts.seed != 0
              ? st.opts.seed
              : st.m->options().seed ^
                    (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(job_) + 1));
      st.order.resize(static_cast<std::size_t>(st.n));
      for (int r = 0; r < st.n; ++r) {
        auto& ord = st.order[static_cast<std::size_t>(r)];
        ord.reserve(static_cast<std::size_t>(st.n - 1));
        for (int d = 0; d < st.n; ++d) {
          if (d != r) ord.push_back(d);
        }
        Rng rng(SplitMix64(base ^ static_cast<std::uint64_t>(r)).next());
        for (std::size_t i = ord.size(); i > 1; --i) {
          std::swap(ord[i - 1], ord[rng.next_below(static_cast<std::uint32_t>(i))]);
        }
      }
      st.expected = static_cast<std::uint64_t>(st.n) *
                    static_cast<std::uint64_t>(st.n - 1) * it;
      break;
    }
    case TrafficPattern::kCheckpointBurst:
      // IO ranks (the first `io` job-local ranks) don't dump to
      // themselves; everyone else checkpoints every burst.
      st.expected = static_cast<std::uint64_t>(st.n - st.io) * it;
      break;
  }
}

void TrafficGenerator::launch() {
  std::shared_ptr<State> st = state_;
  st->handler =
      st->m->register_handler([st](void* msg) { st->on_receive(msg); });
  switch (st->opts.pattern) {
    case TrafficPattern::kKNeighborHalo:
    case TrafficPattern::kAllToAllShuffle:
      if (st->expected == 0) return;  // degenerate job (n too small)
      for (int r = 0; r < st->n; ++r) {
        st->m->start(st->pes[static_cast<std::size_t>(r)],
                     [st, r] { st->send_iteration(r); });
      }
      break;
    case TrafficPattern::kCheckpointBurst:
      for (int r = st->io; r < st->n; ++r) {
        const int target = r % st->io;
        st->m->start(st->pes[static_cast<std::size_t>(r)], [st, target] {
          for (int b = 0; b < st->opts.iterations; ++b) {
            if (b > 0) converse::CmiChargeWork(st->opts.burst_gap_ns);
            st->send_to(target);
          }
        });
      }
      break;
  }
}

std::uint64_t TrafficGenerator::expected_messages() const {
  return state_->expected;
}

std::uint64_t TrafficGenerator::received() const { return state_->received; }

}  // namespace ugnirt::tenancy
