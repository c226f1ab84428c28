// Shared mempool -> metrics aggregation for the LRTS machine layers.
//
// Every layer that owns per-PE (or per-node) MemPools publishes the same
// job-wide "mempool.*" registry keys; the summation and the key names
// live here once so the uGNI and SMP layers cannot drift apart.
#pragma once

#include "mempool/mempool.hpp"
#include "trace/metrics.hpp"

namespace ugnirt::lrts {

/// The stats of every pool in a range of state holders exposing a `pool`
/// member (unique_ptr/raw pointer to a mempool::MemPool, null when the
/// pool is disabled), summed.  Holders themselves may be null (PE slots
/// not yet initialized).
template <typename Range>
mempool::MemPoolStats sum_pool_stats(const Range& holders) {
  mempool::MemPoolStats pool;
  for (const auto& h : holders) {
    if (!h || !h->pool) continue;
    const mempool::MemPoolStats& p = h->pool->stats();
    pool.allocs += p.allocs;
    pool.frees += p.frees;
    pool.expansions += p.expansions;
    pool.slab_bytes += p.slab_bytes;
    pool.outstanding += p.outstanding;
    pool.freelist_hits += p.freelist_hits;
    pool.bin_lookups += p.bin_lookups;
    pool.moves += p.moves;
  }
  return pool;
}

/// Publish the "mempool.*" registry entries over the pools of `holders`
/// (see sum_pool_stats).  `arena` is the layer's HostArena behind those
/// pools: its live and peak bytes are the host bytes of every payload,
/// independent of the system allocator.  `moves` has no row.
template <typename Range>
void collect_pool_metrics(trace::MetricsRegistry& reg,
                          const mempool::HostArena& arena,
                          const Range& holders) {
  const mempool::MemPoolStats pool = sum_pool_stats(holders);
  reg.counter("mempool.allocs").set(pool.allocs);
  reg.counter("mempool.frees").set(pool.frees);
  reg.counter("mempool.expansions").set(pool.expansions);
  reg.counter("mempool.freelist_hits").set(pool.freelist_hits);
  reg.counter("mempool.bin_lookups").set(pool.bin_lookups);
  reg.gauge("mempool.slab_bytes").set(static_cast<double>(pool.slab_bytes));
  reg.gauge("mempool.outstanding").set(static_cast<double>(pool.outstanding));
  reg.gauge("mempool.host_bytes").set(static_cast<double>(arena.live_bytes()));
  reg.gauge("mempool.host_bytes_peak")
      .set(static_cast<double>(arena.peak_bytes()));
}

}  // namespace ugnirt::lrts
