// Migratable chare arrays.
//
// CHARM++ applications "consist of C++ objects organized into indexed
// collections"; the runtime "automatically maps and balances these objects
// to processors" (paper §III-A).  This module provides the 1-D indexed
// collection: elements live on PEs, asynchronous method invocations are
// routed by a location map, and elements can migrate between PEs under a
// load balancer, paying a modeled transfer cost for their packed state.
//
// Simulation shortcut (documented in DESIGN.md): the location map is
// replicated and updated synchronously at migration points rather than via
// home-PE forwarding — migrations only happen at load-balancing barriers in
// the paper's applications, where the real runtime also reaches a globally
// consistent view.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "charm/charm.hpp"

namespace ugnirt::charm {

/// Base class for array elements.
class ArrayElement {
 public:
  virtual ~ArrayElement() = default;

  /// Asynchronous method invocation entry point.
  virtual void receive(int method, const void* payload,
                       std::uint32_t bytes) = 0;

  /// Size of the element's migratable state in bytes (charged when the
  /// element moves during load balancing).
  virtual std::uint32_t pack_size() const { return 1024; }

  int index() const { return index_; }

 private:
  friend class ArrayManager;
  int index_ = -1;
};

/// One indexed collection of migratable elements.
class ArrayManager {
 public:
  using Factory = std::function<std::unique_ptr<ArrayElement>(int idx)>;

  /// Create the array with `n` elements placed block-wise across PEs.
  /// Must be constructed before machine().run(); elements are created
  /// lazily on first use of each PE.
  ArrayManager(Charm& charm, int n, Factory factory);

  int size() const { return n_; }
  int location_of(int idx) const {
    return location_[static_cast<std::size_t>(idx)];
  }

  /// Asynchronously invoke `method` on element `idx` with a copy of
  /// `payload`.  Callable from any PE handler context.
  void invoke(int idx, int method, const void* payload, std::uint32_t bytes);

  /// Invoke `method` on element `idx` with a `bytes`-byte payload that
  /// `fill(void* payload)` writes in place, in the message it travels in,
  /// so it is written once.  Bytes `fill` leaves alone are sent unwritten.
  template <class Fill>
  void invoke_with(int idx, int method, std::uint32_t bytes, Fill&& fill) {
    void* payload = nullptr;
    void* msg = new_invocation(idx, method, bytes, &payload);
    fill(payload);
    send_invocation(idx, msg);
  }

  /// Invoke on every element (one message per element).
  void invoke_all(int method, const void* payload, std::uint32_t bytes);

  /// Measured load (charged app-ns) per element since the last reset.
  const std::vector<double>& measured_load() const { return load_; }
  void reset_load();

  /// Apply a new element->PE assignment.  Must be called at a global
  /// synchronization point (no invocations in flight for this array).
  /// Charges each moving element's pack_size transfer to the simulation
  /// clock via per-PE contexts and returns the number of migrations.
  int migrate_to(const std::vector<int>& new_location);

  /// Direct element access for local setup/inspection in drivers.
  ArrayElement* element(int idx) {
    return elements_[static_cast<std::size_t>(idx)].get();
  }

 private:
  /// An addressed message for `bytes` of payload; `*payload` receives
  /// where they go.
  void* new_invocation(int idx, int method, std::uint32_t bytes,
                       void** payload);
  void send_invocation(int idx, void* msg);
  void deliver(int idx, int method, const void* payload, std::uint32_t bytes);

  Charm* charm_;
  int n_;
  int handler_ = -1;
  std::vector<std::unique_ptr<ArrayElement>> elements_;
  std::vector<int> location_;
  std::vector<double> load_;  // app-ns per element
};

}  // namespace ugnirt::charm
