#include "sim/context.hpp"

#include <cassert>

#include "util/log.hpp"

namespace ugnirt::sim {

namespace {
Context* g_current = nullptr;

bool log_context(long long* t_ns, int* pe) {
  if (!g_current) return false;
  *t_ns = static_cast<long long>(g_current->now());
  *pe = g_current->pe();
  return true;
}

// Wire the logger's time/PE prefix to the active simulation context as
// soon as this translation unit is loaded.
struct LogContextInstaller {
  LogContextInstaller() { set_log_context_provider(&log_context); }
} g_log_context_installer;
}  // namespace

Context* current() { return g_current; }

ScopedContext::ScopedContext(Context& ctx) : prev_(g_current) {
  g_current = &ctx;
}

ScopedContext::~ScopedContext() { g_current = prev_; }

void Context::charge(SimTime ns) {
  assert(ns >= 0);
  cursor_ += ns;
  overhead_total_ += ns;
}

void Context::wait_until(SimTime t) {
  if (t > cursor_) {
    overhead_total_ += t - cursor_;
    cursor_ = t;
  }
}

}  // namespace ugnirt::sim
