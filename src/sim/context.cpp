#include "sim/context.hpp"

#include <cassert>

#include "util/log.hpp"

namespace ugnirt::sim {

namespace detail {
constinit thread_local Context* t_current = nullptr;
}  // namespace detail

namespace {

bool log_context(long long* t_ns, int* pe) {
  const Context* c = current();
  if (!c) return false;
  *t_ns = static_cast<long long>(c->now());
  *pe = c->pe();
  return true;
}

// Wire the logger's time/PE prefix to the calling thread's context once,
// when this translation unit is loaded.
struct LogContextInstaller {
  LogContextInstaller() { set_log_context_provider(&log_context); }
} g_log_context_installer;
}  // namespace

ScopedContext::ScopedContext(Context& ctx) : prev_(detail::t_current) {
  detail::t_current = &ctx;
}

ScopedContext::~ScopedContext() { detail::t_current = prev_; }

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
