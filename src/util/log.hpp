// Minimal leveled logger.  Off by default; enable with UGNIRT_LOG=debug
// (or trace/info/warn/error/off).  When the logging thread runs a simulated
// PE, messages are prefixed with its virtual time and PE id, e.g.
// `[ugnirt DEBUG t=123456ns pe=3] ...` — the context comes from a provider
// hook installed by the sim layer so util stays dependency-free.
#pragma once

#include <sstream>
#include <string>

namespace ugnirt {

enum class LogLevel {
  kTrace = 0,
  kDebug = 1,
  kInfo = 2,
  kWarn = 3,
  kError = 4,
  kOff = 5,
};

LogLevel log_threshold();
void log_message(LogLevel level, const std::string& msg);

inline bool log_enabled(LogLevel level) {
  return static_cast<int>(level) >= static_cast<int>(log_threshold());
}

/// Hook filling in (virtual time ns, pe id) from the calling thread's
/// simulation context; false when it has none.  The sim layer sets it once
/// at load, so every thread reads the same pointer.
using LogContextProvider = bool (*)(long long* t_ns, int* pe);
void set_log_context_provider(LogContextProvider provider);

}  // namespace ugnirt

#define UGNIRT_LOG(level, expr)                                \
  do {                                                         \
    if (::ugnirt::log_enabled(level)) {                        \
      std::ostringstream ugnirt_log_ss;                        \
      ugnirt_log_ss << expr;                                   \
      ::ugnirt::log_message(level, ugnirt_log_ss.str());       \
    }                                                          \
  } while (0)

#define UGNIRT_TRACELOG(expr) UGNIRT_LOG(::ugnirt::LogLevel::kTrace, expr)
#define UGNIRT_DEBUG(expr) UGNIRT_LOG(::ugnirt::LogLevel::kDebug, expr)
#define UGNIRT_INFO(expr) UGNIRT_LOG(::ugnirt::LogLevel::kInfo, expr)
#define UGNIRT_WARN(expr) UGNIRT_LOG(::ugnirt::LogLevel::kWarn, expr)
#define UGNIRT_ERROR(expr) UGNIRT_LOG(::ugnirt::LogLevel::kError, expr)
