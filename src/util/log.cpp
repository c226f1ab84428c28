#include "util/log.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace ugnirt {

namespace {

LogLevel initial_threshold() {
  const char* env = std::getenv("UGNIRT_LOG");
  if (!env) return LogLevel::kWarn;
  if (std::strcmp(env, "trace") == 0) return LogLevel::kTrace;
  if (std::strcmp(env, "debug") == 0) return LogLevel::kDebug;
  if (std::strcmp(env, "info") == 0) return LogLevel::kInfo;
  if (std::strcmp(env, "warn") == 0) return LogLevel::kWarn;
  if (std::strcmp(env, "error") == 0) return LogLevel::kError;
  if (std::strcmp(env, "off") == 0) return LogLevel::kOff;
  return LogLevel::kWarn;
}


const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace:
      return "TRACE";
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kOff:
      return "OFF";
  }
  return "?";
}

LogContextProvider g_context_provider = nullptr;

}  // namespace

LogLevel log_threshold() {
  static const LogLevel level = initial_threshold();
  return level;
}

void set_log_context_provider(LogContextProvider provider) {
  g_context_provider = provider;
}

void log_message(LogLevel level, const std::string& msg) {
  char prefix[64];
  long long t_ns = 0;
  int pe = 0;
  if (g_context_provider && g_context_provider(&t_ns, &pe)) {
    std::snprintf(prefix, sizeof(prefix), "[ugnirt %s t=%lldns pe=%d]",
                  level_name(level), t_ns, pe);
  } else {
    std::snprintf(prefix, sizeof(prefix), "[ugnirt %s]", level_name(level));
  }
  std::fprintf(stderr, "%s %s\n", prefix, msg.c_str());
}

}  // namespace ugnirt
