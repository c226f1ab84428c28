// Test helpers over a config struct's fields() list: print every knob as
// text that parse_into reads back exactly, and write a struct into a
// Config (the inverse of overlay).
#pragma once

#include <concepts>
#include <cstdio>
#include <map>
#include <string>

#include "util/config.hpp"

namespace ugnirt {

inline std::string format_field(bool v) { return v ? "true" : "false"; }
inline std::string format_field(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}
inline std::string format_field(const std::string& v) { return v; }
template <std::integral I>
std::string format_field(I v) {
  return std::to_string(v);
}

/// Every knob of `t`, as "<prefix>.<name>" -> exact text.
template <class T>
std::map<std::string, std::string> field_values(T t) {
  std::map<std::string, std::string> out;
  t.fields([&](const char* name, auto& field) {
    out[std::string(T::kConfigPrefix) + "." + name] = format_field(field);
  });
  return out;
}

template <class T>
void write_fields(const T& t, Config& cfg) {
  for (const auto& [key, value] : field_values(t)) cfg.set(key, value);
}

}  // namespace ugnirt
