// The overlay that reads config structs from the environment.
//
// Every tunable in the machine model (latencies, bandwidths, thresholds,
// crossovers) lives in a config struct that names each knob once, in a
// `fields(v)` member calling `v("name", field)` per knob, under the key
// prefix `kConfigPrefix`.  `overlay_env` reads knob "<prefix>.<name>"
// from UGNIRT_<PREFIX>_<NAME>, so experiments and ablations can override
// any knob without recompiling.
#pragma once

#include <concepts>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <type_traits>
#include <utility>

namespace ugnirt {

/// Parse `text` into `out` over the full range of out's type (bools:
/// 1/0/true/false/yes/no/on/off, any case; integers: strtoll base 0, no
/// sign if unsigned).  Malformed or out of range: false, `out` untouched.
bool parse_into(const std::string& text, bool& out);
bool parse_into(const std::string& text, double& out);
bool parse_into(const std::string& text, std::string& out);
bool parse_into(const std::string& text, std::int64_t& out);
bool parse_into(const std::string& text, std::uint64_t& out);

template <std::integral I>
bool parse_into(const std::string& text, I& out) {
  std::conditional_t<std::is_signed_v<I>, std::int64_t, std::uint64_t> wide;
  if (!parse_into(text, wide) || !std::in_range<I>(wide)) return false;
  out = static_cast<I>(wide);
  return true;
}

/// "fault.p_post_error" -> "UGNIRT_FAULT_P_POST_ERROR".
std::string to_env_name(const std::string& key);

/// Overlay each knob of `t` that the environment sets, then run
/// t.sanitize() if `t` has one.  Other knobs keep their value.
template <class T>
void overlay_env(T& t) {
  t.fields([&](const char* name, auto& field) {
    const std::string key = std::string(T::kConfigPrefix) + "." + name;
    if (const char* v = std::getenv(to_env_name(key).c_str())) {
      parse_into(v, field);
    }
  });
  if constexpr (requires { t.sanitize(); }) t.sanitize();
}

}  // namespace ugnirt
