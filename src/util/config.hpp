// Key=value configuration store, and the overlay that reads config
// structs from it or from the environment.
//
// Every tunable in the machine model (latencies, bandwidths, thresholds,
// crossovers) lives in a config struct that names each knob once, in a
// `fields(v)` member calling `v("name", field)` per knob, under the key
// prefix `kConfigPrefix`.  `overlay` reads "<prefix>.<name>" from a Config
// (e.g. a file) and `overlay_env` reads UGNIRT_<PREFIX>_<NAME>, so
// experiments and ablations can override any constant without
// recompiling.
#pragma once

#include <concepts>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <optional>
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

class Config {
 public:
  /// Parse "key = value" lines; '#' starts a comment; blank lines ignored.
  /// Returns false (and records an error) on malformed input.
  bool parse_string(const std::string& text);
  bool parse_file(const std::string& path);

  void set(const std::string& key, const std::string& value);

  std::optional<std::string> get_string(const std::string& key) const;

  const std::string& last_error() const { return error_; }
  std::size_t size() const { return values_.size(); }

  /// Deterministic (sorted) dump used by tests and experiment logs.
  std::string dump() const;

 private:
  std::map<std::string, std::string> values_;
  std::string error_;
};

/// "fault.p_post_error" -> "UGNIRT_FAULT_P_POST_ERROR".
std::string to_env_name(const std::string& key);

namespace detail {
template <class T, class Get>
void overlay_with(T& t, Get&& get) {
  t.fields([&](const char* name, auto& field) {
    if (auto s = get(std::string(T::kConfigPrefix) + "." + name)) {
      parse_into(*s, field);
    }
  });
  if constexpr (requires { t.sanitize(); }) t.sanitize();
}
}  // namespace detail

/// Overlay each knob of `t` that `cfg` (or, for overlay_env, the environment)
/// sets, then run t.sanitize() if `t` has one.  Other knobs keep their value.
template <class T>
void overlay(T& t, const Config& cfg) {
  detail::overlay_with(t,
                       [&](const std::string& k) { return cfg.get_string(k); });
}

template <class T>
void overlay_env(T& t) {
  detail::overlay_with(t, [](const std::string& k) {
    const char* v = std::getenv(to_env_name(k).c_str());
    return v ? std::optional<std::string>(v) : std::nullopt;
  });
}

}  // namespace ugnirt
