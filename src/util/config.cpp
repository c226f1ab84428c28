#include "util/config.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>

namespace ugnirt {

namespace {

/// Store strto*(text) in `out` only if it consumed all of `text` in range.
template <class T, class Strto>
bool parse_number(const std::string& text, T& out, Strto strto) {
  errno = 0;
  char* end = nullptr;
  const auto v = strto(text.c_str(), &end);
  if (errno != 0 || end == text.c_str() || *end != '\0') return false;
  out = v;
  return true;
}

}  // namespace

bool parse_into(const std::string& text, bool& out) {
  std::string v;
  for (unsigned char c : text) v.push_back(static_cast<char>(std::tolower(c)));
  const bool yes = v == "1" || v == "true" || v == "yes" || v == "on";
  if (!yes && v != "0" && v != "false" && v != "no" && v != "off") return false;
  out = yes;
  return true;
}

bool parse_into(const std::string& text, double& out) {
  return parse_number(
      text, out, [](const char* s, char** e) { return std::strtod(s, e); });
}

bool parse_into(const std::string& text, std::string& out) {
  out = text;
  return true;
}

bool parse_into(const std::string& text, std::int64_t& out) {
  return parse_number(
      text, out, [](const char* s, char** e) { return std::strtoll(s, e, 0); });
}

bool parse_into(const std::string& text, std::uint64_t& out) {
  // strtoull would wrap "-1" to the maximum; unsigned knobs take no sign.
  if (text.find('-') != std::string::npos) return false;
  return parse_number(text, out, [](const char* s, char** e) {
    return std::strtoull(s, e, 0);
  });
}

std::string to_env_name(const std::string& key) {
  std::string out = "UGNIRT_";
  for (unsigned char c : key) {
    const bool sep = c == '.' || c == '-';
    out.push_back(sep ? '_' : static_cast<char>(std::toupper(c)));
  }
  return out;
}

}  // namespace ugnirt
