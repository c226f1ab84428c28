#include "util/config.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace ugnirt {

namespace {

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

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

bool Config::parse_string(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    line = trim(line);
    if (line.empty()) continue;
    auto eq = line.find('=');
    if (eq == std::string::npos) {
      error_ = "line " + std::to_string(lineno) + ": missing '='";
      return false;
    }
    std::string key = trim(line.substr(0, eq));
    std::string value = trim(line.substr(eq + 1));
    if (key.empty()) {
      error_ = "line " + std::to_string(lineno) + ": empty key";
      return false;
    }
    values_[key] = value;
  }
  return true;
}

bool Config::parse_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    error_ = "cannot open " + path;
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse_string(ss.str());
}

void Config::set(const std::string& key, const std::string& value) {
  values_[key] = value;
}

std::optional<std::string> Config::get_string(const std::string& key) const {
  auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string Config::dump() const {
  std::ostringstream out;
  for (const auto& [k, v] : values_) out << k << " = " << v << "\n";
  return out.str();
}

}  // namespace ugnirt
